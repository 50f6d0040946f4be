//! `VirtualLab` does not run a waiting task's polls while its `Event`
//! is un-notified; these scenarios check that against the reference
//! run, in which every poll executes on its task and a change nobody
//! announced panics (`VirtualLab::run_against_reference`): same
//! application-visible fingerprint, same final clock, every elided poll
//! one of the reference's handovers.
//!
//! * echo fan-in: a window of requests per thread, coalesced responses;
//! * one-sided reads on dedicated per-thread mem QPs;
//! * credit renewal with `max_aqp` below the QP count: a lane is
//!   deactivated, and a renewal nobody answers times out;
//! * eight threads on one QP: TCQ followers wake on the hand-off only;
//! * an idle handle whose lanes attach one by one: the response
//!   dispatcher's re-armed sweeps charge the lanes it has, and the
//!   `lane_count` notify hands it the core back;
//! * close and shutdown of a handle that has idled to the ladder's cap;
//! * responses that overrun a small response ring: the dispatch shard —
//!   a stepper, which may not wait — defers them and retries, and drops
//!   them after the timeout when the client's head never moves;
//! * a leader held on a full request ring while another thread of the
//!   handle leads on another lane: two flushes in progress on what is,
//!   under the lab, one OS thread.
//!
//! Since PR 17 the reference also runs every stepper (NIC lanes,
//! dispatch shards, response dispatchers) on a thread of its own, and
//! since PR 18 it is the only run in which a task is an OS thread at
//! all, so the same comparison checks the lab's inline driver and its
//! stack switching.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use flock_core::client::{ConnectionHandle, HandleConfig};
use flock_core::onesided::{OneSidedReader, SegmentWriter, SlotLayout};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{FlockDomain, FlockError};
use flock_fabric::FabricConfig;
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;
use parking_lot::Mutex;

const RPC_ECHO: u32 = 1;

/// Run `body(thread index)` on `n` virtual tasks and collect what each
/// returns, in thread order.
fn on_tasks<T: Send + 'static>(
    n: usize,
    body: impl Fn(usize) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let body = Arc::new(body);
    let out: Arc<Mutex<Vec<Option<T>>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let tasks: Vec<_> = (0..n)
        .map(|i| {
            let (body, out) = (Arc::clone(&body), Arc::clone(&out));
            clock::spawn(&format!("t{i}"), move || {
                let r = body(i);
                out.lock()[i] = Some(r);
            })
        })
        .collect();
    for t in tasks {
        t.join().expect("task");
    }
    let mut out = out.lock();
    out.iter_mut().map(|r| r.take().expect("result")).collect()
}

#[test]
fn echo_fan_in_with_a_window_matches_the_reference() {
    const THREADS: usize = 6;
    const WINDOW: usize = 4;
    const ROUNDS: usize = 5;
    let (times, report) = VirtualLab::run_against_reference(|| {
        // 2 µs handlers on one worker: requests queue up behind it, so
        // responses leave coalesced.
        let mut fab = FabricConfig::default();
        fab.cost.app_handler_ns = 2_000;
        let domain = Arc::new(FlockDomain::new(fab));
        let node = domain.add_node("pe-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 1;
        let server = FlockServer::listen(&domain, &node, "pe", scfg);
        server.reg_handler(RPC_ECHO, |req| req.to_vec());

        let mut cfg = HandleConfig::default();
        cfg.n_qps = 2;
        let cli = domain.add_node("pe-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe", cfg).expect("connect");
        let threads: Vec<_> = (0..THREADS).map(|_| handle.register_thread()).collect();
        let threads = Arc::new(threads);
        let times = on_tasks(THREADS, move |i| {
            let t = &threads[i];
            let mut done = Vec::new();
            for round in 0..ROUNDS {
                let seqs: Vec<u64> = (0..WINDOW)
                    .map(|w| {
                        let payload = [i as u8, round as u8, w as u8];
                        t.send_rpc(RPC_ECHO, &payload).expect("send")
                    })
                    .collect();
                for (w, seq) in seqs.into_iter().enumerate() {
                    let resp = t.recv_res(seq).expect("recv");
                    assert_eq!(&resp[..], &[i as u8, round as u8, w as u8]);
                    done.push(clock::now_ns());
                }
            }
            done
        });
        let s = server.stats();
        let stats = (
            s.messages.load(Relaxed),
            s.requests.load(Relaxed),
            s.response_messages.load(Relaxed),
            s.responses.load(Relaxed),
        );
        let lanes = domain.fabric().config().nic_lanes.max(1) as u64;
        handle.close().expect("close");
        server.shutdown(&domain);
        (times, stats, lanes)
    });
    let (times, stats, lanes) = (times.0, times.1, times.2);
    let (_, requests, response_messages, responses) = stats;
    assert_eq!(requests, (THREADS * WINDOW * ROUNDS) as u64);
    assert_eq!(responses, requests);
    assert!(response_messages < responses, "no response was coalesced");
    assert!(times.iter().all(|t| t.len() == WINDOW * ROUNDS));
    assert!(report.elided_polls > report.handovers / 4, "{report:?}");
    // No OS thread for a NIC lane (two nodes), the dispatch shard or the
    // response dispatcher: the threads are the application's six, and
    // `fl-accept`, `fl-qpsched` and `fl-thread-sched`.
    assert_eq!(report.stepper_tasks, 2 * lanes + 1 + 1, "{report:?}");
    assert_eq!(
        report.tasks_spawned - report.stepper_tasks,
        THREADS as u64 + 3,
        "{report:?}"
    );
    assert!(report.inline_steps > report.handovers, "{report:?}");
}

#[test]
fn one_sided_reads_on_dedicated_qps_match_the_reference() {
    const THREADS: usize = 3;
    const SLOTS: u32 = 16;
    let (times, report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-os-srv");
        let server = FlockServer::listen(&domain, &node, "pe-os", ServerConfig::default());
        let layout = SlotLayout::for_value_cap(64);
        let idx = server.attach_mreg(layout.stride as usize * SLOTS as usize);
        let mr = server.mem_region(idx).expect("region");
        let writer = SegmentWriter::new(mr, 0, layout, SLOTS).expect("writer");
        server
            .export_segment("values", idx, layout.stride, SLOTS, 64)
            .expect("export");
        for s in 0..SLOTS {
            writer.publish(s, format!("value-{s}").as_bytes()).unwrap();
        }

        let mut cfg = HandleConfig::default();
        cfg.dedicated_mem_qps = true;
        let cli = domain.add_node("pe-os-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe-os", cfg).expect("connect");
        let lease = handle.fetch_exports(Some("values")).unwrap().remove(0);
        let threads: Vec<_> = (0..THREADS).map(|_| handle.register_thread()).collect();
        let threads = Arc::new(threads);
        let times = on_tasks(THREADS, move |i| {
            let t = &threads[i];
            let mut reader = OneSidedReader::new(lease.clone()).unwrap();
            let mut buf = vec![0u8; reader.layout().stride as usize];
            let mut done = Vec::new();
            for k in 0..24u32 {
                let slot = (k * 5 + i as u32) % SLOTS;
                let v = reader.read_slot(t, slot, &mut buf).expect("read");
                assert_eq!(
                    &buf[SlotLayout::HEADER..SlotLayout::HEADER + v.len],
                    format!("value-{slot}").as_bytes()
                );
                done.push(clock::now_ns());
            }
            assert_eq!(reader.stats().failures, 0);
            done
        });
        handle.close().expect("close");
        server.shutdown(&domain);
        times
    });
    assert!(times.iter().all(|t| t.len() == 24));
    assert!(report.elided_polls > report.handovers / 4, "{report:?}");
}

#[test]
fn credit_renewal_below_the_qp_count_matches_the_reference() {
    const THREADS: usize = 4;
    let ((times, active, timed_out_after), report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-cr-srv");
        let mut scfg = ServerConfig::default();
        scfg.sched.max_aqp = 2;
        scfg.sched.grant_size = 8; // a renewal every few calls
        scfg.sched_interval = Duration::from_micros(100);
        let server = FlockServer::listen(&domain, &node, "pe-cr", scfg);
        server.reg_handler(RPC_ECHO, |req| req.to_vec());

        let mut cfg = HandleConfig::default();
        cfg.n_qps = 4;
        cfg.eager_qps = true;
        cfg.sched_interval = Duration::from_micros(100);
        cfg.timeout = Duration::from_micros(300);
        let cli = domain.add_node("pe-cr-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe-cr", cfg).expect("connect");
        let threads: Vec<_> = (0..THREADS).map(|_| handle.register_thread()).collect();
        let threads = Arc::new(threads);
        let times = {
            let threads = Arc::clone(&threads);
            on_tasks(THREADS, move |i| {
                let t = &threads[i];
                (0..80u32)
                    .map(|k| {
                        let resp = t.call(RPC_ECHO, &k.to_le_bytes()).expect("call");
                        assert_eq!(&resp[..], &k.to_le_bytes());
                        clock::now_ns()
                    })
                    .collect::<Vec<u64>>()
            })
        };
        let active = (server.active_qps(), handle.active_qps());

        // Nobody answers renewals any more: the sender runs out of
        // credits and its wait for the grant ends in a typed timeout.
        server.shutdown(&domain);
        let t0 = clock::now_ns();
        let t = &threads[0];
        let err = loop {
            match t.send_rpc(RPC_ECHO, b"unanswered") {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FlockError::Timeout), "{err:?}");
        let timed_out_after = clock::now_ns() - t0;
        handle.shutdown();
        (times, active, timed_out_after)
    });
    assert!(times.iter().all(|t| t.len() == 80));
    let (server_active, client_active) = active;
    assert!(server_active <= 2, "server kept {server_active} QPs active");
    assert!(client_active < 4, "no lane was deactivated on the client");
    // A few sends on the last credits, then the grant wait: one poll
    // per 1 µs of the 300 µs timeout.
    assert!(
        (300_000..310_000).contains(&timed_out_after),
        "{timed_out_after}"
    );
    assert!(report.elided_polls > 250, "{report:?}");
}

#[test]
fn tcq_followers_on_one_qp_match_the_reference() {
    const THREADS: usize = 8;
    const CALLS: usize = 40;
    let ((times, degree), report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-tcq-srv");
        let server = FlockServer::listen(&domain, &node, "pe-tcq", ServerConfig::default());
        server.reg_handler(RPC_ECHO, |req| req.to_vec());

        let mut cfg = HandleConfig::default();
        cfg.n_qps = 1;
        let cli = domain.add_node("pe-tcq-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe-tcq", cfg).expect("connect");
        let threads: Vec<_> = (0..THREADS).map(|_| handle.register_thread()).collect();
        let threads = Arc::new(threads);
        let times = on_tasks(THREADS, move |i| {
            let t = &threads[i];
            (0..CALLS)
                .map(|k| {
                    let payload = [i as u8, k as u8];
                    let resp = t.call(RPC_ECHO, &payload).expect("call");
                    assert_eq!(&resp[..], &payload);
                    clock::now_ns()
                })
                .collect::<Vec<u64>>()
        });
        let degree = handle.mean_coalescing_degree();
        handle.close().expect("close");
        server.shutdown(&domain);
        (times, degree)
    });
    assert!(times.iter().all(|t| t.len() == CALLS));
    assert!(
        degree > 2.0,
        "threads did not queue up behind a leader: {degree}"
    );
    // A follower's 50 ns spin rounds outnumber everything that runs.
    assert!(report.elided_polls > report.handovers, "{report:?}");
}

#[test]
fn lanes_attached_to_an_idle_handle_match_the_reference() {
    const LANES: usize = 3;
    let (times, report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-grow-srv");
        let server = FlockServer::listen(&domain, &node, "pe-grow", ServerConfig::default());
        server.reg_handler(RPC_ECHO, |req| req.to_vec());

        let mut cfg = HandleConfig::default();
        cfg.n_qps = LANES;
        cfg.eager_qps = false;
        let cli = domain.add_node("pe-grow-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe-grow", cfg).expect("connect");
        let mut times = Vec::new();
        for lane in 0..LANES {
            // Long enough for the dispatcher to idle at its cap, sweeping
            // the lanes attached so far; then thread `lane` attaches lane
            // `lane` and echoes once over it.
            clock::sleep_ns(40_000);
            let t = handle.register_thread();
            assert_eq!(handle.materialized_qps(), lane + 1);
            assert_eq!(t.current_qp(), lane);
            times.push(clock::now_ns());
            let resp = t.call(RPC_ECHO, &[lane as u8]).expect("call");
            assert_eq!(&resp[..], &[lane as u8]);
            times.push(clock::now_ns());
        }
        clock::sleep_ns(40_000);
        handle.close().expect("close");
        server.shutdown(&domain);
        times.push(clock::now_ns());
        times
    });
    assert_eq!(times.len(), 2 * LANES + 1);
    // Four idle stretches of 40 µs on a 1 µs ladder cap.
    assert!(report.elided_polls > 100, "{report:?}");
}

#[test]
fn stopping_an_idle_handle_matches_the_reference() {
    let (times, report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-stop-srv");
        let server = FlockServer::listen(&domain, &node, "pe-stop", ServerConfig::default());
        let cli = domain.add_node("pe-stop-cli");
        let connect = || {
            let cfg = HandleConfig::default();
            ConnectionHandle::connect(&domain, &cli, "pe-stop", cfg).expect("connect")
        };
        // One handle is closed (detach round trip, then the stop), the
        // other only shut down; both dispatchers sleep at the cap by then.
        let (mut closed, mut stopped) = (connect(), connect());
        clock::sleep_ns(100_000);
        closed.close().expect("close");
        let after_close = clock::now_ns();
        stopped.shutdown();
        let after_shutdown = clock::now_ns();
        server.shutdown(&domain);
        (after_close, after_shutdown, clock::now_ns())
    });
    assert!(times.0 > 100_000 && times.1 >= times.0 && times.2 >= times.1);
    assert!(report.elided_polls > 100, "{report:?}");
}

const RPC_BLOAT: u32 = 2;
/// Ring capacity of the two ring-full scenarios, both sides (a handle's
/// staging mirrors the server's rings): eight 256-byte responses.
const SMALL_RING: usize = 2048;
const BLOATED: usize = 200;

/// A server whose `RPC_BLOAT` answers an 8-byte request with
/// `BLOATED` bytes, and one single-lane handle, on [`SMALL_RING`] rings.
fn small_ring_pair(
    name: &str,
    timeout: Duration,
) -> (Arc<FlockDomain>, FlockServer, ConnectionHandle) {
    let domain = Arc::new(FlockDomain::with_defaults());
    let node = domain.add_node(&format!("{name}-srv"));
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = 1;
    scfg.ring_capacity = SMALL_RING;
    scfg.timeout = timeout;
    // No credit renewal within a test: a grant is a response-ring
    // message too, and a sender out of credits sends no request that
    // could tell the server of freed ring space.
    scfg.sched.grant_size = 4096;
    let server = FlockServer::listen(&domain, &node, name, scfg);
    server.reg_handler(RPC_BLOAT, |req| vec![req[0]; BLOATED]);

    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1;
    cfg.ring_capacity = SMALL_RING;
    cfg.timeout = timeout;
    let cli = domain.add_node(&format!("{name}-cli"));
    let handle = ConnectionHandle::connect(&domain, &cli, name, cfg).expect("connect");
    (domain, server, handle)
}

#[test]
fn responses_overrunning_the_response_ring_are_deferred_and_all_arrive() {
    const WINDOW: usize = 12;
    const CALLS: usize = 60;
    let ((times, beats, ring_full, responses), report) = VirtualLab::run_against_reference(|| {
        let (domain, server, mut handle) = small_ring_pair("pe-full", Duration::from_millis(10));
        server.reg_handler(RPC_ECHO, |req| req.to_vec());
        let threads = Arc::new([handle.register_thread(), handle.register_thread()]);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        clock::flush_charge(); // set-up cost is not part of the scenario
        let mut out = on_tasks(2, move |i| {
            let t = &threads[i];
            let mut times = Vec::new();
            if i == 1 {
                // The server learns that the client has freed ring space
                // from the next request only: a one-byte call every few
                // microseconds keeps telling it.
                while !done.load(Relaxed) {
                    assert_eq!(&t.call(RPC_ECHO, b"b").expect("beat")[..], b"b");
                    times.push(clock::now_ns());
                    clock::sleep_ns(2_000);
                }
                return times;
            }
            // A sliding window of twelve calls: their answers are 3 KiB,
            // the ring holds 2, so the shard has to keep responses back
            // — without waiting, it is a stepper — and retry when a
            // request brings a fresher head.
            let mut inflight = std::collections::VecDeque::new();
            for k in 0..CALLS + WINDOW {
                if k >= WINDOW {
                    let (tag, seq) = inflight.pop_front().expect("window");
                    let resp = t.recv_res(seq).expect("every call completes");
                    assert_eq!(&resp[..], &[tag; BLOATED]);
                    times.push(clock::now_ns());
                }
                if k < CALLS {
                    let tag = k as u8;
                    let seq = t.send_rpc(RPC_BLOAT, &[tag; 8]).expect("send");
                    inflight.push_back((tag, seq));
                }
            }
            done.store(true, Relaxed);
            times
        });
        let s = server.stats();
        let counts = (
            s.response_ring_full.load(Relaxed),
            s.responses.load(Relaxed),
        );
        handle.close().expect("close");
        server.shutdown(&domain);
        let beats = out.pop().expect("beats");
        (out.pop().expect("calls"), beats, counts.0, counts.1)
    });
    assert_eq!(times.len(), CALLS);
    assert_eq!(responses, (CALLS + beats.len()) as u64);
    assert!(ring_full > 0, "the response ring never filled");
    assert!(report.inline_steps > 0, "{report:?}");
}

#[test]
fn a_client_whose_ring_head_never_moves_gets_timeouts_not_a_hang() {
    const BURST: usize = 16;
    let ((outcomes, waited, ring_full), _) = VirtualLab::run_against_reference(|| {
        let (domain, server, mut handle) = small_ring_pair("pe-stuck", Duration::from_micros(300));
        let t = handle.register_thread();
        clock::flush_charge(); // set-up cost is not part of the scenario
                               // Sixteen requests at once and then silence: the client drains
                               // its ring, but no later request tells the server so. Eight
                               // answers fit; the shard holds the rest back for its 300 µs
                               // timeout and drops them, and their callers time out.
        let t0 = clock::now_ns();
        let seqs: Vec<u64> = (0..BURST)
            .map(|k| t.send_rpc(RPC_BLOAT, &[k as u8; 8]).expect("send"))
            .collect();
        let outcomes: Vec<bool> = seqs
            .into_iter()
            .map(|seq| match t.recv_res(seq) {
                Ok(resp) => {
                    assert_eq!(resp.len(), BLOATED);
                    true
                }
                Err(e) => {
                    assert!(matches!(e, FlockError::Timeout), "{e:?}");
                    false
                }
            })
            .collect();
        let waited = clock::now_ns() - t0;
        let ring_full = server.stats().response_ring_full.load(Relaxed);
        // The next request carries the head, and the lane works again.
        let resp = t.call(RPC_BLOAT, &[0xEE; 8]).expect("call after the drop");
        assert_eq!(&resp[..], &[0xEE; BLOATED]);
        handle.close().expect("close");
        server.shutdown(&domain);
        (outcomes, waited, ring_full)
    });
    let answered = outcomes.iter().filter(|ok| **ok).count();
    assert!((1..BURST).contains(&answered), "{outcomes:?}");
    // Answers arrive in order: the ones that fit, then the timeouts —
    // each a fresh 300 µs wait, none a hang.
    assert!(outcomes[..answered].iter().all(|ok| *ok), "{outcomes:?}");
    let timeouts = (BURST - answered) as u64;
    assert!(waited < (timeouts + 1) * 310_000, "{waited}");
    assert!(ring_full > 0, "the response ring never filled");
}

#[test]
fn a_second_leader_flushes_while_the_first_waits_for_ring_space() {
    const BIG: usize = 500;
    const BIG_SENDS: usize = 8;
    const SMALL_SENDS: usize = 20;
    let ((big_sends, small_sends), _) = VirtualLab::run_against_reference(|| {
        // 20 µs handlers on one worker: the request ring's head, which
        // comes back with the responses, moves that slowly.
        let mut fab = FabricConfig::default();
        fab.cost.app_handler_ns = 20_000;
        let domain = Arc::new(FlockDomain::new(fab));
        let node = domain.add_node("pe-lead-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 1;
        scfg.ring_capacity = SMALL_RING;
        scfg.sched.grant_size = 4096; // no credit wait: the ring is the limit
        let server = FlockServer::listen(&domain, &node, "pe-lead", scfg);
        server.reg_handler(RPC_ECHO, |req| req[..1].to_vec());

        let mut cfg = HandleConfig::default();
        cfg.n_qps = 2;
        cfg.ring_capacity = SMALL_RING;
        let cli = domain.add_node("pe-lead-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe-lead", cfg).expect("connect");
        // A lane each: each thread leads every batch it sends.
        let threads = Arc::new([handle.register_thread(), handle.register_thread()]);
        assert_eq!((threads[0].current_qp(), threads[1].current_qp()), (0, 1));
        clock::flush_charge(); // set-up cost is not part of the scenario
        let mut out = on_tasks(2, move |i| {
            let t = &threads[i];
            // Thread 0: 4 KiB of requests at once into a 2 KiB ring — its
            // flush sits in the ring-full yield loop until a response
            // brings a fresher head. Thread 1: a byte every 2 µs on the
            // other lane, all through that.
            let (sends, len, pause) = if i == 0 {
                (BIG_SENDS, BIG, 0)
            } else {
                (SMALL_SENDS, 1, 2_000)
            };
            let mut spans = Vec::new();
            let seqs: Vec<u64> = (0..sends)
                .map(|k| {
                    clock::sleep_ns(pause);
                    let t0 = clock::now_ns();
                    let seq = t.send_rpc(RPC_ECHO, &vec![k as u8; len]).expect("send");
                    spans.push((t0, clock::now_ns()));
                    seq
                })
                .collect();
            for (k, seq) in seqs.into_iter().enumerate() {
                assert_eq!(&t.recv_res(seq).expect("recv")[..], &[k as u8]);
            }
            spans
        });
        handle.close().expect("close");
        server.shutdown(&domain);
        let small = out.pop().expect("thread 1");
        (out.pop().expect("thread 0"), small)
    });
    // The scenario happened: one of thread 0's sends was held for at
    // least a handler's time, and thread 1 led whole flushes meanwhile.
    let held = big_sends
        .iter()
        .copied()
        .max_by_key(|(t0, t1)| t1 - t0)
        .expect("sends");
    assert!(held.1 - held.0 >= 15_000, "{big_sends:?}");
    let meanwhile = small_sends
        .iter()
        .filter(|(t0, t1)| held.0 < *t0 && *t1 < held.1)
        .count();
    assert!(meanwhile >= 2, "{held:?} {small_sends:?}");
}
