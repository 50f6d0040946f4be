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
//!   dispatcher's skipped sweeps charge the lanes it has, and the
//!   notify of each attach hands it the core back;
//! * close and shutdown of a handle that has idled to the ladder's cap;
//! * responses that overrun a small response ring: the dispatch shard —
//!   a stepper, which may not wait — defers them and retries, and drops
//!   them after the timeout when the client's head never moves;
//! * a leader held on a full request ring while another thread of the
//!   handle leads on another lane: two flushes in progress on what is,
//!   under the lab, one OS thread;
//! * two dispatch shards whose partition is re-cut under traffic: each
//!   shard idles on its own doorbell, which moves with the request rings
//!   it polls;
//! * a connection of one shard closing while the other shard serves
//!   traffic: the detach waits for both shards to adopt the topology
//!   without it;
//! * a periodic thread-scheduling pass that falls due while the response
//!   dispatcher sleeps: its idle round's deadline wakes it;
//! * threads registering at once on a lazy handle: the ones behind an
//!   attach wait for it on the dispatcher's event;
//! * more one-sided reads in flight than a thread has scratch sub-slots:
//!   the surplus waits for a completion to release one;
//! * a `recv_rpc` waiting when the server shuts down: the stop ends it;
//! * and, lab alone, an idle server: its shards cost no heap operation
//!   while they wait.
//!
//! Since PR 17 the reference also runs every stepper (NIC lanes,
//! dispatch shards, response dispatchers) on a thread of its own, and
//! since PR 18 it is the only run in which a task is an OS thread at
//! all, so the same comparison checks the lab's inline driver and its
//! stack switching.

use std::sync::Arc;
use std::time::Duration;

use flock_core::client::{ConnectionHandle, FlThread, HandleConfig};
use flock_core::onesided::{OneSidedReader, SegmentWriter, SlotLayout};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{FlockDomain, FlockError};
use flock_fabric::FabricConfig;
use flock_sim::vtime::{LabReport, VirtualLab};
use flock_sync::{clock, Stop};
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
            s.messages.get(),
            s.requests.get(),
            s.response_messages.get(),
            s.responses.get(),
        );
        handle.close().expect("close");
        server.shutdown(&domain);
        (times, stats)
    });
    let (times, stats) = times;
    let (_, requests, response_messages, responses) = stats;
    assert_eq!(requests, (THREADS * WINDOW * ROUNDS) as u64);
    assert_eq!(responses, requests);
    assert!(response_messages < responses, "no response was coalesced");
    assert!(times.iter().all(|t| t.len() == WINDOW * ROUNDS));
    assert!(report.elided_polls > report.handovers / 4, "{report:?}");
    // No stack for a NIC lane (two per node, two nodes), the dispatch
    // shard or the response dispatcher, which also runs the thread
    // scheduler: the tasks with one are the application's six,
    // `fl-accept` and `fl-qpsched`.
    assert_eq!(report.stepper_tasks, 2 * 2 + 1 + 1, "{report:?}");
    assert_eq!(
        report.tasks_spawned - report.stepper_tasks,
        THREADS as u64 + 2,
        "{report:?}"
    );
    // Busy steppers step inline and idle ones not at all: the lab slept
    // through many times the polls it ran.
    assert!(
        report.elided_polls > 10 * (report.handovers + report.inline_steps),
        "{report:?}"
    );
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
        // credits and its wait for the grant ends in a typed timeout,
        // which answers the request as soon as its send returns.
        server.shutdown(&domain);
        let t0 = clock::now_ns();
        let t = &threads[0];
        let err = loop {
            let seq = t.send_rpc(RPC_ECHO, b"unanswered").expect("send");
            if let Some(answered) = t.try_recv_res(seq) {
                break answered.expect_err("a reply after the shutdown");
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
        let degree = handle.metrics().degree;
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

#[test]
fn a_shutdown_ends_a_pending_recv_rpc() {
    // Nobody sends the receiver anything, and its timeout is 50 ms: the
    // stop, 10 µs in, ends its wait at the next 1 µs poll.
    let ((got, stopped_at, returned), _) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-recv-srv");
        let server = FlockServer::listen(&domain, &node, "pe-recv", ServerConfig::default());
        let server = Arc::new(server);
        let stopped_at = Arc::new(Mutex::new(0));
        let stopper = {
            let (domain, server) = (Arc::clone(&domain), Arc::clone(&server));
            let stopped_at = Arc::clone(&stopped_at);
            clock::spawn("stopper", move || {
                clock::sleep_ns(10_000);
                *stopped_at.lock() = clock::now_ns();
                server.shutdown(&domain);
            })
        };
        let got = server.recv_rpc(Duration::from_millis(50));
        let returned = clock::now_ns();
        stopper.join().expect("stopper");
        let stopped_at = *stopped_at.lock();
        (got.map(|rpc| rpc.data), stopped_at, returned)
    });
    assert_eq!(got, None);
    assert!(
        (stopped_at..=stopped_at + 2_000).contains(&returned),
        "recv_rpc returned at {returned} ns, the shutdown began at {stopped_at} ns"
    );
}

const RPC_BLOAT: u32 = 2;
/// Ring capacity of the two ring-full scenarios, both sides: eight
/// 256-byte responses.
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
        let done = Arc::new(Stop::new());
        clock::flush_charge(); // set-up cost is not part of the scenario
        let mut out = on_tasks(2, move |i| {
            let t = &threads[i];
            let mut times = Vec::new();
            if i == 1 {
                // The server learns that the client has freed ring space
                // from the next request only: a one-byte call every few
                // microseconds keeps telling it.
                while !done.is_set() {
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
            // The beat polls the flag between calls: nobody waits on it.
            done.set([]);
            times
        });
        let s = server.stats();
        let counts = (s.response_ring_full.get(), s.responses.get());
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
        let ring_full = server.stats().response_ring_full.get();
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

#[test]
fn a_re_cut_of_two_shards_under_traffic_matches_the_reference() {
    const CALLS: usize = 60;
    let ((times, closed_at, requests, recuts), report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-cut-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        scfg.sched_interval = Duration::from_micros(20);
        let server = FlockServer::listen(&domain, &node, "pe-cut", scfg);
        server.reg_handler(RPC_ECHO, |req| req.to_vec());
        // Three connections, one thread each, assigned round-robin: shard
        // 0 serves the first and the third, shard 1 the second, which
        // calls only after the first closed.
        let mut handles: Vec<ConnectionHandle> = (0..3)
            .map(|c| {
                let cli = domain.add_node(&format!("pe-cut-cli{c}"));
                let cfg = HandleConfig::default();
                ConnectionHandle::connect(&domain, &cli, "pe-cut", cfg).expect("connect")
            })
            .collect();
        let threads: Vec<_> = handles.iter().map(|h| h.register_thread()).collect();
        clock::flush_charge(); // set-up cost is not part of the scenario
        let closed = Arc::new(clock::Barrier::new());
        let callers: Vec<_> = threads
            .into_iter()
            .enumerate()
            .map(|(c, t)| {
                let out = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&out);
                let calls = if c == 0 { CALLS / 3 } else { CALLS };
                let closed = Arc::clone(&closed);
                let task = clock::spawn(&format!("caller{c}"), move || {
                    if c == 1 {
                        closed.wait();
                    }
                    for k in 0..calls {
                        let payload = [c as u8, k as u8];
                        assert_eq!(&t.call(RPC_ECHO, &payload).expect("call")[..], &payload);
                        sink.lock().push(clock::now_ns());
                    }
                });
                (task, out)
            })
            .collect();
        let mut callers = callers.into_iter();
        let (first, first_times) = callers.next().expect("caller 0");
        first.join().expect("caller 0");
        // The third is mid-run: a weighing re-cut the partition by the
        // requests served, which moved one of the two busy connections to
        // the idle shard while its calls were in flight. The second starts
        // now, beside whichever shares its shard.
        let closed_at = clock::now_ns();
        handles[0].close().expect("close");
        closed.open();
        let mut times = vec![std::mem::take(&mut *first_times.lock())];
        for (task, out) in callers {
            task.join().expect("caller");
            times.push(std::mem::take(&mut *out.lock()));
        }
        let requests = server.stats().requests.get();
        let recuts = server.stats().dispatch_recuts.get();
        for mut handle in handles.drain(1..) {
            handle.close().expect("close");
        }
        server.shutdown(&domain);
        (times, closed_at, requests, recuts)
    });
    assert_eq!(requests, (CALLS / 3 + 2 * CALLS) as u64);
    assert!(recuts >= 1, "no re-cut");
    let (late, moved) = (&times[1], &times[2]);
    assert_eq!((late.len(), moved.len()), (CALLS, CALLS));
    assert!(closed_at < late[0], "{closed_at} {late:?}");
    assert!(
        moved[0] < closed_at && closed_at < moved[CALLS - 1],
        "{closed_at} {moved:?}"
    );
    assert!(report.elided_polls > report.handovers, "{report:?}");
}

#[test]
fn a_close_under_traffic_on_two_shards_matches_the_reference() {
    const CALLS: usize = 40;
    let ((times, closed_at, requests), _) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-close-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        let server = FlockServer::listen(&domain, &node, "pe-close", scfg);
        server.reg_handler(RPC_ECHO, |req| req.to_vec());
        // Assigned round-robin: the survivor's connection to shard 0, the
        // closing one's to shard 1.
        let mut handles: Vec<ConnectionHandle> = (0..2)
            .map(|c| {
                let cli = domain.add_node(&format!("pe-close-cli{c}"));
                let cfg = HandleConfig::default();
                ConnectionHandle::connect(&domain, &cli, "pe-close", cfg).expect("connect")
            })
            .collect();
        let survivor = handles[0].register_thread();
        let closing = handles[1].register_thread();
        clock::flush_charge(); // set-up cost is not part of the scenario
        let times = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&times);
        let task = clock::spawn("survivor", move || {
            for k in 0..CALLS {
                let payload = [0, k as u8];
                let resp = survivor.call(RPC_ECHO, &payload).expect("call");
                assert_eq!(&resp[..], &payload);
                sink.lock().push(clock::now_ns());
            }
        });
        for k in 0..CALLS / 4 {
            let payload = [1, k as u8];
            let resp = closing.call(RPC_ECHO, &payload).expect("call");
            assert_eq!(&resp[..], &payload);
        }
        // The detach waits for both shards to adopt the topology without
        // the closing connection while shard 0 serves the survivor.
        let closed_at = clock::now_ns();
        handles[1].close().expect("close");
        task.join().expect("survivor");
        let times = std::mem::take(&mut *times.lock());
        let requests = server.stats().requests.get();
        handles[0].close().expect("close");
        server.shutdown(&domain);
        (times, closed_at, requests)
    });
    assert_eq!(requests, (CALLS + CALLS / 4) as u64);
    assert_eq!(times.len(), CALLS);
    assert!(
        times[0] < closed_at && closed_at < times[CALLS - 1],
        "{closed_at} {times:?}"
    );
}

#[test]
fn a_scheduling_pass_due_while_the_dispatcher_sleeps_matches_the_reference() {
    const INTERVAL_NS: u64 = 2_000_000;
    let ((before, after), report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-pass-srv");
        let server = FlockServer::listen(&domain, &node, "pe-pass", ServerConfig::default());
        server.reg_handler(RPC_ECHO, |req| req.to_vec());

        let mut cfg = HandleConfig::default();
        cfg.n_qps = 2;
        cfg.eager_qps = true;
        cfg.sched_interval = Duration::from_nanos(INTERVAL_NS);
        let cli = domain.add_node("pe-pass-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe-pass", cfg).expect("connect");
        let due = clock::now_ns() + INTERVAL_NS;
        // Round-robin: threads 0 and 2 start on lane 0, thread 1 on lane 1.
        let threads: Vec<_> = (0..3).map(|_| handle.register_thread()).collect();
        let call = |t: &FlThread, round: u8| {
            let resp = t.call(RPC_ECHO, &[round; 32]).expect("call");
            assert_eq!(&resp[..], &[round; 32]);
        };
        for round in 0..10 {
            threads.iter().for_each(|t| call(t, round));
        }
        assert!(clock::now_ns() < due, "the pass fell due under traffic");
        // Equal loads, packed by bytes in thread order: threads 0 and 1
        // fill lane 0's quota, thread 2 gets lane 1. The pass falls due
        // while nothing is in flight and the dispatcher sleeps; nobody
        // moves before their next send, and the first to send — thread 2,
        // before any response could wake the dispatcher — moves at once.
        clock::sleep_ns(INTERVAL_NS);
        let before: Vec<usize> = threads.iter().map(|t| t.current_qp()).collect();
        threads.iter().rev().for_each(|t| call(t, 10));
        let after: Vec<usize> = threads.iter().map(|t| t.current_qp()).collect();
        handle.close().expect("close");
        server.shutdown(&domain);
        (before, after)
    });
    assert_eq!(before, [0, 1, 0]);
    assert_eq!(after, [0, 0, 1]);
    // The pass ran in a stepper: the only tasks with a stack are the
    // server's `fl-accept` and `fl-qpsched`.
    assert_eq!(report.tasks_spawned - report.stepper_tasks, 2, "{report:?}");
    assert!(report.elided_polls > 500, "{report:?}");
}

#[test]
fn threads_registering_at_once_on_a_lazy_handle_match_the_reference() {
    const THREADS: usize = 4;
    let ((lanes, materialized), _) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-lazy-srv");
        let server = FlockServer::listen(&domain, &node, "pe-lazy", ServerConfig::default());
        server.reg_handler(RPC_ECHO, |req| req.to_vec());

        // Lazy lanes: every registration but the first attaches one, and
        // the ones behind the attach in progress wait for it.
        let cfg = HandleConfig::default();
        let cli = domain.add_node("pe-lazy-cli");
        let handle = ConnectionHandle::connect(&domain, &cli, "pe-lazy", cfg).expect("connect");
        let handle = Arc::new(handle);
        let lanes = {
            let handle = Arc::clone(&handle);
            on_tasks(THREADS, move |i| {
                let t = handle.register_thread();
                assert_eq!(&t.call(RPC_ECHO, &[i as u8]).expect("call")[..], &[i as u8]);
                t.current_qp()
            })
        };
        let materialized = handle.materialized_qps();
        let mut handle = Arc::try_unwrap(handle).ok().expect("the tasks are done");
        handle.close().expect("close");
        server.shutdown(&domain);
        (lanes, materialized)
    });
    let mut lanes = lanes;
    lanes.sort_unstable();
    assert_eq!(lanes, [0, 1, 2, 3]);
    assert_eq!(materialized, THREADS);
}

#[test]
fn more_reads_in_flight_than_scratch_sub_slots_match_the_reference() {
    // Twice a thread's eight sub-slots: the ninth read waits for the
    // first completion to free one.
    const READS: usize = 16;
    let (values, _) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-slots-srv");
        let server = FlockServer::listen(&domain, &node, "pe-slots", ServerConfig::default());
        let idx = server.attach_mreg(READS * 8);
        let mr = server.mem_region(idx).expect("region");
        for k in 0..READS {
            mr.write_u64(k * 8, k as u64 * 7).expect("write");
        }
        let cli = domain.add_node("pe-slots-cli");
        let cfg = HandleConfig::default();
        let mut handle =
            ConnectionHandle::connect(&domain, &cli, "pe-slots", cfg).expect("connect");
        let t = handle.register_thread();
        let tokens: Vec<_> = (0..READS)
            .map(|k| t.read_async(idx, k as u64 * 8, 8).expect("read"))
            .collect();
        let values: Vec<u64> = tokens
            .into_iter()
            .map(|token| {
                let bytes = t.wait_mem(token).expect("wait");
                u64::from_le_bytes(bytes[..].try_into().expect("8 bytes"))
            })
            .collect();
        handle.close().expect("close");
        server.shutdown(&domain);
        values
    });
    assert_eq!(values, (0..READS as u64).map(|k| k * 7).collect::<Vec<_>>());
}

/// A two-shard server with one connected handle, idle for `idle_ns`
/// between the connect and the close: what the lab's run cost.
fn idle_server(idle_ns: u64) -> LabReport {
    VirtualLab::run_report(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("pe-idle-srv");
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        // No redistribution, and no client thread scheduling, inside the
        // idle stretch: nothing in the scenario runs on a timer.
        scfg.sched_interval = Duration::from_secs(1);
        let server = FlockServer::listen(&domain, &node, "pe-idle", scfg);
        let mut cfg = HandleConfig::default();
        cfg.auto_thread_sched = false;
        let cli = domain.add_node("pe-idle-cli");
        let mut handle = ConnectionHandle::connect(&domain, &cli, "pe-idle", cfg).expect("connect");
        clock::sleep_ns(idle_ns);
        handle.close().expect("close");
        server.shutdown(&domain);
    })
    .1
}

#[test]
fn an_idle_server_costs_no_heap_operation_per_poll() {
    // Dispatch shards, response dispatcher and NIC lanes all sleep on
    // their doorbells: ten times the idle time, ten times the polls slept
    // through (1 µs apart for each shard), and not one heap push more.
    let (short, long) = (idle_server(1_000_000), idle_server(10_000_000));
    assert!(
        long.elided_polls > short.elided_polls + 2 * 9_000,
        "{short:?} {long:?}"
    );
    assert_eq!(short.heap_pushes, long.heap_pushes, "{short:?} {long:?}");
}
