//! The deactivation hand-off (paper §5.1 meets §5.2) under `VirtualLab`:
//! when the QP scheduler takes a lane's slot away, the lane *drains* —
//! served on every sweep, exactly like an active one — until the client
//! has moved its threads off it and posted the `FLAG_DRAINED` marker,
//! and from then on it is *silent*: not probed at all until a grant
//! reactivates it.
//!
//! * drain latency: a request sent on the lane between the scheduler's
//!   decision and the client's receipt of the zero grant costs what the
//!   same request costs on an active lane, and the lane is silent within
//!   a stated bound of the notice;
//! * a marker that crosses a reactivation is ignored (drain epochs): the
//!   lane stays polled and every request is answered, with the lab's
//!   shortcuts checked against the reference run;
//! * a pipelined thread that never has zero requests outstanding keeps
//!   its lane draining, not silent, and is served on every sweep.
//!
//! All three run on one connection with a thread on lane 0 and a thread
//! on lane 1, against `max_aqp = 2` and one dispatch shard; the first
//! has a third lane, which starts outside the budget.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use flock_core::client::{ConnectionHandle, HandleConfig};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{FlThread, FlockDomain};
use flock_fabric::FabricConfig;
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

const RPC_ECHO: u32 = 1;
/// Redistribution interval. The rig's control plane is free (QP creation
/// and MR registration cost ≈ 1.6 ms by default), so the first
/// redistribution finds the threads already calling.
const INTERVAL_NS: u64 = 50_000;

struct Rig {
    domain: Arc<FlockDomain>,
    server: Arc<FlockServer>,
    handle: Arc<ConnectionHandle>,
    /// Thread 0 on lane 0, thread 1 on lane 1.
    threads: Vec<Arc<FlThread>>,
    /// Virtual instant the server (and its scheduler's first interval)
    /// started.
    t0: u64,
    /// Lanes already deactivated when the connection was accepted.
    outside_budget: u64,
}

/// `grant_size` decides how the scheduler sees the sender: with a grant
/// nobody uses up it is dormant (no renewal ever reports utilization)
/// and drops to one lane at the first redistribution; with a small one
/// every lane that carries traffic reports in every interval.
fn rig(name: &str, n_qps: usize, grant_size: u32) -> Rig {
    let mut fab = FabricConfig::default();
    fab.cost.ctrl_create_qp_ns = 0;
    fab.cost.ctrl_reg_mr_base_ns = 0;
    fab.cost.ctrl_reg_mr_ns_per_kb = 0;
    let domain = Arc::new(FlockDomain::new(fab));
    let node = domain.add_node(&format!("{name}-srv"));
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = 1;
    scfg.sched.max_aqp = 2;
    scfg.sched.grant_size = grant_size;
    scfg.sched_interval = Duration::from_nanos(INTERVAL_NS);
    let t0 = clock::now_ns();
    let server = Arc::new(FlockServer::listen(&domain, &node, name, scfg));
    server.reg_handler(RPC_ECHO, |req| req.to_vec());

    let mut cfg = HandleConfig::default();
    cfg.n_qps = n_qps;
    cfg.eager_qps = true;
    // The periodic pass stays out of it (its first comes after the last
    // call): whatever moves a thread in these tests is the pass the
    // response dispatcher runs at a grant.
    cfg.sched_interval = Duration::from_millis(1);
    let cli = domain.add_node(&format!("{name}-cli"));
    let handle = Arc::new(ConnectionHandle::connect(&domain, &cli, name, cfg).expect("connect"));
    let threads: Vec<_> = (0..2).map(|_| Arc::new(handle.register_thread())).collect();
    assert_eq!((threads[0].current_qp(), threads[1].current_qp()), (0, 1));
    // A third lane is outside the budget from the start (not by a
    // redistribution, so no notice: the client would learn it from a
    // declined renewal).
    let outside_budget = server.stats().deactivations.load(Relaxed);
    // What setup still costs is charged to this task: pay it now, not
    // at the caller's first sleep.
    clock::flush_charge();
    assert!(
        clock::now_ns() - t0 < INTERVAL_NS / 2,
        "set up before the first redistribution"
    );
    assert_eq!(outside_budget, n_qps as u64 - 2);
    Rig {
        domain,
        server,
        handle,
        threads,
        t0,
        outside_budget,
    }
}

impl Rig {
    /// Whether a redistribution has taken a lane's slot away.
    fn deactivated(&self) -> bool {
        self.server.stats().deactivations.load(Relaxed) > self.outside_budget
    }

    fn probes(&self, lane: usize) -> u64 {
        self.server
            .lane_probes(self.handle.sender_id(), lane)
            .expect("lane")
    }

    fn finish(self) {
        let Rig {
            domain,
            server,
            handle,
            threads,
            ..
        } = self;
        drop(threads);
        let mut handle = Arc::try_unwrap(handle).ok().expect("handle users joined");
        handle.close().expect("close");
        server.shutdown(&domain);
    }
}

fn sleep_until(at: u64) {
    clock::sleep_ns(at.saturating_sub(clock::now_ns()));
}

/// One sample of [`paced_calls`]: when the call was sent, what it took,
/// and whether it went out on lane 1 after the scheduler had taken that
/// lane's slot away.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Call {
    sent_at: u64,
    latency: u64,
    on_the_draining_lane: bool,
}

/// Echo once per `period` at the instants `start + k * period`, `n`
/// times.
fn paced_calls(rig: &Rig, thread: usize, start: u64, period: u64, n: u64) -> Vec<Call> {
    let t = &rig.threads[thread];
    (0..n)
        .map(|k| {
            sleep_until(start + k * period);
            let decided = rig.deactivated();
            let sent_at = clock::now_ns();
            let seq = t.send_rpc(RPC_ECHO, &k.to_le_bytes()).expect("send");
            let lane = t.current_qp();
            let resp = t.recv_res(seq).expect("recv");
            assert_eq!(&resp[..], &k.to_le_bytes());
            Call {
                sent_at,
                latency: clock::now_ns() - sent_at,
                on_the_draining_lane: decided && lane == 1,
            }
        })
        .collect()
}

/// What one run of the drain-latency scenario saw.
#[derive(Debug, PartialEq)]
struct DrainRun {
    /// Thread 0 (lane 0, never deactivated) and thread 1 (lane 1), the
    /// same call at the same instant.
    calls: [Vec<Call>; 2],
    /// Scheduler's decision → client's receipt of the zero grant.
    notice_ns: u64,
    /// Lane 1's probe count `SILENT_WITHIN_NS` after the notice, and
    /// 100 µs later.
    probes_then: u64,
    probes_later: u64,
    /// Lane 0's, at the same two instants.
    active_probes: (u64, u64),
    drains_completed: u64,
}

const PERIOD_NS: u64 = 8_000;
/// Stated bound: a thread leaves a deactivated lane at its first send
/// after the notice (one period at most), its marker is one doorbell and
/// one NIC hop behind the request before it, and the shard applies it on
/// the sweep that reads it.
const SILENT_WITHIN_NS: u64 = PERIOD_NS + 3_000;

fn drain_run(phase_ns: u64) -> DrainRun {
    // A grant nobody uses up: the sender reports nothing, so the first
    // redistribution leaves it one lane, lane 0.
    let rig = Arc::new(rig("drain", 3, 1 << 20));
    let start = rig.t0 + INTERVAL_NS - 5 * PERIOD_NS + phase_ns;
    assert!(start > clock::now_ns());
    let callers: Vec<_> = (0..2)
        .map(|i| {
            let (rig, out) = (
                Arc::clone(&rig),
                Arc::new(parking_lot::Mutex::new(Vec::new())),
            );
            let sink = Arc::clone(&out);
            let task = clock::spawn(&format!("caller{i}"), move || {
                *sink.lock() = paced_calls(&rig, i, start, PERIOD_NS, 40);
            });
            (task, out)
        })
        .collect();

    while !rig.deactivated() {
        clock::sleep_ns(100);
    }
    let decided = clock::now_ns();
    while rig.handle.active_qps() == 3 {
        clock::sleep_ns(100);
    }
    let noticed = clock::now_ns();
    sleep_until(noticed + SILENT_WITHIN_NS);
    let then = (rig.probes(1), rig.probes(0));
    clock::sleep_ns(100_000);
    let later = (rig.probes(1), rig.probes(0));

    let calls: Vec<Vec<Call>> = callers
        .into_iter()
        .map(|(task, out)| {
            task.join().expect("caller");
            std::mem::take(&mut *out.lock())
        })
        .collect();
    let drains_completed = rig.server.stats().drains_completed.load(Relaxed);
    Arc::try_unwrap(rig)
        .ok()
        .expect("rig users joined")
        .finish();
    DrainRun {
        calls: calls.try_into().expect("two callers"),
        notice_ns: noticed - decided,
        probes_then: then.0,
        probes_later: later.0,
        active_probes: (then.1, later.1),
        drains_completed,
    }
}

#[test]
fn a_deactivated_lane_serves_at_full_rate_then_goes_silent() {
    // The window between decision and notice is a few µs wide and the
    // callers send every 4 µs: slide the send instants across it.
    let mut in_window = 0;
    for phase_ns in (0..PERIOD_NS).step_by(500) {
        let run = VirtualLab::run(move || drain_run(phase_ns));
        let [on_active, on_drained] = &run.calls;
        for (a, d) in on_active.iter().zip(on_drained) {
            if d.on_the_draining_lane {
                in_window += 1;
                assert!(
                    d.latency <= a.latency + 1_500,
                    "phase {phase_ns}: sent at {} on the draining lane took {} ns, {} ns on the \
                     active one",
                    d.sent_at,
                    d.latency,
                    a.latency
                );
            }
            // (Neither caller ever fell behind its schedule.)
            assert_eq!(a.sent_at, d.sent_at);
        }
        assert!(run.notice_ns < 5_000, "{run:?}");
        // Silent: not one probe in 100 µs, while the active lane was
        // probed on every sweep.
        assert_eq!(run.probes_then, run.probes_later, "phase {phase_ns}");
        assert!(run.active_probes.1 > run.active_probes.0 + 100, "{run:?}");
        assert_eq!(run.drains_completed, 1);
    }
    assert!(
        in_window > 0,
        "no call was sent between decision and notice"
    );
}

/// What one run of the cap scenario saw.
#[derive(Debug, PartialEq)]
struct CapRun {
    /// Completion instants of thread 0's and thread 1's calls.
    done: [Vec<u64>; 2],
    deactivations: u64,
    drains_completed: u64,
    /// Lane 1's probe count when the run's last redistribution was 20 µs
    /// old, and 60 µs later.
    probes: (u64, u64),
    lane_of_thread_1: usize,
}

/// Tenant cap 1 takes lane 1's slot at the second redistribution (lane 0
/// reports twice the utilization, so it is the one kept). Thread 1 keeps
/// two requests in flight — never zero outstanding, so it stays — until
/// `leave_at` ns after that decision (`None`: until the end), then
/// lets them drain and sends again, which moves it and posts the marker.
/// With `lift_cap` the cap is gone before the third redistribution, which
/// reactivates lane 1.
fn cap_run(leave_at: Option<u64>, lift_cap: bool) -> CapRun {
    // A renewal every other request: every lane with traffic reports.
    let rig = Arc::new(rig("cap", 2, 4));
    let start = rig.t0 + 10_000;
    let end = rig.t0 + 3 * INTERVAL_NS + 80_000;
    // When the second redistribution took lane 1's slot (0: not yet).
    let decided_at = Arc::new(AtomicU64::new(0));

    let steady = {
        let rig = Arc::clone(&rig);
        let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&out);
        let n = (end - start) / 2_000;
        let task = clock::spawn("steady", move || {
            let calls = paced_calls(&rig, 0, start, 2_000, n);
            *sink.lock() = calls.iter().map(|c| c.sent_at + c.latency).collect();
        });
        (task, out)
    };
    let pipelined = {
        let (rig, decided_at) = (Arc::clone(&rig), Arc::clone(&decided_at));
        let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&out);
        let task = clock::spawn("pipelined", move || {
            let t = &rig.threads[1];
            let mut done = Vec::new();
            let mut recv = |seq: u64| {
                assert_eq!(&t.recv_res(seq).expect("recv")[..], &seq.to_le_bytes());
                done.push(clock::now_ns());
            };
            let send = |k: u64| {
                // Sequence numbers count from 1, one per send.
                assert_eq!(t.send_rpc(RPC_ECHO, &k.to_le_bytes()).expect("send"), k);
                k
            };
            let mut left = false;
            let mut k = 1;
            sleep_until(start);
            let mut in_flight = send(k);
            while clock::now_ns() < end {
                clock::sleep_ns(4_000);
                let decided_at = Some(decided_at.load(Relaxed)).filter(|&at| at > 0);
                let leave = leave_at.zip(decided_at).map(|(after, at)| at + after);
                if !left && leave.is_some_and(|at| clock::now_ns() + 4_000 > at) {
                    // Drain the pipeline, then send with nothing
                    // outstanding, at the chosen instant: the thread
                    // migrates and the lane's marker goes out.
                    recv(in_flight);
                    sleep_until(leave.expect("checked"));
                    k += 1;
                    in_flight = send(k);
                    left = true;
                    continue;
                }
                k += 1;
                let next = send(k);
                recv(in_flight);
                in_flight = next;
            }
            recv(in_flight);
            *sink.lock() = done;
        });
        (task, out)
    };

    sleep_until(rig.t0 + INTERVAL_NS + INTERVAL_NS / 2);
    rig.server.set_tenant_cap(0, 1);
    while !rig.deactivated() {
        clock::sleep_ns(100);
    }
    decided_at.store(clock::now_ns(), Relaxed);
    if lift_cap {
        rig.server.clear_tenant_cap(0);
    }
    sleep_until(rig.t0 + 3 * INTERVAL_NS + 20_000);
    let probes_then = rig.probes(1);
    clock::sleep_ns(60_000);
    let probes = (probes_then, rig.probes(1));

    let done: Vec<Vec<u64>> = [steady, pipelined]
        .into_iter()
        .map(|(task, out)| {
            task.join().expect("caller");
            std::mem::take(&mut *out.lock())
        })
        .collect();
    let stats = rig.server.stats();
    let (deactivations, drains_completed) = (
        stats.deactivations.load(Relaxed),
        stats.drains_completed.load(Relaxed),
    );
    let lane_of_thread_1 = rig.threads[1].current_qp();
    Arc::try_unwrap(rig)
        .ok()
        .expect("rig users joined")
        .finish();
    CapRun {
        done: done.try_into().expect("two callers"),
        deactivations,
        drains_completed,
        probes,
        lane_of_thread_1,
    }
}

#[test]
fn a_marker_that_crosses_a_reactivation_is_ignored() {
    // The third redistribution reactivates lane 1 one interval after the
    // second took its slot. Slide thread 1's departure (and with it the
    // marker) across that instant: early enough and the marker is
    // applied — the lane is silent until the grant — late enough and the
    // lane is active again before the marker is even posted. In between
    // the two cross.
    let mut outcomes = Vec::new();
    for step in 0..24 {
        let leave_at = INTERVAL_NS - 3_000 + step * 250;
        let run = VirtualLab::run(move || cap_run(Some(leave_at), true));
        // Every request answered (the callers assert each reply), and the
        // reactivated lane is polled whether or not the marker got in.
        assert_eq!(run.deactivations, 1, "step {step}: {run:?}");
        assert!(run.probes.1 > run.probes.0 + 50, "step {step}: {run:?}");
        outcomes.push((leave_at, run.drains_completed));
    }
    let applied = outcomes.iter().filter(|(_, drains)| *drains == 1).count();
    assert!(applied > 0, "the marker was never in time: {outcomes:?}");
    // Posted while the lane was still draining on the client, read after
    // the server had reactivated it: the first departure whose marker
    // came to nothing.
    let &(crossing, _) = outcomes
        .iter()
        .find(|(_, drains)| *drains == 0)
        .unwrap_or_else(|| panic!("the marker never crossed the reactivation: {outcomes:?}"));
    let (run, _) = VirtualLab::run_against_reference(move || cap_run(Some(crossing), true));
    assert_eq!(run.drains_completed, 0);
    assert!(run.probes.1 > run.probes.0 + 50, "{run:?}");
}

#[test]
fn a_pipelined_thread_keeps_its_lane_draining() {
    let run = VirtualLab::run(|| cap_run(None, false));
    assert_eq!((run.deactivations, run.drains_completed), (1, 0), "{run:?}");
    // Never zero outstanding, so never moved; served on every sweep, an
    // interval and more after the deactivation.
    assert_eq!(run.lane_of_thread_1, 1);
    assert!(run.probes.1 > run.probes.0 + 50, "{run:?}");
    let [steady, pipelined] = &run.done;
    assert!(steady.len() > 100 && pipelined.len() > 40, "{run:?}");
}
