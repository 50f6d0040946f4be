//! Connection-churn benchmark: the elastic control plane (pooled QPs,
//! cached MRs, lazy lanes, graceful detach) measured inside the
//! deterministic virtual-time lab
//! ([`VirtualLab`](flock_sim::vtime::VirtualLab)).
//!
//! Three scenarios, each a pure function of its configuration (two runs
//! render byte-identical JSON, which `flock-bench --check` relies on):
//!
//! 1. **Connect storm** — a cohort of clients dials one server at once,
//!    twice. The first wave hits empty pools (every QP created, every MR
//!    registered at Swift cost); the second wave reuses what the first
//!    wave's `fl_disconnect` recycled. Reported as time-to-first-RPC
//!    (TTFR: connect + thread registration + first echo), cold vs warm.
//! 2. **Steady churn under load** — a fixed cohort drives pipelined RPCs
//!    for a fixed virtual duration while churner clients connect, issue a
//!    few requests, and detach in a loop; every churner round ends inside
//!    that window. The same workload runs once more without churners; the
//!    p99 disturbance ratio says what connection churn costs established
//!    traffic.
//! 3. **Server scale-out** — two eager multi-QP senders split a MAX_AQP
//!    budget; one departs mid-run. The survivor's active-QP share before
//!    and after shows the departing sender's share migrating at detach
//!    (not at the next utilization epoch).

use std::sync::Arc;

use flock_core::api::fl_connect;
use flock_core::client::{FlThread, HandleConfig};
use flock_core::server::ServerConfig;
use flock_core::FlockDomain;
use flock_sync::{clock, Stop};
use parking_lot::Mutex;

use crate::json::{float, object, Value};
use crate::lab::{self, elastic_fabric, Bed, LabCost, Samples, Until};
use crate::stats::{percentile_us, Handoff};
use crate::SuiteRun;

/// Knobs shared by the three scenarios.
#[derive(Debug, Clone, Copy)]
pub struct ChurnWorkload {
    /// Clients in each connect-storm wave.
    pub storm_clients: usize,
    /// Established clients driving load during the churn scenario.
    pub steady_clients: usize,
    /// Virtual µs the steady cohort drives load for, from the moment the
    /// churners start; long enough to cover every churner round.
    pub steady_us: u64,
    /// Pipelined requests in flight per steady client.
    pub window: usize,
    /// Churner clients cycling connect → RPC → disconnect.
    pub churners: usize,
    /// Connect/disconnect cycles per churner.
    pub churn_rounds: usize,
    /// Request payload bytes (echoed back).
    pub payload: usize,
}

impl ChurnWorkload {
    /// Scenario sizes for a sweep: test smoke (`quick`) or the
    /// checked-in `BENCH_churn.json`.
    pub fn preset(quick: bool) -> ChurnWorkload {
        if quick {
            ChurnWorkload {
                storm_clients: 6,
                steady_clients: 3,
                steady_us: 1_500,
                window: 4,
                churners: 2,
                churn_rounds: 2,
                payload: 32,
            }
        } else {
            ChurnWorkload {
                storm_clients: 24,
                steady_clients: 6,
                steady_us: 3_000,
                window: 4,
                churners: 4,
                churn_rounds: 5,
                payload: 32,
            }
        }
    }
}

/// NIC lanes per node of the elastic fabric (the configuration under
/// test; the cold wave measures the miss path through the same code).
const NIC_LANES: usize = 2;

/// RPCs a churner issues per connection.
const CHURNER_CALLS: u64 = 4;

/// Handle configuration for short-lived churn clients: lazy lanes (the
/// default) and a minimal one-sided scratch region, so connection setup
/// is dominated by the control-plane work under test.
fn churn_handle_cfg() -> HandleConfig {
    let mut cfg = HandleConfig::default();
    cfg.mem_threads = 1;
    cfg
}

// ---------------------------------------------------------------------
// Scenario 1: connect storm
// ---------------------------------------------------------------------

/// Measured outcome of the connect-storm scenario.
#[derive(Debug, Clone)]
pub struct StormOutcome {
    /// Clients per wave.
    pub clients: usize,
    /// Cold-wave TTFR median/p99 (virtual µs): empty pools, every
    /// control verb at full Swift cost, storm queueing included.
    pub cold_median_us: f64,
    /// Cold-wave p99 TTFR (virtual µs).
    pub cold_p99_us: f64,
    /// Warm-wave TTFR median/p99 (virtual µs): QPs leased from the
    /// pool, rings from the MR cache.
    pub warm_median_us: f64,
    /// Warm-wave p99 TTFR (virtual µs).
    pub warm_p99_us: f64,
    /// `cold_median / warm_median` — the headline speedup.
    pub warm_speedup: f64,
    /// Warm QP leases observed on the server node (pool hits).
    pub server_warm_leases: u64,
    /// What the run cost the lab.
    pub cost: LabCost,
}

/// One storm wave: every client dials, registers a thread, and completes
/// one echo RPC; TTFR is the whole span. Clients then disconnect
/// gracefully so the next wave finds warm pools. Returns the TTFRs
/// (ns), ascending.
fn storm_wave(
    domain: &Arc<FlockDomain>,
    nodes: &[Arc<flock_fabric::Node>],
    wave: usize,
    payload: usize,
) -> Vec<u64> {
    let ttfrs: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut tasks = Vec::with_capacity(nodes.len());
    for (c, node) in nodes.iter().enumerate() {
        let domain = Arc::clone(domain);
        let node = Arc::clone(node);
        let ttfrs = Arc::clone(&ttfrs);
        tasks.push(clock::spawn(&format!("storm-{wave}-{c}"), move || {
            let t0 = clock::now_ns();
            let mut handle =
                fl_connect(&domain, &node, "churn-storm", churn_handle_cfg()).expect("connect");
            let t = handle.register_thread();
            let req = vec![c as u8; payload];
            let resp = t.call(1, &req).expect("first rpc");
            debug_assert_eq!(resp.len(), payload);
            let ttfr = clock::now_ns().saturating_sub(t0);
            drop(t);
            handle.close().expect("disconnect");
            ttfrs.lock().push(ttfr);
        }));
    }
    lab::join(tasks);
    let mut ttfrs = std::mem::take(&mut *ttfrs.lock());
    ttfrs.sort_unstable();
    ttfrs
}

/// Run the connect-storm scenario in a fresh lab.
pub fn run_storm(w: ChurnWorkload) -> StormOutcome {
    let ((cold, warm, server_warm_leases), cost) = lab::run(move || {
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 1;
        let bed = Bed::echo(elastic_fabric(NIC_LANES), "storm-srv", "churn-storm", scfg);

        let nodes: Vec<_> = (0..w.storm_clients)
            .map(|c| bed.domain.add_node(&format!("storm-c{c}")))
            .collect();

        // Wave 1: every pool empty — the full Swift control-plane cost,
        // serialized through the server's control loop like a real
        // connect storm. Wave 2: the same clients reconnect into the
        // resources wave 1 recycled.
        let cold = storm_wave(&bed.domain, &nodes, 0, w.payload);
        let warm = storm_wave(&bed.domain, &nodes, 1, w.payload);

        let server_warm_leases = bed.node.pool().stats().warm.get();
        drop(nodes);
        bed.close();
        (cold, warm, server_warm_leases)
    });
    let cold_median_us = percentile_us(&cold, 0.5);
    let warm_median_us = percentile_us(&warm, 0.5);
    StormOutcome {
        clients: w.storm_clients,
        cold_median_us,
        cold_p99_us: percentile_us(&cold, 0.99),
        warm_median_us,
        warm_p99_us: percentile_us(&warm, 0.99),
        warm_speedup: if warm_median_us > 0.0 {
            cold_median_us / warm_median_us
        } else {
            0.0
        },
        server_warm_leases,
        cost,
    }
}

// ---------------------------------------------------------------------
// Scenario 2: steady traffic under connection churn
// ---------------------------------------------------------------------

/// Measured outcome of the churn-under-load scenario.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Established clients driving load.
    pub steady_clients: usize,
    /// Churner clients cycling connect/disconnect.
    pub churners: usize,
    /// Completed connect → RPC → disconnect cycles.
    pub churn_events: u64,
    /// When the last cycle completed, virtual µs into the steady window.
    pub last_churn_us: f64,
    /// Steady-cohort requests completed under churn.
    pub steady_reqs: u64,
    /// Steady-cohort p99 latency with no churn (virtual µs).
    pub baseline_p99_us: f64,
    /// Steady-cohort p99 latency under churn (virtual µs).
    pub churn_p99_us: f64,
    /// Steady-cohort median with no churn (virtual µs).
    pub baseline_median_us: f64,
    /// Steady-cohort median under churn (virtual µs).
    pub churn_median_us: f64,
    /// `churn_p99 / baseline_p99` — the disturbance headline.
    pub disturbance_ratio: f64,
    /// RPCs completed over both runs: steady cohorts and churners.
    pub rpcs: u64,
    /// What the churn run cost the lab.
    pub cost: LabCost,
    /// What the run without churners cost the lab.
    pub baseline: LabCost,
}

/// One measured run: steady cohort latencies, optionally with churners.
/// Returns (the cohort's merged samples, churn events, ns from the start
/// of the steady window to the last churn event) and the run's cost.
fn churn_run(w: ChurnWorkload, with_churn: bool) -> ((Samples, u64, u64), LabCost) {
    lab::run(move || {
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        scfg.sched_interval = std::time::Duration::from_micros(200);
        let bed = Bed::echo(elastic_fabric(NIC_LANES), "churn-srv", "churn-load", scfg);

        // The start gate: the steady window opens with it.
        let gate = Arc::new(clock::Barrier::new());
        let results: Arc<Mutex<Vec<Samples>>> = Arc::new(Mutex::new(Vec::new()));

        let mut tasks = Vec::new();
        for c in 0..w.steady_clients {
            let domain = Arc::clone(&bed.domain);
            let gate = Arc::clone(&gate);
            let results = Arc::clone(&results);
            tasks.push(clock::spawn(&format!("steady-{c}"), move || {
                let node = domain.add_node(&format!("steady-c{c}"));
                let handle =
                    fl_connect(&domain, &node, "churn-load", churn_handle_cfg()).expect("connect");
                let t = handle.register_thread();
                gate.arrive();
                let deadline = gate.wait() + w.steady_us * 1_000;
                let payload = vec![c as u8; w.payload];
                let samples = lab::drive(&t, &payload, w.window, Until::Deadline(deadline));
                results.lock().push(samples);
            }));
        }

        // The instant of every churn event (a churner's close returned).
        let churned: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        if with_churn {
            for k in 0..w.churners {
                let domain = Arc::clone(&bed.domain);
                let gate = Arc::clone(&gate);
                let churned = Arc::clone(&churned);
                tasks.push(clock::spawn(&format!("churner-{k}"), move || {
                    let node = domain.add_node(&format!("churner-c{k}"));
                    gate.wait();
                    for round in 0..w.churn_rounds {
                        let mut handle =
                            fl_connect(&domain, &node, "churn-load", churn_handle_cfg())
                                .expect("churner connect");
                        let t = handle.register_thread();
                        let payload = vec![(k + round) as u8; w.payload];
                        lab::drive(&t, &payload, 1, Until::Requests(CHURNER_CALLS));
                        drop(t);
                        handle.close().expect("churner disconnect");
                        churned.lock().push(clock::now_ns());
                        clock::sleep_ns(20_000);
                    }
                }));
            }
        }

        gate.wait_arrived(w.steady_clients);
        let start = gate.open();
        lab::join(tasks);
        bed.close();

        let steady = Samples::merge(&*results.lock());
        let churned = std::mem::take(&mut *churned.lock());
        let last_churn_ns = churned
            .iter()
            .max()
            .map_or(0, |at| at.saturating_sub(start));
        (steady, churned.len() as u64, last_churn_ns)
    })
}

/// Run the churn-under-load scenario: once with churners, once without,
/// same steady workload.
///
/// # Panics
///
/// If a churner round ends after the steady window: `steady_us` no
/// longer covers the churn, and the ratio would measure quiet time.
pub fn run_churn_load(w: ChurnWorkload) -> ChurnOutcome {
    let ((churn, events, last_churn_ns), cost) = churn_run(w, true);
    let ((base, _, _), baseline) = churn_run(w, false);
    assert!(
        last_churn_ns < w.steady_us * 1_000,
        "the last churn event at {last_churn_ns} ns lands after the {} µs steady window",
        w.steady_us
    );
    let baseline_p99_us = percentile_us(&base.lats, 0.99);
    let churn_p99_us = percentile_us(&churn.lats, 0.99);
    ChurnOutcome {
        steady_clients: w.steady_clients,
        churners: w.churners,
        churn_events: events,
        last_churn_us: last_churn_ns as f64 / 1e3,
        steady_reqs: churn.ops,
        baseline_p99_us,
        churn_p99_us,
        baseline_median_us: percentile_us(&base.lats, 0.5),
        churn_median_us: percentile_us(&churn.lats, 0.5),
        disturbance_ratio: if baseline_p99_us > 0.0 {
            churn_p99_us / baseline_p99_us
        } else {
            0.0
        },
        rpcs: churn.ops + base.ops + events * CHURNER_CALLS,
        cost,
        baseline,
    }
}

// ---------------------------------------------------------------------
// Scenario 3: server scale-out / AQP migration on departure
// ---------------------------------------------------------------------

/// Measured outcome of the scale-out scenario.
#[derive(Debug, Clone)]
pub(crate) struct ScaleOutOutcome {
    /// The server's MAX_AQP budget.
    pub max_aqp: usize,
    /// QPs per sender.
    pub n_qps: usize,
    /// Survivor's active QPs while both senders share the budget.
    pub survivor_active_before: usize,
    /// Total active QPs while both senders run.
    pub total_active_before: usize,
    /// Survivor's active QPs after the other sender detached.
    pub survivor_active_after: usize,
    /// Total active QPs after the departure.
    pub total_active_after: usize,
    /// The server's deactivation hand-off over the run.
    pub handoff: Handoff,
    /// RPCs the two senders completed.
    pub rpcs: u64,
    /// What the run cost the lab.
    pub cost: LabCost,
}

/// Run the scale-out scenario: two eager 4-QP senders under a 4-QP
/// budget; the second departs mid-run and the survivor's share grows.
pub(crate) fn run_scaleout(payload: usize) -> ScaleOutOutcome {
    const MAX_AQP: usize = 4;
    const N_QPS: usize = 4;
    let ((active, handoff, rpcs), cost) = lab::run(move || {
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 1;
        scfg.sched.max_aqp = MAX_AQP;
        scfg.sched_interval = std::time::Duration::from_micros(100);
        let bed = Bed::echo(elastic_fabric(NIC_LANES), "so-srv", "scaleout", scfg);
        let (domain, server) = (&bed.domain, &bed.server);

        let mut hcfg = churn_handle_cfg();
        hcfg.n_qps = N_QPS;
        hcfg.eager_qps = true;
        hcfg.mem_threads = 4;

        // Two symmetric senders, four threads each, driving until told
        // to stop; the budget forces a 2/2 active-QP split. The
        // survivor's handle stays in this task (it is only dropped, not
        // closed) so its active-QP view can be sampled directly; the
        // departing sender owns its handle so it can `close` it.
        let stop_a = Arc::new(Stop::new());
        let stop_b = Arc::new(Stop::new());
        let rpcs = Arc::new(Mutex::new(0u64));
        // One sender thread: echo requests one at a time until `stop`.
        let sender = move |t: FlThread, byte: u8, stop: Arc<Stop>, rpcs: Arc<Mutex<u64>>| {
            move || {
                let buf = vec![byte; payload];
                let done = lab::drive(&t, &buf, 1, Until::Stopped(&stop)).ops;
                *rpcs.lock() += done;
            }
        };

        let node_a = domain.add_node("so-a");
        let handle_a =
            Arc::new(fl_connect(domain, &node_a, "scaleout", hcfg.clone()).expect("connect a"));
        let mut a_workers = Vec::new();
        for i in 0..4 {
            let t = handle_a.register_thread();
            let body = sender(t, 0xAA, Arc::clone(&stop_a), Arc::clone(&rpcs));
            a_workers.push(clock::spawn(&format!("so-a-{i}"), body));
        }

        let node_b = domain.add_node("so-b");
        let b_task = {
            let domain = Arc::clone(domain);
            let hcfg = hcfg.clone();
            let (stop, rpcs) = (Arc::clone(&stop_b), Arc::clone(&rpcs));
            clock::spawn("so-b", move || {
                let mut handle = fl_connect(&domain, &node_b, "scaleout", hcfg).expect("connect b");
                let threads: Vec<_> = (0..4).map(|_| handle.register_thread()).collect();
                let mut workers = Vec::new();
                for (i, t) in threads.into_iter().enumerate() {
                    let body = sender(t, 0xBB, Arc::clone(&stop), Arc::clone(&rpcs));
                    workers.push(clock::spawn(&format!("so-b-{i}"), body));
                }
                lab::join(workers);
                handle.close().expect("disconnect b");
            })
        };

        // Sample while both senders are live and several redistribution
        // epochs have passed.
        clock::sleep_ns(500_000);
        let survivor_active_before = handle_a.active_qps();
        let total_active_before = server.active_qps();

        // B departs: its workers stop, then its handle detaches
        // gracefully, releasing its AQP share at the detach.
        stop_b.set([]);
        let _ = b_task.join();
        // Give the scheduler a few epochs to re-grant the freed share to
        // the survivor (the client's view updates on the next grant).
        clock::sleep_ns(600_000);
        let survivor_active_after = handle_a.active_qps();
        let total_active_after = server.active_qps();

        stop_a.set([]);
        lab::join(a_workers);
        drop(
            Arc::try_unwrap(handle_a)
                .ok()
                .expect("survivor workers joined"),
        );
        let handoff = Handoff::of(server);
        bed.close();
        let active = [
            survivor_active_before,
            total_active_before,
            survivor_active_after,
            total_active_after,
        ];
        let rpcs = *rpcs.lock();
        (active, handoff, rpcs)
    });
    let [survivor_active_before, total_active_before, survivor_active_after, total_active_after] =
        active;
    ScaleOutOutcome {
        max_aqp: MAX_AQP,
        n_qps: N_QPS,
        survivor_active_before,
        total_active_before,
        survivor_active_after,
        total_active_after,
        handoff,
        rpcs,
        cost,
    }
}

// ---------------------------------------------------------------------
// Sweep + JSON
// ---------------------------------------------------------------------

/// Run all three scenarios and render the stable-order JSON document.
pub fn run_suite(quick: bool) -> SuiteRun {
    let w = ChurnWorkload::preset(quick);
    let storm = run_storm(w);
    let churn = run_churn_load(w);
    let so = run_scaleout(w.payload);
    SuiteRun {
        doc: render(quick, w, &storm, &churn, &so),
        // Each storm client's first RPC, in both waves.
        ops: 2 * storm.clients as u64 + churn.rpcs + so.rpcs,
        cost: storm.cost + churn.cost + churn.baseline + so.cost,
    }
}

fn render(
    quick: bool,
    w: ChurnWorkload,
    storm: &StormOutcome,
    churn: &ChurnOutcome,
    so: &ScaleOutOutcome,
) -> Value {
    object(vec![
        ("schema", "flock-bench-churn/v1".into()),
        ("quick", quick.into()),
        ("executor", "virtual".into()),
        ("payload_bytes", w.payload.into()),
        (
            "storm",
            storm.cost.object(vec![
                ("clients", storm.clients.into()),
                ("cold_ttfr_median_us", float(storm.cold_median_us, 2)),
                ("cold_ttfr_p99_us", float(storm.cold_p99_us, 2)),
                ("warm_ttfr_median_us", float(storm.warm_median_us, 2)),
                ("warm_ttfr_p99_us", float(storm.warm_p99_us, 2)),
                ("warm_speedup", float(storm.warm_speedup, 3)),
                ("server_warm_leases", storm.server_warm_leases.into()),
            ]),
        ),
        (
            "churn",
            churn.cost.object(vec![
                ("steady_clients", churn.steady_clients.into()),
                ("steady_us", w.steady_us.into()),
                ("window", w.window.into()),
                ("steady_reqs", churn.steady_reqs.into()),
                ("churners", churn.churners.into()),
                ("churn_events", churn.churn_events.into()),
                ("last_churn_us", float(churn.last_churn_us, 2)),
                ("baseline_median_us", float(churn.baseline_median_us, 2)),
                ("baseline_p99_us", float(churn.baseline_p99_us, 2)),
                ("churn_median_us", float(churn.churn_median_us, 2)),
                ("churn_p99_us", float(churn.churn_p99_us, 2)),
                ("disturbance_ratio", float(churn.disturbance_ratio, 3)),
                ("baseline", churn.baseline.row()),
            ]),
        ),
        (
            "scaleout",
            so.cost.object(vec![
                ("max_aqp", so.max_aqp.into()),
                ("n_qps", so.n_qps.into()),
                ("survivor_active_before", so.survivor_active_before.into()),
                ("total_active_before", so.total_active_before.into()),
                ("survivor_active_after", so.survivor_active_after.into()),
                ("total_active_after", so.total_active_after.into()),
                ("handoff", so.handoff.row()),
            ]),
        ),
    ])
}
