//! Virtual-time scaling sweep: the *real* receive path — TCQ combining,
//! ring encode/poll, sharded dispatch with LPT rebalance, multi-lane NIC,
//! QP scheduler — executed inside `flock_sim`'s deterministic virtual-time
//! lab ([`VirtualLab`](flock_sim::vtime::VirtualLab)) so paper-scale
//! parallelism (dozens of dispatchers and NIC lanes, hundreds of client
//! threads) can be measured on any host, including a single CPU.
//!
//! Every configuration point spawns one virtual task per client thread,
//! per dispatcher, per NIC lane etc.; exactly one runs at a wall instant,
//! scheduled by `(virtual time, sequence)`, so a run is a pure function
//! of its configuration: two runs produce byte-identical JSON, which is
//! what lets `flock-bench --check` hold `BENCH_scale.json` to the tree.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use flock_core::api::fl_connect;
use flock_core::client::HandleConfig;
use flock_core::server::ServerConfig;
use flock_fabric::FabricConfig;
use flock_sync::clock;

use crate::json::{array, float, inline, object, Value};
use crate::lab::{self, Bed, LabCost, Samples, Until};
use crate::stats::percentile_us;
use crate::SuiteRun;

/// One configuration of the scaling surface.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Client machines (each its own fabric node with its own NIC lanes).
    pub clients: usize,
    /// Application threads per client machine (sharing the node's QPs).
    pub threads_per_node: usize,
    /// QPs per connection handle.
    pub n_qps: usize,
    /// Server dispatcher workers.
    pub dispatch_threads: usize,
    /// NIC lanes per node.
    pub nic_lanes: usize,
    /// QP-scheduler redistribution interval override in virtual µs
    /// (0 = the server default). Short runs need a short interval for
    /// the MAX_AQP cap to engage at all — the fan-in point sets this so
    /// the checked-in JSON shows the scheduler clawing back the
    /// registration-time overshoot (every sender keeps ≥ 1 QP, so
    /// registration may exceed the cap until the first redistribution).
    pub sched_interval_us: u64,
}

impl ScalePoint {
    /// Total issuing client threads at this point.
    pub(crate) fn client_threads(&self) -> usize {
        self.clients * self.threads_per_node
    }
}

/// Measured outcome of one point.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// The configuration measured.
    pub point: ScalePoint,
    /// RPCs completed inside the measured window.
    pub total_ops: u64,
    /// Virtual time from the go signal to the last client finishing.
    pub virtual_ms: f64,
    /// Throughput in RPCs per virtual second.
    pub ops_per_vsec: f64,
    /// Median request latency (virtual µs).
    pub median_us: f64,
    /// p99 request latency (virtual µs).
    pub p99_us: f64,
    /// Mean coalescing degree the server observed (requests/message).
    pub mean_degree: f64,
    /// Active QPs under the server's scheduler at the end of the run
    /// (shows the MAX_AQP cap engaging in the fan-in points).
    pub active_qps: usize,
    /// Total QPs the clients opened (`clients * n_qps`).
    pub total_qps: usize,
    /// What the point cost the lab.
    pub cost: LabCost,
}

/// Workload parameters shared by every point of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Requests each client thread issues.
    pub reqs_per_thread: u64,
    /// Pipelined requests in flight per thread.
    pub window: usize,
    /// Request payload bytes (echoed back).
    pub payload: usize,
}

impl Workload {
    /// Test smoke (`quick`) or the checked-in `BENCH_scale.json`.
    pub fn preset(quick: bool) -> Workload {
        Workload {
            reqs_per_thread: if quick { 8 } else { 24 },
            window: 8,
            payload: 32,
        }
    }
}

/// Run one configuration point inside a fresh lab.
pub fn run_point(p: ScalePoint, w: Workload) -> ScaleOutcome {
    let ((samples, mean_degree, active_qps), cost) = lab::run(move || {
        let mut fab_cfg = FabricConfig::default();
        fab_cfg.nic_lanes = p.nic_lanes;
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = p.dispatch_threads;
        if p.sched_interval_us > 0 {
            scfg.sched_interval = std::time::Duration::from_micros(p.sched_interval_us);
        }
        let bed = Bed::echo(fab_cfg, "scale-srv", "scale", scfg);

        let gate = Arc::new(clock::Barrier::new());
        let results: Arc<Mutex<Vec<Samples>>> = Arc::new(Mutex::new(Vec::new()));

        let mut node_tasks = Vec::with_capacity(p.clients);
        for c in 0..p.clients {
            let domain = Arc::clone(&bed.domain);
            let gate = Arc::clone(&gate);
            let results = Arc::clone(&results);
            node_tasks.push(clock::spawn(&format!("scale-node-{c}"), move || {
                let node = domain.add_node(&format!("scale-c{c}"));
                let mut cfg = HandleConfig::default();
                cfg.n_qps = p.n_qps;
                // The sweep measures the steady-state data plane: every
                // lane up front (connect cost falls outside the measured
                // window), not the lazy-attach default.
                cfg.eager_qps = true;
                let handle = fl_connect(&domain, &node, "scale", cfg).expect("connect");
                let fl_threads: Vec<_> = (0..p.threads_per_node)
                    .map(|_| handle.register_thread())
                    .collect();
                gate.arrive();
                gate.wait();
                let mut workers = Vec::with_capacity(fl_threads.len());
                for (i, t) in fl_threads.into_iter().enumerate() {
                    let results = Arc::clone(&results);
                    workers.push(clock::spawn(&format!("scale-w-{c}/{i}"), move || {
                        let payload = vec![c as u8; w.payload];
                        let until = Until::Requests(w.reqs_per_thread);
                        let samples = lab::drive(&t, &payload, w.window, until);
                        results.lock().unwrap().push(samples);
                    }));
                }
                lab::join(workers);
                drop(handle); // joins the handle's dispatcher + scheduler
            }));
        }

        gate.wait_arrived(p.clients);
        gate.open();
        lab::join(node_tasks);

        let mean_degree = bed.server.stats().mean_coalescing_degree();
        let active_qps = bed.server.active_qps();
        bed.close();
        // Window: first worker send to last worker finish. Client tasks
        // carry their connection's control-plane charge (QP creation, MR
        // registration) on their own clocks, so anchoring at the
        // workers' start instants keeps setup cost out of the
        // steady-state throughput figure — the churn suite measures it.
        let samples = Samples::merge(&*results.lock().unwrap());
        (samples, mean_degree, active_qps)
    });
    let elapsed_ns = samples.span_ns();
    ScaleOutcome {
        point: p,
        total_ops: samples.ops,
        virtual_ms: elapsed_ns as f64 / 1e6,
        ops_per_vsec: samples.ops as f64 * 1e9 / elapsed_ns as f64,
        median_us: percentile_us(&samples.lats, 0.5),
        p99_us: percentile_us(&samples.lats, 0.99),
        mean_degree,
        active_qps,
        total_qps: p.clients * p.n_qps,
        cost,
    }
}

/// The sweep: quick (test smoke) or full (checked-in `BENCH_scale.json`).
pub fn sweep_points(quick: bool) -> Vec<ScalePoint> {
    let pt = |clients, threads_per_node, n_qps, dispatch_threads, nic_lanes| ScalePoint {
        clients,
        threads_per_node,
        n_qps,
        dispatch_threads,
        nic_lanes,
        sched_interval_us: 0,
    };
    if quick {
        vec![pt(4, 1, 1, 1, 1), pt(4, 1, 1, 2, 2)]
    } else {
        vec![
            // 16 client threads: does sharding win once it can run?
            pt(16, 1, 1, 1, 1),
            pt(16, 1, 1, 2, 2),
            pt(16, 1, 1, 4, 4),
            // Mixed: each knob alone at 16 clients.
            pt(16, 1, 1, 4, 1),
            pt(16, 1, 1, 1, 4),
            // 64 client threads over 8x8.
            pt(32, 2, 2, 8, 8),
            // Paper scale: 24 dispatchers x 32 lanes, 384 client threads.
            pt(24, 16, 4, 24, 32),
            // Fan-in past MAX_AQP: 512 QPs against the 256-QP cap, with
            // a redistribution interval short enough (100 µs virtual) to
            // fire several times within the run.
            ScalePoint {
                sched_interval_us: 100,
                ..pt(256, 1, 2, 8, 8)
            },
        ]
    }
}

/// Run the sweep and render the stable-order JSON document.
pub fn run_suite(quick: bool) -> SuiteRun {
    let w = Workload::preset(quick);
    let outcomes: Vec<_> = sweep_points(quick)
        .into_iter()
        .map(|p| run_point(p, w))
        .collect();
    SuiteRun {
        doc: render(quick, w, &outcomes),
        ops: outcomes.iter().map(|o| o.total_ops).sum(),
        cost: outcomes.iter().map(|o| o.cost).sum(),
    }
}

fn render(quick: bool, w: Workload, outcomes: &[ScaleOutcome]) -> Value {
    // Throughput of the 16-thread point with `d` dispatchers and `l`
    // lanes, 0 when the sweep has none (the quick one).
    let at_16 = |d: usize, l: usize| -> f64 {
        outcomes
            .iter()
            .find(|o| {
                o.point.client_threads() == 16
                    && o.point.dispatch_threads == d
                    && o.point.nic_lanes == l
            })
            .map_or(0.0, |o| o.ops_per_vsec)
    };
    let speedup = |d: usize, l: usize| -> f64 {
        let base = at_16(1, 1);
        if base > 0.0 {
            at_16(d, l) / base
        } else {
            0.0
        }
    };
    let point = |o: &ScaleOutcome| {
        inline(o.cost.object(vec![
            ("clients", o.point.clients.into()),
            ("threads_per_node", o.point.threads_per_node.into()),
            ("n_qps", o.point.n_qps.into()),
            ("dispatch_threads", o.point.dispatch_threads.into()),
            ("nic_lanes", o.point.nic_lanes.into()),
            ("sched_interval_us", o.point.sched_interval_us.into()),
            ("total_ops", o.total_ops.into()),
            ("virtual_ms", float(o.virtual_ms, 3)),
            ("ops_per_vsec", float(o.ops_per_vsec, 0)),
            ("median_us", float(o.median_us, 2)),
            ("p99_us", float(o.p99_us, 2)),
            ("mean_degree", float(o.mean_degree, 3)),
            ("active_qps", o.active_qps.into()),
            ("total_qps", o.total_qps.into()),
        ]))
    };
    object(vec![
        ("schema", "flock-bench-scale/v1".into()),
        ("quick", quick.into()),
        ("executor", "virtual".into()),
        ("reqs_per_thread", w.reqs_per_thread.into()),
        ("window", w.window.into()),
        ("payload_bytes", w.payload.into()),
        ("points", array(outcomes.iter().map(point))),
        ("speedup_2x2_over_1x1_at_16", float(speedup(2, 2), 3)),
        ("speedup_4x4_over_1x1_at_16", float(speedup(4, 4), 3)),
    ])
}

/// EXPERIMENTS.md's table of a `scale` document's points, one row each.
pub(crate) fn points_table(doc: &Value) -> String {
    let mut out = String::from(
        "| clients × thr | QPs | dispatch / lanes | Mops/vs | median µs | p99 µs | degree \
         | active QPs | handovers | heap pushes | allocs |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for p in doc.field("points").items() {
        let int = |key| p.field(key).num() as u64;
        let num = |key| p.field(key).num();
        let _ = writeln!(
            out,
            "| {} × {} | {} | {} / {} | {:.2} | {:.1} | {:.1} | {:.2} | {}/{} | {} | {} | {} |",
            int("clients"),
            int("threads_per_node"),
            int("total_qps"),
            int("dispatch_threads"),
            int("nic_lanes"),
            num("ops_per_vsec") / 1e6,
            num("median_us"),
            num("p99_us"),
            num("mean_degree"),
            int("active_qps"),
            int("total_qps"),
            grouped(int("handovers")),
            grouped(int("heap_pushes")),
            grouped(int("allocs")),
        );
    }
    out
}

/// `n` in groups of three digits, a space between groups (`1 061`).
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(c);
    }
    out
}
