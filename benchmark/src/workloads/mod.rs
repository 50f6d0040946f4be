//! The four workloads and what they share: the per-client log, the
//! measured window, and the outcome a lab run hands back.
//!
//! Sizes are constants in each workload's source, so any two runs of
//! the benchmark are comparable; only the seed is an argument.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::adapter::{
    cache_counters, clock, nic_counters, server_counters, FlockDomain, FlockServer, Node,
    ServerCounters,
};
use crate::{stats, trace};

pub mod echo_fanin;
pub mod gateway_tenants;
pub mod kv_onesided_thrash;
pub mod txn_smallbank;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists — copied into `BENCHMARK.json`.
    pub why: &'static str,
    /// Whether the same seed reproduces `sim_*` exactly.
    pub deterministic: bool,
    /// Run it once inside a fresh lab. Called in a pinned child only.
    pub run: fn(seed: u64) -> LabOutcome,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "echo_fanin",
        why: "closed loop, 64 threads share 16 QPs: TCQ, ring and dispatch do the work; \
              kvstore, gateway, txn, one-sided reads and QP redistribution do none",
        deterministic: true,
        run: echo_fanin::run,
    },
    Workload {
        name: "kv_onesided_thrash",
        why: "32 one-sided readers overrun a 24-entry responder NIC cache, 20% RPC SETs beside: \
              fabric cache and core::onesided do the work, TCQ coalescing almost none",
        deterministic: true,
        run: kv_onesided_thrash::run,
    },
    Workload {
        name: "gateway_tenants",
        why: "open loop at a fixed offered rate, memcached-text sessions of 4 tenants, MAX_AQP below \
              QP count: gateway codecs, kvstore, credits, core::sched and the QP pool do the work",
        deterministic: true,
        run: gateway_tenants::run,
    },
    Workload {
        name: "txn_smallbank",
        why: "fan-out: each Smallbank transaction spans up to 3 servers with RPCs and one-sided \
              validation; sim_* not bit-reproducible (HashMap order in TxnClient::run, about 0.05%)",
        deterministic: false,
        run: txn_smallbank::run,
    },
];

/// Host instant of the first measured operation of this process.
static MEASURED_START: OnceLock<Instant> = OnceLock::new();

/// When the first client left warm-up (`None` before that).
pub fn measured_start() -> Option<Instant> {
    MEASURED_START.get().copied()
}

/// What one client task measured.
pub struct ClientLog {
    /// Latencies of correct measured operations, virtual ns.
    lat: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Operations in warm-up (checked, not counted).
    warm_ops: u64,
    first_issue: u64,
    last_done: u64,
}

impl ClientLog {
    pub fn with_capacity(measured_ops: usize) -> ClientLog {
        ClientLog {
            lat: Vec::with_capacity(measured_ops),
            attempted: 0,
            failed: 0,
            warm_ops: 0,
            first_issue: u64::MAX,
            last_done: 0,
        }
    }

    /// Count one operation. `measured == false` is warm-up: the output
    /// check already ran, the result is not counted.
    pub fn record(&mut self, measured: bool, ok: bool, issue_ns: u64, done_ns: u64) {
        if !measured {
            self.warm_ops += 1;
            return;
        }
        if self.attempted == 0 {
            MEASURED_START.get_or_init(Instant::now);
        }
        self.attempted += 1;
        self.first_issue = self.first_issue.min(issue_ns);
        self.last_done = self.last_done.max(done_ns);
        if ok {
            self.lat.push(done_ns.saturating_sub(issue_ns));
        } else {
            self.failed += 1;
        }
    }
}

/// Where client tasks drop their logs when they finish.
pub type Logs = Arc<Mutex<Vec<ClientLog>>>;

/// What one lab run hands back to the child's `main`.
pub struct LabOutcome {
    /// Latencies of correct measured operations, ascending, virtual ns.
    pub lat: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Every operation issued, warm-up included: the denominator of the
    /// whole-run counters.
    pub all_ops: u64,
    /// First measured issue → last completion, virtual ns.
    pub sim_span_ns: u64,
    /// Host time of the measured window.
    pub host_window: Duration,
    /// A check that runs once at the end (the balance sum); `true`
    /// where the workload has none.
    pub end_check_ok: bool,
    /// Per-layer numbers taken inside the lab (public counters before
    /// teardown; span statistics if tracing is on).
    pub layer: BTreeMap<&'static str, f64>,
    /// Every span of the run when tracing is on, for the writer in
    /// `main`.
    pub spans: Vec<trace::Span>,
}

impl LabOutcome {
    /// Fold the clients' logs. Call right after the last client task is
    /// joined: "now" closes the host window.
    pub fn from_logs(logs: &Logs) -> LabOutcome {
        let host_end = Instant::now();
        let logs = std::mem::take(&mut *logs.lock().expect("client task panicked"));
        let mut out = LabOutcome {
            lat: Vec::new(),
            attempted: 0,
            failed: 0,
            all_ops: 0,
            sim_span_ns: 0,
            host_window: measured_start().map_or(Duration::ZERO, |s| host_end - s),
            end_check_ok: true,
            layer: BTreeMap::new(),
            spans: Vec::new(),
        };
        let (mut first, mut last) = (u64::MAX, 0u64);
        for l in logs {
            out.attempted += l.attempted;
            out.failed += l.failed;
            out.all_ops += l.attempted + l.warm_ops;
            first = first.min(l.first_issue);
            last = last.max(l.last_done);
            out.lat.extend(l.lat);
        }
        out.lat.sort_unstable();
        out.sim_span_ns = last.saturating_sub(first);
        out
    }
}

/// Start gate: client tasks park here (in virtual time) until every
/// connection is up, so set-up cost stays out of the window.
#[derive(Clone, Default)]
pub struct Gate(Arc<AtomicBool>);

impl Gate {
    pub fn wait(&self) {
        while !self.0.load(Ordering::Acquire) {
            clock::sleep_ns(5_000);
        }
    }

    pub fn open(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Drop the last domain reference: stops and joins the NIC lane tasks,
/// so the lab ends with only the root task live.
pub fn drop_domain(domain: Arc<FlockDomain>) {
    drop(
        Arc::try_unwrap(domain)
            .ok()
            .expect("every domain user joined before teardown"),
    );
}

/// The per-layer numbers every workload reads the same way: server
/// dispatch, QP scheduler and NIC counters, over every operation issued
/// (set-up traffic included — the counters cannot be reset from
/// outside). Call after the clients are joined and before shutdown.
/// Returns the servers' summed counters.
pub fn record_stack_counters(
    out: &mut LabOutcome,
    servers: &[&FlockServer],
    server_nodes: &[Arc<Node>],
    client_nodes: &[Arc<Node>],
    total_qps: usize,
) -> ServerCounters {
    let ops = out.all_ops as f64;
    let kops = ops / 1000.0;
    let mut srv = ServerCounters::default();
    let mut active = 0;
    for s in servers {
        srv.add(server_counters(s));
        active += s.active_qps();
    }
    let nic = nic_counters(server_nodes.iter().chain(client_nodes));
    let (hits, misses) = cache_counters(server_nodes);
    let l = &mut out.layer;
    l.insert(
        "core.server.degree",
        stats::ratio(srv.requests as f64, srv.messages as f64),
    );
    l.insert("core.server.grants_per_kop", srv.grants as f64 / kops);
    l.insert("core.server.declines_per_kop", srv.declines as f64 / kops);
    l.insert(
        "core.server.head_flushes_skipped_per_kop",
        srv.head_flushes_skipped as f64 / kops,
    );
    l.insert("core.sched.active_qps_end", active as f64);
    l.insert("core.sched.total_qps", total_qps as f64);
    l.insert("fabric.nic.verbs_per_op", nic.verbs as f64 / ops);
    l.insert("fabric.nic.bytes_per_op", nic.bytes as f64 / ops);
    l.insert("fabric.nic.reads_per_op", nic.reads as f64 / ops);
    l.insert("fabric.nic.atomics_per_op", nic.atomics as f64 / ops);
    l.insert(
        "fabric.nic.cache_hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    l.insert("fabric.nic.cache_misses_per_op", misses as f64 / ops);
    l.insert("fabric.nic.rnr_failures", nic.rnr_failures as f64);
    l.insert("fabric.nic.ud_drops", nic.ud_drops as f64);
    srv
}

/// After teardown of a traced run: move the recorded spans into `out`
/// and report the p50 of the `core.api.connect` spans (virtual µs).
pub fn collect_spans(out: &mut LabOutcome) {
    if !trace::on() {
        return;
    }
    out.spans = trace::take();
    let mut connect = trace::durations(&out.spans, "core.api.connect");
    out.layer
        .insert("core.api.connect_sim_us", stats::p50(&mut connect) / 1000.0);
}
