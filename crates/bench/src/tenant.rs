//! Multi-tenant gateway benchmark: edge sessions speaking real wire
//! protocols fan into a kvstore-backed Flock server over *shared,
//! capped* per-tenant connections, inside the deterministic
//! virtual-time lab ([`VirtualLab`](flock_sim::vtime::VirtualLab)).
//!
//! Three scenarios, each a pure function of its configuration (two runs
//! render byte-identical JSON, which `flock-bench --check` relies on):
//!
//! 1. **Zipf-skewed GET/SET mix** — every tenant drives a 90/10
//!    GET/SET mix over a shared key space with Zipf(0.99) popularity.
//!    Reported per tenant: throughput, p99, server-side completed
//!    count; plus Jain's fairness index over per-tenant throughput
//!    (equal offered load, so fair means ≈ 1.0).
//! 2. **Hot-key storm** — the same cohort collapses onto a single key
//!    (80/20 GET/SET). Key-level contention must not break tenant-level
//!    fairness.
//! 3. **Tenant interference** — one aggressor tenant (many busy edge
//!    sessions over a wide connection) against N well-behaved victims,
//!    run three ways: victims alone (baseline), aggressor uncapped, and
//!    aggressor under a per-tenant AQP share cap. The victim p99
//!    disturbance ratio (vs baseline) is the headline: caps must hold
//!    it near 1, while the uncapped run shows what lane-stealing costs.

use std::sync::Arc;
use std::time::Duration;

use flock_core::server::ServerConfig;
use flock_gateway::proto::{MemcachedText, Request, WireProtocol};
use flock_gateway::{register_kv_backend, Gateway, GatewayConfig};
use flock_kvstore::{KvConfig, KvStore};
use flock_sim::rng::{SimRng, ZipfTable};
use flock_sync::{clock, Stop};
use parking_lot::Mutex;

use crate::arrival::RateRamp;
use crate::json::{array, float, inline, object, Value};
use crate::lab::{self, elastic_fabric, Bed, LabCost, Samples};
use crate::stats::{percentile_us, tail_mean_us, Handoff};
use crate::SuiteRun;

/// Knobs shared by the three scenarios.
#[derive(Debug, Clone, Copy)]
pub struct TenantWorkload {
    /// Tenants in the mix/storm scenarios (equal offered load each).
    pub tenants: usize,
    /// Edge sessions per tenant.
    pub sessions_per_tenant: usize,
    /// Requests each edge session issues.
    pub reqs_per_session: u64,
    /// Key-space size for the Zipf mix.
    pub keys: usize,
    /// SET value bytes.
    pub payload: usize,
    /// Root seed for the per-session workload RNGs.
    pub seed: u64,
    /// Well-behaved tenants in the interference scenario.
    pub victims: usize,
    /// Target requests per victim session in the interference scenario,
    /// split equally across the three stages of the arrival-rate ramp
    /// (the realized count is the ramp schedule's draw, identical in
    /// all three runs).
    pub victim_reqs: u64,
    /// Busy edge sessions the aggressor tenant drives.
    pub aggr_sessions: usize,
    /// Per-tenant AQP cap applied to the aggressor in the capped run.
    pub aggr_cap: usize,
    /// Server MAX_AQP budget for the interference scenario.
    pub max_aqp: usize,
}

impl TenantWorkload {
    /// Scenario sizes for a sweep: test smoke (`quick`) or the
    /// checked-in `BENCH_tenant.json`.
    pub fn preset(quick: bool) -> TenantWorkload {
        if quick {
            TenantWorkload {
                tenants: 3,
                sessions_per_tenant: 2,
                reqs_per_session: 24,
                keys: 16,
                payload: 32,
                seed: 42,
                victims: 3,
                victim_reqs: 96,
                aggr_sessions: 6,
                aggr_cap: 2,
                max_aqp: 8,
            }
        } else {
            TenantWorkload {
                tenants: 4,
                sessions_per_tenant: 2,
                reqs_per_session: 96,
                keys: 64,
                payload: 32,
                seed: 42,
                victims: 3,
                victim_reqs: 128,
                aggr_sessions: 6,
                aggr_cap: 2,
                max_aqp: 8,
            }
        }
    }
}

/// NIC lanes per node of the elastic fabric: more than the churn
/// suite's, so per-tenant fairness is decided by the receiver's QP
/// scheduler, not by which NIC lane a connection happens to share.
const NIC_LANES: usize = 6;

/// Mean inter-request gap for mix-scenario sessions (virtual ns).
/// Open-loop pacing: tenants are latency-sensitive clients, and paced
/// arrivals are what the receiver-side scheduler's utilization
/// accounting is designed around.
const MIX_GAP_NS: f64 = 5_000.0;

/// Nominal mean inter-request gap for victim sessions in the
/// interference scenario (virtual ns) — the middle stage of the ramp.
const VICTIM_GAP_NS: f64 = 2_000.0;

/// The victims' open-loop arrival-rate ramp: each session walks slow →
/// nominal → fast offered load (mean gaps 2x, 1x, 0.5x the nominal), an
/// equal target share of `victim_reqs` per stage. The p99 comparison
/// then covers the whole rate range rather than one operating point, so
/// a cap that only holds at light load cannot pass. The schedule is
/// drawn from each session's own RNG, identically in all three runs.
fn victim_ramp(victim_reqs: u64) -> RateRamp {
    RateRamp::per_stage_target(
        &[2.0 * VICTIM_GAP_NS, VICTIM_GAP_NS, 0.5 * VICTIM_GAP_NS],
        victim_reqs / 3,
    )
}

/// Edge sessions per victim tenant: enough concurrency that the
/// tenant's AQP share translates into batching delay when squeezed.
const VICTIM_SESSIONS: usize = 4;

/// Virtual ns after `go` before the aggressor's sessions start
/// hammering: deep into the victims' slow ramp stage, so the burst
/// lands on a converged worker cut (see the aggressor task body).
/// Scaled with the ramp so the burst hits the same *phase* of the
/// victims' slow stage at every `victim_reqs` (the realized stage span
/// grows linearly: each arrival's round-trip serializes after its
/// drawn gap). 250 µs is the calibrated quick-scale (96-request)
/// phase; a fixed delay instead lands at a different point of the
/// re-cut cycle at full scale and the measured ratios stop comparing
/// like with like.
fn aggr_burst_delay_ns(victim_reqs: u64) -> u64 {
    victim_reqs * 250_000 / 96
}

/// Virtual ns after `go` at which lane shares are sampled: one
/// scheduler epoch (and change) past the burst, inside the victims'
/// nominal-rate middle stage, so the snapshot shows the re-cut that
/// responded to the burst.
fn share_snapshot_ns(victim_reqs: u64) -> u64 {
    aggr_burst_delay_ns(victim_reqs) + 200_000
}

/// Client-side thread-scheduler interval for gateway connections. The
/// default (10 ms) never fires inside a sub-millisecond scenario; this
/// keeps thread→lane assignment tracking the server's AQP grants.
const CLIENT_SCHED_INTERVAL: Duration = Duration::from_micros(100);

/// Jain's fairness index over a slice (mirror of the scheduler-side
/// definition, applied to bench-side throughput figures).
fn jains(xs: &[f64]) -> f64 {
    flock_core::sched::jains_index(xs.iter().copied())
}

// ---------------------------------------------------------------------
// Scenarios 1 + 2: protocol mix through the gateway
// ---------------------------------------------------------------------

/// One tenant's measured row in a mix scenario.
#[derive(Debug, Clone)]
pub struct TenantStat {
    /// Tenant id.
    pub tenant: u32,
    /// Requests the tenant's sessions completed.
    pub ops: u64,
    /// Throughput over the tenant's active span (ops per virtual ms).
    pub tput_ops_per_ms: f64,
    /// Median request latency (virtual µs), wire-in to wire-out.
    pub median_us: f64,
    /// p99 request latency (virtual µs).
    pub p99_us: f64,
    /// Completed requests the *server's* per-tenant accounting saw —
    /// ties the bench numbers to the scheduler's books.
    pub completed: u64,
}

/// Measured outcome of a mix scenario (Zipf mix or hot-key storm).
#[derive(Debug, Clone)]
pub struct MixOutcome {
    /// Per-tenant rows, ascending tenant id.
    pub tenants: Vec<TenantStat>,
    /// Jain's fairness index over per-tenant throughput.
    pub jains_tput: f64,
    /// Jain's fairness index over server-side completed counts.
    pub jains_completed: f64,
    /// Keys left in the store at the end.
    pub store_keys: usize,
    /// What the run cost the lab.
    pub cost: LabCost,
}

/// Run a GET/SET mix through the gateway: `keys` hot keys with Zipf
/// skew `zipf_s`, SET probability `set_ratio`, every tenant driving the
/// same offered load over memcached-text edge sessions.
pub(crate) fn run_mix(w: TenantWorkload, label: &'static str, keys: usize, zipf_s: f64, set_ratio: f64) -> MixOutcome {
    let ((tenants, store_keys), cost) = lab::run(move || {
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        scfg.sched_interval = Duration::from_micros(100);
        let bed = Bed::new(elastic_fabric(NIC_LANES), &format!("{label}-srv"), label, scfg);
        let kv = Arc::new(KvStore::new(KvConfig::default()));
        register_kv_backend(&bed.server, Arc::clone(&kv));

        let gw_node = bed.domain.add_node(&format!("{label}-gw"));
        let mut gcfg = GatewayConfig::default();
        gcfg.handle.n_qps = 2;
        gcfg.handle.mem_threads = w.sessions_per_tenant + 1;
        gcfg.handle.sched_interval = CLIENT_SCHED_INTERVAL;
        let gw = Gateway::new(Arc::clone(&bed.domain), gw_node, label, gcfg);

        // Open every session up front, in tenant order, so connection
        // creation is deterministic and outside the measured window.
        let mut sessions = Vec::new();
        for t in 1..=w.tenants as u32 {
            for s in 0..w.sessions_per_tenant {
                let sess = gw
                    .open_session(t, Arc::new(MemcachedText))
                    .expect("open session");
                sessions.push((t, s, sess));
            }
        }

        type Rows = Arc<Mutex<Vec<(u32, Samples)>>>;
        let rows: Rows = Arc::new(Mutex::new(Vec::new()));

        let mut root = SimRng::new(w.seed);
        let mut tasks = Vec::with_capacity(sessions.len());
        for (tenant, s, mut sess) in sessions {
            let rows = Arc::clone(&rows);
            let mut rng = root.fork((u64::from(tenant) << 8) | s as u64);
            let table = ZipfTable::new(keys, zipf_s);
            tasks.push(clock::spawn(&format!("{label}-t{tenant}-s{s}"), move || {
                let value = vec![b'v'; w.payload];
                let mut wire = Vec::new();
                let mut out = Vec::new();
                let mut lats = Vec::with_capacity(w.reqs_per_session as usize);
                let t0 = clock::now_ns();
                for _ in 0..w.reqs_per_session {
                    // Open-loop pacing with exponential jitter: arrivals
                    // don't self-synchronize into lockstep rounds.
                    clock::sleep_ns(rng.exp(MIX_GAP_NS) as u64);
                    let key = format!("k{}", rng.zipf(&table));
                    wire.clear();
                    if rng.chance(set_ratio) {
                        MemcachedText.encode_request(
                            &Request::Set {
                                key: key.as_bytes(),
                                value: &value,
                            },
                            &mut wire,
                        );
                    } else {
                        MemcachedText
                            .encode_request(&Request::Get { key: key.as_bytes() }, &mut wire);
                    }
                    out.clear();
                    let at = clock::now_ns();
                    let n = sess.pump(&wire, &mut out).expect("pump");
                    debug_assert_eq!(n, 1);
                    debug_assert!(!out.is_empty());
                    lats.push(clock::now_ns().saturating_sub(at));
                }
                let samples = Samples {
                    ops: w.reqs_per_session,
                    lats,
                    start: t0,
                    finish: clock::now_ns(),
                };
                rows.lock().push((tenant, samples));
            }));
        }
        // Spawning never suspends the spawner, so every task starts now.
        lab::join(tasks);

        let snap = bed.server.fairness_snapshot();
        let store_keys = kv.len();
        gw.close().expect("gateway close");
        drop(gw);
        bed.close();

        // Aggregate per tenant: merged latencies, span-based throughput.
        let rows = std::mem::take(&mut *rows.lock());
        let tenants = (1..=w.tenants as u32).map(|tenant| {
            let mine = rows.iter().filter(|(t, _)| *t == tenant);
            let s = Samples::merge(mine.map(|(_, s)| s));
            TenantStat {
                tenant,
                ops: s.ops,
                tput_ops_per_ms: s.ops as f64 / (s.span_ns() as f64 / 1e6),
                median_us: percentile_us(&s.lats, 0.5),
                p99_us: percentile_us(&s.lats, 0.99),
                completed: snap.tenant(tenant).map_or(0, |row| row.completed),
            }
        });
        (tenants.collect::<Vec<_>>(), store_keys)
    });
    let tputs: Vec<f64> = tenants.iter().map(|s| s.tput_ops_per_ms).collect();
    let comps: Vec<f64> = tenants.iter().map(|s| s.completed as f64).collect();
    MixOutcome {
        jains_tput: jains(&tputs),
        jains_completed: jains(&comps),
        tenants,
        store_keys,
        cost,
    }
}

/// Zipf exponent of the mix scenario's key popularity.
const ZIPF_THETA: f64 = 0.99;
/// Share of SETs in the mix scenario and in the hot-key storm.
const MIX_SETS: f64 = 0.10;
const HOT_SETS: f64 = 0.20;

/// Scenario 1: Zipf(0.99) key popularity, 90/10 GET/SET.
pub fn run_zipf_mix(w: TenantWorkload) -> MixOutcome {
    run_mix(w, "ten-zipf", w.keys, ZIPF_THETA, MIX_SETS)
}

/// Scenario 2: every tenant hammers one hot key, 80/20 GET/SET.
pub fn run_hot_key_storm(w: TenantWorkload) -> MixOutcome {
    run_mix(w, "ten-hot", 1, 0.0, HOT_SETS)
}

// ---------------------------------------------------------------------
// Scenario 3: tenant interference (aggressor vs victims)
// ---------------------------------------------------------------------

/// How the aggressor participates in an interference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggrMode {
    /// Victims alone — the baseline.
    Absent,
    /// Aggressor present, no per-tenant cap.
    Uncapped,
    /// Aggressor present, capped to `TenantWorkload::aggr_cap` AQPs.
    Capped,
}

/// The aggressor's tenant id (victims are `1..=victims`).
pub(crate) const AGGRESSOR_TENANT: u32 = 9;

/// Measured outcome of the interference scenario.
#[derive(Debug, Clone)]
pub struct InterferenceOutcome {
    /// Well-behaved tenants.
    pub victims: usize,
    /// Busy aggressor edge sessions.
    pub aggr_sessions: usize,
    /// Server MAX_AQP budget.
    pub max_aqp: usize,
    /// The cap applied in the capped run.
    pub aggr_cap: usize,
    /// Mean inter-arrival gaps of the victims' rate ramp, slow → fast
    /// (virtual ns).
    pub victim_ramp_gaps_ns: [f64; 3],
    /// Realized victim arrivals per run — a pure function of the ramp
    /// schedule's draws, so identical in all three runs (asserted).
    pub victim_ops: u64,
    /// Victim tail with no aggressor: mean of the slowest 5 % of the
    /// samples (virtual µs).
    pub baseline_tail5_us: f64,
    /// Victim tail with the aggressor uncapped (virtual µs).
    pub uncapped_tail5_us: f64,
    /// Victim tail with the aggressor capped (virtual µs).
    pub capped_tail5_us: f64,
    /// `uncapped_tail5 / baseline_tail5` — what an aggressor holding
    /// extra lanes costs the victims.
    pub uncapped_ratio: f64,
    /// `capped_tail5 / baseline_tail5` — the isolation headline (≤ 1.3).
    pub capped_ratio: f64,
    /// Victim active AQPs (summed) mid-run, uncapped.
    pub uncapped_victim_lanes: usize,
    /// Aggressor active AQPs mid-run, uncapped.
    pub uncapped_aggr_lanes: usize,
    /// Victim active AQPs (summed) mid-run, capped.
    pub capped_victim_lanes: usize,
    /// Aggressor active AQPs mid-run, capped.
    pub capped_aggr_lanes: usize,
    /// Requests the aggressor completed while uncapped.
    pub aggr_ops_uncapped: u64,
    /// Requests the aggressor completed while capped.
    pub aggr_ops_capped: u64,
    /// The server's deactivation hand-off per run: baseline, uncapped,
    /// capped.
    pub handoff: [Handoff; 3],
    /// What the three runs cost the lab.
    pub cost: LabCost,
}

/// One interference run.
struct InterferenceRun {
    /// Victim latencies of the ramp's middle stage, ascending (ns).
    lats: Vec<u64>,
    victim_ops: u64,
    aggr_ops: u64,
    /// Active lanes mid-run.
    victim_lanes: usize,
    aggr_lanes: usize,
    handoff: Handoff,
}

fn interference_run(w: TenantWorkload, mode: AggrMode) -> (InterferenceRun, LabCost) {
    lab::run(move || {
        let mut scfg = ServerConfig::default();
        // One dispatch worker per connection: seeded round-robin, the
        // aggressor's connection has a worker of its own, and no re-cut
        // by requests served is lighter (with fewer workers, some victim
        // always shares a worker with the aggressor's deep coalesced
        // batches).
        scfg.dispatch_threads = 4;
        scfg.sched.max_aqp = w.max_aqp;
        scfg.sched_interval = Duration::from_micros(100);
        let bed = Bed::new(elastic_fabric(NIC_LANES), "ten-int-srv", "ten-int", scfg);
        let (domain, server) = (&bed.domain, &bed.server);
        let kv = Arc::new(KvStore::new(KvConfig::default()));
        register_kv_backend(server, Arc::clone(&kv));

        if mode == AggrMode::Capped {
            server.set_tenant_cap(AGGRESSOR_TENANT, w.aggr_cap);
        }

        // Victims: narrow shared connections (2 eager lanes each), four
        // paced sessions per tenant — enough concurrency that losing a
        // lane shows up as batching delay.
        let gw_v_node = domain.add_node("ten-int-gw-v");
        let mut vcfg = GatewayConfig::default();
        vcfg.handle.n_qps = 2;
        vcfg.handle.eager_qps = true;
        vcfg.handle.mem_threads = VICTIM_SESSIONS + 1;
        vcfg.handle.sched_interval = CLIENT_SCHED_INTERVAL;
        let gw_v = Gateway::new(Arc::clone(domain), gw_v_node, "ten-int", vcfg);

        // Aggressor: one wide connection (6 eager lanes) carrying many
        // busy sessions — exactly the tenant a cap is for.
        let gw_a_node = domain.add_node("ten-int-gw-a");
        let mut acfg = GatewayConfig::default();
        acfg.handle.n_qps = 6;
        acfg.handle.eager_qps = true;
        acfg.handle.mem_threads = w.aggr_sessions + 1;
        acfg.handle.sched_interval = CLIENT_SCHED_INTERVAL;
        let gw_a = Gateway::new(Arc::clone(domain), gw_a_node, "ten-int", acfg);

        let mut victim_sessions = Vec::new();
        for t in 1..=w.victims as u32 {
            for s in 0..VICTIM_SESSIONS {
                let sess = gw_v
                    .open_session(t, Arc::new(MemcachedText))
                    .expect("victim session");
                victim_sessions.push((t, s, sess));
            }
        }
        let mut aggr_sessions = Vec::new();
        if mode != AggrMode::Absent {
            for s in 0..w.aggr_sessions {
                aggr_sessions.push((
                    s,
                    gw_a.open_session(AGGRESSOR_TENANT, Arc::new(MemcachedText))
                        .expect("aggressor session"),
                ));
            }
        }

        let stop = Arc::new(Stop::new());
        let aggr_ops = Arc::new(Mutex::new(0u64));
        let rows: Arc<Mutex<Vec<Samples>>> = Arc::new(Mutex::new(Vec::new()));

        let mut root = SimRng::new(w.seed);
        let ramp = victim_ramp(w.victim_reqs);
        let mut victim_tasks = Vec::new();
        for (tenant, s, mut sess) in victim_sessions {
            let rows = Arc::clone(&rows);
            let ramp = ramp.clone();
            let mut rng = root.fork((u64::from(tenant) << 8) | s as u64);
            victim_tasks.push(clock::spawn(&format!("victim-{tenant}-{s}"), move || {
                let key = format!("v{tenant}s{s}");
                let mut wire = Vec::new();
                MemcachedText.encode_request(&Request::Get { key: key.as_bytes() }, &mut wire);
                let mut out = Vec::new();
                let mut lats = Vec::with_capacity(ramp.expected_arrivals() as usize + 8);
                // Walk the arrival-rate ramp on the *scheduled* timeline
                // (cumulative drawn gaps), not the wall clock: the number
                // and spacing of arrivals is then a pure function of the
                // session's RNG, so all three runs offer the same load
                // and only the measured latencies differ.
                let mut sched_ns = 0u64;
                while let Some(gap) = ramp.gap_at(sched_ns, &mut rng) {
                    sched_ns += gap;
                    clock::sleep_ns(gap);
                    out.clear();
                    let at = clock::now_ns();
                    sess.pump(&wire, &mut out).expect("victim pump");
                    lats.push(clock::now_ns().saturating_sub(at));
                }
                // Keep the middle *stage* of the arrival ramp: the slow
                // first stage doubles as scheduler warm-up, and the fast
                // last stage self-queues (arrivals outpace one session's
                // round-trips) and overlaps cohort wind-down, both of
                // which inflate p99 identically in *every* mode and would
                // wash out the aggressor's effect. The nominal-rate
                // stage, same cut everywhere, is where the ratios compare
                // converged states.
                let n = lats.len();
                let samples = Samples {
                    ops: n as u64,
                    lats: lats[n / 3..2 * n / 3].to_vec(),
                    ..Samples::default()
                };
                rows.lock().push(samples);
            }));
        }

        let mut aggr_tasks = Vec::new();
        let burst_delay = aggr_burst_delay_ns(w.victim_reqs);
        for (s, mut sess) in aggr_sessions {
            let stop = Arc::clone(&stop);
            let aggr_ops = Arc::clone(&aggr_ops);
            let payload = w.payload;
            aggr_tasks.push(clock::spawn(&format!("aggr-{s}"), move || {
                let value = vec![b'a'; payload];
                let key = format!("a{s}");
                let mut wire = Vec::new();
                MemcachedText.encode_request(
                    &Request::Set {
                        key: key.as_bytes(),
                        value: &value,
                    },
                    &mut wire,
                );
                let mut out = Vec::new();
                // Burst in mid-ramp: the victims' slow first stage lets
                // the receiver's worker cut converge on a quiet cohort,
                // and the aggressor then arrives at full blast into that
                // converged state -- the lane-stealing scenario a cap
                // exists for. (An aggressor present from t=0 just gets
                // packed separately by the first cut and never hurts.)
                clock::sleep_ns(burst_delay);
                let mut ops = 0;
                while !stop.is_set() {
                    out.clear();
                    sess.pump(&wire, &mut out).expect("aggressor pump");
                    ops += 1;
                }
                *aggr_ops.lock() += ops;
            }));
        }

        // Spawning never suspends the spawner, so every task starts now.
        // Sample lane shares mid-run (see `share_snapshot_ns`).
        clock::sleep_ns(share_snapshot_ns(w.victim_reqs));
        let snap = server.fairness_snapshot();
        let victim_lanes: usize = (1..=w.victims as u32)
            .filter_map(|t| snap.tenant(t).map(|r| r.active_qps))
            .sum();
        let aggr_lanes = snap
            .tenant(AGGRESSOR_TENANT)
            .map_or(0, |r| r.active_qps);

        lab::join(victim_tasks);
        stop.set([]);
        lab::join(aggr_tasks);

        gw_v.close().expect("victim gateway close");
        gw_a.close().expect("aggressor gateway close");
        drop(gw_v);
        drop(gw_a);
        let handoff = Handoff::of(server);
        bed.close();

        let victims = Samples::merge(&*rows.lock());
        let aggr_ops = *aggr_ops.lock();
        InterferenceRun {
            lats: victims.lats,
            victim_ops: victims.ops,
            aggr_ops,
            victim_lanes,
            aggr_lanes,
            handoff,
        }
    })
}

/// Run the interference scenario: baseline, uncapped, capped — same
/// victim workload in each.
pub fn run_interference(w: TenantWorkload) -> InterferenceOutcome {
    let (base, base_cost) = interference_run(w, AggrMode::Absent);
    let (unc, unc_cost) = interference_run(w, AggrMode::Uncapped);
    let (cap, cap_cost) = interference_run(w, AggrMode::Capped);
    // The ramp schedule is drawn from per-session RNGs, never the
    // server: every mode must offer the exact same load.
    let offered = [base.victim_ops, unc.victim_ops, cap.victim_ops];
    assert_eq!(
        offered, [base.victim_ops; 3],
        "offered load differs across runs"
    );
    // The mean of the slowest 5 %, not the nearest-rank p99: that is the
    // fifth-worst of some 370 samples at the quick size, and one sample
    // more or less in the tail moved it a whole 0.5 µs poll step.
    let [baseline_tail5_us, uncapped_tail5_us, capped_tail5_us] =
        [&base, &unc, &cap].map(|run| tail_mean_us(&run.lats, 0.05));
    let ratio = |x: f64| if baseline_tail5_us > 0.0 { x / baseline_tail5_us } else { 0.0 };
    InterferenceOutcome {
        victims: w.victims,
        aggr_sessions: w.aggr_sessions,
        max_aqp: w.max_aqp,
        aggr_cap: w.aggr_cap,
        victim_ramp_gaps_ns: [2.0 * VICTIM_GAP_NS, VICTIM_GAP_NS, 0.5 * VICTIM_GAP_NS],
        victim_ops: base.victim_ops,
        baseline_tail5_us,
        uncapped_tail5_us,
        capped_tail5_us,
        uncapped_ratio: ratio(uncapped_tail5_us),
        capped_ratio: ratio(capped_tail5_us),
        uncapped_victim_lanes: unc.victim_lanes,
        uncapped_aggr_lanes: unc.aggr_lanes,
        capped_victim_lanes: cap.victim_lanes,
        capped_aggr_lanes: cap.aggr_lanes,
        aggr_ops_uncapped: unc.aggr_ops,
        aggr_ops_capped: cap.aggr_ops,
        handoff: [base.handoff, unc.handoff, cap.handoff],
        cost: base_cost + unc_cost + cap_cost,
    }
}

// ---------------------------------------------------------------------
// Sweep + JSON
// ---------------------------------------------------------------------

/// Run all three scenarios and render the stable-order JSON document.
pub fn run_suite(quick: bool) -> SuiteRun {
    let w = TenantWorkload::preset(quick);
    let zipf = run_zipf_mix(w);
    let hot = run_hot_key_storm(w);
    let intf = run_interference(w);
    let mix_ops = |m: &MixOutcome| m.tenants.iter().map(|t| t.ops).sum::<u64>();
    SuiteRun {
        doc: render(quick, w, &zipf, &hot, &intf),
        ops: mix_ops(&zipf)
            + mix_ops(&hot)
            + intf.victim_ops
            + intf.aggr_ops_uncapped
            + intf.aggr_ops_capped,
        cost: zipf.cost + hot.cost + intf.cost,
    }
}

/// EXPERIMENTS.md's "Multi-tenancy" table, from the suite's document.
pub(crate) fn scenarios_table(doc: &Value) -> String {
    let [zipf, hot, intf] = ["zipf_mix", "hot_key_storm", "interference"].map(|k| doc.field(k));
    let n = |part: &Value, key| part.field(key).num();
    let get_set = |sets: f64| format!("{:.0}/{:.0} GET/SET", 100.0 * (1.0 - sets), 100.0 * sets);
    let fairness = |m: &Value| {
        let p99 = m.field("tenants").items().iter().map(|t| n(t, "p99_us"));
        let (lo, hi) = p99.fold((f64::MAX, f64::MIN), |(lo, hi), p| (lo.min(p), hi.max(p)));
        format!(
            "Jain's (tput) **{:.3}**, Jain's (completed) {:.3}; per-tenant p99 {lo:.2}–{hi:.2} µs",
            n(m, "jains_tput"),
            n(m, "jains_completed"),
        )
    };
    format!(
        "| scenario | configuration | result |\n|---|---|---|\n\
         | Zipf mix | {} tenants × {} sessions × {} reqs, Zipf({ZIPF_THETA}) over {} keys, {} | {} |\n\
         | hot-key storm | same cohort, one key, {} | {} |\n\
         | interference | {} victims ({VICTIM_SESSIONS} ramped sessions each) vs 1 aggressor \
         ({} closed-loop sessions), MAX_AQP={}, cap={} | victims' slowest 5 %: mean {:.2} µs alone, \
         {:.2} µs uncapped (**{:.3}×**), {:.2} µs capped (**{:.3}×**); aggressor holds {} lanes \
         uncapped, {} capped |\n",
        zipf.field("tenants").items().len(),
        n(doc, "sessions_per_tenant"),
        n(doc, "reqs_per_session"),
        n(doc, "zipf_keys"),
        get_set(MIX_SETS),
        fairness(zipf),
        get_set(HOT_SETS),
        fairness(hot),
        n(intf, "victims"),
        n(intf, "aggr_sessions"),
        n(intf, "max_aqp"),
        n(intf, "aggr_cap"),
        n(intf, "baseline_tail5_us"),
        n(intf, "uncapped_tail5_us"),
        n(intf, "uncapped_ratio"),
        n(intf, "capped_tail5_us"),
        n(intf, "capped_ratio"),
        n(intf, "uncapped_aggr_lanes"),
        n(intf, "capped_aggr_lanes"),
    )
}

fn render_mix(m: &MixOutcome) -> Value {
    let row = |t: &TenantStat| {
        inline(object(vec![
            ("tenant", t.tenant.into()),
            ("ops", t.ops.into()),
            ("tput_ops_per_ms", float(t.tput_ops_per_ms, 2)),
            ("median_us", float(t.median_us, 2)),
            ("p99_us", float(t.p99_us, 2)),
            ("completed", t.completed.into()),
        ]))
    };
    m.cost.object(vec![
        ("tenants", array(m.tenants.iter().map(row))),
        ("jains_tput", float(m.jains_tput, 3)),
        ("jains_completed", float(m.jains_completed, 3)),
        ("store_keys", m.store_keys.into()),
    ])
}

fn render(
    quick: bool,
    w: TenantWorkload,
    zipf: &MixOutcome,
    hot: &MixOutcome,
    intf: &InterferenceOutcome,
) -> Value {
    object(vec![
        ("schema", "flock-bench-tenant/v1".into()),
        ("quick", quick.into()),
        ("executor", "virtual".into()),
        ("payload_bytes", w.payload.into()),
        ("seed", w.seed.into()),
        ("sessions_per_tenant", w.sessions_per_tenant.into()),
        ("reqs_per_session", w.reqs_per_session.into()),
        ("zipf_keys", w.keys.into()),
        ("zipf_mix", render_mix(zipf)),
        ("hot_key_storm", render_mix(hot)),
        (
            "interference",
            intf.cost.object(vec![
                ("victims", intf.victims.into()),
                ("victim_reqs", w.victim_reqs.into()),
                (
                    "victim_ramp_gaps_ns",
                    inline(array(intf.victim_ramp_gaps_ns.map(|g| float(g, 0)))),
                ),
                ("victim_ops", intf.victim_ops.into()),
                ("aggr_sessions", intf.aggr_sessions.into()),
                ("max_aqp", intf.max_aqp.into()),
                ("aggr_cap", intf.aggr_cap.into()),
                ("baseline_tail5_us", float(intf.baseline_tail5_us, 2)),
                ("uncapped_tail5_us", float(intf.uncapped_tail5_us, 2)),
                ("capped_tail5_us", float(intf.capped_tail5_us, 2)),
                ("uncapped_ratio", float(intf.uncapped_ratio, 3)),
                ("capped_ratio", float(intf.capped_ratio, 3)),
                ("uncapped_victim_lanes", intf.uncapped_victim_lanes.into()),
                ("uncapped_aggr_lanes", intf.uncapped_aggr_lanes.into()),
                ("capped_victim_lanes", intf.capped_victim_lanes.into()),
                ("capped_aggr_lanes", intf.capped_aggr_lanes.into()),
                ("aggr_ops_uncapped", intf.aggr_ops_uncapped.into()),
                ("aggr_ops_capped", intf.aggr_ops_capped.into()),
                ("handoff_baseline", intf.handoff[0].row()),
                ("handoff_uncapped", intf.handoff[1].row()),
                ("handoff_capped", intf.handoff[2].row()),
            ]),
        ),
    ])
}
