//! RPC-vs-one-sided crossover sweep (the paper's motivating trade-off,
//! §2): the same GET/SET workload measured three ways — always through
//! the coalesced RPC path, always through one-sided READ + seqlock
//! validation ([`flock_gateway::KvReadClient`]), and under the
//! [`flock_kvstore::AdaptivePolicy`] — across value size, client
//! fan-in, and write mix, inside the deterministic
//! [`VirtualLab`](flock_sim::vtime::VirtualLab).
//!
//! The physics being reproduced: a one-sided GET costs one verb of
//! *responder* NIC processing — the server NIC must have that client's
//! QP state resident and serialize the payload fetch through its
//! processing units — and zero server CPU; an RPC GET costs server CPU
//! plus NIC verbs *amortized over the TCQ coalescing degree*, over a
//! handful of shared QPs that stay hot in the NIC cache. So one-sided
//! wins at low fan-in, where its QP footprint fits the responder's
//! connection cache and its latency is a bare round trip; coalesced
//! RPC overtakes once fan-in pushes the per-client mem QPs past the
//! cache (every READ then pays the PCIe state fetch, serialized on the
//! responder's lanes) — and at any fan-in once values outgrow the
//! inline slot, where one-sided degrades to a wasted READ plus the
//! same RPC. The rendered JSON's `crossover` section pins where, and
//! EXPERIMENTS.md narrates the thresholds.

use std::sync::Arc;
use std::time::Duration;

use flock_core::api::fl_connect;
use flock_core::client::HandleConfig;
use flock_core::onesided::ReadStats;
use flock_core::server::ServerConfig;
use flock_fabric::FabricConfig;
use flock_gateway::{register_kv_mirror_backend, KvReadClient, KvReadStats};
use flock_kvstore::{KvConfig, KvStore, ReadMode};
use flock_sim::rng::SimRng;
use flock_sync::clock;
use parking_lot::Mutex;

use crate::arrival::RateRamp;
use crate::json::{array, float, inline, object, Value};
use crate::lab::{self, Bed, LabCost, Samples};
use crate::stats::percentile_us;
use crate::SuiteRun;

/// Mean inter-request gap per client (virtual ns): open-loop Poisson
/// arrivals, so the coalescing degree is set by genuine concurrency,
/// not by lockstep rounds.
const GAP_NS: f64 = 2_000.0;

/// Client threads per client node. Each node is one application
/// process: its threads share one connection (so the RPC path gets
/// per-process TCQ coalescing) while each thread drives its own mem
/// lane (so the one-sided path's QP footprint at the server grows with
/// total fan-in — the axis the crossover turns on).
const THREADS_PER_NODE: usize = 4;

/// Largest value the mirror can publish inline at the default subslot
/// stride (512 B slot − 8 B key prefix − 8 B version word − length
/// headroom). Larger values spill: SETs publish a bare-key marker and
/// every one-sided GET falls back to RPC.
const INLINE_VALUE_CAP: usize = 448;

/// The crossover runs against a deliberately modest NIC: two engine
/// lanes of responder processing and a 24-entry connection-state
/// cache. That is the regime the paper's argument is about — many
/// clients' one-sided QPs cannot all stay resident, while the RPC
/// path's few shared QPs do (§2). At 32 clients the one-sided mode
/// touches ~48 server-side QPs (32 per-thread mem QPs + 16 shared
/// lanes), twice the cache's reach, while RPC mode touches only the
/// 16 lanes and stays resident. The defaults (4 lanes, 1024 entries)
/// just move the same crossover out to fan-ins too large to sweep in
/// CI.
fn crossover_fabric() -> FabricConfig {
    let mut fc = FabricConfig::default();
    fc.nic_lanes = 2;
    fc.nic_cache_entries = 24;
    fc
}

/// One configuration of the crossover surface.
#[derive(Debug, Clone, Copy)]
pub struct OneSidedPoint {
    /// Total concurrent client threads, spread over
    /// [`THREADS_PER_NODE`]-thread client nodes (must divide evenly).
    pub clients: usize,
    /// Value bytes per key. Up to [`INLINE_VALUE_CAP`] the mirror
    /// publishes inline; past it every SET spills and one-sided GETs
    /// always fall back — the value-size arm of the crossover.
    pub value: usize,
    /// Percentage of requests that are SETs (writes always RPC).
    pub write_pct: u32,
}

/// Workload knobs shared by every point.
#[derive(Debug, Clone, Copy)]
pub struct OneSidedWorkload {
    /// Requests each client issues.
    pub reqs_per_client: u64,
    /// Key-space size; the mirror gets one slot per key (no aliasing),
    /// so every fallback in the numbers is contention, not eviction.
    pub keys: u64,
    /// Root seed for per-client RNGs.
    pub seed: u64,
}

impl OneSidedWorkload {
    /// Test smoke (`quick`) or the checked-in `BENCH_onesided.json`.
    pub fn preset(quick: bool) -> OneSidedWorkload {
        OneSidedWorkload {
            reqs_per_client: if quick { 24 } else { 64 },
            keys: 16,
            seed: 42,
        }
    }
}

/// Measured outcome of one (point, mode) run.
#[derive(Debug, Clone)]
pub struct ModeOutcome {
    /// The configuration measured.
    pub point: OneSidedPoint,
    /// Which read path the clients used.
    pub mode: ReadMode,
    /// GETs completed.
    pub gets: u64,
    /// SETs completed.
    pub sets: u64,
    /// Virtual time from first client start to last client finish.
    pub virtual_ms: f64,
    /// GET+SET throughput in ops per virtual second.
    pub ops_per_vsec: f64,
    /// Median GET latency (virtual µs).
    pub get_median_us: f64,
    /// p99 GET latency (virtual µs).
    pub get_p99_us: f64,
    /// GETs served by a validated one-sided READ.
    pub one_sided: u64,
    /// GETs served by the RPC path (chosen or fallen back to).
    pub rpc_reads: u64,
    /// One-sided attempts abandoned to the RPC fallback.
    pub fallbacks: u64,
    /// Torn/locked snapshots re-read by the one-sided readers.
    pub retries: u64,
    /// Retries per successful one-sided read.
    pub retry_rate: f64,
    /// RDMA READ verbs the one-sided readers issued.
    pub verbs: u64,
    /// What the run cost the lab.
    pub cost: LabCost,
}

/// The JSON name of a mode.
pub(crate) fn mode_name(mode: ReadMode) -> &'static str {
    match mode {
        ReadMode::Rpc => "rpc",
        ReadMode::OneSided => "one_sided",
        ReadMode::Adaptive => "adaptive",
    }
}

/// Run one (point, mode) configuration inside a fresh lab.
pub fn run_point(p: OneSidedPoint, w: OneSidedWorkload, mode: ReadMode) -> ModeOutcome {
    let ((samples, kv_stats, rd_stats), cost) = lab::run(move || {
        let mut scfg = ServerConfig::default();
        // Server CPU scales out (the paper's point: cores are
        // plentiful, responder NIC processing is not), so give the RPC
        // path enough dispatchers that the NIC stays its bottleneck.
        scfg.dispatch_threads = 4;
        scfg.sched_interval = Duration::from_micros(100);
        let bed = Bed::new(crossover_fabric(), "xover-srv", "xover", scfg);
        let domain = &bed.domain;
        let kv = Arc::new(KvStore::new(KvConfig::default()));
        let inline_max = p.value.min(INLINE_VALUE_CAP) as u32;
        register_kv_mirror_backend(&bed.server, Arc::clone(&kv), inline_max, w.keys as u32)
            .expect("mirror backend");

        // Client processes: THREADS_PER_NODE threads per node sharing
        // one connection. The RPC path coalesces within each process;
        // the one-sided path parks one mem-lane QP per thread at the
        // server — the per-client state the responder NIC must cache.
        assert_eq!(p.clients % THREADS_PER_NODE.min(p.clients), 0);
        let nodes = p.clients.div_ceil(THREADS_PER_NODE);
        let handles: Vec<_> = (0..nodes)
            .map(|n| {
                let client_node = domain.add_node(&format!("xover-cli{n}"));
                let mut cfg = HandleConfig::default();
                cfg.n_qps = 2;
                cfg.eager_qps = true;
                cfg.mem_threads = THREADS_PER_NODE + 2;
                cfg.sched_interval = Duration::from_micros(100);
                // Conventional one-sided design: every reader thread
                // gets its own RC QP to the server. This is the NIC
                // state that scales with fan-in and overruns the
                // responder's connection cache (the crossover driver);
                // the RPC path keeps the two shared lanes regardless.
                cfg.dedicated_mem_qps = true;
                fl_connect(domain, &client_node, "xover", cfg).expect("connect")
            })
            .collect();

        // Preload every key at the point's value size (outside the
        // measured window), so GETs never miss and the one-sided path
        // starts from fully published slots.
        let mut loader = KvReadClient::new(&handles[0], ReadMode::Rpc).expect("loader");
        let preload = vec![b'x'; p.value];
        for key in 0..w.keys {
            loader.set(key, &preload).expect("preload");
        }
        drop(loader);

        // Build clients in deterministic order before any task runs.
        let clients: Vec<KvReadClient> = (0..p.clients)
            .map(|u| {
                KvReadClient::new(&handles[u / THREADS_PER_NODE], mode).expect("client")
            })
            .collect();

        // A client's GETs are its timed ops, its SETs the rest.
        type Row = (Samples, KvReadStats, ReadStats);
        let rows: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));

        let mut root = SimRng::new(w.seed);
        let ramp = RateRamp::constant(GAP_NS);
        let write_frac = f64::from(p.write_pct) / 100.0;
        let mut tasks = Vec::with_capacity(p.clients);
        for (u, mut client) in clients.into_iter().enumerate() {
            let rows = Arc::clone(&rows);
            let mut rng = root.fork(u as u64);
            let ramp = ramp.clone();
            tasks.push(clock::spawn(&format!("xover-c{u}"), move || {
                let value = vec![b'w'; p.value];
                let mut out = Vec::with_capacity(p.value);
                let mut lats = Vec::with_capacity(w.reqs_per_client as usize);
                let t0 = clock::now_ns();
                for _ in 0..w.reqs_per_client {
                    let gap = ramp
                        .gap_at(clock::now_ns().saturating_sub(t0), &mut rng)
                        .expect("constant ramp never ends");
                    clock::sleep_ns(gap);
                    let key = rng.below(w.keys);
                    if rng.chance(write_frac) {
                        client.set(key, &value).expect("set");
                    } else {
                        let at = clock::now_ns();
                        let hit = client.get(key, &mut out).expect("get");
                        lats.push(clock::now_ns().saturating_sub(at));
                        debug_assert!(hit, "preloaded keys never miss");
                    }
                }
                let samples = Samples {
                    ops: w.reqs_per_client,
                    lats,
                    start: t0,
                    finish: clock::now_ns(),
                };
                rows.lock().push((samples, client.stats(), client.reader_stats()));
            }));
        }
        // Spawning never suspends the spawner, so every task starts now.
        lab::join(tasks);

        drop(handles);
        bed.close();

        let rows = std::mem::take(&mut *rows.lock());
        let mut kv_stats = KvReadStats::default();
        let mut rd_stats = ReadStats::default();
        for (_, ks, rs) in &rows {
            kv_stats.one_sided += ks.one_sided;
            kv_stats.rpc += ks.rpc;
            kv_stats.fallbacks += ks.fallbacks;
            rd_stats.reads += rs.reads;
            rd_stats.verbs += rs.verbs;
            rd_stats.retries += rs.retries;
            rd_stats.failures += rs.failures;
        }
        (Samples::merge(rows.iter().map(|r| &r.0)), kv_stats, rd_stats)
    });
    let gets = samples.lats.len() as u64;
    let elapsed_ns = samples.span_ns();
    ModeOutcome {
        point: p,
        mode,
        gets,
        sets: samples.ops - gets,
        virtual_ms: elapsed_ns as f64 / 1e6,
        ops_per_vsec: samples.ops as f64 * 1e9 / elapsed_ns as f64,
        get_median_us: percentile_us(&samples.lats, 0.5),
        get_p99_us: percentile_us(&samples.lats, 0.99),
        one_sided: kv_stats.one_sided,
        rpc_reads: kv_stats.rpc,
        fallbacks: kv_stats.fallbacks,
        retries: rd_stats.retries,
        retry_rate: rd_stats.retries as f64 / rd_stats.reads.max(1) as f64,
        verbs: rd_stats.verbs,
        cost,
    }
}

/// The sweep grid: quick (test smoke) or full (checked-in JSON).
pub fn sweep_points(quick: bool) -> Vec<OneSidedPoint> {
    let pt = |clients, value, write_pct| OneSidedPoint {
        clients,
        value,
        write_pct,
    };
    let mut points = Vec::new();
    if quick {
        for &value in &[32usize, 448] {
            for &clients in &[4usize, 32] {
                points.push(pt(clients, value, 20));
            }
        }
    } else {
        // Inline values: the fan-in arm of the crossover.
        for &value in &[32usize, 192, 448] {
            for &write_pct in &[0u32, 20] {
                for &clients in &[4usize, 16, 64] {
                    points.push(pt(clients, value, write_pct));
                }
            }
        }
        // Oversize values: past the inline slot capacity every SET
        // spills and every one-sided GET burns a READ only to fall
        // back to RPC — the value-size arm, where RPC should win at
        // every fan-in.
        for &clients in &[4usize, 16, 64] {
            points.push(pt(clients, 1024, 20));
        }
    }
    points
}

/// All three modes of one point, in fixed (rpc, one_sided, adaptive)
/// order.
pub(crate) fn run_point_modes(p: OneSidedPoint, w: OneSidedWorkload) -> [ModeOutcome; 3] {
    [
        run_point(p, w, ReadMode::Rpc),
        run_point(p, w, ReadMode::OneSided),
        run_point(p, w, ReadMode::Adaptive),
    ]
}

/// One row of the crossover table: a (value, write_pct) slice of the
/// sweep, compared across client counts.
#[derive(Debug, Clone)]
pub(crate) struct CrossoverRow {
    /// Value bytes of this slice.
    pub value: usize,
    /// Write percentage of this slice.
    pub write_pct: u32,
    /// Ascending-client entries: (clients, rpc, one_sided, adaptive)
    /// ops per virtual second.
    pub series: Vec<(usize, f64, f64, f64)>,
    /// Smallest client count where the RPC path out-throughputs the
    /// one-sided path (0 = one-sided won everywhere in this slice).
    pub rpc_wins_at_clients: usize,
}

/// Fold per-mode outcomes into the crossover table.
pub(crate) fn crossover_rows(outcomes: &[[ModeOutcome; 3]]) -> Vec<CrossoverRow> {
    let mut rows: Vec<CrossoverRow> = Vec::new();
    for trio in outcomes {
        let p = trio[0].point;
        let (rpc, os, ad) = (
            trio[0].ops_per_vsec,
            trio[1].ops_per_vsec,
            trio[2].ops_per_vsec,
        );
        let row = match rows
            .iter_mut()
            .find(|r| r.value == p.value && r.write_pct == p.write_pct)
        {
            Some(r) => r,
            None => {
                rows.push(CrossoverRow {
                    value: p.value,
                    write_pct: p.write_pct,
                    series: Vec::new(),
                    rpc_wins_at_clients: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.series.push((p.clients, rpc, os, ad));
    }
    for row in &mut rows {
        row.series.sort_by_key(|&(c, ..)| c);
        row.rpc_wins_at_clients = row
            .series
            .iter()
            .find(|&&(_, rpc, os, _)| rpc > os)
            .map_or(0, |&(c, ..)| c);
    }
    rows
}

/// Worst relative shortfall of the adaptive mode against the better of
/// the two fixed modes, across the whole sweep (0 = adaptive never
/// loses; 0.10 = at its worst point it left 10% on the table).
pub(crate) fn adaptive_worst_regret(outcomes: &[[ModeOutcome; 3]]) -> f64 {
    outcomes
        .iter()
        .map(|trio| {
            let best = trio[0].ops_per_vsec.max(trio[1].ops_per_vsec);
            if best > 0.0 {
                ((best - trio[2].ops_per_vsec) / best).max(0.0)
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max)
}

/// Run the sweep and render the stable-order JSON document.
pub fn run_suite(quick: bool) -> SuiteRun {
    let w = OneSidedWorkload::preset(quick);
    let outcomes: Vec<_> = sweep_points(quick)
        .into_iter()
        .map(|p| run_point_modes(p, w))
        .collect();
    SuiteRun {
        doc: render(quick, w, &outcomes),
        ops: outcomes.iter().flatten().map(|o| o.gets + o.sets).sum(),
        cost: outcomes.iter().flatten().map(|o| o.cost).sum(),
    }
}

fn render(quick: bool, w: OneSidedWorkload, outcomes: &[[ModeOutcome; 3]]) -> Value {
    let point = |o: &ModeOutcome| {
        inline(o.cost.object(vec![
            ("clients", o.point.clients.into()),
            ("value_bytes", o.point.value.into()),
            ("write_pct", o.point.write_pct.into()),
            ("mode", mode_name(o.mode).into()),
            ("gets", o.gets.into()),
            ("sets", o.sets.into()),
            ("virtual_ms", float(o.virtual_ms, 3)),
            ("ops_per_vsec", float(o.ops_per_vsec, 0)),
            ("get_median_us", float(o.get_median_us, 2)),
            ("get_p99_us", float(o.get_p99_us, 2)),
            ("one_sided", o.one_sided.into()),
            ("rpc_reads", o.rpc_reads.into()),
            ("fallbacks", o.fallbacks.into()),
            ("retries", o.retries.into()),
            ("retry_rate", float(o.retry_rate, 4)),
            ("verbs", o.verbs.into()),
        ]))
    };
    let crossover = |r: &CrossoverRow| {
        let series = r.series.iter().map(|&(clients, rpc, os, ad)| {
            object(vec![
                ("clients", clients.into()),
                ("rpc", float(rpc, 0)),
                ("one_sided", float(os, 0)),
                ("adaptive", float(ad, 0)),
            ])
        });
        inline(object(vec![
            ("value_bytes", r.value.into()),
            ("write_pct", r.write_pct.into()),
            ("series", array(series)),
            ("rpc_wins_at_clients", r.rpc_wins_at_clients.into()),
        ]))
    };
    let fc = crossover_fabric();
    object(vec![
        ("schema", "flock-bench-onesided/v1".into()),
        ("quick", quick.into()),
        ("executor", "virtual".into()),
        ("seed", w.seed.into()),
        ("keys", w.keys.into()),
        ("reqs_per_client", w.reqs_per_client.into()),
        ("mean_gap_ns", float(GAP_NS, 0)),
        ("threads_per_node", THREADS_PER_NODE.into()),
        ("inline_value_cap", INLINE_VALUE_CAP.into()),
        ("nic_lanes", fc.nic_lanes.into()),
        ("nic_cache_entries", fc.nic_cache_entries.into()),
        ("points", array(outcomes.iter().flatten().map(point))),
        (
            "crossover",
            array(crossover_rows(outcomes).iter().map(crossover)),
        ),
        (
            "adaptive_worst_regret",
            float(adaptive_worst_regret(outcomes), 3),
        ),
    ])
}
