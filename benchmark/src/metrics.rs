//! The metric tables — the single source of `BENCHMARK.json`
//! (`--manifest` prints it; `--selfcheck` refuses a stale copy).

use crate::workloads;

/// How long one run measures, as `BENCHMARK.json` declares it.
pub const RUN_SECONDS: u64 = 18;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    e2e(name, unit, higher, 0.0)
}

/// "sim" = virtual time of the modelled cluster; "host" = wall time of
/// this machine. Every workload reports all seven, untraced runs only.
/// The driver compares runs of different seeds, so each bound is at
/// least three times the interquartile spread ten seeds showed when
/// the benchmark was written (README, "First baseline"); `host_kops`
/// and `setup_s` sit at the contract's cap of 0.25.
pub const END_TO_END: [Metric; 7] = [
    e2e("sim_mops", "Mops/s", true, 0.05),
    e2e("sim_mean_us", "us", false, 0.05),
    e2e("sim_tail1_us", "us", false, 0.08),
    e2e("sim_tail01_us", "us", false, 0.15),
    e2e("host_kops", "kops/s", true, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
];

/// One traced run per workload. A metric whose layer does no work on a
/// workload reads 0 there.
pub const PER_LAYER: [Metric; 54] = [
    layer("sim.vtime.handovers_per_op", "count", false),
    layer("sim.vtime.host_ns_per_handover", "ns", false),
    layer("sim.vtime.tasks", "count", false),
    layer("core.client.send_call_sim_ns", "ns", false),
    layer("core.req_transit_sim_ns", "ns", false),
    layer("app.handler_sim_ns", "ns", false),
    layer("core.resp_transit_sim_ns", "ns", false),
    layer("core.client.degree", "req/msg", true),
    layer("core.server.degree", "req/msg", true),
    layer("core.server.grants_per_kop", "1/kop", false),
    layer("core.server.declines_per_kop", "1/kop", false),
    layer("core.server.head_flushes_skipped_per_kop", "1/kop", true),
    layer("core.sched.active_qps_end", "count", false),
    layer("core.sched.total_qps", "count", false),
    layer("core.sched.jains_tput", "ratio", true),
    layer("core.sched.jains_completed", "ratio", true),
    layer("core.api.connect_sim_us", "us", false),
    layer("core.onesided.verbs_per_read", "count", false),
    layer("core.onesided.retries_per_read", "count", false),
    layer("core.onesided.failures", "count", false),
    layer("gateway.mirror.fallback_ratio", "ratio", false),
    layer("gateway.encode_call_host_ns", "ns", false),
    layer("gateway.pump_call_sim_ns", "ns", false),
    layer("fabric.nic.verbs_per_op", "count", false),
    layer("fabric.nic.bytes_per_op", "B", false),
    layer("fabric.nic.reads_per_op", "count", false),
    layer("fabric.nic.atomics_per_op", "count", false),
    layer("fabric.nic.cache_hit_ratio", "ratio", true),
    layer("fabric.nic.cache_misses_per_op", "count", false),
    layer("fabric.nic.rnr_failures", "count", false),
    layer("fabric.nic.ud_drops", "count", false),
    layer("fabric.qpool.warm_ratio", "ratio", true),
    layer("txn.abort_ratio", "ratio", false),
    layer("txn.retries_per_commit", "count", false),
    layer("txn.rpcs_per_txn", "count", false),
    layer("txn.slowest_server_share", "ratio", false),
    layer("loadgen.sim_p50_us", "us", false),
    layer("loadgen.sim_p99_us", "us", false),
    layer("loadgen.sim_p999_us", "us", false),
    layer("loadgen.lag_p99_us", "us", false),
    layer("loadgen.trace_host_overhead_pct", "%", false),
    layer("probe.sim.vtime.handover_ns", "ns", false),
    layer("probe.sim.stats.histogram_record_ns", "ns", false),
    layer("probe.core.tcq.join_complete_ns", "ns", false),
    layer("probe.core.msg.encode_decode_ns", "ns", false),
    layer("probe.core.sched.lpt_partition_ns", "ns", false),
    layer("probe.fabric.cq.push_poll_ns", "ns", false),
    layer("probe.fabric.cache.access_ns", "ns", false),
    layer("probe.kvstore.get_ns", "ns", false),
    layer("probe.kvstore.put_ns", "ns", false),
    layer("probe.gateway.memcached.roundtrip_ns", "ns", false),
    layer("probe.txn.protocol.encode_decode_ns", "ns", false),
    layer("probe.hydralist.get_ns", "ns", false),
    layer("probe.hydralist.scan16_ns", "ns", false),
];

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = workloads::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
