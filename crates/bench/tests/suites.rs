//! The suites behind the checked-in `BENCH_*.json`: every row of
//! [`SUITES`] that has a file is deterministic (what lets `flock-bench
//! --check` compare bytes: a diff in a checked-in file always means a
//! code change, never scheduling noise), the one that times the host is
//! printed and never compared, plus the acceptance properties each
//! suite's headline rests on, at smoke scale. A failure reproduces
//! exactly under `cargo run -p flock-bench -- <suite> --quick --out DIR`.

use std::process::Command;

use flock_bench::churn::{run_churn_load, run_storm, ChurnWorkload};
use flock_bench::scale::{run_point, sweep_points, Workload};
use flock_bench::tenant::{run_hot_key_storm, run_interference, run_zipf_mix, TenantWorkload};
use flock_bench::{select, SUITES};

const GATED: [&str; 5] = ["scale", "churn", "tenant", "onesided", "figures"];

#[test]
fn quick_suites_are_byte_identical_across_runs() {
    for suite in SUITES.iter().filter(|s| s.file.is_some()) {
        let a = (suite.run)(true).doc.render();
        let b = (suite.run)(true).doc.render();
        assert_eq!(a, b, "{} suite must be deterministic", suite.name);
        let tag = format!("\"schema\": \"flock-bench-{}/v1\"", suite.name);
        assert!(a.contains(&tag), "{} document must carry {tag}", suite.name);
    }
}

#[test]
fn check_takes_exactly_the_gated_rows() {
    let names = |check: bool| -> Vec<&str> {
        let all = select(&[], check).expect("no names is every suite");
        all.iter().map(|s| s.name).collect()
    };
    assert_eq!(names(true), GATED);
    assert_eq!(names(false), [&GATED[..], &["micro"]].concat());
    let out = Command::new(env!("CARGO_BIN_EXE_flock-bench"))
        .args(["--check", "micro"])
        .output()
        .expect("flock-bench runs");
    assert_eq!(out.status.code(), Some(2), "--check micro is a usage error");
}

/// Every loop of the `micro` row, as `flock-bench micro` names it.
const MICRO_ROWS: [&str; 10] = [
    "ring_produce_consume_64B",
    "ring_wrap_boundary_1600B",
    "tcq_join_complete_uncontended",
    "mutex_lock_send_uncontended",
    "txn_load_tatp",
    "kv_load",
    "native_echo_1c_1t_1deep",
    "native_echo_1c_4t_4deep",
    "native_echo_2c_4t_4deep",
    "native_echo_2c_4t_8deep",
];

#[test]
fn quick_micro_prints_every_row_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("flock-bench-micro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_flock-bench"))
        .args(["micro", "--quick", "--out"])
        .arg(&dir)
        .output()
        .expect("flock-bench runs");
    let printed = String::from_utf8(out.stderr).expect("utf-8");
    assert!(out.status.success(), "{printed}");
    for name in MICRO_ROWS {
        let key = format!("{{\"name\": \"{name}\", \"ns_per_op\": ");
        let at = printed
            .find(&key)
            .unwrap_or_else(|| panic!("no row {name}:\n{printed}"));
        let rest = &printed[at + key.len()..];
        let ns: f64 = rest[..rest.find([',', '}']).expect("row closes")]
            .parse()
            .unwrap_or_else(|e| panic!("{name}: {e}:\n{printed}"));
        assert!(ns.is_finite() && ns > 0.0, "{name}: {ns} ns/op");
    }
    assert_eq!(printed.matches("\"ns_per_op\"").count(), MICRO_ROWS.len());
    if cfg!(target_os = "linux") {
        let key = "\"bytes_per_key\": ";
        let at = printed
            .find(key)
            .expect("the TATP preload reports its bytes per key");
        let rest = &printed[at + key.len()..];
        let bytes: f64 = rest[..rest.find('}').expect("row closes")].parse().unwrap();
        assert!(bytes.is_finite() && bytes > 0.0, "{bytes} B/key");
    }
    let written = std::fs::read_dir(&dir).expect("temp dir").count();
    std::fs::remove_dir_all(&dir).expect("temp dir");
    assert_eq!(written, 0, "micro has no file to write");
}

/// Every section EXPERIMENTS.md quotes from `BENCH_figures.json`.
const FIGURE_SECTIONS: [&str; 14] = [
    "table1",
    "fig2a",
    "fig2b",
    "fig6_7_8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16_17_18",
    "ablation_max_aqp",
    "ablation_batch_limit",
    "ablation_grant_size",
];

#[test]
fn quick_figures_document_has_every_section_and_the_probed_table_1() {
    // Running the suite also runs Table 1's asserts: every verb posted on
    // every transport, acceptance held to the declared matrix.
    let doc = flock_bench::figures::run_suite(true).doc.render();
    for id in FIGURE_SECTIONS {
        // A section is an array of one-line rows.
        let open = format!("  \"{id}\": [\n    {{\"");
        assert!(doc.contains(&open), "section {id} needs a row:\n{doc}");
    }
    for row in [
        r#"{"transport": "RC", "mtu": "2 GB", "read": true, "atomic": true, "write": true, "send_recv": true, "reliable": true}"#,
        r#"{"transport": "UC", "mtu": "2 GB", "read": false, "atomic": false, "write": true, "send_recv": true, "reliable": false}"#,
        r#"{"transport": "UD", "mtu": "4 KB", "read": false, "atomic": false, "write": false, "send_recv": true, "reliable": false}"#,
    ] {
        assert!(doc.contains(row), "table1 needs {row}:\n{doc}");
    }
}

/// `handovers` of the two quick `scale` points: how often the lab
/// resumed a task that has a stack, exact for a given tree. Waiting tasks
/// cost none while nothing they wait for has been announced (the lab
/// parks them, DESIGN.md §5e); before that the same
/// points took 96 818 and 132 326, 14 917 and 25 041 while TCQ
/// followers and the client response dispatcher still ran their own
/// polls, and 9 376 and 19 512 while NIC lanes, dispatch shards and
/// response dispatchers were threads: they are steppers now, run by the
/// lab on the suspending task's stack (`LabReport::inline_steps`), so
/// what is left is the application threads and the control plane. A
/// change that puts an executed idle poll back — a wait
/// that sleeps through `clock::sleep_ns` instead of its `Event`, a
/// notify on every sweep — or a service loop back on a task of its own
/// shows here with its count. Lower the bound when a change lowers the
/// count (53 and 53 while the suite's start gate polled on `sleep_ns`
/// instead of parking on a `clock::Barrier`).
const QUICK_HANDOVER_BUDGET: [u64; 2] = [37, 37];

/// `heap_pushes` of the same two points, the scheduler's own host work:
/// a waiter parked at its sleep costs one push, at its wake, so what is
/// left is work (193 and 224 while a sleeper's first poll was queued
/// and popped before it parked; 9 417 and 19 562 while the dispatch
/// shards still swept on a timer; 152 and 172 before the start gate
/// parked). A waiter that is re-armed per poll period again shows here.
const QUICK_HEAP_PUSH_BUDGET: [u64; 2] = [136, 156];

#[test]
fn quick_points_stay_inside_their_handover_budget() {
    let w = Workload::preset(true);
    let points = sweep_points(true);
    assert_eq!(points.len(), QUICK_HANDOVER_BUDGET.len());
    let budgets = QUICK_HANDOVER_BUDGET.into_iter().zip(QUICK_HEAP_PUSH_BUDGET);
    for (p, (handover_budget, push_budget)) in points.into_iter().zip(budgets) {
        let run = run_point(p, w);
        assert!(
            run.handovers <= handover_budget && run.heap_pushes <= push_budget,
            "{p:?}: {} handovers, budget {handover_budget}; {} heap pushes, budget {push_budget}",
            run.handovers,
            run.heap_pushes
        );
    }
}

#[test]
fn warm_wave_beats_cold_wave() {
    // The headline acceptance property at smoke scale: reconnecting into
    // pooled QPs and cached MRs must be an order of magnitude faster
    // than the cold control path.
    let mut w = ChurnWorkload::preset(true);
    w.storm_clients = 4;
    let storm = run_storm(w);
    assert!(
        storm.warm_speedup >= 10.0,
        "warm TTFR should be >=10x faster than cold, got {:.1}x (cold {:.1} us, warm {:.1} us)",
        storm.warm_speedup,
        storm.cold_median_us,
        storm.warm_median_us
    );
    assert!(storm.server_warm_leases >= w.storm_clients as u64);
}

#[test]
fn churn_disturbance_is_bounded() {
    // Steady-cohort p99 under connect/disconnect churn stays within 20%
    // of the no-churn baseline (quiescence never stalls dispatch);
    // `run_churn_load` panics if a churn event lands after the steady
    // cohort's window.
    let mut w = ChurnWorkload::preset(true);
    w.steady_clients = 2;
    w.churners = 2;
    w.churn_rounds = 2;
    let churn = run_churn_load(w);
    assert!(churn.churn_events >= 4);
    assert!(
        churn.disturbance_ratio <= 1.2,
        "churn p99 within 20% of baseline, got {:.3}x ({:.1} us vs {:.1} us)",
        churn.disturbance_ratio,
        churn.churn_p99_us,
        churn.baseline_p99_us
    );
}

// Tenant isolation: an aggressor tenant hammering the server through the
// gateway must not degrade a well-behaved victim's tail beyond a fixed
// bound, and a per-tenant cap must hold the aggressor's active-QP share
// to the cap. The tail is the mean of the slowest 5 % of the victims'
// samples: the nearest-rank p99 this test used to gate is the fifth-worst
// of some 370 samples and sat on a 0.5 µs poll step.
//
// Until the deactivation hand-off (DESIGN.md §5e) the uncapped aggressor
// cost the victims 1.5× p99 and the cap "removed" that. The cost was not
// the lanes the aggressor held but what every redistribution did to a
// victim session caught on a lane that had just lost its slot — polled on
// every 16th sweep only. A deactivated lane now drains at full rate, and
// an aggressor holding extra lanes costs the victims nothing measurable
// at this load: both ratios are held to the bound, and what is left of
// the cap's claim is the share it enforces.

/// An aggressor, capped or not, may cost victims at most 30% of their
/// tail over running alone — the acceptance bound for receiver-side
/// tenant isolation.
const DISTURBANCE_BOUND: f64 = 1.3;

#[test]
fn capped_aggressor_bounds_victim_p99_disturbance() {
    let out = run_interference(TenantWorkload::preset(true));
    assert!(
        out.baseline_tail5_us > 0.0,
        "baseline must measure something, got {:?}",
        out
    );
    for (mode, ratio, tail_us) in [
        ("capped", out.capped_ratio, out.capped_tail5_us),
        ("uncapped", out.uncapped_ratio, out.uncapped_tail5_us),
    ] {
        assert!(
            ratio <= DISTURBANCE_BOUND,
            "{mode} aggressor must not degrade the victims' slowest 5% beyond \
             {DISTURBANCE_BOUND}x baseline, got {ratio:.3}x ({tail_us:.2} us vs {:.2} us baseline)",
            out.baseline_tail5_us
        );
    }
    // The scheduler enforces the share: mid-run the capped aggressor
    // holds no more than its cap.
    assert!(
        out.capped_aggr_lanes <= out.aggr_cap,
        "capped aggressor held {} active lanes, cap is {}",
        out.capped_aggr_lanes,
        out.aggr_cap
    );
    // Uncapped, the aggressor's wide connection out-earns every victim
    // (utilization-proportional sharing working as designed — just not
    // what a multi-tenant operator wants).
    assert!(
        out.uncapped_aggr_lanes > out.aggr_cap,
        "uncapped aggressor should hold more lanes than the cap would allow, got {}",
        out.uncapped_aggr_lanes
    );
}

#[test]
fn equal_load_tenants_get_equal_service() {
    // Zipf mix: same offered load per tenant -> Jain's index near 1 on
    // both bench-side throughput and the server's own completed counts.
    let mix = run_zipf_mix(TenantWorkload::preset(true));
    assert!(
        mix.jains_tput >= 0.9,
        "per-tenant throughput under equal load should be fair, Jain's = {:.3}",
        mix.jains_tput
    );
    assert!(
        mix.jains_completed >= 0.99,
        "server-side completed counts should match equal offered load, Jain's = {:.3}",
        mix.jains_completed
    );
    // Server accounting and bench accounting agree op-for-op.
    for t in &mix.tenants {
        assert_eq!(
            t.ops, t.completed,
            "tenant {} bench ops vs server completed",
            t.tenant
        );
    }
}

#[test]
fn hot_key_contention_does_not_break_tenant_fairness() {
    let storm = run_hot_key_storm(TenantWorkload::preset(true));
    assert!(
        storm.jains_tput >= 0.9,
        "hot-key storm should stay fair across tenants, Jain's = {:.3}",
        storm.jains_tput
    );
    // Single-key workload really did collapse onto one key.
    assert_eq!(storm.store_keys, 1, "storm writes one key");
}
