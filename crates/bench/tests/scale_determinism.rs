//! Two runs of the same seeded virtual-time sweep must render
//! byte-identical JSON — the property CI's bench-scale smoke job diffs
//! for, and the foundation of `BENCH_scale.json` being reviewable: a
//! diff in the checked-in file always means a code change, never
//! scheduling noise.

use flock_bench::scale::{run_point, run_sweep, sweep_points, Workload};

#[test]
fn quick_sweep_is_byte_identical_across_runs() {
    let w = Workload {
        reqs_per_thread: 4,
        window: 2,
        payload: 16,
    };
    let a = run_sweep(true, w, false);
    let b = run_sweep(true, w, false);
    assert_eq!(a, b, "virtual-time sweep must be deterministic");
    assert!(
        a.contains("\"schema\": \"flock-bench-scale/v1\""),
        "rendered JSON must carry the schema tag CI greps for"
    );
}

/// `handovers` of the two `bench_scale --quick` points: how often the
/// lab woke a task's OS thread, exact for a given tree. Waiting tasks
/// cost none while nothing they wait for has been announced (the lab
/// re-arms their polls itself, DESIGN.md §5e); before that the same
/// points took 96 818 and 132 326, 14 917 and 25 041 while TCQ
/// followers and the client response dispatcher still ran their own
/// polls, and 9 376 and 19 512 while NIC lanes, dispatch shards and
/// response dispatchers were threads: they are steppers now, run by the
/// lab on the suspending task's thread (`LabReport::inline_steps`), so
/// what is left is the application threads and the control plane. A
/// change that puts an executed idle poll back — a wait
/// that sleeps through `clock::sleep_ns` instead of its `Event`, a
/// notify on every sweep — or a service loop back on a thread shows
/// here with its count. Lower the bound when a change lowers the count.
const QUICK_HANDOVER_BUDGET: [u64; 2] = [66, 66];

#[test]
fn quick_points_stay_inside_their_handover_budget() {
    // What `bench_scale --quick` runs.
    let w = Workload {
        reqs_per_thread: 8,
        ..Workload::default()
    };
    let points = sweep_points(true);
    assert_eq!(points.len(), QUICK_HANDOVER_BUDGET.len());
    for (p, budget) in points.into_iter().zip(QUICK_HANDOVER_BUDGET) {
        let handovers = run_point(p, w).handovers;
        assert!(
            handovers <= budget,
            "{p:?}: {handovers} handovers, budget {budget}"
        );
    }
}
