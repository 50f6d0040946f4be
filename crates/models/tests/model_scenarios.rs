//! Scenario tests for the discrete-event models beyond the unit tests in
//! `experiments.rs`: FaSST-style RPC validation, scheduler dynamics, and
//! cross-system sanity relations.

use flock_models::coord::TxnWorkload;
use flock_models::{
    run_raw_read, run_rpc, run_txn, RawReadConfig, RpcConfig, SystemKind, TxnConfig,
};
use flock_sim::Ns;
use flock_txn::{Smallbank, Tatp};

fn quick_rpc() -> RpcConfig {
    let mut cfg = RpcConfig::default();
    cfg.n_clients = 4;
    cfg.threads_per_client = 4;
    cfg.lanes_per_client = 4;
    cfg.duration = Ns::from_millis(2);
    cfg.warmup = Ns::from_millis(1);
    cfg
}

#[test]
fn fasst_mode_validates_via_rpc_and_still_commits() {
    let mut rpc = quick_rpc();
    rpc.system = SystemKind::UdRpc;
    let cfg = TxnConfig {
        rpc,
        n_servers: 3,
        coroutines: 4,
        workload: TxnWorkload::Tatp(Tatp::new(5_000)),
        validate_via_rpc: true,
    };
    let r = run_txn(&cfg);
    assert!(r.commits > 100, "commits={}", r.commits);
    // Read-intensive with RPC validation: abort rate stays small.
    let rate = r.aborts as f64 / (r.commits + r.aborts) as f64;
    assert!(rate < 0.10, "abort rate {rate}");
}

#[test]
fn transaction_runs_repeat_exactly() {
    // A transaction's per-server RPCs go out in server order, not in the
    // order of a hash map: the same configuration is the same timeline.
    for (system, via_rpc) in [(SystemKind::Flock, false), (SystemKind::UdRpc, true)] {
        let mut rpc = quick_rpc();
        rpc.system = system;
        let cfg = TxnConfig {
            rpc,
            n_servers: 3,
            coroutines: 4,
            workload: TxnWorkload::Smallbank(Smallbank::new(10_000)),
            validate_via_rpc: via_rpc,
        };
        let (a, b) = (run_txn(&cfg), run_txn(&cfg));
        assert!(a.commits > 100, "{system:?}: commits={}", a.commits);
        assert_eq!(
            (a.mops, a.commits, a.aborts, a.median_us, a.p99_us),
            (b.mops, b.commits, b.aborts, b.median_us, b.p99_us),
            "{system:?}"
        );
    }
}

#[test]
fn flocktx_beats_fasst_on_smallbank() {
    let mk = |system, via_rpc| {
        let mut rpc = quick_rpc();
        rpc.system = system;
        rpc.n_clients = 6;
        rpc.threads_per_client = 4;
        rpc.lanes_per_client = 4;
        run_txn(&TxnConfig {
            rpc,
            n_servers: 3,
            coroutines: 8,
            workload: TxnWorkload::Smallbank(Smallbank::new(10_000)),
            validate_via_rpc: via_rpc,
        })
    };
    let flock = mk(SystemKind::Flock, false);
    let fasst = mk(SystemKind::UdRpc, true);
    assert!(
        flock.mops > fasst.mops,
        "flock {} vs fasst {}",
        flock.mops,
        fasst.mops
    );
    assert!(flock.median_us < fasst.median_us);
}

#[test]
fn qp_scheduler_respects_max_aqp_under_pressure() {
    let mut cfg = quick_rpc();
    cfg.n_clients = 8;
    cfg.threads_per_client = 16;
    cfg.lanes_per_client = 16; // 128 lanes requested
    cfg.max_aqp = 32;
    cfg.outstanding = 4;
    let r = run_rpc(&cfg);
    // Sharing forced at 4x oversubscription: coalescing must appear.
    assert!(r.degree > 1.3, "degree {}", r.degree);
    assert!(r.mops > 1.0);
}

#[test]
fn raw_read_peak_beats_ud_rpc_plateau_by_up_to_2x() {
    // The paper's §2.2 gap between Figure 2(a)'s peak and 2(b)'s plateau.
    let mut read_cfg = RawReadConfig::default();
    read_cfg.total_qps = 176;
    read_cfg.duration = Ns::from_millis(2);
    read_cfg.warmup = Ns::from_millis(1);
    let reads = run_raw_read(&read_cfg);

    let mut ud = RpcConfig::default();
    ud.system = SystemKind::UdRpc;
    ud.n_clients = 22;
    ud.threads_per_client = 8;
    ud.outstanding = 4;
    ud.handler_ns = 50;
    ud.cost.cpu_erpc_session_ns = 150;
    ud.duration = Ns::from_millis(2);
    ud.warmup = Ns::from_millis(1);
    let udr = run_rpc(&ud);

    let gap = reads.mops / udr.mops;
    assert!(
        (1.2..=2.5).contains(&gap),
        "gap {gap} (reads {} vs ud {})",
        reads.mops,
        udr.mops
    );
}

#[test]
fn larger_payloads_cost_throughput() {
    let small = run_rpc(&quick_rpc());
    let mut big_cfg = quick_rpc();
    big_cfg.req_size = 2048;
    let big = run_rpc(&big_cfg);
    assert!(small.mops > big.mops, "{} vs {}", small.mops, big.mops);
}

#[test]
fn more_server_cores_help_the_cpu_bound_system() {
    let mut cfg = quick_rpc();
    cfg.system = SystemKind::UdRpc;
    cfg.n_clients = 16;
    cfg.threads_per_client = 16;
    cfg.outstanding = 4;
    cfg.server_cores = 8;
    let few = run_rpc(&cfg);
    cfg.server_cores = 32;
    let many = run_rpc(&cfg);
    assert!(
        many.mops > few.mops * 1.5,
        "cores 8 -> {} vs cores 32 -> {}",
        few.mops,
        many.mops
    );
}
