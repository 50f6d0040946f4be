//! Per-figure experiment drivers: world builders, run loops, and reports.

use flock_core::credit::{CreditState, MedianWindow};
use flock_core::sched::qp::{QpScheduler, QpSchedulerConfig};
use flock_fabric::cache::Eviction;
use flock_fabric::{ConnCache, CostModel};
use flock_sim::{BankedServer, MultiServer, Ns, Sim, SimRng};

use crate::coord::{TxnEngine, TxnWorkload};
use crate::hydra::HydraApp;
use crate::net::{transmit, NetMsg};
use crate::world::{
    AppLogic, ClientNode, LaneState, QpModel, Req, ReqKind, ServerNode, Stats, SystemKind,
    ThreadModel, World,
};

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Millions of completed operations (or transactions) per second.
    pub mops: f64,
    /// Median end-to-end latency, microseconds.
    pub median_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean coalescing degree (requests per message), 0 for UD.
    pub degree: f64,
    /// Server NIC connection-cache hit ratio.
    pub cache_hit: f64,
    /// Server core-pool utilization in [0, 1].
    pub server_cpu: f64,
    /// Client→server messages on the wire.
    pub messages: u64,
    /// Client→server packets on the wire.
    pub packets: u64,
    /// Transaction commits (txn runs).
    pub commits: u64,
    /// Transaction aborts (txn runs).
    pub aborts: u64,
    /// Median get latency (index runs), microseconds.
    pub get_median_us: f64,
    /// p99 get latency (index runs), microseconds.
    pub get_p99_us: f64,
    /// Median scan latency (index runs), microseconds.
    pub scan_median_us: f64,
    /// p99 scan latency (index runs), microseconds.
    pub scan_p99_us: f64,
}

/// Configuration for the RPC-family experiments (Figures 2(b), 6–12,
/// 16–18).
#[derive(Clone)]
pub struct RpcConfig {
    /// The client stack.
    pub system: SystemKind,
    /// Number of client nodes.
    pub n_clients: usize,
    /// Application threads per client.
    pub threads_per_client: usize,
    /// Closed-loop outstanding requests per thread.
    pub outstanding: usize,
    /// Request payload bytes.
    pub req_size: usize,
    /// QP lanes per client (connected systems).
    pub lanes_per_client: usize,
    /// TCQ batch bound (1 disables coalescing).
    pub batch_limit: usize,
    /// Server `MAX_AQP` (Flock only).
    pub max_aqp: usize,
    /// Credits per grant (`C`, paper default 32).
    pub grant_size: u32,
    /// Whether the Flock receiver-side QP scheduler and credits run.
    pub scheduling: bool,
    /// Whether the sender-side thread scheduler (Algorithm 1) runs.
    pub thread_sched: bool,
    /// Server CPU cores.
    pub server_cores: usize,
    /// Per-request handler cost (echo app).
    pub handler_ns: u64,
    /// Fraction of threads sending `large_size` requests (Figure 11).
    pub large_fraction: f64,
    /// Large request size (Figure 11).
    pub large_size: usize,
    /// Virtual measurement window (after warmup).
    pub duration: Ns,
    /// Virtual warmup.
    pub warmup: Ns,
    /// Experiment seed.
    pub seed: u64,
    /// Cost model.
    pub cost: CostModel,
    /// Index service size (None = echo app).
    pub hydra_keys: Option<u64>,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            system: SystemKind::Flock,
            n_clients: 23,
            threads_per_client: 8,
            outstanding: 1,
            req_size: 64,
            lanes_per_client: 8,
            batch_limit: 16,
            max_aqp: 256,
            grant_size: 32,
            scheduling: true,
            thread_sched: true,
            server_cores: 32,
            handler_ns: 260,
            large_fraction: 0.0,
            large_size: 1024,
            duration: Ns::from_millis(10),
            warmup: Ns::from_millis(3),
            seed: 42,
            cost: CostModel::default(),
            hydra_keys: None,
        }
    }
}

fn build_server(cost: &CostModel, cores: usize, max_aqp: usize, grant_size: u32) -> ServerNode {
    ServerNode {
        nic: BankedServer::new(cost.nic_processing_units),
        cache: ConnCache::with_policy(cost.nic_cache_entries, Eviction::Random, 0xFEED),
        tx_link: MultiServer::new(1),
        rx_link: MultiServer::new(1),
        cores: MultiServer::new(cores),
        sched_cpu: MultiServer::new(1),
        qp_sched: QpScheduler::new(QpSchedulerConfig {
            max_aqp,
            grant_size,
        }),
    }
}

fn build_world(cfg: &RpcConfig, n_servers: usize) -> World {
    let mut rng = SimRng::new(cfg.seed);
    let mut servers: Vec<ServerNode> = (0..n_servers)
        .map(|_| build_server(&cfg.cost, cfg.server_cores, cfg.max_aqp, cfg.grant_size))
        .collect();

    let mut clients = Vec::with_capacity(cfg.n_clients);
    for c in 0..cfg.n_clients {
        let mut qps_per_server = Vec::with_capacity(n_servers);
        for s in 0..n_servers {
            let mut lanes = Vec::with_capacity(cfg.lanes_per_client);
            for l in 0..cfg.lanes_per_client {
                lanes.push(QpModel {
                    global_id: World::qp_global_id(c, s, l),
                    server: s,
                    pending: Default::default(),
                    state: LaneState::Idle,
                    credits: if cfg.system == SystemKind::Flock && cfg.scheduling {
                        CreditState::new(cfg.grant_size)
                    } else {
                        CreditState::new(u32::MAX / 2)
                    },
                    degrees: MedianWindow::new(64),
                    active: true,
                    messages: 0,
                    requests: 0,
                    srv_pending: Default::default(),
                    srv_busy: false,
                });
            }
            qps_per_server.push(lanes);
        }
        let n_large = (cfg.threads_per_client as f64 * cfg.large_fraction).round() as usize;
        let threads = (0..cfg.threads_per_client)
            .map(|t| ThreadModel {
                assigned_qp: vec![t % cfg.lanes_per_client.max(1); n_servers],
                target_qp: vec![t % cfg.lanes_per_client.max(1); n_servers],
                parked: 0,
                inflight: 0,
                bytes: 0,
                reqs: 0,
                sizes: MedianWindow::new(64),
                rng: rng.fork(t as u64 * 1000 + c as u64),
                req_size: if t >= cfg.threads_per_client - n_large {
                    cfg.large_size
                } else {
                    cfg.req_size
                },
                next_free: Ns::ZERO,
                submit_queue: Default::default(),
                submitting: false,
            })
            .collect();
        clients.push(ClientNode {
            nic: BankedServer::new(cfg.cost.nic_processing_units),
            tx_link: MultiServer::new(1),
            rx_link: MultiServer::new(1),
            qps: qps_per_server,
            threads,
        });
    }

    // Register senders with the scheduler; adopt its initial active set.
    if cfg.system == SystemKind::Flock && cfg.scheduling {
        for (s, server) in servers.iter_mut().enumerate() {
            for (c, client) in clients.iter_mut().enumerate() {
                server
                    .qp_sched
                    .register_sender(c as u32, cfg.lanes_per_client);
                let map = server.qp_sched.active_map(c as u32).expect("registered");
                for (l, active) in map.into_iter().enumerate() {
                    client.qps[s][l].active = active;
                }
            }
        }
    }

    let app = match cfg.hydra_keys {
        Some(keys) => AppLogic::Hydra(Box::new(HydraApp::new(keys))),
        None => AppLogic::Echo,
    };

    World {
        cost: cfg.cost.clone(),
        rng,
        system: cfg.system,
        clients,
        servers,
        reqs: Vec::new(),
        free: Vec::new(),
        stats: Stats::default(),
        warmup: cfg.warmup,
        batch_limit: cfg.batch_limit,
        thread_sched: cfg.thread_sched,
        outstanding: cfg.outstanding,
        handler_ns: cfg.handler_ns,
        app,
        txns: Vec::new(),
        txn_engine: None,
    }
}

fn finish_run(w: &World, elapsed: Ns) -> Report {
    let cache_hit = {
        let (h, m) = w.servers.iter().fold((0u64, 0u64), |(h, m), s| {
            (h + s.cache.hits(), m + s.cache.misses())
        });
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    Report {
        mops: w.stats.completed.mops(elapsed),
        median_us: w.stats.latency.median_us(),
        p99_us: w.stats.latency.p99_us(),
        degree: w.stats.degree.mean(),
        cache_hit,
        server_cpu: w.servers[0].cores.utilization(elapsed + w.warmup),
        messages: w.stats.messages,
        packets: w.stats.packets,
        commits: w.stats.commits,
        aborts: w.stats.aborts,
        get_median_us: w.stats.get_latency.median_us(),
        get_p99_us: w.stats.get_latency.p99_us(),
        scan_median_us: w.stats.scan_latency.median_us(),
        scan_p99_us: w.stats.scan_latency.p99_us(),
    }
}

/// Run an RPC-family experiment (echo or index app).
pub fn run_rpc(cfg: &RpcConfig) -> Report {
    let mut w = build_world(cfg, 1);
    let mut sim: Sim<World> = Sim::new();
    sim.at(Ns::ZERO, |w: &mut World, sim| {
        crate::client::start_all_threads(w, sim);
    });
    if cfg.system == SystemKind::Flock && cfg.scheduling {
        sim.at(Ns::from_millis(1), move |w: &mut World, sim| {
            crate::server::qp_sched_tick(w, sim, 0, Ns::from_millis(1));
        });
    }
    let t_end = cfg.warmup + cfg.duration;
    sim.run_until(&mut w, t_end);
    finish_run(&w, cfg.duration)
}

/// Configuration for the raw RC-read sweep (Figure 2(a)).
#[derive(Clone)]
pub struct RawReadConfig {
    /// Number of client nodes (paper: 22).
    pub n_clients: usize,
    /// Total QPs across all clients.
    pub total_qps: usize,
    /// Outstanding reads per QP.
    pub outstanding_per_qp: usize,
    /// Read size in bytes (paper: 16).
    pub read_size: usize,
    /// Measurement window.
    pub duration: Ns,
    /// Warmup.
    pub warmup: Ns,
    /// Cost model.
    pub cost: CostModel,
}

impl Default for RawReadConfig {
    fn default() -> Self {
        RawReadConfig {
            n_clients: 22,
            total_qps: 176,
            outstanding_per_qp: 2,
            read_size: 16,
            duration: Ns::from_millis(5),
            warmup: Ns::from_millis(1),
            cost: CostModel::default(),
        }
    }
}

/// Run the raw one-sided read experiment (Figure 2(a)).
pub fn run_raw_read(cfg: &RawReadConfig) -> Report {
    let rpc_cfg = RpcConfig {
        n_clients: cfg.n_clients,
        threads_per_client: 1,
        lanes_per_client: cfg.total_qps.div_ceil(cfg.n_clients),
        batch_limit: 1,
        scheduling: false,
        thread_sched: false,
        duration: cfg.duration,
        warmup: cfg.warmup,
        cost: cfg.cost.clone(),
        ..RpcConfig::default()
    };
    let mut w = build_world(&rpc_cfg, 1);
    let mut sim: Sim<World> = Sim::new();
    let per_client = cfg.total_qps.div_ceil(cfg.n_clients);
    let n_clients = cfg.n_clients;
    let outstanding = cfg.outstanding_per_qp;
    let read_size = cfg.read_size;
    let mut assigned = 0usize;
    let total = cfg.total_qps;
    sim.at(Ns::ZERO, move |w: &mut World, sim| {
        for client in 0..n_clients {
            for lane in 0..per_client {
                if assigned >= total {
                    break;
                }
                assigned += 1;
                let key = w.clients[client].qps[0][lane].global_id;
                for _ in 0..outstanding {
                    let id = w.alloc_req(Req {
                        issued: sim.now(),
                        client,
                        thread: 0,
                        server: 0,
                        size: 32,
                        resp_size: read_size,
                        kind: ReqKind::Read,
                        key,
                        txn: None,
                    });
                    transmit(
                        w,
                        sim,
                        Some(key),
                        32,
                        NetMsg::ReadReq {
                            client,
                            server: 0,
                            qp_key: key,
                            req: id,
                        },
                    );
                }
            }
        }
    });
    let t_end = cfg.warmup + cfg.duration;
    sim.run_until(&mut w, t_end);
    finish_run(&w, cfg.duration)
}

/// Configuration for the transaction experiments (Figures 14–15).
#[derive(Clone)]
pub struct TxnConfig {
    /// Base RPC/system configuration.
    pub rpc: RpcConfig,
    /// Number of servers (paper: 3).
    pub n_servers: usize,
    /// Coroutines per thread submitting transactions (paper: 19 of 20).
    pub coroutines: usize,
    /// The workload.
    pub workload: TxnWorkload,
    /// Validate with RPCs (FaSST) instead of one-sided reads (FlockTX).
    pub validate_via_rpc: bool,
}

/// Run a transaction experiment.
pub fn run_txn(cfg: &TxnConfig) -> Report {
    let mut w = build_world(&cfg.rpc, cfg.n_servers);
    w.app = AppLogic::Txn;
    w.txn_engine = Some(TxnEngine::new(
        cfg.n_servers,
        cfg.workload.clone(),
        cfg.validate_via_rpc,
    ));
    let mut sim: Sim<World> = Sim::new();
    let coroutines = cfg.coroutines;
    sim.at(Ns::ZERO, move |w: &mut World, sim| {
        crate::coord::start_all(w, sim, coroutines);
    });
    if cfg.rpc.system == SystemKind::Flock && cfg.rpc.scheduling {
        for s in 0..cfg.n_servers {
            sim.at(Ns::from_millis(1), move |w: &mut World, sim| {
                crate::server::qp_sched_tick(w, sim, s, Ns::from_millis(1));
            });
        }
    }
    let t_end = cfg.rpc.warmup + cfg.rpc.duration;
    sim.run_until(&mut w, t_end);
    finish_run(&w, cfg.rpc.duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: &mut RpcConfig) {
        cfg.duration = Ns::from_millis(2);
        cfg.warmup = Ns::from_millis(1);
        cfg.n_clients = 4;
    }

    #[test]
    fn flock_echo_run_produces_throughput() {
        let mut cfg = RpcConfig::default();
        quick(&mut cfg);
        cfg.threads_per_client = 4;
        cfg.lanes_per_client = 4;
        let r = run_rpc(&cfg);
        assert!(r.mops > 0.1, "mops={}", r.mops);
        assert!(r.median_us > 0.5, "median={}", r.median_us);
        assert!(r.p99_us >= r.median_us);
    }

    #[test]
    fn ud_echo_run_produces_throughput() {
        let mut cfg = RpcConfig::default();
        quick(&mut cfg);
        cfg.system = SystemKind::UdRpc;
        cfg.threads_per_client = 4;
        let r = run_rpc(&cfg);
        assert!(r.mops > 0.1, "mops={}", r.mops);
        assert_eq!(r.degree, 0.0, "UD cannot coalesce");
    }

    #[test]
    fn flock_coalesces_under_contention() {
        let mut cfg = RpcConfig::default();
        quick(&mut cfg);
        cfg.threads_per_client = 16;
        cfg.lanes_per_client = 2; // heavy sharing
        cfg.outstanding = 8;
        let r = run_rpc(&cfg);
        assert!(r.degree > 1.2, "degree={}", r.degree);
    }

    #[test]
    fn lockshare_never_coalesces() {
        let mut cfg = RpcConfig::default();
        quick(&mut cfg);
        cfg.system = SystemKind::LockShare;
        cfg.scheduling = false;
        cfg.threads_per_client = 8;
        cfg.lanes_per_client = 2;
        cfg.outstanding = 8;
        cfg.batch_limit = 1;
        let r = run_rpc(&cfg);
        assert!((r.degree - 1.0).abs() < 1e-9, "degree={}", r.degree);
    }

    #[test]
    fn raw_read_thrashes_beyond_cache_capacity() {
        let mut small = RawReadConfig::default();
        small.total_qps = 176;
        small.duration = Ns::from_millis(2);
        small.warmup = Ns::from_millis(1);
        let mut big = small.clone();
        big.total_qps = 2816;
        let r_small = run_raw_read(&small);
        let r_big = run_raw_read(&big);
        assert!(r_small.cache_hit > 0.95, "hit={}", r_small.cache_hit);
        assert!(r_big.cache_hit < 0.6, "hit={}", r_big.cache_hit);
        assert!(
            r_small.mops > r_big.mops * 1.5,
            "no thrash: {} vs {}",
            r_small.mops,
            r_big.mops
        );
    }

    #[test]
    fn txn_smallbank_commits_and_aborts() {
        let mut rpc = RpcConfig::default();
        rpc.n_clients = 4;
        rpc.threads_per_client = 2;
        rpc.lanes_per_client = 2;
        rpc.duration = Ns::from_millis(2);
        rpc.warmup = Ns::from_millis(1);
        let cfg = TxnConfig {
            rpc,
            n_servers: 3,
            coroutines: 4,
            workload: TxnWorkload::Smallbank(flock_txn::Smallbank::new(100)),
            validate_via_rpc: false,
        };
        let r = run_txn(&cfg);
        assert!(r.commits > 100, "commits={}", r.commits);
        // Hot 4% of 100 accounts = 4 accounts with 90% of traffic: real
        // lock conflicts must produce aborts.
        assert!(r.aborts > 0, "aborts={}", r.aborts);
    }

    #[test]
    fn txn_tatp_mostly_read_commits() {
        let mut rpc = RpcConfig::default();
        rpc.n_clients = 4;
        rpc.threads_per_client = 2;
        rpc.lanes_per_client = 2;
        rpc.duration = Ns::from_millis(2);
        rpc.warmup = Ns::from_millis(1);
        let cfg = TxnConfig {
            rpc,
            n_servers: 3,
            coroutines: 4,
            workload: TxnWorkload::Tatp(flock_txn::Tatp::new(10_000)),
            validate_via_rpc: false,
        };
        let r = run_txn(&cfg);
        assert!(r.commits > 100, "commits={}", r.commits);
        let abort_rate = r.aborts as f64 / (r.commits + r.aborts) as f64;
        assert!(abort_rate < 0.05, "abort rate {abort_rate}");
    }

    #[test]
    fn hydra_index_run() {
        let mut cfg = RpcConfig::default();
        quick(&mut cfg);
        cfg.threads_per_client = 4;
        cfg.hydra_keys = Some(100_000);
        let r = run_rpc(&cfg);
        assert!(r.mops > 0.1);
        assert!(r.scan_median_us > 0.0);
        assert!(r.get_median_us > 0.0);
        assert!(
            r.scan_median_us >= r.get_median_us,
            "scans are heavier than gets"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let mut cfg = RpcConfig::default();
        quick(&mut cfg);
        cfg.threads_per_client = 4;
        let a = run_rpc(&cfg);
        let b = run_rpc(&cfg);
        assert_eq!(a.mops, b.mops);
        assert_eq!(a.median_us, b.median_us);
        assert_eq!(a.messages, b.messages);
    }
}
