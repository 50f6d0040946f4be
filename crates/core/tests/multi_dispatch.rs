//! Stress test for the sharded server dispatch path: many client nodes
//! fan in to one server running several dispatcher workers over a
//! multi-lane NIC, with per-request canary payloads validated end to end.
//!
//! What this exercises that `flock_e2e.rs` does not:
//!
//! * `ServerConfig::dispatch_threads > 1` — connections are partitioned
//!   across dispatcher workers, and the partition is re-cut whenever the
//!   QP scheduler redistributes active QPs mid-run.
//! * `FabricConfig::nic_lanes > 1` — request and response DMA for
//!   different QPs executes on different engine lanes concurrently.
//! * Cross-connection isolation — every response must answer its own
//!   request (the canary encodes client, thread, and sequence), so a
//!   dispatcher draining the wrong partition or a lane reordering one
//!   QP's writes shows up as a payload mismatch, not just a hang.

use std::sync::Arc;
use std::time::Duration;

use flock_core::api::*;
use flock_core::client::HandleConfig;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::FlockDomain;
use flock_fabric::FabricConfig;

fn canary_server(domain: &FlockDomain, name: &str, cfg: ServerConfig) -> FlockServer {
    let node = domain.add_node(&format!("node-{name}"));
    let server = FlockServer::listen(domain, &node, name, cfg);
    // Echo with a marker so a short-circuited or misrouted response can
    // never masquerade as a correct one.
    server.reg_handler(7, |req| {
        let mut out = b"ok:".to_vec();
        out.extend_from_slice(req);
        out
    });
    server
}

/// 6 client nodes x 2 threads each, pipelined in windows of 4, against a
/// server with 4 dispatcher workers on a 4-lane NIC. Every canary comes
/// back intact and the server accounts for every request.
#[test]
fn fan_in_canaries_survive_sharded_dispatch() {
    let mut fab = FabricConfig::default();
    fab.nic_lanes = 4;
    let domain = FlockDomain::new(fab);

    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = 4;
    // Frequent redistribution so the dispatcher partition is re-cut
    // while traffic is in flight (exercises `rebalance_dispatch`).
    scfg.sched_interval = Duration::from_millis(5);
    let server = canary_server(&domain, "shard-srv", scfg);

    const CLIENTS: usize = 6;
    const THREADS: usize = 2;
    const ROUNDS: usize = 25;
    const WINDOW: usize = 4;

    let mut joins = Vec::new();
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let node = domain.add_node(&format!("mc-{client}"));
        let mut cfg = HandleConfig::default();
        cfg.n_qps = 2;
        let handle = Arc::new(fl_connect(&domain, &node, "shard-srv", cfg).expect("connect"));
        handles.push(Arc::clone(&handle));
        for thread in 0..THREADS {
            let t = handle.register_thread();
            joins.push(std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let seqs: Vec<(u64, String)> = (0..WINDOW)
                        .map(|w| {
                            let canary = format!("canary-{client}-{thread}-{}", round * WINDOW + w);
                            let seq = t.send_rpc(7, canary.as_bytes()).expect("send");
                            (seq, canary)
                        })
                        .collect();
                    for (seq, canary) in seqs {
                        let resp = t.recv_res(seq).expect("recv");
                        assert_eq!(
                            resp,
                            format!("ok:{canary}").as_bytes(),
                            "client {client} thread {thread} got a foreign or corrupt response"
                        );
                    }
                }
            }));
        }
    }
    for j in joins {
        j.join().unwrap();
    }

    let total = (CLIENTS * THREADS * ROUNDS * WINDOW) as u64;
    assert_eq!(server.stats().requests.get(), total);
    server.shutdown(&domain);
}

/// Degenerate-case guard: more dispatcher workers than connections, and
/// a single-lane NIC. Workers with an empty partition must idle quietly
/// while the one loaded worker serves everything.
#[test]
fn more_workers_than_connections() {
    let domain = FlockDomain::with_defaults();
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = 8;
    let server = canary_server(&domain, "sparse-srv", scfg);

    let node = domain.add_node("mc-solo");
    let handle = fl_connect(&domain, &node, "sparse-srv", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    for i in 0..100 {
        let msg = format!("solo-{i}");
        let resp = t.call(7, msg.as_bytes()).unwrap();
        assert_eq!(resp, format!("ok:{msg}").as_bytes());
    }
    server.shutdown(&domain);
}
