//! A replicated key-value cache service over Flock RPC — the kind of
//! high fan-in workload the paper's introduction motivates.
//!
//! One server hosts a `flock-kvstore`; several client nodes hammer it
//! with a skewed GET/PUT mix from many threads, sharing QPs under the
//! covers. The example prints throughput and the observed coalescing.
//!
//! Run with: `cargo run --release --example kv_service`

use std::sync::Arc;
use std::time::Instant;

use flock_repro::core::client::HandleConfig;
use flock_repro::core::server::{FlockServer, ServerConfig};
use flock_repro::core::{ConnectionHandle, FlockDomain};
use flock_repro::kvstore::{KvConfig, KvStore};
use flock_repro::sim::SimRng;

const RPC_GET: u32 = 1;
const RPC_PUT: u32 = 2;

fn encode_put(key: u64, value: &[u8]) -> Vec<u8> {
    let mut out = key.to_le_bytes().to_vec();
    out.extend_from_slice(value);
    out
}

fn main() {
    let domain = FlockDomain::with_defaults();
    let server_node = domain.add_node("kv-server");
    let server = FlockServer::listen(&domain, &server_node, "kv", ServerConfig::default());

    let kv = Arc::new(KvStore::new(KvConfig::default()));
    for k in 0..10_000u64 {
        kv.put(k, format!("value-{k}").as_bytes());
    }
    {
        let kv = Arc::clone(&kv);
        server.reg_handler(RPC_GET, move |req| {
            let key = u64::from_le_bytes(req[..8].try_into().unwrap());
            kv.get(key).unwrap_or_default()
        });
    }
    {
        let kv = Arc::clone(&kv);
        server.reg_handler(RPC_PUT, move |req| {
            let key = u64::from_le_bytes(req[..8].try_into().unwrap());
            kv.put(key, &req[8..]);
            b"ok".to_vec()
        });
    }

    // Three client machines, four threads each, 4 outstanding requests.
    let start = Instant::now();
    let mut joins = Vec::new();
    let mut handles = Vec::new();
    for c in 0..3 {
        let node = domain.add_node(&format!("kv-client-{c}"));
        let mut cfg = HandleConfig::default();
        cfg.n_qps = 2; // force QP sharing across the 4 threads
        let handle = Arc::new(ConnectionHandle::connect(&domain, &node, "kv", cfg).unwrap());
        for t in 0..4u64 {
            let th = handle.register_thread();
            joins.push(std::thread::spawn(move || {
                let mut rng = SimRng::new(c as u64 * 100 + t);
                let mut ops = 0u64;
                for _ in 0..125 {
                    // Pipeline 4 ops: 80% GET, 20% PUT, skewed keys.
                    let seqs: Vec<(u64, bool, u64)> = (0..4)
                        .map(|_| {
                            let key = if rng.chance(0.8) {
                                rng.below(100) // hot set
                            } else {
                                rng.below(10_000)
                            };
                            if rng.chance(0.8) {
                                (th.send_rpc(RPC_GET, &key.to_le_bytes()).unwrap(), true, key)
                            } else {
                                let payload = encode_put(key, b"updated");
                                (th.send_rpc(RPC_PUT, &payload).unwrap(), false, key)
                            }
                        })
                        .collect();
                    for (seq, is_get, _key) in seqs {
                        let resp = th.recv_res(seq).unwrap();
                        if !is_get {
                            assert_eq!(resp, b"ok");
                        }
                        ops += 1;
                    }
                }
                ops
            }));
        }
        handles.push(handle);
    }
    let total: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    let secs = start.elapsed().as_secs_f64();

    println!(
        "completed {total} KV ops in {secs:.2}s ({:.0} ops/s)",
        total as f64 / secs
    );
    println!(
        "server saw {} requests in {} messages (coalescing degree {:.2})",
        server.stats().requests.get(),
        server.stats().messages.get(),
        server.stats().mean_coalescing_degree()
    );
    for h in &handles {
        println!(
            "client {}: mean degree {:.2}, {} active QPs",
            h.sender_id(),
            h.metrics().degree,
            h.active_qps()
        );
    }
    server.shutdown(&domain);
}
