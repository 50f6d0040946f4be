//! The manual RPC API (paper Table 2: `fl_recv_rpc` / `fl_send_res`):
//! instead of registering handlers that run on the dispatcher, the
//! application manages its own pool of RPC worker threads — the paper's
//! "application-managed pool of RPC workers" (§4.3).
//!
//! The workers here simulate a compute-heavy service (checksum over the
//! payload) where handler-on-dispatcher execution would serialize the
//! server.
//!
//! Run with: `cargo run --release --example worker_pool`

use std::sync::Arc;
use std::time::Duration;

use flock_repro::core::api::{fl_connect, fl_recv_rpc, fl_send_res};
use flock_repro::core::client::HandleConfig;
use flock_repro::core::server::{FlockServer, ServerConfig};
use flock_repro::core::FlockDomain;
use flock_sync::Counter;

const RPC_CHECKSUM: u32 = 7;
const N_WORKERS: usize = 4;

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn main() {
    let domain = FlockDomain::with_defaults();
    let server_node = domain.add_node("pool-server");
    let server = Arc::new(FlockServer::listen(
        &domain,
        &server_node,
        "pool",
        ServerConfig::default(),
    ));
    // No handler registered for RPC_CHECKSUM: requests flow to the manual
    // queue that the worker pool drains.
    let served = Arc::new(Counter::default());
    let mut workers = Vec::new();
    for w in 0..N_WORKERS {
        let server = Arc::clone(&server);
        let served = Arc::clone(&served);
        workers.push(std::thread::spawn(move || {
            let mut handled = 0u64;
            loop {
                match fl_recv_rpc(&server, Duration::from_millis(200)) {
                    Some(req) => {
                        assert_eq!(req.rpc_id, RPC_CHECKSUM);
                        let sum = fnv1a(&req.data);
                        fl_send_res(&server, req.token, &sum.to_le_bytes()).unwrap();
                        handled += 1;
                        served.add(1);
                    }
                    // Idle timeout after the clients are done: exit.
                    None if served.get() >= 600 => break,
                    None => continue,
                }
            }
            println!("worker {w}: handled {handled} requests");
        }));
    }

    // Two client nodes, three threads each.
    let mut joins = Vec::new();
    let mut handles = Vec::new();
    for c in 0..2 {
        let node = domain.add_node(&format!("pool-client-{c}"));
        let handle = Arc::new(fl_connect(&domain, &node, "pool", HandleConfig::default()).unwrap());
        for t in 0..3u64 {
            let th = handle.register_thread();
            joins.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let payload = vec![(c as u8) ^ (t as u8) ^ (i as u8); 64 + (i as usize % 64)];
                    let resp = th.call(RPC_CHECKSUM, &payload).unwrap();
                    let got = u64::from_le_bytes(resp[..].try_into().unwrap());
                    assert_eq!(got, fnv1a(&payload), "checksum mismatch");
                }
            }));
        }
        // Keep the handle alive until its threads finish.
        handles.push(handle);
    }
    for j in joins {
        j.join().unwrap();
    }
    for w in workers {
        w.join().unwrap();
    }
    println!(
        "worker pool served {} checksums over the manual fl_recv_rpc / fl_send_res API",
        served.get()
    );
    server.shutdown(&domain);
}
