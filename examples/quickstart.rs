//! Quickstart: a Flock echo service.
//!
//! Demonstrates the core `fl_*` workflow from the paper's Table 2:
//! a server registers handlers, clients connect through a connection
//! handle, and multiple application threads share the handle's QPs with
//! coalescing happening transparently underneath.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use flock_repro::core::api::{fl_connect, fl_recv_res, fl_reg_handler, fl_send_rpc};
use flock_repro::core::client::HandleConfig;
use flock_repro::core::server::{FlockServer, ServerConfig};
use flock_repro::core::FlockDomain;

const RPC_ECHO: u32 = 1;
const RPC_UPPER: u32 = 2;

fn main() {
    // The "datacenter": an in-process RDMA fabric plus a name registry.
    let domain = FlockDomain::with_defaults();
    let server_node = domain.add_node("server");
    let client_node = domain.add_node("client");

    // --- Server side -----------------------------------------------------
    let server = FlockServer::listen(&domain, &server_node, "echo-svc", ServerConfig::default());
    fl_reg_handler(&server, RPC_ECHO, |req| req.to_vec());
    fl_reg_handler(&server, RPC_UPPER, |req| req.to_ascii_uppercase());

    // --- Client side -----------------------------------------------------
    let handle = Arc::new(
        fl_connect(&domain, &client_node, "echo-svc", HandleConfig::default())
            .expect("connect to echo-svc"),
    );

    // Four application threads share the handle's QPs; each pipelines
    // four outstanding requests.
    let mut joins = Vec::new();
    for tid in 0..4 {
        let t = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..100 {
                let msg = format!("hello-{tid}-{i}");
                let seqs = [
                    fl_send_rpc(&t, RPC_ECHO, msg.as_bytes()).unwrap(),
                    fl_send_rpc(&t, RPC_UPPER, msg.as_bytes()).unwrap(),
                ];
                let echoed = fl_recv_res(&t, seqs[0]).unwrap();
                let upper = fl_recv_res(&t, seqs[1]).unwrap();
                assert_eq!(echoed, msg.as_bytes());
                assert_eq!(upper, msg.to_ascii_uppercase().as_bytes());
            }
            println!("thread {tid}: 200 RPCs done");
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    println!(
        "server processed {} requests in {} coalesced messages (mean degree {:.2})",
        server.stats().requests.get(),
        server.stats().messages.get(),
        server.stats().mean_coalescing_degree(),
    );
    server.shutdown(&domain);
}
