//! End-to-end tests of the baseline systems.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flock_baselines::erpc::{UdRpcClient, UdRpcConfig, UdRpcServer};
use flock_baselines::lockshare::{LockShareConfig, LockSharedClient};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{FlockDomain, FlockError};
use flock_fabric::{Fabric, FabricConfig};

#[test]
fn ud_rpc_roundtrip() {
    let fabric = Fabric::with_defaults();
    let snode = fabric.add_node("uds");
    let cnode = fabric.add_node("udc");
    let server = UdRpcServer::start(&snode, UdRpcConfig::default(), |rpc_id, req| {
        let mut out = vec![rpc_id as u8];
        out.extend_from_slice(req);
        out
    });
    let client = UdRpcClient::connect(&cnode, server.addr(), UdRpcConfig::default());
    let t = client.register_thread();
    for i in 0..50u8 {
        let resp = t.call(7, &[i]).unwrap();
        assert_eq!(resp, vec![7, i]);
    }
    assert_eq!(server.requests.get(), 50);
}

#[test]
fn ud_rpc_fragments_large_payloads() {
    let fabric = Fabric::with_defaults();
    let snode = fabric.add_node("uds2");
    let cnode = fabric.add_node("udc2");
    let server = UdRpcServer::start(&snode, UdRpcConfig::default(), |_, req| req.to_vec());
    let client = UdRpcClient::connect(&cnode, server.addr(), UdRpcConfig::default());
    let t = client.register_thread();
    // 20 KB payload: 5+ fragments each way over the 4 KB UD MTU.
    let payload: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
    let resp = t.call(1, &payload).unwrap();
    assert_eq!(resp, payload);
}

#[test]
fn ud_rpc_survives_packet_loss_via_retransmission() {
    let mut config = FabricConfig::default();
    config.ud_drop_probability = 0.2; // 20% loss
    let fabric = Fabric::new(config);
    let snode = fabric.add_node("uds3");
    let cnode = fabric.add_node("udc3");
    let server = UdRpcServer::start(&snode, UdRpcConfig::default(), |_, req| req.to_vec());
    let mut ccfg = UdRpcConfig::default();
    ccfg.rto = std::time::Duration::from_millis(5);
    let client = UdRpcClient::connect(&cnode, server.addr(), ccfg);
    let t = client.register_thread();
    for i in 0..40u8 {
        let resp = t.call(1, &[i, i, i]).unwrap();
        assert_eq!(resp, vec![i, i, i]);
    }
    // With 20% loss over 80+ packets, retransmissions must have occurred.
    assert!(
        client.retransmissions.get() > 0,
        "loss injection did not exercise retransmission"
    );
}

#[test]
fn ud_rpc_on_a_lossy_wire_times_out_with_a_typed_error() {
    let mut config = FabricConfig::default();
    config.ud_drop_probability = 1.0; // every datagram lost
    let fabric = Fabric::new(config);
    let snode = fabric.add_node("uds4");
    let cnode = fabric.add_node("udc4");
    let server = UdRpcServer::start(&snode, UdRpcConfig::default(), |_, req| req.to_vec());
    // Two ways to give up: the retransmission budget runs out first, or
    // the call's deadline passes first.
    let mut by_retries = UdRpcConfig::default();
    by_retries.rto = Duration::from_millis(1);
    by_retries.max_retries = 3;
    let mut by_deadline = by_retries.clone();
    by_deadline.max_retries = 1_000;
    by_deadline.timeout = Duration::from_millis(5);
    for ccfg in [by_retries, by_deadline] {
        let max_retries = ccfg.max_retries;
        let client = UdRpcClient::connect(&cnode, server.addr(), ccfg);
        let t = client.register_thread();
        let start = Instant::now();
        assert_eq!(t.call(1, &[1, 2, 3]), Err(FlockError::Timeout));
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(1), "gave up after {waited:?}");
        let resent = Arc::clone(&client.retransmissions);
        drop(client);
        // The count, read once nothing can add to it.
        let resent = Arc::into_inner(resent).expect("the client is gone").get();
        assert!(resent <= u64::from(max_retries), "{resent} retransmissions");
    }
    let requests = Arc::clone(&server.requests);
    drop(server);
    let requests = Arc::into_inner(requests).expect("the server is gone").get();
    assert_eq!(requests, 0, "a request crossed a wire that drops everything");
}

#[test]
fn lockshare_client_talks_to_flock_server() {
    let domain = FlockDomain::with_defaults();
    let snode = domain.add_node("ls-srv");
    let server = FlockServer::listen(&domain, &snode, "ls", ServerConfig::default());
    server.reg_handler(1, |req| {
        let mut out = req.to_vec();
        out.reverse();
        out
    });
    let cnode = domain.add_node("ls-cli");
    let mut cfg = LockShareConfig::default();
    cfg.n_qps = 2;
    let client = Arc::new(LockSharedClient::connect(&domain, &cnode, "ls", cfg).unwrap());
    let mut joins = Vec::new();
    for tid in 0..4 {
        let t = client.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..50 {
                let msg = format!("m{tid}-{i}");
                let resp = t.call(1, msg.as_bytes()).unwrap();
                let mut expect = msg.into_bytes();
                expect.reverse();
                assert_eq!(resp, expect);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // No coalescing: one message per request (plus none extra).
    assert_eq!(client.messages_sent(), 4 * 50);
    server.shutdown(&domain);
}

#[test]
fn noshare_is_lockshare_with_one_thread_per_qp() {
    let domain = FlockDomain::with_defaults();
    let snode = domain.add_node("ns-srv");
    let server = FlockServer::listen(&domain, &snode, "ns", ServerConfig::default());
    server.reg_handler(1, |req| req.to_vec());
    let cnode = domain.add_node("ns-cli");
    let mut cfg = LockShareConfig::default();
    cfg.n_qps = 4; // 4 threads, 4 QPs: one each — the no-sharing config
    let client = Arc::new(LockSharedClient::connect(&domain, &cnode, "ns", cfg).unwrap());
    let mut joins = Vec::new();
    for _ in 0..4 {
        let t = client.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..30u32 {
                let resp = t.call(1, &i.to_le_bytes()).unwrap();
                assert_eq!(resp, i.to_le_bytes());
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    server.shutdown(&domain);
}
