//! End-to-end tests of the threaded Flock runtime: RPC with coalescing,
//! outstanding requests, one-sided memory/atomic operations, the manual
//! server API, credit renewal under sustained load, and thread migration.

use std::sync::Arc;
use std::time::Duration;

use flock_core::api::*;
use flock_core::client::HandleConfig;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{ConnectionHandle, FlockDomain};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

fn echo_server(domain: &FlockDomain, name: &str, cfg: ServerConfig) -> FlockServer {
    let node = domain.add_node(&format!("node-{name}"));
    let server = FlockServer::listen(domain, &node, name, cfg);
    server.reg_handler(1, |req| {
        let mut out = b"echo:".to_vec();
        out.extend_from_slice(req);
        out
    });
    server.reg_handler(2, |req| {
        // Sum of bytes, as a tiny compute handler.
        let s: u64 = req.iter().map(|&b| b as u64).sum();
        s.to_le_bytes().to_vec()
    });
    server
}

#[test]
fn single_thread_rpc_roundtrip() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s1", ServerConfig::default());
    let client = domain.add_node("c1");
    let handle = fl_connect(&domain, &client, "s1", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    for i in 0..50 {
        let msg = format!("msg-{i}");
        let resp = t.call(1, msg.as_bytes()).unwrap();
        assert_eq!(resp, format!("echo:{msg}").as_bytes());
    }
    server.shutdown(&domain);
}

#[test]
fn outstanding_requests_pipeline() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s2", ServerConfig::default());
    let client = domain.add_node("c2");
    let handle = fl_connect(&domain, &client, "s2", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    // Send 8 outstanding, then collect all (the paper's pipelined client).
    let seqs: Vec<u64> = (0..8)
        .map(|i| fl_send_rpc(&t, 1, format!("p{i}").as_bytes()).unwrap())
        .collect();
    for (i, seq) in seqs.into_iter().enumerate() {
        let resp = fl_recv_res(&t, seq).unwrap();
        assert_eq!(resp, format!("echo:p{i}").as_bytes());
    }
    server.shutdown(&domain);
}

#[test]
fn many_threads_share_qps() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s3", ServerConfig::default());
    let client = domain.add_node("c3");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 2; // 8 threads over 2 QPs: forced sharing
    let handle = Arc::new(fl_connect(&domain, &client, "s3", cfg).unwrap());
    let mut joins = Vec::new();
    for tid in 0..8 {
        let t = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..40 {
                let msg = format!("t{tid}-m{i}");
                let resp = t.call(1, msg.as_bytes()).unwrap();
                assert_eq!(resp, format!("echo:{msg}").as_bytes());
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // The server observed every request.
    assert_eq!(
        server
            .stats()
            .requests
            .load(std::sync::atomic::Ordering::Relaxed),
        8 * 40
    );
    server.shutdown(&domain);
}

#[test]
fn coalescing_emerges_under_concurrency() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s4", ServerConfig::default());
    let client = domain.add_node("c4");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1; // maximum contention on one QP
    cfg.auto_thread_sched = false;
    let handle = Arc::new(fl_connect(&domain, &client, "s4", cfg).unwrap());
    let mut joins = Vec::new();
    for _ in 0..6 {
        let t = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for _ in 0..100 {
                // 4 outstanding to create concurrency windows.
                let seqs: Vec<u64> = (0..4).map(|_| t.send_rpc(1, b"x").unwrap()).collect();
                for s in seqs {
                    t.recv_res(s).unwrap();
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // Some messages must have carried more than one request.
    let degree = handle.mean_coalescing_degree();
    assert!(degree > 1.0, "observed coalescing degree {degree}");
    // The server agrees.
    let server_degree = server.stats().mean_coalescing_degree();
    assert!(server_degree > 1.0, "server degree {server_degree}");
    server.shutdown(&domain);
}

#[test]
fn no_coalescing_config_sends_singletons() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s5", ServerConfig::default());
    let client = domain.add_node("c5");
    let mut cfg = HandleConfig::default();
    cfg.batch_limit = 1;
    cfg.n_qps = 1;
    let handle = Arc::new(fl_connect(&domain, &client, "s5", cfg).unwrap());
    let mut joins = Vec::new();
    for _ in 0..4 {
        let t = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for _ in 0..50 {
                t.call(1, b"y").unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let degree = handle.mean_coalescing_degree();
    assert!(
        (degree - 1.0).abs() < 1e-9,
        "coalescing disabled but degree {degree}"
    );
    server.shutdown(&domain);
}

#[test]
fn one_sided_memory_operations() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-mem");
    let server = FlockServer::listen(&domain, &node, "mem", ServerConfig::default());
    let mem_idx = fl_attach_mreg(&server, 1 << 20);
    assert_eq!(mem_idx, 0);
    // Pre-populate server memory directly.
    let mr = server.mem_region(0).unwrap();
    mr.write(100, b"server-data").unwrap();
    mr.write_u64(0, 41).unwrap();

    let client = domain.add_node("c-mem");
    let handle = fl_connect(&domain, &client, "mem", HandleConfig::default()).unwrap();
    let t = handle.register_thread();

    // Read.
    let data = fl_read(&t, 0, 100, 11).unwrap();
    assert_eq!(data, b"server-data");

    // Write then read back.
    fl_write(&t, 0, 500, b"client-wrote").unwrap();
    assert_eq!(mr.read_vec(500, 12).unwrap(), b"client-wrote");

    // Fetch-and-add.
    let old = fl_fetch_and_add(&t, 0, 0, 1).unwrap();
    assert_eq!(old, 41);
    assert_eq!(mr.read_u64(0).unwrap(), 42);

    // Compare-and-swap: success then failure.
    let old = fl_cmp_and_swap(&t, 0, 0, 42, 7).unwrap();
    assert_eq!(old, 42);
    let old = fl_cmp_and_swap(&t, 0, 0, 42, 99).unwrap();
    assert_eq!(old, 7);
    assert_eq!(mr.read_u64(0).unwrap(), 7);

    server.shutdown(&domain);
}

#[test]
fn mixed_rpc_and_memops_on_shared_qp() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-mix");
    let server = FlockServer::listen(&domain, &node, "mix", ServerConfig::default());
    server.reg_handler(1, |req| req.to_vec());
    fl_attach_mreg(&server, 4096);

    let client = domain.add_node("c-mix");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1;
    let handle = Arc::new(fl_connect(&domain, &client, "mix", cfg).unwrap());
    let mut joins = Vec::new();
    for tid in 0..4u64 {
        let t = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..30u64 {
                if (tid + i) % 2 == 0 {
                    let resp = t.call(1, &i.to_le_bytes()).unwrap();
                    assert_eq!(resp, i.to_le_bytes());
                } else {
                    let off = tid * 64;
                    t.write(0, off, &i.to_le_bytes()).unwrap();
                    let back = t.read(0, off, 8).unwrap();
                    assert_eq!(back, i.to_le_bytes());
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    server.shutdown(&domain);
}

#[test]
fn manual_rpc_api() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-manual");
    let server = Arc::new(FlockServer::listen(
        &domain,
        &node,
        "manual",
        ServerConfig::default(),
    ));
    // No handler registered for id 9: requests flow to the manual queue.
    let worker = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let mut served = 0;
            while served < 10 {
                if let Some(req) = fl_recv_rpc(&server, Duration::from_millis(100)) {
                    assert_eq!(req.rpc_id, 9);
                    let mut out = req.data.to_vec();
                    out.reverse();
                    fl_send_res(&server, req.token, &out).unwrap();
                    served += 1;
                }
            }
        })
    };
    let client = domain.add_node("c-manual");
    let handle = fl_connect(&domain, &client, "manual", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    for i in 0..10 {
        let msg = format!("abc{i}");
        let resp = t.call(9, msg.as_bytes()).unwrap();
        let mut expect = msg.into_bytes();
        expect.reverse();
        assert_eq!(resp, expect);
    }
    worker.join().unwrap();
    server.shutdown(&domain);
}

#[test]
fn credit_renewal_under_sustained_load() {
    let domain = FlockDomain::with_defaults();
    let mut scfg = ServerConfig::default();
    scfg.sched.grant_size = 8; // small credits force frequent renewals
    let server = echo_server(&domain, "s-credit", scfg);
    let client = domain.add_node("c-credit");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1;
    let handle = fl_connect(&domain, &client, "s-credit", cfg).unwrap();
    let t = handle.register_thread();
    // 8 credits but 200 requests: at least ~20 renewals must be granted.
    for i in 0..200 {
        t.call(1, format!("{i}").as_bytes()).unwrap();
    }
    assert!(
        server
            .stats()
            .grants
            .load(std::sync::atomic::Ordering::Relaxed)
            > 5
    );
    server.shutdown(&domain);
}

#[test]
fn large_payloads_cross_ring_wrap() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-big", ServerConfig::default());
    let client = domain.add_node("c-big");
    let handle = fl_connect(&domain, &client, "s-big", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    // 8 KB payloads over a 64 KB ring: wraps are inevitable over 40 calls.
    for i in 0..40u8 {
        let payload = vec![i; 8 * 1024];
        let resp = t.call(1, &payload).unwrap();
        assert_eq!(resp.len(), 5 + payload.len());
        assert_eq!(&resp[..5], b"echo:");
        assert!(resp[5..].iter().all(|&b| b == i));
    }
    server.shutdown(&domain);
}

#[test]
fn two_clients_two_connections() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-multi", ServerConfig::default());
    let c1 = domain.add_node("mc1");
    let c2 = domain.add_node("mc2");
    let h1 = fl_connect(&domain, &c1, "s-multi", HandleConfig::default()).unwrap();
    let h2 = fl_connect(&domain, &c2, "s-multi", HandleConfig::default()).unwrap();
    assert_ne!(h1.sender_id(), h2.sender_id());
    let t1 = h1.register_thread();
    let t2 = h2.register_thread();
    let a = std::thread::spawn(move || {
        for _ in 0..50 {
            assert_eq!(t1.call(1, b"one").unwrap(), b"echo:one");
        }
    });
    for _ in 0..50 {
        assert_eq!(t2.call(1, b"two").unwrap(), b"echo:two");
    }
    a.join().unwrap();
    server.shutdown(&domain);
}

#[test]
fn unknown_server_fails_fast() {
    let domain = FlockDomain::with_defaults();
    let c = domain.add_node("lonely");
    let r = ConnectionHandle::connect(&domain, &c, "ghost", HandleConfig::default());
    assert!(r.is_err());
}

#[test]
fn compute_handler_and_thread_stats_flow() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-compute", ServerConfig::default());
    let client = domain.add_node("c-compute");
    let mut cfg = HandleConfig::default();
    cfg.sched_interval = Duration::from_millis(5);
    let handle = fl_connect(&domain, &client, "s-compute", cfg).unwrap();
    let t = handle.register_thread();
    let payload = vec![1u8; 100];
    let resp = t.call(2, &payload).unwrap();
    assert_eq!(u64::from_le_bytes(resp[..].try_into().unwrap()), 100);
    // Let the thread scheduler run at least once on live stats.
    std::thread::sleep(Duration::from_millis(30));
    assert!(handle.active_qps() >= 1);
    server.shutdown(&domain);
}

/// A request nobody answers fails with a typed `Timeout` once
/// `timeout` of the calling task's clock has passed, and no later than
/// `slack` after that.
fn unanswered_manual_request(timeout: Duration, slack: Duration) {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-timeout");
    let server = FlockServer::listen(&domain, &node, "timeout", ServerConfig::default());
    // rpc id 5 has no handler; nobody drains the manual queue.
    let client = domain.add_node("c-timeout");
    let mut cfg = HandleConfig::default();
    cfg.timeout = timeout;
    let handle = fl_connect(&domain, &client, "timeout", cfg).unwrap();
    let t = handle.register_thread();
    let started = clock::now_ns();
    let err = t.call(5, b"nobody answers").unwrap_err();
    let waited = Duration::from_nanos(clock::now_ns() - started);
    assert!(matches!(err, flock_core::FlockError::Timeout));
    assert!(waited >= timeout && waited < timeout + slack, "{waited:?}");
    server.shutdown(&domain);
}

#[test]
fn unanswered_manual_request_times_out() {
    // Threaded: the OS decides when the parked caller runs again.
    unanswered_manual_request(Duration::from_millis(150), Duration::from_secs(5));
    // Virtual: one 500 ns poll quantum past the deadline, plus the few
    // hundred ns the send itself is charged.
    VirtualLab::run(|| {
        unanswered_manual_request(Duration::from_millis(2), Duration::from_micros(2));
    });
}

#[test]
fn multiple_memory_regions_are_addressable() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-regions");
    let server = FlockServer::listen(&domain, &node, "regions", ServerConfig::default());
    let a = fl_attach_mreg(&server, 4096);
    let b = fl_attach_mreg(&server, 4096);
    assert_ne!(a, b);
    server.mem_region(a).unwrap().write(0, b"region-a").unwrap();
    server.mem_region(b).unwrap().write(0, b"region-b").unwrap();

    let client = domain.add_node("c-regions");
    let handle = fl_connect(&domain, &client, "regions", HandleConfig::default()).unwrap();
    assert_eq!(handle.memory_regions().len(), 2);
    let t = handle.register_thread();
    assert_eq!(fl_read(&t, a, 0, 8).unwrap(), b"region-a");
    assert_eq!(fl_read(&t, b, 0, 8).unwrap(), b"region-b");
    // Out-of-range region index fails cleanly.
    assert!(fl_read(&t, 9, 0, 8).is_err());
    server.shutdown(&domain);
}

#[test]
fn single_qp_handle_works() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "one-qp", ServerConfig::default());
    let client = domain.add_node("c-onep");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1;
    let handle = fl_connect(&domain, &client, "one-qp", cfg).unwrap();
    let t1 = handle.register_thread();
    let t2 = handle.register_thread();
    assert_eq!(t1.current_qp(), 0);
    assert_eq!(t2.current_qp(), 0);
    assert_eq!(t1.call(1, b"a").unwrap(), b"echo:a");
    assert_eq!(t2.call(1, b"b").unwrap(), b"echo:b");
    server.shutdown(&domain);
}

#[test]
fn zero_length_payload_roundtrip() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-empty");
    let server = FlockServer::listen(&domain, &node, "empty", ServerConfig::default());
    server.reg_handler(1, |req| {
        assert!(req.is_empty());
        Vec::new()
    });
    let client = domain.add_node("c-empty");
    let handle = fl_connect(&domain, &client, "empty", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    assert_eq!(t.call(1, b"").unwrap(), b"");
    server.shutdown(&domain);
}

#[test]
fn send_after_shutdown_is_disconnected() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-shut", ServerConfig::default());
    let client = domain.add_node("c-shut");
    let mut handle = fl_connect(&domain, &client, "s-shut", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    assert_eq!(t.call(1, b"x").unwrap(), b"echo:x");
    handle.shutdown();
    assert!(matches!(
        t.send_rpc(1, b"y"),
        Err(flock_core::FlockError::Disconnected)
    ));
    server.shutdown(&domain);
}

#[test]
fn concurrent_handles_from_one_node() {
    // One machine can open several connection handles (e.g., two apps);
    // the server sees them as distinct senders.
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-multi-h", ServerConfig::default());
    let client = domain.add_node("c-multi-h");
    let h1 = fl_connect(&domain, &client, "s-multi-h", HandleConfig::default()).unwrap();
    let h2 = fl_connect(&domain, &client, "s-multi-h", HandleConfig::default()).unwrap();
    assert_ne!(h1.sender_id(), h2.sender_id());
    let t1 = h1.register_thread();
    let t2 = h2.register_thread();
    assert_eq!(t1.call(1, b"app1").unwrap(), b"echo:app1");
    assert_eq!(t2.call(1, b"app2").unwrap(), b"echo:app2");
    server.shutdown(&domain);
}

#[test]
fn out_of_bounds_memop_fails_cleanly() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-oob");
    let server = FlockServer::listen(&domain, &node, "oob", ServerConfig::default());
    fl_attach_mreg(&server, 4096);
    let client = domain.add_node("c-oob");
    let mut cfg = HandleConfig::default();
    cfg.timeout = Duration::from_secs(2);
    let handle = fl_connect(&domain, &client, "oob", cfg).unwrap();
    let t = handle.register_thread();
    // Read past the end of the region: the NIC reports a remote access
    // error, which surfaces as RemoteOpFailed (not a hang, not a panic).
    let err = t.read(0, 4090, 64).unwrap_err();
    assert!(matches!(
        err,
        flock_core::FlockError::RemoteOpFailed(_) | flock_core::FlockError::Timeout
    ));
    server.shutdown(&domain);
}

#[test]
fn qp_deactivation_migrates_threads_on_the_real_stack() {
    // Receiver-side QP scheduling end to end: the server caps active QPs
    // at 2, the client opens 4. Renewals on the over-quota QPs are
    // declined, the client marks them inactive, Algorithm 1 migrates the
    // threads, and traffic keeps flowing on the surviving QPs.
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-deact");
    let mut scfg = ServerConfig::default();
    scfg.sched.max_aqp = 2;
    scfg.sched.grant_size = 8; // frequent renewals
    scfg.sched_interval = Duration::from_millis(5);
    let server = FlockServer::listen(&domain, &node, "deact", scfg);
    server.reg_handler(1, |req| req.to_vec());

    let client = domain.add_node("c-deact");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 4;
    cfg.sched_interval = Duration::from_millis(5);
    let handle = Arc::new(fl_connect(&domain, &client, "deact", cfg).unwrap());
    let mut joins = Vec::new();
    for _ in 0..4 {
        let t = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..300u32 {
                let resp = t.call(1, &i.to_le_bytes()).unwrap();
                assert_eq!(resp, i.to_le_bytes());
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // The server kept its budget; the client observed the declines.
    assert!(
        server.active_qps() <= 2,
        "server active={}",
        server.active_qps()
    );
    assert!(
        handle.active_qps() <= 3,
        "client active={}",
        handle.active_qps()
    );
    // New traffic still works after deactivation.
    let t = handle.register_thread();
    assert_eq!(t.call(1, b"post").unwrap(), b"post");
    server.shutdown(&domain);
}

#[test]
fn batched_memops_share_one_doorbell() {
    // Several threads submitting one-sided ops concurrently: the leader
    // links them into one post_send_many chain (paper §6).
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("srv-linked");
    let server = FlockServer::listen(&domain, &node, "linked", ServerConfig::default());
    fl_attach_mreg(&server, 1 << 16);
    let client = domain.add_node("c-linked");
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1; // force all threads through one TCQ
    let handle = Arc::new(fl_connect(&domain, &client, "linked", cfg).unwrap());
    let mut joins = Vec::new();
    for tid in 0..6u64 {
        let t = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let off = tid * 1024 + (i % 8) * 8;
                t.write(0, off, &(tid * 1000 + i).to_le_bytes()).unwrap();
                let back = t.read(0, off, 8).unwrap();
                assert_eq!(u64::from_le_bytes(back.try_into().unwrap()), tid * 1000 + i);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    server.shutdown(&domain);
}

#[test]
fn handle_metrics_snapshot_is_consistent() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-metrics", ServerConfig::default());
    let client = domain.add_node("c-metrics");
    let handle = fl_connect(&domain, &client, "s-metrics", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    for i in 0..40u32 {
        t.call(1, &i.to_le_bytes()).unwrap();
    }
    let m = handle.metrics();
    assert_eq!(m.requests, 40);
    assert!(m.messages >= 1 && m.messages <= 40);
    assert!((m.degree - m.requests as f64 / m.messages as f64).abs() < 1e-9);
    assert_eq!(m.threads, 1);
    assert!(m.active_qps >= 1);
    assert_eq!(m.per_qp.len(), 4);
    assert_eq!(m.per_qp.iter().map(|q| q.requests).sum::<u64>(), 40);
    server.shutdown(&domain);
}

#[test]
fn lazy_lanes_materialize_on_demand() {
    // Default config is lazy: `fl_connect` sets up a single control QP;
    // further lanes attach when threads land on them.
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-lazy", ServerConfig::default());
    let client = domain.add_node("c-lazy");
    let handle = fl_connect(&domain, &client, "s-lazy", HandleConfig::default()).unwrap();
    assert_eq!(handle.materialized_qps(), 1, "lazy connect starts with one lane");

    // Threads 0..4 hash onto lanes 0..4 (n_qps = 4): each registration
    // past the first materializes a lane before sending.
    let threads: Vec<_> = (0..4).map(|_| handle.register_thread()).collect();
    assert_eq!(handle.materialized_qps(), 4);
    for (i, t) in threads.iter().enumerate() {
        let msg = format!("lane-{i}");
        assert_eq!(t.call(1, msg.as_bytes()).unwrap(), format!("echo:{msg}").as_bytes());
    }
    server.shutdown(&domain);
}

#[test]
fn eager_connect_materializes_all_lanes() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-eager", ServerConfig::default());
    let client = domain.add_node("c-eager");
    let mut cfg = HandleConfig::default();
    cfg.eager_qps = true;
    let handle = fl_connect(&domain, &client, "s-eager", cfg).unwrap();
    assert_eq!(handle.materialized_qps(), 4);
    let t = handle.register_thread();
    assert_eq!(t.call(1, b"up").unwrap(), b"echo:up");
    server.shutdown(&domain);
}

#[test]
fn graceful_close_quiesces_and_recycles() {
    use flock_fabric::FabricConfig;
    // Elastic pools on: a closed connection's QPs and rings go back to
    // the node instead of being destroyed.
    let mut fc = FabricConfig::default();
    fc.qpool.enabled = true;
    fc.mr_cache.enabled = true;
    let domain = FlockDomain::new(fc);
    let server = echo_server(&domain, "s-close", ServerConfig::default());
    let client = domain.add_node("c-close");

    let mut h1 = fl_connect(&domain, &client, "s-close", HandleConfig::default()).unwrap();
    let t = h1.register_thread();
    for i in 0..20u32 {
        t.call(1, &i.to_le_bytes()).unwrap();
    }
    drop(t);
    fl_disconnect(&mut h1).unwrap();
    let recycled = client.pool().stats().recycled.load(std::sync::atomic::Ordering::Relaxed);
    assert!(recycled >= 1, "closed handle recycles its QPs, got {recycled}");

    // A second connection on the same node leases warm resources and the
    // server still serves it — nothing was wedged by the teardown.
    let mut h2 = fl_connect(&domain, &client, "s-close", HandleConfig::default()).unwrap();
    let t2 = h2.register_thread();
    assert_eq!(t2.call(1, b"again").unwrap(), b"echo:again");
    let warm = client.pool().stats().warm.load(std::sync::atomic::Ordering::Relaxed);
    assert!(warm >= 1, "second connect should hit the QP pool, got {warm}");
    drop(t2);
    fl_disconnect(&mut h2).unwrap();
    server.shutdown(&domain);
}

#[test]
fn close_is_idempotent_and_server_survives() {
    let domain = FlockDomain::with_defaults();
    let server = echo_server(&domain, "s-idem", ServerConfig::default());
    let client = domain.add_node("c-idem");
    let other = domain.add_node("c-idem-2");

    let keeper = fl_connect(&domain, &client, "s-idem", HandleConfig::default()).unwrap();
    let kt = keeper.register_thread();
    let mut goner = fl_connect(&domain, &other, "s-idem", HandleConfig::default()).unwrap();
    let gt = goner.register_thread();
    assert_eq!(gt.call(1, b"bye").unwrap(), b"echo:bye");
    drop(gt);
    assert!(goner.close().is_ok());
    // Second close is a no-op (already stopped), not a panic or hang.
    let _ = goner.close();

    // The surviving connection is unaffected by its neighbour's detach.
    for i in 0..10u32 {
        assert_eq!(kt.call(2, &[i as u8; 4]).unwrap().len(), 8);
    }
    server.shutdown(&domain);
}

/// A connect the server cannot finish — its second client QP is UD,
/// which no RC QP pairs with — gives back what the first lane leased and
/// forgets its QP number: the next connection takes the same slot.
#[test]
fn failed_connect_releases_what_it_leased() {
    use flock_core::domain::{reply_channel, ConnectRequest};
    use flock_core::{FlockError, RingInfo};
    use flock_fabric::{Access, Transport};
    VirtualLab::run(|| {
        let domain = FlockDomain::with_defaults();
        let snode = domain.add_node("node-leak");
        let server = FlockServer::listen(&domain, &snode, "leak", ServerConfig::default());
        server.reg_handler(1, |req| req.to_vec());
        let before = (snode.qp_count(), snode.mrs().len());

        let cnode = domain.add_node("c-leak");
        let cq = cnode.create_cq(16);
        let ring = cnode.register_mr(1 << 16, Access::REMOTE_WRITE);
        let dialed = domain.dial(
            "leak",
            ConnectRequest {
                client_node: cnode.id(),
                client_qps: [Transport::Rc, Transport::Ud]
                    .map(|t| cnode.create_qp(t, &cq, &cq))
                    .to_vec(),
                response_rings: vec![RingInfo::of(&ring); 2],
                tenant: 0,
                reply: reply_channel().0,
            },
        );
        assert!(matches!(dialed, Err(FlockError::Fabric(_))), "{dialed:?}");
        assert_eq!((snode.qp_count(), snode.mrs().len()), before);

        let handle = fl_connect(&domain, &cnode, "leak", HandleConfig::default()).unwrap();
        assert_eq!(handle.sender_id(), 0, "the failed connect took no slot");
        assert_eq!(&handle.register_thread().call(1, b"after")?[..], b"after");
        server.shutdown(&domain);
        Ok::<(), FlockError>(())
    })
    .unwrap();
}
