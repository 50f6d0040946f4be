//! Cross-crate integration tests: the threaded Flock stack, the baselines,
//! the application substrates, and the simulation models working together.

use std::collections::HashMap;
use std::sync::Arc;

use flock_repro::baselines::lockshare::{LockShareConfig, LockSharedClient};
use flock_repro::core::client::HandleConfig;
use flock_repro::core::server::{FlockServer, ServerConfig};
use flock_repro::core::{ConnectionHandle, FlockDomain};
use flock_repro::hydralist::{HydraConfig, HydraList};
use flock_repro::models::{run_rpc, RpcConfig, SystemKind};
use flock_repro::sim::{Ns, SimRng};
use flock_repro::txn::protocol::key_partition;
use flock_repro::txn::{Tatp, TxnClient, TxnOutcome, TxnServer};

/// A Flock client and a FaRM-style lock-sharing client talk to the same
/// server concurrently — the wire protocol is shared.
#[test]
fn flock_and_lockshare_clients_coexist() {
    let domain = FlockDomain::with_defaults();
    let snode = domain.add_node("mixed-server");
    let server = FlockServer::listen(&domain, &snode, "mixed", ServerConfig::default());
    server.reg_handler(1, |req| {
        let mut v = req.to_vec();
        v.push(b'!');
        v
    });

    let fnode = domain.add_node("flock-client");
    let lnode = domain.add_node("lock-client");
    let fh = ConnectionHandle::connect(&domain, &fnode, "mixed", HandleConfig::default()).unwrap();
    let lh =
        LockSharedClient::connect(&domain, &lnode, "mixed", LockShareConfig::default()).unwrap();

    let ft = fh.register_thread();
    let lt = lh.register_thread();
    let a = std::thread::spawn(move || {
        for i in 0..60 {
            let msg = format!("flock{i}");
            assert_eq!(
                ft.call(1, msg.as_bytes()).unwrap(),
                format!("flock{i}!").as_bytes()
            );
        }
    });
    for i in 0..60 {
        let msg = format!("lock{i}");
        assert_eq!(
            lt.call(1, msg.as_bytes()).unwrap(),
            format!("lock{i}!").as_bytes()
        );
    }
    a.join().unwrap();
    server.shutdown(&domain);
}

/// TATP transactions over the full threaded stack, with correctness of the
/// subscriber rows checked after a mixed read/update run.
#[test]
fn tatp_over_threaded_flocktx() {
    const N_SERVERS: usize = 3;
    let domain = FlockDomain::with_defaults();
    let mut servers = Vec::new();
    let mut txn_servers = Vec::new();
    for i in 0..N_SERVERS {
        let node = domain.add_node(&format!("tatp-s{i}"));
        let server =
            FlockServer::listen(&domain, &node, &format!("tatp{i}"), ServerConfig::default());
        let region = server.attach_mreg(1 << 20);
        let ts = TxnServer::new(i, server.mem_region(region).unwrap());
        ts.register(&server);
        servers.push(server);
        txn_servers.push(ts);
    }
    let tatp = Tatp::new(500);
    for (k, v) in tatp.load_keys() {
        txn_servers[key_partition(k, N_SERVERS)].load(k, &v);
    }

    let cnode = domain.add_node("tatp-client");
    let handles: Vec<Arc<ConnectionHandle>> = (0..N_SERVERS)
        .map(|i| {
            Arc::new(
                ConnectionHandle::connect(
                    &domain,
                    &cnode,
                    &format!("tatp{i}"),
                    HandleConfig::default(),
                )
                .unwrap(),
            )
        })
        .collect();
    let client = TxnClient::new(&handles);
    let mut rng = SimRng::new(99);
    let (mut commits, mut aborts, mut reads) = (0, 0, 0);
    for _ in 0..150 {
        let spec = tatp.next(&mut rng);
        let writes = spec.writes.clone();
        let outcome = client
            .run(&spec.reads, &spec.writes, |vals| {
                writes
                    .iter()
                    .map(|&k| {
                        let mut v = vals
                            .get(&k)
                            .and_then(|o| o.clone())
                            .unwrap_or_else(|| vec![0; 32]);
                        v[0] = v[0].wrapping_add(1);
                        (k, v)
                    })
                    .collect::<HashMap<_, _>>()
            })
            .unwrap();
        match outcome {
            TxnOutcome::Committed(vals) => {
                commits += 1;
                reads += vals.len();
            }
            TxnOutcome::Aborted => aborts += 1,
        }
    }
    assert!(commits > 100, "commits={commits} aborts={aborts}");
    assert!(reads > 0);
    for s in &servers {
        s.shutdown(&domain);
    }
}

/// The HydraList index stays consistent when served over Flock RPC from
/// concurrently inserting and scanning clients.
#[test]
fn index_service_consistency_under_concurrency() {
    let domain = FlockDomain::with_defaults();
    let snode = domain.add_node("idx-s");
    let server = FlockServer::listen(&domain, &snode, "idx", ServerConfig::default());
    let index = Arc::new(HydraList::new(HydraConfig {
        node_capacity: 16,
        sync_search_updates: true,
    }));
    {
        let index = Arc::clone(&index);
        server.reg_handler(1, move |req| {
            let k = u64::from_le_bytes(req[..8].try_into().unwrap());
            let v = u64::from_le_bytes(req[8..16].try_into().unwrap());
            index.insert(k, v);
            vec![]
        });
    }
    {
        let index = Arc::clone(&index);
        server.reg_handler(2, move |req| {
            let k = u64::from_le_bytes(req[..8].try_into().unwrap());
            index.get(k).unwrap_or(u64::MAX).to_le_bytes().to_vec()
        });
    }
    let cnode = domain.add_node("idx-c");
    let handle = Arc::new(
        ConnectionHandle::connect(&domain, &cnode, "idx", HandleConfig::default()).unwrap(),
    );
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let th = handle.register_thread();
        joins.push(std::thread::spawn(move || {
            for i in 0..100u64 {
                let k = t * 1000 + i;
                let mut payload = k.to_le_bytes().to_vec();
                payload.extend_from_slice(&(k * 3).to_le_bytes());
                th.call(1, &payload).unwrap();
                let got = th.call(2, &k.to_le_bytes()).unwrap();
                assert_eq!(u64::from_le_bytes(got[..].try_into().unwrap()), k * 3);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(index.len(), 400);
    server.shutdown(&domain);
}

/// The DES reproduces the paper's headline shape end to end: Flock beats
/// the UD baseline at high thread counts and coalescing rises with
/// contention.
#[test]
fn simulation_reproduces_headline_shape() {
    let mut cfg = RpcConfig::default();
    cfg.n_clients = 8;
    cfg.threads_per_client = 24;
    cfg.lanes_per_client = 24;
    // 192 lanes against a 64-QP budget: the scheduler forces sharing,
    // which is where coalescing comes from.
    cfg.max_aqp = 64;
    cfg.outstanding = 4;
    cfg.duration = Ns::from_millis(3);
    cfg.warmup = Ns::from_millis(1);
    let flock = run_rpc(&cfg);
    let mut ud = cfg.clone();
    ud.system = SystemKind::UdRpc;
    let erpc = run_rpc(&ud);
    assert!(
        flock.mops > erpc.mops * 1.2,
        "flock {} vs erpc {}",
        flock.mops,
        erpc.mops
    );
    assert!(flock.degree > 1.1, "degree {}", flock.degree);
    assert!(
        flock.median_us < erpc.median_us,
        "flock med {} vs erpc {}",
        flock.median_us,
        erpc.median_us
    );
}

/// Virtual-time determinism across the whole model stack.
#[test]
fn simulation_is_deterministic_end_to_end() {
    let mut cfg = RpcConfig::default();
    cfg.n_clients = 6;
    cfg.threads_per_client = 8;
    cfg.lanes_per_client = 8;
    cfg.duration = Ns::from_millis(2);
    cfg.warmup = Ns::from_millis(1);
    let a = run_rpc(&cfg);
    let b = run_rpc(&cfg);
    assert_eq!(a.mops, b.mops);
    assert_eq!(a.p99_us, b.p99_us);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.packets, b.packets);
}

/// The one lab test of this package: an echo scenario on the real stack
/// under `VirtualLab`, which runs NIC lanes, dispatch shards and response
/// dispatchers as steppers on the suspending task's thread, checked
/// against the reference run that gives every one of them a thread. The
/// tests above are threaded or discrete-event and would not notice a
/// broken inline driver.
#[test]
fn echo_under_the_lab_matches_the_thread_driven_reference() {
    use flock_repro::core::sync::clock;
    use flock_repro::sim::vtime::VirtualLab;

    const THREADS: usize = 4;
    const CALLS: u8 = 25;
    let (times, report) = VirtualLab::run_against_reference(|| {
        let domain = FlockDomain::with_defaults();
        let snode = domain.add_node("lab-server");
        let server = FlockServer::listen(&domain, &snode, "lab", ServerConfig::default());
        server.reg_handler(1, |req| req.iter().rev().copied().collect());

        let mut cfg = HandleConfig::default();
        cfg.n_qps = 2;
        let cnode = domain.add_node("lab-client");
        let mut handle = ConnectionHandle::connect(&domain, &cnode, "lab", cfg).unwrap();
        let tasks: Vec<_> = (0..THREADS as u8)
            .map(|i| {
                let t = handle.register_thread();
                let done = Arc::new(std::sync::Mutex::new(Vec::new()));
                let log = Arc::clone(&done);
                let task = clock::spawn(&format!("app{i}"), move || {
                    for k in 0..CALLS {
                        assert_eq!(&t.call(1, &[i, k, 7]).unwrap()[..], &[7, k, i]);
                        log.lock().unwrap().push(clock::now_ns());
                    }
                });
                (task, done)
            })
            .collect();
        let times: Vec<Vec<u64>> = tasks
            .into_iter()
            .map(|(task, done)| {
                task.join().unwrap();
                let done = done.lock().unwrap().clone();
                done
            })
            .collect();
        handle.close().unwrap();
        server.shutdown(&domain);
        times
    });
    assert!(times.iter().all(|t| t.len() == CALLS as usize));
    assert!(report.stepper_tasks >= 4, "{report:?}");
    assert!(report.inline_steps > report.handovers, "{report:?}");
}
