//! End-to-end FlockTX over the full threaded Flock stack: three servers
//! with 3-way replication, OCC conflicts, one-sided validation, and the
//! Smallbank money-conservation invariant.

use std::collections::HashMap;
use std::sync::Arc;

use flock_core::client::HandleConfig;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{ConnectionHandle, FlockDomain};
use flock_sim::SimRng;
use flock_txn::protocol::key_partition;
use flock_txn::{
    export_stripe_locks, Smallbank, StripeLocks, TxnClient, TxnLogic, TxnOutcome, TxnServer,
    TxnSpec,
};

const N_SERVERS: usize = 3;

struct Cluster {
    domain: FlockDomain,
    servers: Vec<FlockServer>,
    txn_servers: Vec<Arc<TxnServer>>,
    handles: Vec<Arc<ConnectionHandle>>,
    /// Advertised region index of the stripe-lock table (same on every
    /// server: attached second, after the version table).
    stripe_region: usize,
}

fn cluster() -> Cluster {
    let domain = FlockDomain::with_defaults();
    let mut servers = Vec::new();
    let mut txn_servers = Vec::new();
    let mut stripe_region = 0;
    for i in 0..N_SERVERS {
        let node = domain.add_node(&format!("txn-srv-{i}"));
        let server =
            FlockServer::listen(&domain, &node, &format!("txn{i}"), ServerConfig::default());
        let idx = server.attach_mreg(1 << 20); // 128k version slots
        let ts = TxnServer::new(i, server.mem_region(idx).unwrap());
        ts.register(&server);
        stripe_region = export_stripe_locks(&server).unwrap();
        servers.push(server);
        txn_servers.push(ts);
    }
    let client_node = domain.add_node("txn-client");
    let handles: Vec<Arc<ConnectionHandle>> = (0..N_SERVERS)
        .map(|i| {
            Arc::new(
                ConnectionHandle::connect(
                    &domain,
                    &client_node,
                    &format!("txn{i}"),
                    HandleConfig::default(),
                )
                .unwrap(),
            )
        })
        .collect();
    Cluster {
        domain,
        servers,
        txn_servers,
        handles,
        stripe_region,
    }
}

fn load(c: &Cluster, key: u64, value: &[u8]) {
    let p = key_partition(key, N_SERVERS);
    c.txn_servers[p].load(key, value);
}

fn teardown(c: Cluster) {
    for s in &c.servers {
        s.shutdown(&c.domain);
    }
}

#[test]
fn read_only_transaction_commits() {
    let c = cluster();
    load(&c, 100, b"alpha");
    load(&c, 200, b"beta");
    let client = TxnClient::new(&c.handles);
    let outcome = client.run(&[100, 200], &[], |_| HashMap::new()).unwrap();
    let TxnOutcome::Committed(values) = outcome else {
        panic!("read-only txn aborted");
    };
    assert_eq!(values[&100].as_deref(), Some(b"alpha".as_slice()));
    assert_eq!(values[&200].as_deref(), Some(b"beta".as_slice()));
    teardown(c);
}

#[test]
fn write_transaction_commits_and_replicates() {
    let c = cluster();
    load(&c, 42, &0u64.to_le_bytes());
    let client = TxnClient::new(&c.handles);
    let outcome = client
        .run(&[], &[42], |vals| {
            let old = u64::from_le_bytes(vals[&42].as_ref().unwrap()[..8].try_into().unwrap());
            HashMap::from([(42u64, (old + 5).to_le_bytes().to_vec())])
        })
        .unwrap();
    assert!(matches!(outcome, TxnOutcome::Committed(_)));
    // Primary has the new value.
    let p = key_partition(42, N_SERVERS);
    assert_eq!(
        c.txn_servers[p].peek(42).unwrap(),
        5u64.to_le_bytes().to_vec()
    );
    // Both replicas logged it.
    for r in flock_txn::protocol::replicas_of(p, N_SERVERS) {
        assert_eq!(
            c.txn_servers[r].peek_backup(42).unwrap(),
            5u64.to_le_bytes().to_vec(),
            "replica {r} missing the logged write"
        );
    }
    teardown(c);
}

#[test]
fn validation_detects_conflicting_update() {
    let c = cluster();
    load(&c, 77, b"v1");
    let client = TxnClient::new(&c.handles);
    // Execute a read, then mutate the key behind the txn's back before
    // validation would... we cannot pause mid-txn from here, so instead
    // exercise the conflict path via lock contention: lock 77 with a
    // first transaction's execute by using a second client mid-flight.
    // Simplest deterministic check: bump the version directly between two
    // transactions and confirm the second read sees the new version
    // (sanity), then verify lock conflicts abort.
    let p = key_partition(77, N_SERVERS);
    // Take the lock directly (as if another coordinator crashed mid-txn).
    let resp = c.txn_servers[p].handle(&flock_txn::TxnRpc::Execute {
        txn_id: 999,
        reads: vec![],
        writes: vec![77],
    });
    assert!(matches!(resp, flock_txn::TxnResp::Execute { ok: true, .. }));
    // Now a write transaction on 77 must abort (lock conflict).
    let outcome = client
        .run(&[], &[77], |_| HashMap::from([(77u64, b"v2".to_vec())]))
        .unwrap();
    assert_eq!(outcome, TxnOutcome::Aborted);
    // A read-only transaction on 77 must also abort: the version word is
    // locked, so one-sided validation fails.
    let outcome = client.run(&[77], &[], |_| HashMap::new()).unwrap();
    assert_eq!(outcome, TxnOutcome::Aborted);
    // Release the stray lock; both now commit.
    c.txn_servers[p].handle(&flock_txn::TxnRpc::Abort {
        txn_id: 999,
        writes: vec![77],
    });
    let outcome = client.run(&[77], &[], |_| HashMap::new()).unwrap();
    assert!(matches!(outcome, TxnOutcome::Committed(_)));
    teardown(c);
}

#[test]
fn multi_partition_transaction() {
    let c = cluster();
    // Find keys on three different partitions.
    let mut keys = [0u64; 3];
    for (p, key) in keys.iter_mut().enumerate() {
        *key = (0..).find(|&k| key_partition(k, N_SERVERS) == p).unwrap();
    }
    for &k in &keys {
        load(&c, k, &100u64.to_le_bytes());
    }
    let client = TxnClient::new(&c.handles);
    let outcome = client
        .run(&[], &keys, |vals| {
            keys.iter()
                .map(|&k| {
                    let old =
                        u64::from_le_bytes(vals[&k].as_ref().unwrap()[..8].try_into().unwrap());
                    (k, (old + 1).to_le_bytes().to_vec())
                })
                .collect()
        })
        .unwrap();
    assert!(matches!(outcome, TxnOutcome::Committed(_)));
    for &k in &keys {
        let p = key_partition(k, N_SERVERS);
        assert_eq!(
            c.txn_servers[p].peek(k).unwrap(),
            101u64.to_le_bytes().to_vec()
        );
    }
    teardown(c);
}

/// 24 read-write transactions that each span all three servers (one
/// written key per partition, one read-only key so the one-sided
/// validation phase runs). Returns the instant each one committed.
fn three_server_rounds() -> Vec<u64> {
    let c = cluster();
    let keys: Vec<u64> = (0..N_SERVERS)
        .map(|p| (0..).find(|&k| key_partition(k, N_SERVERS) == p).unwrap())
        .collect();
    let read_key = (keys[N_SERVERS - 1] + 1..)
        .find(|&k| key_partition(k, N_SERVERS) == 1)
        .unwrap();
    for &k in keys.iter().chain([&read_key]) {
        load(&c, k, &0u64.to_le_bytes());
    }
    let client = TxnClient::new(&c.handles);
    let committed_at = (1..=24u64)
        .map(|round| {
            let outcome = client
                .run(&[read_key], &keys, |_| {
                    keys.iter()
                        .map(|&k| (k, round.to_le_bytes().to_vec()))
                        .collect()
                })
                .unwrap();
            assert!(matches!(outcome, TxnOutcome::Committed(_)));
            flock_sync::clock::now_ns()
        })
        .collect();
    drop(client);
    teardown(c);
    committed_at
}

/// Execute/Log/Commit RPCs go to servers in server-index order, so a
/// multi-server run under the virtual lab is a pure function of its
/// inputs. (Grouping by `HashMap` made the send order — and with it
/// every latency — depend on the process's `RandomState` seeds.)
#[test]
fn multi_server_transactions_are_deterministic_under_virtual_lab() {
    fn fingerprint() -> (Vec<u64>, u64, u64) {
        let (committed_at, report) = flock_sim::vtime::VirtualLab::run_report(three_server_rounds);
        (committed_at, report.virtual_ns, report.handovers)
    }
    assert_eq!(fingerprint(), fingerprint());
}

/// The lab elides the polls of un-notified waits; the reference run
/// executes them all (and panics on a change nobody announced). Same
/// commit instants, same final clock, every elided poll accounted for.
#[test]
fn multi_server_transactions_match_the_reference_run() {
    let (committed_at, report) =
        flock_sim::vtime::VirtualLab::run_against_reference(three_server_rounds);
    assert_eq!(committed_at.len(), 24);
    assert!(report.elided_polls > report.handovers / 4, "{report:?}");
}

#[test]
fn smallbank_conserves_money_under_concurrency() {
    let c = cluster();
    let bank = Smallbank::new(50);
    for (k, v) in bank.load_keys() {
        load(&c, k, &v);
    }
    let initial_total: u64 = 50 * 2 * 1000;

    let handles = c.handles.clone();
    let mut joins = Vec::new();
    for t in 0..3u64 {
        let handles = handles.clone();
        let bank = bank.clone();
        joins.push(std::thread::spawn(move || {
            let client = TxnClient::new(&handles);
            let mut rng = SimRng::new(100 + t);
            let mut commits = 0u64;
            let mut aborts = 0u64;
            for _ in 0..120 {
                // Only money-conserving ops: send_payment between two
                // checking accounts.
                let spec = loop {
                    let s = bank.next(&mut rng);
                    if s.kind == "send_payment" {
                        break s;
                    }
                };
                let (from, to) = (spec.writes[0], spec.writes[1]);
                let outcome = client
                    .run(&[], &spec.writes, |vals| {
                        let f = u64::from_le_bytes(
                            vals[&from].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        let tv = u64::from_le_bytes(
                            vals[&to].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        let amount = 1.min(f);
                        HashMap::from([
                            (from, (f - amount).to_le_bytes().to_vec()),
                            (to, (tv + amount).to_le_bytes().to_vec()),
                        ])
                    })
                    .unwrap();
                match outcome {
                    TxnOutcome::Committed(_) => commits += 1,
                    TxnOutcome::Aborted => aborts += 1,
                }
            }
            (commits, aborts)
        }));
    }
    let mut commits = 0;
    let mut aborts = 0;
    for j in joins {
        let (cm, ab) = j.join().unwrap();
        commits += cm;
        aborts += ab;
    }
    assert!(commits > 0, "no transaction committed");
    // With a 4%-hot workload some aborts are expected but not required.
    let _ = aborts;

    // Money conservation: sum every checking+savings balance.
    let mut total = 0u64;
    for a in 0..50 {
        for key in [Smallbank::savings(a), Smallbank::checking(a)] {
            let p = key_partition(key, N_SERVERS);
            let v = c.txn_servers[p].peek(key).unwrap();
            total += u64::from_le_bytes(v[..8].try_into().unwrap());
        }
    }
    assert_eq!(total, initial_total, "money created or destroyed");
    teardown(c);
}

#[test]
fn concurrent_increments_are_serializable() {
    let c = cluster();
    load(&c, 1234, &0u64.to_le_bytes());
    let handles = c.handles.clone();
    let mut joins = Vec::new();
    let per_thread = 50;
    for _ in 0..4 {
        let handles = handles.clone();
        joins.push(std::thread::spawn(move || {
            let client = TxnClient::new(&handles);
            let mut committed = 0;
            while committed < per_thread {
                let outcome = client
                    .run(&[], &[1234], |vals| {
                        let old = u64::from_le_bytes(
                            vals[&1234].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        HashMap::from([(1234u64, (old + 1).to_le_bytes().to_vec())])
                    })
                    .unwrap();
                if matches!(outcome, TxnOutcome::Committed(_)) {
                    committed += 1;
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let p = key_partition(1234, N_SERVERS);
    let v = c.txn_servers[p].peek(1234).unwrap();
    assert_eq!(
        u64::from_le_bytes(v[..8].try_into().unwrap()),
        4 * per_thread
    );
    teardown(c);
}

/// The pipelined (coroutine-style) coordinator: many concurrent
/// transactions from one OS thread, money conserved, throughput sane.
#[test]
fn pipelined_coordinator_overlaps_transactions() {
    let c = cluster();
    let bank = Smallbank::new(60);
    for (k, v) in bank.load_keys() {
        load(&c, k, &v);
    }
    let initial_total: u64 = 60 * 2 * 1000;

    struct Payments {
        bank: Smallbank,
        rng: SimRng,
    }
    impl TxnLogic for Payments {
        fn next(&mut self) -> TxnSpec {
            loop {
                let s = self.bank.next(&mut self.rng);
                if s.kind == "send_payment" || s.kind == "balance" {
                    return s;
                }
            }
        }
        fn compute(
            &mut self,
            spec: &TxnSpec,
            values: &HashMap<u64, Option<Vec<u8>>>,
        ) -> HashMap<u64, Vec<u8>> {
            if spec.writes.is_empty() {
                return HashMap::new();
            }
            let (from, to) = (spec.writes[0], spec.writes[1]);
            let f = u64::from_le_bytes(values[&from].as_ref().unwrap()[..8].try_into().unwrap());
            let t = u64::from_le_bytes(values[&to].as_ref().unwrap()[..8].try_into().unwrap());
            let amount = 5.min(f);
            HashMap::from([
                (from, (f - amount).to_le_bytes().to_vec()),
                (to, (t + amount).to_le_bytes().to_vec()),
            ])
        }
    }

    let client = TxnClient::new(&c.handles);
    let mut logic = Payments {
        bank: bank.clone(),
        rng: SimRng::new(4242),
    };
    // 8 transactions in flight from ONE OS thread.
    let stats = client.run_pipelined(&mut logic, 8, 200).unwrap();
    assert!(stats.commits >= 200);

    let mut total = 0u64;
    for a in 0..60 {
        for key in [Smallbank::savings(a), Smallbank::checking(a)] {
            let p = key_partition(key, N_SERVERS);
            let v = c.txn_servers[p].peek(key).unwrap();
            total += u64::from_le_bytes(v[..8].try_into().unwrap());
        }
    }
    assert_eq!(total, initial_total, "money conservation violated");
    teardown(c);
}

/// A seeded Smallbank stream for one transaction at a time, in which an
/// aborted spec comes again, up to three tries. Every write adds one.
struct Retrying {
    bank: Smallbank,
    rng: SimRng,
    last: Option<(TxnSpec, u32)>,
    /// `compute` ran for `last`: it passed validation, so it commits.
    computed: bool,
}

impl TxnLogic for Retrying {
    fn next(&mut self) -> TxnSpec {
        let (spec, tries) = match self.last.take() {
            Some((spec, tries)) if !self.computed && tries < 3 => (spec, tries + 1),
            _ => (self.bank.next(&mut self.rng), 1),
        };
        self.last = Some((spec.clone(), tries));
        self.computed = false;
        spec
    }

    fn compute(
        &mut self,
        spec: &TxnSpec,
        values: &HashMap<u64, Option<Vec<u8>>>,
    ) -> HashMap<u64, Vec<u8>> {
        self.computed = true;
        spec.writes
            .iter()
            .map(|&k| {
                let old = u64::from_le_bytes(values[&k].as_ref().unwrap()[..8].try_into().unwrap());
                (k, (old + 1).to_le_bytes().to_vec())
            })
            .collect()
    }
}

/// What a driver leaves behind after 120 commits of the [`Retrying`]
/// stream: every server's primary and backup copy of every key, the
/// commit and abort counts, and the requests each server handled.
type Aftermath = (
    Vec<(Option<Vec<u8>>, Option<Vec<u8>>)>,
    (u64, u64),
    Vec<u64>,
);

fn smallbank_aftermath(pipelined: bool) -> Aftermath {
    let c = cluster();
    let bank = Smallbank::new(100);
    for (k, v) in bank.load_keys() {
        load(&c, k, &v);
    }
    // Another coordinator died holding a hot account's lock: whatever
    // writes or validates this key aborts on every try.
    let stray = Smallbank::checking(0);
    c.txn_servers[key_partition(stray, N_SERVERS)].handle(&flock_txn::TxnRpc::Execute {
        txn_id: 999,
        reads: vec![],
        writes: vec![stray],
    });
    let client = TxnClient::new(&c.handles);
    let mut stream = Retrying {
        bank: bank.clone(),
        rng: SimRng::new(77),
        last: None,
        computed: false,
    };
    let counts = if pipelined {
        let stats = client.run_pipelined(&mut stream, 1, 120).unwrap();
        (stats.commits, stats.aborts)
    } else {
        let (mut commits, mut aborts) = (0, 0);
        while commits < 120 {
            let spec = stream.next();
            let outcome = client.run(&spec.reads, &spec.writes, |values| {
                stream.compute(&spec, values)
            });
            match outcome.unwrap() {
                TxnOutcome::Committed(_) => commits += 1,
                TxnOutcome::Aborted => aborts += 1,
            }
        }
        (commits, aborts)
    };
    drop(client);
    let copies = c
        .txn_servers
        .iter()
        .flat_map(|ts| {
            bank.load_keys()
                .map(|(k, _)| (ts.peek(k), ts.peek_backup(k)))
                .collect::<Vec<_>>()
        })
        .collect();
    let requests = c.servers.iter().map(|s| s.stats().requests.get()).collect();
    teardown(c);
    (copies, counts, requests)
}

/// `run` and `run_pipelined` drive the same machine: at width 1 the same
/// spec stream sends the same RPCs to the same servers and leaves the
/// same bytes behind, aborts and their retries included.
#[test]
fn blocking_and_width_one_pipelined_drivers_are_one_protocol() {
    let ((blocking, polling), _) = flock_sim::vtime::VirtualLab::run_against_reference(|| {
        (smallbank_aftermath(false), smallbank_aftermath(true))
    });
    assert_eq!(blocking, polling);
    let (_, (commits, aborts), _) = blocking;
    assert_eq!(commits, 120);
    assert!(aborts > 0, "the stray lock must abort something");
}

/// A transaction's validation reads are issued together: a second
/// version word to validate, on a second server, costs far less than a
/// second read round trip. Both transactions execute on both servers, so
/// the difference is the validation phase alone. Every poller in the lab has a period (250 ns to 1 µs), so
/// one sample is a function of how the phases happen to line up: each
/// figure is a mean over 64 samples taken at staggered instants.
#[test]
fn validation_is_one_round_trip() {
    const SAMPLES: u64 = 64;
    let [read, one_key, two_keys] = flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        // One key on server 0, two on server 1; the last stays absent, so
        // reading it costs an Execute and no validation read.
        let on = |p| (0..).filter(move |&k| key_partition(k, N_SERVERS) == p);
        let (k0, k1, absent) = (
            on(0).next().unwrap(),
            on(1).next().unwrap(),
            on(1).nth(1).unwrap(),
        );
        load(&c, k0, b"v");
        load(&c, k1, b"v");
        let client = TxnClient::new(&c.handles);
        let thread = c.handles[0].register_thread();
        let read_only = |reads: &[u64]| {
            let outcome = client.run(reads, &[], |_| HashMap::new()).unwrap();
            assert!(matches!(outcome, TxnOutcome::Committed(_)));
        };
        let ops: [&dyn Fn(); 3] = [
            &|| drop(thread.read(0, 0, 8).unwrap()),
            &|| read_only(&[k0, absent]),
            &|| read_only(&[k0, k1]),
        ];
        let mut sums = [0u64; 3];
        for i in 0..SAMPLES {
            for (op, sum) in ops.iter().zip(&mut sums) {
                flock_sync::clock::sleep_ns(i * 137 % 1000);
                op(); // once to warm the path
                let t0 = flock_sync::clock::now_ns();
                op();
                *sum += flock_sync::clock::now_ns() - t0;
            }
        }
        drop((client, thread));
        teardown(c);
        sums.map(|sum| sum / SAMPLES)
    });
    assert!(
        two_keys.saturating_sub(one_key) < read / 2,
        "read {read} ns, one key {one_key} ns, two keys {two_keys} ns"
    );
}

/// An error mid-transaction settles before it returns: server B answers
/// Execute with garbage after server A has locked its key, and the
/// coordinator releases A's lock before reporting the error.
#[test]
fn an_error_mid_transaction_releases_its_locks() {
    let domain = FlockDomain::with_defaults();
    let node_a = domain.add_node("settle-a");
    let a = FlockServer::listen(&domain, &node_a, "settle-a", ServerConfig::default());
    let idx = a.attach_mreg(1 << 12);
    let ts = TxnServer::new(0, a.mem_region(idx).unwrap());
    ts.register(&a);
    let node_b = domain.add_node("settle-b");
    let b = FlockServer::listen(&domain, &node_b, "settle-b", ServerConfig::default());
    // B is a sound replica and a broken primary.
    b.reg_handler(flock_txn::protocol::RPC_EXECUTE, |_| vec![0xFF]);
    b.reg_handler(flock_txn::protocol::RPC_LOG, |_| {
        flock_txn::TxnResp::Ack.encode()
    });
    let client_node = domain.add_node("settle-client");
    let handles: Vec<Arc<ConnectionHandle>> = ["settle-a", "settle-b"]
        .iter()
        .map(|name| {
            let cfg = HandleConfig::default();
            Arc::new(ConnectionHandle::connect(&domain, &client_node, name, cfg).unwrap())
        })
        .collect();
    let [key_a, key_b] = [0, 1].map(|p| (0..).find(|&k| key_partition(k, 2) == p).unwrap());
    ts.load(key_a, b"old");

    let client = TxnClient::new(&handles);
    let err = client
        .run(&[], &[key_a, key_b], |_| {
            HashMap::from([(key_a, b"x".to_vec()), (key_b, b"x".to_vec())])
        })
        .unwrap_err();
    assert!(
        matches!(err, flock_core::FlockError::CorruptMessage(_)),
        "{err:?}"
    );
    let outcome = client
        .run(&[], &[key_a], |_| HashMap::from([(key_a, b"new".to_vec())]))
        .unwrap();
    assert!(
        matches!(outcome, TxnOutcome::Committed(_)),
        "the failed transaction left key {key_a} locked"
    );
    assert_eq!(ts.peek(key_a).unwrap(), b"new");
    drop(client);
    a.shutdown(&domain);
    b.shutdown(&domain);
}

/// New values that leave out a write-set key end the transaction with an
/// error through the abort path: nothing is logged or committed, the
/// locks are released, and no key is given an empty value.
#[test]
fn a_write_key_compute_left_out_aborts_with_an_error() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("omit-srv");
    let server = FlockServer::listen(&domain, &node, "omit-srv", ServerConfig::default());
    let idx = server.attach_mreg(1 << 12);
    let ts = TxnServer::new(0, server.mem_region(idx).unwrap());
    ts.register(&server);
    let client_node = domain.add_node("omit-client");
    let cfg = HandleConfig::default();
    let handles = [Arc::new(
        ConnectionHandle::connect(&domain, &client_node, "omit-srv", cfg).unwrap(),
    )];
    ts.load(1, b"one");
    ts.load(2, b"two");

    let client = TxnClient::new(&handles);
    let err = client
        .run(&[], &[1, 2], |_| HashMap::from([(1, b"new".to_vec())]))
        .unwrap_err();
    assert!(
        matches!(err, flock_core::FlockError::InvalidArgument(_)),
        "{err:?}"
    );
    assert_eq!(ts.peek(1).unwrap(), b"one");
    assert_eq!(ts.peek(2).unwrap(), b"two", "the left-out key was written");
    assert!(ts.peek_backup(1).is_none(), "the failed transaction logged");
    let outcome = client
        .run(&[], &[1, 2], |_| {
            HashMap::from([(1, b"1".to_vec()), (2, b"2".to_vec())])
        })
        .unwrap();
    assert!(
        matches!(outcome, TxnOutcome::Committed(_)),
        "the failed transaction left its keys locked"
    );
    assert_eq!(ts.peek(2).unwrap(), b"2");
    drop(client);
    drop(handles);
    server.shutdown(&domain);
}

/// A connection handle stopped mid-run ends `run_pipelined`: server B
/// never answers, and once B's handle stops with its Execute outstanding
/// the poll reads `Disconnected`, every slot settles — the lock taken on
/// A is released — and the run returns the error. A watchdog turns the
/// old behaviour, polling the stopped handle forever, into a failure.
#[test]
fn a_stopped_handle_ends_the_pipelined_run() {
    struct Fixed(TxnSpec);
    impl TxnLogic for Fixed {
        fn next(&mut self) -> TxnSpec {
            self.0.clone()
        }
        fn compute(
            &mut self,
            _: &TxnSpec,
            _: &HashMap<u64, Option<Vec<u8>>>,
        ) -> HashMap<u64, Vec<u8>> {
            unreachable!("nothing passes B's Execute")
        }
    }

    let (done_tx, done) = std::sync::mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let domain = FlockDomain::with_defaults();
        let node_a = domain.add_node("stop-a");
        let a = FlockServer::listen(&domain, &node_a, "stop-a", ServerConfig::default());
        let idx = a.attach_mreg(1 << 12);
        let ts = TxnServer::new(0, a.mem_region(idx).unwrap());
        ts.register(&a);
        // B registers no handler: its requests wait in `recv_rpc`'s queue.
        let node_b = domain.add_node("stop-b");
        let b = FlockServer::listen(&domain, &node_b, "stop-b", ServerConfig::default());
        let client_node = domain.add_node("stop-client");
        let mut handles: Vec<Arc<ConnectionHandle>> = ["stop-a", "stop-b"]
            .iter()
            .map(|name| {
                let cfg = HandleConfig::default();
                Arc::new(ConnectionHandle::connect(&domain, &client_node, name, cfg).unwrap())
            })
            .collect();
        let [key_a, key_b] = [0, 1].map(|p| (0..).find(|&k| key_partition(k, 2) == p).unwrap());
        ts.load(key_a, b"old");
        let client = TxnClient::new(&handles);
        let mut handle_b = Arc::into_inner(handles.pop().unwrap()).expect("the only owner");
        let mut logic = Fixed(TxnSpec {
            reads: vec![],
            writes: vec![key_a, key_b],
            kind: "stuck",
        });
        let run = std::thread::scope(|s| {
            s.spawn(|| {
                b.recv_rpc(std::time::Duration::from_secs(5))
                    .expect("an Execute reaches B");
                handle_b.shutdown();
            });
            client.run_pipelined(&mut logic, 2, u64::MAX)
        });
        // Validation aborts a read of a locked key; writing needs B (the
        // Log phase replicates there).
        let after = client.run(&[key_a], &[], |_| HashMap::new());
        done_tx.send((run, after)).unwrap();
        drop(client);
        a.shutdown(&domain);
        b.shutdown(&domain);
    });
    let (run, after) = match done.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(results) => results,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("run_pipelined still polls a stopped handle after 10 s")
        }
        // The scenario panicked before it got there: that is the failure.
        Err(_) => std::panic::resume_unwind(scenario.join().unwrap_err()),
    };
    scenario.join().expect("teardown");
    assert!(
        matches!(run, Err(flock_core::FlockError::Disconnected)),
        "{run:?}"
    );
    let Ok(TxnOutcome::Committed(values)) = after else {
        panic!("the stopped run left key A locked: {after:?}");
    };
    assert_eq!(
        values.into_values().collect::<Vec<_>>(),
        [Some(b"old".to_vec())]
    );
}

/// The pessimistic ALock commit path: conflicting increments on one
/// write-hot key serialize *before* execution, so not a single
/// transaction aborts (vs. the OCC path above, which retries), and the
/// cohort amortizes the remote CAS traffic through local handoffs.
#[test]
fn stripe_locked_transactions_never_abort() {
    let c = cluster();
    load(&c, 555, &0u64.to_le_bytes());
    let locks = StripeLocks::new(N_SERVERS, c.stripe_region, 0xF10C);
    let handles = c.handles.clone();
    let per_thread = 30u64;
    let mut joins = Vec::new();
    for _ in 0..4 {
        let handles = handles.clone();
        let locks = Arc::clone(&locks);
        joins.push(std::thread::spawn(move || {
            let client = TxnClient::new(&handles);
            let mut aborts = 0u64;
            for _ in 0..per_thread {
                let outcome = client
                    .run_locked(&locks, &[], &[555], |vals| {
                        let old = u64::from_le_bytes(
                            vals[&555].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        HashMap::from([(555u64, (old + 1).to_le_bytes().to_vec())])
                    })
                    .unwrap();
                if outcome == TxnOutcome::Aborted {
                    aborts += 1;
                }
            }
            aborts
        }));
    }
    let aborts: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert_eq!(aborts, 0, "stripe locks must serialize ahead of OCC");
    let p = key_partition(555, N_SERVERS);
    let v = c.txn_servers[p].peek(555).unwrap();
    assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 4 * per_thread);
    // Every acquisition went through the ALock; under contention the
    // cohort takes at least some local handoffs.
    assert_eq!(
        locks.remote_acquires() + locks.local_handoffs(),
        4 * per_thread
    );
    teardown(c);
}

/// Locked and multi-stripe transactions: cross-partition payments under
/// stripe locks conserve money with zero aborts.
#[test]
fn stripe_locked_multi_key_payments_conserve_money() {
    let c = cluster();
    for k in 0..8u64 {
        load(&c, k, &1000u64.to_le_bytes());
    }
    let locks = StripeLocks::new(N_SERVERS, c.stripe_region, 0xF10D);
    let handles = c.handles.clone();
    let mut joins = Vec::new();
    for t in 0..3u64 {
        let handles = handles.clone();
        let locks = Arc::clone(&locks);
        joins.push(std::thread::spawn(move || {
            let client = TxnClient::new(&handles);
            let mut rng = SimRng::new(900 + t);
            let mut aborts = 0u64;
            for _ in 0..40 {
                let from = rng.below(8);
                let to = (from + 1 + rng.below(7)) % 8;
                let outcome = client
                    .run_locked(&locks, &[], &[from, to], |vals| {
                        let f = u64::from_le_bytes(
                            vals[&from].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        let tv = u64::from_le_bytes(
                            vals[&to].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        let amount = 3.min(f);
                        HashMap::from([
                            (from, (f - amount).to_le_bytes().to_vec()),
                            (to, (tv + amount).to_le_bytes().to_vec()),
                        ])
                    })
                    .unwrap();
                if outcome == TxnOutcome::Aborted {
                    aborts += 1;
                }
            }
            aborts
        }));
    }
    let aborts: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert_eq!(aborts, 0, "sorted stripe acquisition must prevent aborts");
    let total: u64 = (0..8u64)
        .map(|k| {
            let p = key_partition(k, N_SERVERS);
            let v = c.txn_servers[p].peek(k).unwrap();
            u64::from_le_bytes(v[..8].try_into().unwrap())
        })
        .sum();
    assert_eq!(total, 8 * 1000, "money created or destroyed");
    teardown(c);
}

/// Async one-sided operations overlap on one thread (the machinery the
/// pipelined coordinator relies on).
#[test]
fn async_memops_overlap() {
    let c = cluster();
    // Use server 0's version region as plain remote memory.
    let handle = &c.handles[0];
    let t = handle.register_thread();
    // Launch 6 concurrent writes, then 6 concurrent reads, from one thread.
    let tokens: Vec<_> = (0..6u64)
        .map(|i| t.write_async(0, i * 64, &(i + 100).to_le_bytes()).unwrap())
        .collect();
    for tok in tokens {
        t.wait_mem(tok).unwrap();
    }
    let tokens: Vec<_> = (0..6u64)
        .map(|i| t.read_async(0, i * 64, 8).unwrap())
        .collect();
    for (i, tok) in tokens.into_iter().enumerate() {
        let v = t.wait_mem(tok).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), i as u64 + 100);
    }
    teardown(c);
}
