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
    /// The servers' nodes.
    nodes: Vec<Arc<flock_fabric::Node>>,
    txn_servers: Vec<Arc<TxnServer>>,
    handles: Vec<Arc<ConnectionHandle>>,
    /// The node `handles` connect from.
    client_node: Arc<flock_fabric::Node>,
    /// Advertised region index of the stripe-lock table (same on every
    /// server: attached second, after the version table).
    stripe_region: usize,
}

fn cluster() -> Cluster {
    cluster_of(N_SERVERS)
}

/// `n` servers, each with its `TxnServer`, and a client node's handles.
fn cluster_of(n: usize) -> Cluster {
    let domain = FlockDomain::with_defaults();
    let mut servers = Vec::new();
    let mut nodes = Vec::new();
    let mut txn_servers = Vec::new();
    let mut stripe_region = 0;
    for i in 0..n {
        let node = domain.add_node(&format!("txn-srv-{i}"));
        nodes.push(Arc::clone(&node));
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
    let handles: Vec<Arc<ConnectionHandle>> = (0..n)
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
        nodes,
        txn_servers,
        handles,
        client_node,
        stripe_region,
    }
}

/// Handles to every server from a new client node named `node`.
fn handles_on(c: &Cluster, node: &str) -> Vec<Arc<ConnectionHandle>> {
    let node = c.domain.add_node(node);
    (0..N_SERVERS)
        .map(|i| {
            let cfg = HandleConfig::default();
            let name = format!("txn{i}");
            Arc::new(ConnectionHandle::connect(&c.domain, &node, &name, cfg).unwrap())
        })
        .collect()
}

/// Load `key` on its primary and a copy on each of its backups.
fn load(c: &Cluster, key: u64, value: &[u8]) {
    let p = key_partition(key, N_SERVERS);
    c.txn_servers[p].load(key, value);
    for r in flock_txn::protocol::replicas_of(p, N_SERVERS) {
        c.txn_servers[r].load_backup(key, value);
    }
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
    client.settle().unwrap();
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
    // A stray lock fails every Execute that meets it; a word that moves
    // between a transaction's Execute and its one-sided validation is
    // `validation_aborts_a_transaction_whose_read_moved_after_its_execute`.
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
    // locked, so the Execute's second read of it fails (a transaction on
    // one server has no one-sided validation).
    let outcome = client.run(&[77], &[], |_| HashMap::new()).unwrap();
    assert_eq!(outcome, TxnOutcome::Aborted);
    // Release the stray lock; both now commit.
    c.txn_servers[p].handle(&flock_txn::TxnRpc::Abort {
        txn_id: 999,
        writes: vec![77],
        notices: Default::default(),
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
    client.settle().unwrap();
    for &k in &keys {
        let p = key_partition(k, N_SERVERS);
        assert_eq!(
            c.txn_servers[p].peek(k).unwrap(),
            101u64.to_le_bytes().to_vec()
        );
    }
    teardown(c);
}

/// A transaction that writes one key in each partition sends every
/// server one Execute, one Log and one Commit: the Log phase sends one
/// message per replica server, carrying every partition it backs up.
/// `settle` then sends each server one fence, which proves its Commit
/// applied.
#[test]
fn a_transaction_logs_once_per_replica_server() {
    let c = cluster();
    let keys: Vec<u64> = (0..N_SERVERS)
        .map(|p| (0..).find(|&k| key_partition(k, N_SERVERS) == p).unwrap())
        .collect();
    for &k in &keys {
        load(&c, k, &0u64.to_le_bytes());
    }
    let handled = || -> Vec<u64> { c.servers.iter().map(|s| s.stats().requests.get()).collect() };
    let sent = || -> Vec<u64> { c.handles.iter().map(|h| h.metrics().requests).collect() };
    let since = |now: Vec<u64>, then: &[u64]| -> Vec<u64> {
        now.iter().zip(then).map(|(a, b)| a - b).collect()
    };
    let client = TxnClient::new(&c.handles);
    let (handled_before, sent_before) = (handled(), sent());
    let outcome = client
        .run(&[], &keys, |_| {
            keys.iter()
                .map(|&k| (k, k.to_le_bytes().to_vec()))
                .collect()
        })
        .unwrap();
    assert!(matches!(outcome, TxnOutcome::Committed(_)));
    assert_eq!(
        since(sent(), &sent_before),
        [3; N_SERVERS],
        "requests per server"
    );
    client.settle().unwrap();
    let fence = 1;
    assert_eq!(since(sent(), &sent_before), [3 + fence; N_SERVERS]);
    assert_eq!(since(handled(), &handled_before), [3 + fence; N_SERVERS]);
    for (s, ts) in c.txn_servers.iter().enumerate() {
        for &k in &keys {
            let p = key_partition(k, N_SERVERS);
            let backed_up = flock_txn::protocol::replicas_of(p, N_SERVERS).contains(&s);
            assert_eq!(
                ts.peek_backup(k),
                backed_up.then(|| k.to_le_bytes().to_vec()),
                "server {s}, key {k} of partition {p}"
            );
        }
    }
    drop(client);
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
    /// `compute` ran for `last`: every Execute locked and read its share,
    /// so it is not tried again, whatever its validation finds.
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
    let loaded = bank.load_keys().count();
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
    // Dropped, the client has settled: every backup has applied what
    // committed and dropped what did not.
    for (k, _) in bank.load_keys() {
        let p = key_partition(k, N_SERVERS);
        let primary = c.txn_servers[p].peek(k);
        for r in flock_txn::protocol::replicas_of(p, N_SERVERS) {
            assert_eq!(c.txn_servers[r].peek_backup(k), primary, "key {k} on {r}");
        }
    }
    assert!(c.txn_servers.iter().all(|ts| ts.pending() == 0));
    let copies: Vec<_> = c
        .txn_servers
        .iter()
        .flat_map(|ts| {
            bank.load_keys()
                .map(|(k, _)| (ts.peek(k), ts.peek_backup(k)))
                .collect::<Vec<_>>()
        })
        .collect();
    let written = bank.load_keys().filter(|(k, v)| {
        let p = key_partition(*k, N_SERVERS);
        c.txn_servers[p].peek(*k).as_deref() != Some(&v[..])
    });
    let written = written.count();
    assert!(written > 10, "{written} of {loaded} keys written");
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
    let idx = b.attach_mreg(1 << 12);
    TxnServer::new(1, b.mem_region(idx).unwrap()).register(&b);
    b.reg_handler(flock_txn::protocol::RPC_EXECUTE, |_| vec![0xFF]);
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
    client.settle().unwrap();
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
    client.settle().unwrap();
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

/// Whether `key`'s version word on its primary `ts` holds the lock bit:
/// a read-only Execute, which takes no lock, fails on exactly that here
/// (nothing else runs between its two reads of the word).
fn locked(ts: &TxnServer, key: u64) -> bool {
    let resp = ts.handle(&flock_txn::TxnRpc::Execute {
        txn_id: 0,
        reads: vec![key],
        writes: vec![],
    });
    let flock_txn::TxnResp::Execute { ok, .. } = resp else {
        panic!("Execute answers Execute");
    };
    !ok
}

/// `run` reports a commit at its commit point: every Log has landed in
/// its backup's request ring and the Commits are posted, not yet
/// applied. Right after `run` only that landing is promised: a backup
/// handles its ring in order, later (a slow one well after `run`
/// returns: `run_returns_before_a_slow_backup_applies_its_log`); here
/// each has, and holds the new value as a pending record, its copy still
/// the old one.
/// Until `settle` proves the Commits applied the primary shows the old
/// value, locked, so nobody can read it as valid; `settle`'s fences,
/// carrying the last decisions, leave every backup applied.
#[test]
fn run_reports_the_commit_once_the_backups_hold_it() {
    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let keys: Vec<u64> = (0..N_SERVERS)
            .map(|p| (0..).find(|&k| key_partition(k, N_SERVERS) == p).unwrap())
            .collect();
        for &k in &keys {
            load(&c, k, b"old");
        }
        let primary = |k| &c.txn_servers[key_partition(k, N_SERVERS)];
        let client = TxnClient::new(&c.handles);
        let outcome = client
            .run(&[], &keys, |_| {
                keys.iter().map(|&k| (k, b"new".to_vec())).collect()
            })
            .unwrap();
        assert!(matches!(outcome, TxnOutcome::Committed(_)));
        let backups = |k| flock_txn::protocol::replicas_of(key_partition(k, N_SERVERS), N_SERVERS);
        for &k in &keys {
            assert_eq!(primary(k).peek(k).unwrap(), b"old", "primary of key {k}");
            assert!(locked(primary(k), k), "key {k} unlocked before its Commit");
            for r in backups(k) {
                let backup = &c.txn_servers[r];
                assert_eq!(backup.peek_backup(k).unwrap(), b"old", "backup {r}");
                let pending = backup.peek_pending(k);
                assert_eq!(pending.as_deref(), Some(&b"new"[..]), "backup {r}");
            }
        }
        client.settle().unwrap();
        for &k in &keys {
            assert_eq!(primary(k).peek(k).unwrap(), b"new", "primary of key {k}");
            assert!(!locked(primary(k), k), "key {k} locked after settle");
            for r in backups(k) {
                let backup = &c.txn_servers[r];
                assert_eq!(backup.peek_backup(k).unwrap(), b"new", "backup {r}");
                assert_eq!(backup.pending(), 0, "backup {r}");
            }
        }
        drop(client);
        teardown(c);
    });
}

/// Right after one client's `run` reports a commit, a second client
/// reads the key: it aborts (the primary has not applied the Commit, so
/// the key is locked) or it reads the new value, never the old one as
/// valid. Some rounds must land in that window, or the test shows
/// nothing. The two clients sit on two nodes of their own.
fn a_reader_after_each_commit() -> (u64, u64) {
    let c = cluster();
    let key = 5;
    load(&c, key, &0u64.to_le_bytes());
    let reader_handles = handles_on(&c, "txn-reader");
    let writer = TxnClient::new(&c.handles);
    let reader = TxnClient::new(&reader_handles);
    let (mut aborted, mut read_new) = (0, 0);
    for round in 1..=24u64 {
        let outcome = writer
            .run(&[], &[key], |_| {
                HashMap::from([(key, round.to_le_bytes().to_vec())])
            })
            .unwrap();
        assert!(matches!(outcome, TxnOutcome::Committed(_)));
        match reader.run(&[key], &[], |_| HashMap::new()).unwrap() {
            TxnOutcome::Aborted => aborted += 1,
            TxnOutcome::Committed(values) => {
                let value = values[&key].clone().unwrap();
                assert_eq!(
                    value,
                    round.to_le_bytes(),
                    "round {round} read an old value"
                );
                read_new += 1;
            }
        }
    }
    drop((writer, reader, reader_handles));
    teardown(c);
    (aborted, read_new)
}

#[test]
fn a_reader_after_the_commit_point_aborts_or_reads_the_new_value() {
    let ((aborted, read_new), _) =
        flock_sim::vtime::VirtualLab::run_against_reference(a_reader_after_each_commit);
    assert_eq!(aborted + read_new, 24);
    assert!(aborted > 0, "no read landed before a Commit was applied");
}

/// A transaction's trailing Commits are proven applied by the client's
/// next call that sends to their server: a read-only `run` on another
/// server leaves k0's Commit trailing, one that executes on k0's server
/// reads it applied and unlocked. A write's Log is posted and proves
/// nothing, so a write to k2, whose backups include k0's server, leaves
/// k0's next Commit trailing beside its own. After `run_pipelined`
/// nothing trails at all.
#[test]
fn trailing_commits_never_outlive_the_next_call_to_their_server() {
    struct Writes(Vec<u64>);
    impl TxnLogic for Writes {
        fn next(&mut self) -> TxnSpec {
            TxnSpec {
                reads: vec![],
                writes: self.0.clone(),
                kind: "write",
            }
        }
        fn compute(
            &mut self,
            _: &TxnSpec,
            _: &HashMap<u64, Option<Vec<u8>>>,
        ) -> HashMap<u64, Vec<u8>> {
            self.0.iter().map(|&k| (k, b"piped".to_vec())).collect()
        }
    }

    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let [k0, k1, k2] =
            [0, 1, 2].map(|p| (0..).find(|&k| key_partition(k, N_SERVERS) == p).unwrap());
        for k in [k0, k1, k2] {
            load(&c, k, b"old");
        }
        let primary = |k| &c.txn_servers[key_partition(k, N_SERVERS)];
        let applied =
            |k, value: &[u8]| primary(k).peek(k).unwrap() == value && !locked(primary(k), k);
        let client = TxnClient::new(&c.handles);
        let trailing = || {
            (0..N_SERVERS)
                .map(|s| client.trailing(s))
                .collect::<Vec<_>>()
        };
        let write = |k, value: &[u8]| {
            let outcome = client.run(&[], &[k], |_| HashMap::from([(k, value.to_vec())]));
            assert!(matches!(outcome.unwrap(), TxnOutcome::Committed(_)));
        };
        let read = |keys: &[u64]| {
            let outcome = client.run(keys, &[], |_| HashMap::new()).unwrap();
            let TxnOutcome::Committed(values) = outcome else {
                panic!("a read of {keys:?} aborted");
            };
            values
        };

        write(k0, b"first");
        assert!(!applied(k0, b"first"));
        assert_eq!(trailing(), [1, 0, 0]);
        read(&[k1]);
        assert_eq!(trailing(), [1, 0, 0], "a call to server 1 took k0's Commit");
        let values = read(&[k0]);
        assert_eq!(values[&k0].as_deref(), Some(&b"first"[..]));
        assert!(
            applied(k0, b"first"),
            "k0's Commit outlived a call to its server"
        );
        assert_eq!(trailing(), [0, 0, 0]);

        write(k0, b"second");
        write(k2, b"third");
        assert_eq!(trailing(), [1, 0, 1]);
        read(&[k0, k2]);
        assert!(applied(k0, b"second") && applied(k2, b"third"));
        assert_eq!(trailing(), [0, 0, 0]);

        let stats = client
            .run_pipelined(&mut Writes(vec![k1, k2]), 2, 4)
            .unwrap();
        assert!(stats.commits >= 4, "{stats:?}");
        assert_eq!(trailing(), [0, 0, 0]);
        for k in [k1, k2] {
            assert!(
                applied(k, b"piped"),
                "run_pipelined returned with key {k}'s Commit on its way"
            );
        }
        drop(client);
        teardown(c);
    });
}

/// Destroy `server`'s side of every lane `client` has to it: a write on
/// them completes in error, and the client's QPs refuse every later post.
fn break_lanes(domain: &FlockDomain, client: &flock_fabric::Node, server: &flock_fabric::Node) {
    use flock_fabric::types::QpNum;
    let mut broken = 0;
    for qpn in 0..=client.qp_count() as u32 * 4 {
        let Some((peer, remote)) = client.qp(QpNum(qpn)).and_then(|qp| qp.remote()) else {
            continue;
        };
        if peer == server.id() {
            broken += domain.fabric().node(peer).unwrap().destroy_qp(remote) as usize;
        }
    }
    assert!(broken > 0, "no lane to {}", server.name());
}

/// Two servers, "lost-a" and "lost-b", with `keys[p]` of partition `p`
/// loaded as "a" and "b", and a client to both, in the virtual-time lab.
struct TwoServers {
    domain: FlockDomain,
    nodes: Vec<Arc<flock_fabric::Node>>,
    client_node: Arc<flock_fabric::Node>,
    txn_servers: Vec<Arc<TxnServer>>,
    keys: [u64; 2],
}

fn with_two_servers(body: impl FnOnce(&TwoServers, &TxnClient)) {
    flock_sim::vtime::VirtualLab::run(|| {
        let domain = FlockDomain::with_defaults();
        let names = ["lost-a", "lost-b"];
        let nodes: Vec<_> = names.iter().map(|name| domain.add_node(name)).collect();
        let (servers, txn_servers): (Vec<_>, Vec<_>) = names
            .iter()
            .zip(&nodes)
            .enumerate()
            .map(|(i, (name, node))| {
                let server = FlockServer::listen(&domain, node, name, ServerConfig::default());
                let idx = server.attach_mreg(1 << 12);
                let ts = TxnServer::new(i, server.mem_region(idx).unwrap());
                ts.register(&server);
                (server, ts)
            })
            .unzip();
        let client_node = domain.add_node("lost-client");
        let handles: Vec<Arc<ConnectionHandle>> = names
            .iter()
            .map(|name| {
                let cfg = HandleConfig::default();
                Arc::new(ConnectionHandle::connect(&domain, &client_node, name, cfg).unwrap())
            })
            .collect();
        let keys = [0, 1].map(|p| (0..).find(|&k| key_partition(k, 2) == p).unwrap());
        txn_servers[0].load(keys[0], b"a");
        txn_servers[1].load(keys[1], b"b");
        let client = TxnClient::new(&handles);
        let t = TwoServers {
            domain,
            nodes,
            client_node,
            txn_servers,
            keys,
        };
        body(&t, &client);
        drop((client, handles));
        for s in &servers {
            s.shutdown(&t.domain);
        }
    });
}

/// The error of a posted write whose lane `break_lanes` destroyed.
const LOST_WRITE: flock_core::FlockError =
    flock_core::FlockError::RemoteOpFailed("request write completed with error status");

/// A Commit whose posted write fails: `run` has already reported the
/// commit, so the failed landing is the error of the call that collects
/// it, the next call that sends to its server (or `settle`). A call to
/// another server leaves it trailing. The collecting transaction, which
/// also writes the other server, commits nothing there and releases its
/// lock. The primary never applied the Commit and keeps its key locked.
#[test]
fn a_trailing_commit_error_is_returned_by_the_call_that_collects_it() {
    with_two_servers(|t, client| {
        let [key_a, key_b] = t.keys;
        let write = client.run(&[], &[key_a], |_| HashMap::from([(key_a, b"new".to_vec())]));
        assert!(matches!(write, Ok(TxnOutcome::Committed(_))), "{write:?}");
        // Before the Commit's write has left the client's NIC.
        break_lanes(&t.domain, &t.client_node, &t.nodes[0]);
        let elsewhere = client.run(&[key_b], &[], |_| HashMap::new());
        assert!(
            matches!(elsewhere, Ok(TxnOutcome::Committed(_))),
            "{elsewhere:?}"
        );
        assert_eq!(client.trailing(0), 1);
        let collecting = client.run(&[key_a], &[key_b], |_| {
            HashMap::from([(key_b, b"collected".to_vec())])
        });
        assert_eq!(collecting, Err(LOST_WRITE));
        assert_eq!(client.trailing(0), 0);
        client.settle().unwrap();
        let b = &t.txn_servers[1];
        assert_eq!(
            b.peek(key_b).unwrap(),
            b"b",
            "the collecting call committed"
        );
        assert!(!locked(b, key_b), "the collecting call left its lock");
        assert_eq!(t.txn_servers[0].peek(key_a).unwrap(), b"a");
        assert!(locked(&t.txn_servers[0], key_a), "the lost Commit unlocked");
    });
}

/// `settle` returns the error of a trailing Commit whose posted write
/// fails, and takes its landing all the same.
#[test]
fn settle_returns_a_trailing_commit_error() {
    with_two_servers(|t, client| {
        let key_a = t.keys[0];
        let write = client.run(&[], &[key_a], |_| HashMap::from([(key_a, b"new".to_vec())]));
        assert!(matches!(write, Ok(TxnOutcome::Committed(_))), "{write:?}");
        break_lanes(&t.domain, &t.client_node, &t.nodes[0]);
        assert_eq!(client.trailing(0), 1);
        let settled = client.settle();
        assert!(
            matches!(settled, Err(flock_core::FlockError::RemoteOpFailed(_))),
            "{settled:?}"
        );
        assert_eq!(client.trailing(0), 0);
        assert_eq!(t.txn_servers[0].peek(key_a).unwrap(), b"a");
        assert!(locked(&t.txn_servers[0], key_a), "the lost Commit unlocked");
    });
}

/// A transaction decided at its commit point is never aborted: on six
/// servers it writes partitions 0, 3 and 4, whose backups leave server 3
/// out, and `compute` stops the handle to server 3 before the Log
/// phase. Every Log lands, the Commit to server 3 cannot be sent, and
/// the Commits to 0 and 4 still go out: `run` returns the send's error,
/// primaries 0 and 4 hold the new values and server 3 keeps its key
/// locked (a lease's to free, ROADMAP item 16). An Abort to the
/// primaries after the failed send used to unlock 4's old value.
#[test]
fn a_commit_that_cannot_be_sent_aborts_no_other_primary() {
    const N: usize = 6;
    let mut c = cluster_of(N);
    let key = |p| (0..).find(|&k| key_partition(k, N) == p).unwrap();
    let keys = [0, 3, 4].map(key);
    for &k in &keys {
        c.txn_servers[key_partition(k, N)].load(k, b"old");
    }
    let backups: Vec<usize> = [0, 3, 4]
        .iter()
        .flat_map(|&p| flock_txn::protocol::replicas_of(p, N))
        .collect();
    assert!(
        !backups.contains(&3),
        "server 3 backs up a written partition"
    );
    let client = TxnClient::new(&c.handles);
    let mut stopped = Arc::into_inner(c.handles.remove(3)).expect("the only owner");
    let outcome = client.run(&[], &keys, |_| {
        stopped.shutdown();
        keys.iter().map(|&k| (k, b"new".to_vec())).collect()
    });
    assert_eq!(outcome, Err(flock_core::FlockError::Disconnected));
    client.settle().unwrap();
    for (p, k) in [(0, keys[0]), (4, keys[2])] {
        let primary = &c.txn_servers[p];
        assert_eq!(primary.peek(k).unwrap(), b"new", "primary {p}");
        assert!(!locked(primary, k), "primary {p} left locked");
    }
    assert_eq!(c.txn_servers[3].peek(keys[1]).unwrap(), b"old");
    assert!(locked(&c.txn_servers[3], keys[1]), "server 3 was unlocked");
    drop(client);
    teardown(c);
}

/// A Log lost on one of a key's two backups (its lane broken before the
/// transaction) ends the transaction with the write's error: the Log
/// that landed on the other backup waits there as a pending record, and
/// `settle` carries the abort that drops it. Both backups end equal to
/// the primary. A backup that applied a Log on arrival kept the new
/// value that no transaction committed.
#[test]
fn a_log_lost_on_one_backup_leaves_both_backups_equal_to_the_primary() {
    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let k = keys_of(0, 1)[0];
        load(&c, k, b"old");
        let [kept, lost] = flock_txn::protocol::replicas_of(0, N_SERVERS);
        let client = TxnClient::new(&c.handles);
        break_lanes(&c.domain, &c.client_node, &c.nodes[lost]);
        let outcome = client.run(&[], &[k], |_| HashMap::from([(k, b"new".to_vec())]));
        assert!(
            matches!(outcome, Err(flock_core::FlockError::RemoteOpFailed(_))),
            "{outcome:?}"
        );
        client.settle().unwrap();
        assert_eq!(c.txn_servers[0].peek(k).unwrap(), b"old");
        assert!(
            !locked(&c.txn_servers[0], k),
            "the failed write left its lock"
        );
        for r in [kept, lost] {
            let backup = c.txn_servers[r].peek_backup(k);
            assert_eq!(backup.as_deref(), Some(&b"old"[..]), "backup {r}");
        }
        assert!(c.txn_servers.iter().all(|ts| ts.pending() == 0));
        drop(client);
        teardown(c);
    });
}

/// `run_pipelined` at width 3: three transactions write server 0, then
/// the rest write servers 1 and 2 in turn. An Execute takes the trailing
/// Commits of its own server only, so server 0's three stay trailing
/// while the run goes on elsewhere, and no server ever has more than
/// `width` trailing. The run settles them all before it returns.
#[test]
fn at_most_width_commits_trail_per_server() {
    const WIDTH: usize = 3;
    struct Spread<'a> {
        client: &'a TxnClient,
        keys: [Vec<u64>; N_SERVERS],
        started: usize,
        /// The most trailing Commits seen per server.
        most: [usize; N_SERVERS],
    }
    impl TxnLogic for Spread<'_> {
        fn next(&mut self) -> TxnSpec {
            for (s, most) in self.most.iter_mut().enumerate() {
                *most = (*most).max(self.client.trailing(s));
            }
            let server = if self.started < WIDTH {
                0
            } else {
                1 + self.started % 2
            };
            let key = self.keys[server][self.started % WIDTH];
            self.started += 1;
            TxnSpec {
                reads: vec![],
                writes: vec![key],
                kind: "spread",
            }
        }
        fn compute(
            &mut self,
            spec: &TxnSpec,
            _: &HashMap<u64, Option<Vec<u8>>>,
        ) -> HashMap<u64, Vec<u8>> {
            spec.writes.iter().map(|&k| (k, b"new".to_vec())).collect()
        }
    }

    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let keys = [0, 1, 2].map(|p| keys_of(p, WIDTH));
        for &k in keys.iter().flatten() {
            load(&c, k, b"old");
        }
        let client = TxnClient::new(&c.handles);
        let mut spread = Spread {
            client: &client,
            keys: keys.clone(),
            started: 0,
            most: [0; N_SERVERS],
        };
        let stats = client.run_pipelined(&mut spread, WIDTH, 60).unwrap();
        assert!(stats.commits >= 60, "{stats:?}");
        let most = spread.most;
        assert_eq!(most[0], WIDTH, "server 0's Commits, {most:?}");
        assert!(most.iter().all(|&m| m <= WIDTH), "{most:?}");
        for (p, keys) in keys.iter().enumerate() {
            assert_eq!(client.trailing(p), 0);
            for &k in keys {
                assert_eq!(c.txn_servers[p].peek(k).unwrap(), b"new");
                assert!(!locked(&c.txn_servers[p], k), "key {k} left locked");
            }
        }
        drop(client);
        teardown(c);
    });
}

/// What a slow Execute handler charges. A shard answers a request at
/// the start of its step and is busy with the charge after it, so the
/// Log and Commit behind an Execute on its lane are applied that much
/// later, while `run` returns once they have landed.
const SLOW_EXECUTE_NS: u64 = 200_000;

/// One server that is its own backup and whose Execute handler keeps
/// its dispatch shard busy for [`SLOW_EXECUTE_NS`], a handle of `cfg`'s
/// lanes to it, and a client whose thread sits on lane 1 (a first
/// thread, handed to `between`, holds lane 0). The client writes
/// `b"new"` over key 1, and `between` runs while that Commit trails,
/// not yet applied: `settle` must then leave the key applied and
/// unlocked at once. Returns each lane's requests after the write and
/// after `settle`, and the lane of the client's next call.
fn a_commit_trailing_on_lane_1(
    domain: FlockDomain,
    scfg: ServerConfig,
    cfg: HandleConfig,
    between: impl FnOnce(&ConnectionHandle, &flock_core::FlThread),
) -> ([Vec<u64>; 2], usize) {
    use flock_sync::clock;
    let node = domain.add_node("slow-srv");
    let server = FlockServer::listen(&domain, &node, "slow", scfg);
    let idx = server.attach_mreg(1 << 12);
    let ts = TxnServer::new(0, server.mem_region(idx).unwrap());
    ts.register(&server);
    let primary = Arc::clone(&ts);
    server.reg_handler(flock_txn::protocol::RPC_EXECUTE, move |req| {
        clock::charge(SLOW_EXECUTE_NS);
        primary
            .handle(&flock_txn::TxnRpc::decode(req).unwrap())
            .encode()
    });
    server.reg_handler(RPC_SINK, |_| Vec::new());
    let client_node = domain.add_node("slow-client");
    let handle = Arc::new(ConnectionHandle::connect(&domain, &client_node, "slow", cfg).unwrap());
    let first = handle.register_thread();
    let client = TxnClient::new(std::slice::from_ref(&handle));
    ts.load(1, b"old");
    let lanes = || -> Vec<u64> { handle.metrics().per_qp.iter().map(|q| q.requests).collect() };

    let outcome = client.run(&[], &[1], |_| HashMap::from([(1, b"new".to_vec())]));
    assert!(
        matches!(outcome, Ok(TxnOutcome::Committed(_))),
        "{outcome:?}"
    );
    let written = lanes();
    between(&handle, &first);
    assert!(locked(&ts, 1), "the Commit was applied before settle");
    client.settle().unwrap();
    assert_eq!(ts.peek(1).unwrap(), b"new");
    assert!(
        !locked(&ts, 1),
        "settle returned before the Commit was applied"
    );
    let settled = lanes();
    client.run(&[1], &[], |_| HashMap::new()).unwrap();
    let next = (0..settled.len())
        .find(|&lane| lanes()[lane] > settled[lane])
        .expect("the next call sent a request");
    drop((client, first, handle));
    server.shutdown(&domain);
    ([written, settled], next)
}

/// A request the server answers with nothing.
const RPC_SINK: u32 = 98;

/// The client's thread scheduler moves the coordinator's thread while its
/// Commit trails on lane 1: the first thread posts one large request, so
/// the next pass puts the small-request thread on lane 0 (size classes
/// apart, paper §5.2). The untaken landing keeps the thread on lane 1, so
/// `settle`'s fence goes out there, behind the Commit; the next call,
/// with nothing outstanding, moves to lane 0.
#[test]
fn settle_proves_a_commit_applied_after_the_thread_was_retargeted() {
    let ([written, settled], next) = flock_sim::vtime::VirtualLab::run(|| {
        let mut cfg = HandleConfig::default();
        cfg.n_qps = 2;
        cfg.eager_qps = true;
        cfg.sched_interval = std::time::Duration::from_micros(20);
        let domain = FlockDomain::with_defaults();
        a_commit_trailing_on_lane_1(domain, ServerConfig::default(), cfg, |_, first| {
            first
                .recv_res(first.post_rpc(RPC_SINK, &[0; 2048]).unwrap())
                .unwrap();
            flock_sync::clock::sleep_ns(60_000);
        })
    });
    assert_eq!(written, [0, 3], "Execute, Log and Commit on lane 1");
    assert_eq!(settled, [1, 4], "the fence on lane 1");
    assert_eq!(next, 0, "the thread was not retargeted");
}

/// A Commit trailing on a lane the server deactivates: `max_aqp` 2
/// against three lanes, and a grant nobody uses up, so the first
/// redistribution leaves the client lane 0 alone and lane 1 drains. The
/// coordinator's thread stays on it, and the fence goes out without
/// credits, as a resident of a draining lane sends.
#[test]
fn settle_proves_a_commit_applied_on_a_draining_lane() {
    let ([written, settled], next) = flock_sim::vtime::VirtualLab::run(|| {
        let mut fab = flock_fabric::FabricConfig::default();
        fab.cost.ctrl_create_qp_ns = 0;
        fab.cost.ctrl_reg_mr_base_ns = 0;
        fab.cost.ctrl_reg_mr_ns_per_kb = 0;
        let mut scfg = ServerConfig::default();
        scfg.sched.max_aqp = 2;
        scfg.sched.grant_size = 1 << 20;
        scfg.sched_interval = std::time::Duration::from_micros(50);
        let mut cfg = HandleConfig::default();
        cfg.n_qps = 3;
        cfg.eager_qps = true;
        let domain = FlockDomain::new(fab);
        a_commit_trailing_on_lane_1(domain, scfg, cfg, |handle, _| {
            for _ in 0..100 {
                if !handle.metrics().per_qp[1].active {
                    return;
                }
                flock_sync::clock::sleep_ns(1_000);
            }
            panic!("lane 1 still active after 100 µs");
        })
    });
    assert_eq!(written, [0, 3, 0], "Execute, Log and Commit on lane 1");
    assert_eq!(settled, [0, 4, 0], "the fence on lane 1");
    assert_ne!(next, 1, "the thread stayed on the drained lane");
}

/// Two servers: a write of partition 0 logs to server 1, which gets no
/// Commit, so its decision waits in the client. The handle to server 1
/// has two lanes; as in
/// `settle_proves_a_commit_applied_after_the_thread_was_retargeted`, a
/// first thread's large request makes the scheduler move the
/// coordinator's thread to lane 0, while the Log's untaken landing keeps
/// it on lane 1. With `read_first`, a read of server 1's key then goes
/// out there. `settle`'s fence carries the decision. Returns server 1's
/// lanes' requests after the write and after `settle`, and the backup
/// copy `settle` leaves.
fn a_log_on_a_retargeted_lane(read_first: bool) -> ([Vec<u64>; 2], Vec<u8>) {
    flock_sim::vtime::VirtualLab::run(|| {
        let domain = FlockDomain::with_defaults();
        let names = ["follow-0", "follow-1"];
        let (servers, txn_servers): (Vec<_>, Vec<_>) = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let node = domain.add_node(name);
                let server = FlockServer::listen(&domain, &node, name, ServerConfig::default());
                let idx = server.attach_mreg(1 << 12);
                let ts = TxnServer::new(i, server.mem_region(idx).unwrap());
                ts.register(&server);
                server.reg_handler(RPC_SINK, |_| Vec::new());
                (server, ts)
            })
            .unzip();
        let client_node = domain.add_node("follow-client");
        let handles: Vec<Arc<ConnectionHandle>> = names
            .iter()
            .map(|name| {
                let mut cfg = HandleConfig::default();
                cfg.n_qps = 2;
                cfg.eager_qps = true;
                cfg.sched_interval = std::time::Duration::from_micros(20);
                Arc::new(ConnectionHandle::connect(&domain, &client_node, name, cfg).unwrap())
            })
            .collect();
        let first = handles[1].register_thread();
        let client = TxnClient::new(&handles);
        let [k, read] = [0, 1].map(|p| (0..).find(|&k| key_partition(k, 2) == p).unwrap());
        txn_servers[0].load(k, b"old");
        txn_servers[1].load(read, b"v");
        assert_eq!(flock_txn::protocol::replicas_of(0, 2), [1, 0]);
        let lanes = || -> Vec<u64> {
            let per_qp = handles[1].metrics().per_qp;
            per_qp.iter().map(|q| q.requests).collect()
        };

        let outcome = client.run(&[], &[k], |_| HashMap::from([(k, b"new".to_vec())]));
        assert!(
            matches!(outcome, Ok(TxnOutcome::Committed(_))),
            "{outcome:?}"
        );
        let written = lanes();
        first
            .recv_res(first.post_rpc(RPC_SINK, &[0; 2048]).unwrap())
            .unwrap();
        flock_sync::clock::sleep_ns(60_000);
        if read_first {
            client.run(&[read], &[], |_| HashMap::new()).unwrap();
        }
        client.settle().unwrap();
        let settled = lanes();
        assert_eq!(txn_servers[1].pending(), 0);
        let backup = txn_servers[1].peek_backup(k).unwrap();
        drop((client, first, handles));
        for s in &servers {
            s.shutdown(&domain);
        }
        ([written, settled], backup)
    })
}

/// A decision follows its Log on the Log's lane: with nothing else sent
/// to server 1, `settle`'s fence goes out on lane 1, behind the Log (a
/// landing taken at the commit point let it go out on lane 0, where the
/// server could handle it first). An Execute behind the Log proves it
/// handled: after a read of server 1 on lane 1 the thread moves, and the
/// fence goes out on lane 0. Either way the backup ends applied.
#[test]
fn a_decision_follows_its_log_on_a_retargeted_thread() {
    let ([written, settled], backup) = a_log_on_a_retargeted_lane(false);
    assert_eq!(written, [0, 1], "the Log on lane 1");
    assert_eq!(settled, [1, 2], "the fence on lane 1");
    assert_eq!(backup, b"new");
    let ([written, settled], backup) = a_log_on_a_retargeted_lane(true);
    assert_eq!(written, [0, 1], "the Log on lane 1");
    assert_eq!(settled, [2, 2], "the read on lane 1, the fence on lane 0");
    assert_eq!(backup, b"new");
}

/// One key on each server's partition.
fn key_per_server() -> Vec<u64> {
    (0..N_SERVERS)
        .map(|p| (0..).find(|&k| key_partition(k, N_SERVERS) == p).unwrap())
        .collect()
}

/// `n` keys of partition `p`.
fn keys_of(p: usize, n: usize) -> Vec<u64> {
    (0..)
        .filter(|&k| key_partition(k, N_SERVERS) == p)
        .take(n)
        .collect()
}

/// New values adding one to each of `keys`' 8-byte counters.
fn increments(keys: &[u64], vals: &HashMap<u64, Option<Vec<u8>>>) -> HashMap<u64, Vec<u8>> {
    keys.iter()
        .map(|&k| {
            let old = u64::from_le_bytes(vals[&k].as_ref().unwrap()[..8].try_into().unwrap());
            (k, (old + 1).to_le_bytes().to_vec())
        })
        .collect()
}

/// A key in both the read and the write set used to abort every try:
/// Execute locked it and then read its word with the transaction's own
/// lock bit set, which validation took for a conflict. It commits, on
/// one server and across three (where one-sided validation runs).
#[test]
fn a_key_read_and_written_commits() {
    let c = cluster();
    let keys = key_per_server();
    for &k in &keys {
        load(&c, k, &0u64.to_le_bytes());
    }
    let client = TxnClient::new(&c.handles);
    let k = keys[0];
    let once = client.run(&[k], &[k], |vals| increments(&[k], vals));
    assert!(matches!(once, Ok(TxnOutcome::Committed(_))), "{once:?}");
    let written = &keys[..2];
    let spread = client.run(&keys, written, |vals| increments(written, vals));
    assert!(matches!(spread, Ok(TxnOutcome::Committed(_))), "{spread:?}");
    client.settle().unwrap();
    let value = |k: u64| c.txn_servers[key_partition(k, N_SERVERS)].peek(k).unwrap();
    assert_eq!(value(keys[0]), 2u64.to_le_bytes());
    assert_eq!(value(keys[1]), 1u64.to_le_bytes());
    assert_eq!(value(keys[2]), 0u64.to_le_bytes());
    drop(client);
    teardown(c);
}

/// A transaction on one server is serialized by its Execute, which reads
/// its read set twice: it issues no one-sided READ. One that spans two
/// servers reads each read-set word back.
#[test]
fn a_single_server_read_only_transaction_issues_no_read() {
    let c = cluster();
    let local = keys_of(0, 2);
    let remote = keys_of(1, 1)[0];
    for &k in local.iter().chain([&remote]) {
        load(&c, k, b"v");
    }
    let client = TxnClient::new(&c.handles);
    let reads = || c.client_node.stats().reads.get();
    let before = reads();
    let alone = client.run(&local, &[], |_| HashMap::new()).unwrap();
    let TxnOutcome::Committed(values) = alone else {
        panic!("a read-only transaction on one server aborted");
    };
    assert_eq!(values.len(), 2);
    assert_eq!(reads(), before, "a single-server transaction read a word");
    let spread = client.run(&[local[0], remote], &[], |_| HashMap::new());
    assert!(matches!(spread, Ok(TxnOutcome::Committed(_))), "{spread:?}");
    assert_eq!(reads(), before + 2);
    drop(client);
    teardown(c);
}

/// A writer sets two keys of one server to the round number, on a task
/// of its own, while a reader on a second node reads both, each a
/// transaction on that server alone (no one-sided validation). Every
/// committed read is one round, both keys, and no older than the last
/// round the writer had reported committed before the read began.
/// Returns the reads committed and aborted.
fn a_reader_racing_a_writer() -> (u64, u64) {
    const ROUNDS: u64 = 40;
    let c = cluster();
    let keys = keys_of(0, 2);
    for &k in &keys {
        load(&c, k, &0u64.to_le_bytes());
    }
    let reader_handles = handles_on(&c, "txn-racer");
    let reader = TxnClient::new(&reader_handles);
    let client = TxnClient::new(&c.handles);
    // Both connect their lanes before the race.
    for warm in [&reader, &client] {
        warm.run(&keys, &[], |_| HashMap::new()).unwrap();
    }
    // Rounds committed: the writer is the keys' only writer, so each of
    // its transactions commits.
    let done = Arc::new(flock_sync::Counter::default());
    let writer = {
        let (keys, done) = (keys.clone(), Arc::clone(&done));
        flock_sync::clock::spawn("writer", move || {
            for round in 1..=ROUNDS {
                let value = round.to_le_bytes().to_vec();
                let outcome = client
                    .run(&[], &keys, |_| {
                        keys.iter().map(|&k| (k, value.clone())).collect()
                    })
                    .unwrap();
                assert!(matches!(outcome, TxnOutcome::Committed(_)), "round {round}");
                done.add(1);
                // Back to back, the next round locks the keys as soon as
                // this one's Commit unlocks them; a pause of 0 to 3 µs
                // opens windows of several widths.
                flock_sync::clock::sleep_ns(round % 4 * 1_000);
            }
        })
    };
    let (mut committed, mut aborted) = (0, 0);
    while done.get() < ROUNDS {
        let floor = done.get();
        match reader.run(&keys, &[], |_| HashMap::new()).unwrap() {
            TxnOutcome::Aborted => aborted += 1,
            TxnOutcome::Committed(values) => {
                let round = |k: &u64| {
                    u64::from_le_bytes(values[k].as_ref().unwrap()[..8].try_into().unwrap())
                };
                let (a, b) = (round(&keys[0]), round(&keys[1]));
                assert_eq!(a, b, "a mixed snapshot");
                assert!(a >= floor, "read round {a} after round {floor} committed");
                committed += 1;
            }
        }
    }
    writer.join().unwrap();
    drop((reader, reader_handles));
    teardown(c);
    (committed, aborted)
}

#[test]
fn a_single_server_reader_racing_a_writer_never_reads_a_mixed_snapshot() {
    let ((committed, aborted), _) =
        flock_sim::vtime::VirtualLab::run_against_reference(a_reader_racing_a_writer);
    assert!(
        committed > 0 && aborted > 0,
        "{committed} committed, {aborted} aborted"
    );
}

/// A backup whose Log handler charges 50 µs of CPU: a second write
/// transaction's Log reaches it while it is still busy with the first
/// one's. `run` returns `Committed` once that Log has landed in the
/// backup's request ring, long before the backup handles it (waiting
/// for the backup's answer to the Log took 50 µs here). The primary
/// stays locked until `settle`, and the backup holds the old value,
/// the first write pending: its commit notice rides the second Log, and
/// `settle`'s one fence carries the second's and is answered once the
/// backup has applied both.
#[test]
fn run_returns_before_a_slow_backup_applies_its_log() {
    use flock_sync::clock;
    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let k = keys_of(0, 1)[0];
        load(&c, k, b"old");
        let slow = flock_txn::protocol::replicas_of(0, N_SERVERS)[0];
        let applied = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (backup, at) = (Arc::clone(&c.txn_servers[slow]), Arc::clone(&applied));
        c.servers[slow].reg_handler(flock_txn::protocol::RPC_LOG, move |req| {
            clock::charge(50_000);
            let rpc = flock_txn::TxnRpc::decode(req).expect("a Log");
            at.lock().push(clock::now_ns());
            backup.handle(&rpc).encode()
        });
        let client = TxnClient::new(&c.handles);
        client.run(&[k], &[], |_| HashMap::new()).unwrap();
        let first = client.run(&[], &[k], |_| HashMap::from([(k, b"one".to_vec())]));
        assert!(matches!(first, Ok(TxnOutcome::Committed(_))), "{first:?}");
        let started = clock::now_ns();
        let second = client.run(&[], &[k], |_| HashMap::from([(k, b"two".to_vec())]));
        assert!(matches!(second, Ok(TxnOutcome::Committed(_))), "{second:?}");
        let returned = clock::now_ns();
        let sent = c.handles[slow].metrics().requests;
        assert!(
            returned - started < 20_000,
            "run took {} ns",
            returned - started
        );
        let backup = &c.txn_servers[slow];
        assert_eq!(backup.peek_backup(k).unwrap(), b"old");
        assert_eq!(backup.peek_pending(k).unwrap(), b"one", "the first Log");
        assert!(
            locked(&c.txn_servers[0], k),
            "the primary applied its Commit"
        );
        client.settle().unwrap();
        assert_eq!(c.txn_servers[0].peek(k).unwrap(), b"two");
        assert_eq!(c.txn_servers[slow].peek_backup(k).unwrap(), b"two");
        assert_eq!(c.txn_servers[slow].pending(), 0);
        let applied = applied.lock().clone();
        assert_eq!(applied.len(), 2);
        assert!(
            applied[1] > returned + 20_000,
            "handled at {applied:?}, returned {returned}"
        );
        assert_eq!(
            c.handles[slow].metrics().requests,
            sent + 1,
            "settle sent the backup more than its fence"
        );
        drop(client);
        teardown(c);
    });
}

/// Two clients on two nodes write one key in turn, and a backup is busy
/// when the first client's second Log lands there: the second client's
/// Log, on its own connection and so another dispatch shard, is handled
/// first. The first client's read of the key proves its Commit applied
/// without sending the backup anything. The older record, decided last,
/// must not overwrite the newer value: every backup ends equal to the
/// primary.
#[test]
fn a_backup_keeps_the_newest_write_when_two_writers_logs_cross() {
    use flock_sync::clock;
    use flock_txn::protocol::replicas_of;
    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let k = keys_of(0, 1)[0];
        load(&c, k, b"old");
        let slow = replicas_of(0, N_SERVERS)[0];
        let applied = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (backup, order) = (Arc::clone(&c.txn_servers[slow]), Arc::clone(&applied));
        c.servers[slow].reg_handler(flock_txn::protocol::RPC_LOG, move |req| {
            let rpc = flock_txn::TxnRpc::decode(req).expect("a Log");
            let flock_txn::TxnRpc::Log { writes, .. } = &rpc else {
                panic!("a Log");
            };
            if writes[0].value == b"a1" {
                clock::charge(50_000);
            }
            order.lock().push(writes[0].value.clone());
            backup.handle(&rpc).encode()
        });
        let other = handles_on(&c, "txn-b");
        let (a, b) = (TxnClient::new(&c.handles), TxnClient::new(&other));
        let write = |client: &TxnClient, value: &[u8]| {
            let outcome = client.run(&[], &[k], |_| HashMap::from([(k, value.to_vec())]));
            assert!(
                matches!(outcome, Ok(TxnOutcome::Committed(_))),
                "{outcome:?}"
            );
        };
        // Both connect their lanes to every server first.
        for client in [&a, &b] {
            write(client, b"warm");
            client.settle().unwrap();
        }
        write(&a, b"a1");
        write(&a, b"a2");
        a.run(&[k], &[], |_| HashMap::new()).unwrap();
        write(&b, b"b");
        b.settle().unwrap();
        a.settle().unwrap();
        let order: Vec<&[u8]> = vec![b"warm", b"warm", b"a1", b"b", b"a2"];
        assert_eq!(*applied.lock(), order, "the Logs did not cross");
        assert_eq!(c.txn_servers[0].peek(k).unwrap(), b"b");
        for r in replicas_of(0, N_SERVERS) {
            assert_eq!(c.txn_servers[r].peek_backup(k).unwrap(), b"b", "backup {r}");
        }
        drop((a, b, other));
        teardown(c);
    });
}

/// The scenario of
/// `validation_aborts_a_transaction_whose_read_moved_after_its_execute`
/// with a write: the reader also writes k1, whose Logs go out beside its
/// validation read and land on both backups before the read fails. The
/// backups hold them as pending records until `settle` carries the
/// abort: then no backup has changed and none holds a record.
#[test]
fn a_transaction_that_fails_validation_after_its_logs_landed_changes_no_backup() {
    use flock_sync::clock;
    use flock_txn::protocol::replicas_of;
    const RPC_STALL: u32 = 99;
    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let (k0, k1) = (keys_of(0, 1)[0], keys_of(1, 1)[0]);
        load(&c, k0, b"old");
        load(&c, k1, b"v");
        c.servers[1].reg_handler(RPC_STALL, |_| {
            clock::charge(50_000);
            Vec::new()
        });
        let writer_handles = handles_on(&c, "txn-writer");
        let (reader, writer) = (TxnClient::new(&c.handles), TxnClient::new(&writer_handles));
        // Both connect their lanes first.
        let warm = writer.run(&[], &[k0], |_| HashMap::from([(k0, b"old".to_vec())]));
        assert!(matches!(warm, Ok(TxnOutcome::Committed(_))), "{warm:?}");
        writer.settle().unwrap();
        let warm = reader.run(&[k0], &[k1], |_| HashMap::from([(k1, b"v".to_vec())]));
        assert!(matches!(warm, Ok(TxnOutcome::Committed(_))), "{warm:?}");
        reader.settle().unwrap();

        let stall = c.handles[1].register_thread();
        let stalled = stall.send_rpc(RPC_STALL, b"").unwrap();
        clock::sleep_ns(5_000);
        let write = clock::spawn("writer", move || {
            clock::sleep_ns(10_000);
            let outcome = writer.run(&[], &[k0], |_| HashMap::from([(k0, b"new".to_vec())]));
            assert!(
                matches!(outcome, Ok(TxnOutcome::Committed(_))),
                "{outcome:?}"
            );
        });
        // k1's backups: server 2, and server 0, which k0's Execute and
        // validation read go to as well.
        let [b0, b1] = replicas_of(1, N_SERVERS);
        assert_eq!([b0, b1], [2, 0]);
        let sent = |s: usize| c.handles[s].metrics().requests;
        let before = [sent(b0), sent(b1)];
        let outcome = reader.run(&[k0], &[k1], |_| HashMap::from([(k1, b"x".to_vec())]));
        assert_eq!(outcome, Ok(TxnOutcome::Aborted));
        let logs = [sent(b0) - before[0], sent(b1) - before[1] - 1];
        assert_eq!(logs, [1, 1], "one Log each");
        clock::sleep_ns(10_000);
        for r in [b0, b1] {
            let held = c.txn_servers[r].peek_pending(k1);
            assert_eq!(held.as_deref(), Some(&b"x"[..]), "backup {r}");
        }
        reader.settle().unwrap();
        for r in [b0, b1] {
            let backup = c.txn_servers[r].peek_backup(k1);
            assert_eq!(backup.as_deref(), Some(&b"v"[..]), "backup {r}");
            assert_eq!(c.txn_servers[r].pending(), 0, "backup {r}");
        }
        assert_eq!(c.txn_servers[1].peek(k1).unwrap(), b"v");
        assert!(!locked(&c.txn_servers[1], k1), "the abort left k1 locked");
        write.join().unwrap();
        stall.recv_res(stalled).unwrap();
        drop((reader, stall, writer_handles));
        teardown(c);
    });
}

/// A transaction over two servers whose read word moves after its
/// Execute and before its validation: both Executes found their words
/// steady, so only the one-sided READ sees the move, and the
/// transaction aborts. Server 1 answers the reader's Execute late (its
/// dispatch shard is busy with a 50 µs request that came first), and in
/// that window a writer on another node commits to the reader's key on
/// server 0.
#[test]
fn validation_aborts_a_transaction_whose_read_moved_after_its_execute() {
    use flock_sync::clock;
    const RPC_STALL: u32 = 99;
    flock_sim::vtime::VirtualLab::run(|| {
        let c = cluster();
        let (k0, k1) = (keys_of(0, 1)[0], keys_of(1, 1)[0]);
        load(&c, k0, b"old");
        load(&c, k1, b"v");
        c.servers[1].reg_handler(RPC_STALL, |_| {
            clock::charge(50_000);
            Vec::new()
        });
        let writer_handles = handles_on(&c, "txn-writer");
        let (reader, writer) = (TxnClient::new(&c.handles), TxnClient::new(&writer_handles));
        // Both connect their lanes first.
        let warm = writer.run(&[], &[k0], |_| HashMap::from([(k0, b"old".to_vec())]));
        assert!(matches!(warm, Ok(TxnOutcome::Committed(_))), "{warm:?}");
        writer.settle().unwrap();
        reader.run(&[k0, k1], &[], |_| HashMap::new()).unwrap();

        let stall = c.handles[1].register_thread();
        let stalled = stall.send_rpc(RPC_STALL, b"").unwrap();
        clock::sleep_ns(5_000);
        let committed = Arc::new(flock_sync::Counter::default());
        let write = {
            let committed = Arc::clone(&committed);
            clock::spawn("writer", move || {
                clock::sleep_ns(10_000);
                let outcome = writer.run(&[], &[k0], |_| HashMap::from([(k0, b"new".to_vec())]));
                assert!(
                    matches!(outcome, Ok(TxnOutcome::Committed(_))),
                    "{outcome:?}"
                );
                writer.settle().unwrap();
                committed.add(clock::now_ns());
            })
        };
        let reads = || c.client_node.stats().reads.get();
        let before = reads();
        let outcome = reader.run(&[k0, k1], &[], |_| HashMap::new()).unwrap();
        let validated = clock::now_ns();
        write.join().unwrap();
        let committed = committed.get();
        assert!(
            committed < validated,
            "the write committed at {committed} ns, not before {validated}"
        );
        assert_eq!(reads(), before + 2, "the reader did not validate");
        assert_eq!(outcome, TxnOutcome::Aborted);
        assert_eq!(c.txn_servers[0].peek(k0).unwrap(), b"new");
        stall.recv_res(stalled).unwrap();
        drop((reader, stall, writer_handles));
        teardown(c);
    });
}
