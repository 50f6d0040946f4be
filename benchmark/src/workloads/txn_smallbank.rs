//! `txn_smallbank` — fan-**out** instead of fan-in.
//!
//! Closed loop: 3 `TxnServer`s (2 dispatch shards each), 4 client nodes
//! × 4 threads, each thread a `TxnClient` over three handles, Smallbank
//! over 100 000 accounts on the OCC path (`TxnClient::run`). One
//! operation is several RPCs to up to three servers plus one-sided
//! validation reads from the same thread, and its latency is set by the
//! slowest server: the same `core` layer as `echo_fanin` and
//! `kv_onesided_thrash`, used differently. An aborted transaction is
//! retried up to 8 times after a seeded back-off, then counted failed.
//!
//! Not bit-reproducible: `TxnClient::run` iterates a `HashMap` with
//! `RandomState`, so RPC order within a transaction differs from run to
//! run (about 0.05 % on throughput).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use super::{collect_spans, drop_domain, record_stack_counters, ClientLog, Gate, LabOutcome, Logs};
use crate::adapter::{
    clock, fl_connect, key_partition, FabricConfig, FlockDomain, FlockServer, HandleConfig,
    ServerConfig, SimRng, Smallbank, TxnClient, TxnOutcome, TxnResp, TxnRpc, TxnServer, TxnSpec,
    RPC_ABORT, RPC_COMMIT, RPC_EXECUTE, RPC_LOG,
};
use crate::{stats, trace};

const SERVERS: usize = 3;
const NODES: usize = 4;
const THREADS_PER_NODE: usize = 4;
const QPS_PER_HANDLE: usize = 2;
const ACCOUNTS: u64 = 100_000;
const INITIAL_BALANCE: u64 = 1000;
const MAX_RETRIES: u32 = 8;
/// Transactions per thread; the first tenth is warm-up.
const TXNS: usize = 2_200;
const WARM_TXNS: usize = TXNS / 10;

fn balance(values: &HashMap<u64, Option<Vec<u8>>>, key: u64) -> u64 {
    let raw = values[&key].as_ref().expect("every account is preloaded");
    u64::from_le_bytes(raw[..8].try_into().expect("8-byte balance"))
}

/// The Smallbank write logic of `spec` over the values read at
/// execution: the new value of every write-set key, and by how much the
/// sum of all balances changes if this commits.
fn apply(
    spec: &TxnSpec,
    amount: u64,
    values: &HashMap<u64, Option<Vec<u8>>>,
) -> (HashMap<u64, Vec<u8>>, i64) {
    let w = &spec.writes;
    let (new, delta): (Vec<u64>, i64) = match spec.kind {
        "balance" => (vec![], 0),
        "deposit_checking" | "transact_savings" => {
            (vec![balance(values, w[0]) + amount], amount as i64)
        }
        "write_check" => {
            let have = balance(values, w[0]);
            let paid = amount.min(have);
            (vec![have - paid], -(paid as i64))
        }
        "amalgamate" => {
            let moved = balance(values, w[0]) + balance(values, w[1]);
            (vec![0, 0, balance(values, w[2]) + moved], 0)
        }
        "send_payment" => {
            let have = balance(values, w[0]);
            let paid = amount.min(have);
            (vec![have - paid, balance(values, w[1]) + paid], 0)
        }
        other => unreachable!("Smallbank has no {other} transaction"),
    };
    let writes = w
        .iter()
        .zip(new)
        .map(|(&k, v)| (k, v.to_le_bytes().to_vec()))
        .collect();
    (writes, delta)
}

/// Key of an Execute handler span, as the client can rebuild it from
/// its own side: server, the coordinator's transaction counter, and the
/// first key of that server's share.
type ExecKey = (usize, u64, u64);
/// Execute handler `(entry, exit)` per [`ExecKey`], traced runs only.
type ExecSpans = std::sync::Mutex<HashMap<ExecKey, Vec<(u64, u64)>>>;

pub fn run(seed: u64) -> LabOutcome {
    let mut fab = FabricConfig::default();
    fab.nic_lanes = 4;
    let domain = Arc::new(FlockDomain::new(fab));
    let bank = Smallbank::new(ACCOUNTS);

    let exec_spans: Arc<ExecSpans> = Arc::default();
    let mut server_nodes = Vec::with_capacity(SERVERS);
    let mut servers = Vec::with_capacity(SERVERS);
    let mut txn_servers = Vec::with_capacity(SERVERS);
    for i in 0..SERVERS {
        let node = domain.add_node(&format!("txn-srv{i}"));
        let mut scfg = ServerConfig::default();
        scfg.dispatch_threads = 2;
        let server = FlockServer::listen(&domain, &node, &format!("txn{i}"), scfg);
        // Region 0: one version word per primary key (200 k keys / 3).
        let idx = server.attach_mreg(1 << 20);
        let state = TxnServer::new(i, server.mem_region(idx).expect("region just attached"));
        // `TxnServer::register`, with the benchmark's own closure around
        // `handle` so a traced run sees handler entry and exit.
        for rpc_id in [RPC_EXECUTE, RPC_LOG, RPC_COMMIT, RPC_ABORT] {
            let (state, exec_spans) = (Arc::clone(&state), Arc::clone(&exec_spans));
            server.reg_handler(rpc_id, move |req| {
                let Some(rpc) = TxnRpc::decode(req) else {
                    return TxnResp::Ack.encode();
                };
                if !trace::on() {
                    return state.handle(&rpc).encode();
                }
                let entry = clock::now_ns();
                let reply = state.handle(&rpc).encode();
                let exit = clock::now_ns();
                if let TxnRpc::Execute {
                    txn_id,
                    reads,
                    writes,
                } = &rpc
                {
                    let first = reads.first().or(writes.first()).copied().unwrap_or(0);
                    trace::span("app.handler", "txn.run_call", *txn_id, entry, exit);
                    exec_spans
                        .lock()
                        .expect("handler panicked")
                        .entry((i, *txn_id, first))
                        .or_default()
                        .push((entry, exit));
                }
                reply
            });
        }
        server_nodes.push(node);
        servers.push(server);
        txn_servers.push(state);
    }
    for (key, value) in bank.load_keys() {
        debug_assert_eq!(value, INITIAL_BALANCE.to_le_bytes());
        txn_servers[key_partition(key, SERVERS)].load(key, &value);
    }

    let gate = Gate::default();
    let logs = Logs::default();
    let committed_delta = Arc::new(AtomicI64::new(0));
    // commits, aborted attempts, transactions given up or errored.
    let outcomes = Arc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);
    let slowest = Arc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);
    let mut client_nodes = Vec::with_capacity(NODES);
    let mut all_handles = Vec::new();
    let mut tasks = Vec::new();
    let mut root = SimRng::new(seed);
    for c in 0..NODES {
        let node = domain.add_node(&format!("txn-c{c}"));
        client_nodes.push(Arc::clone(&node));
        let handles: Vec<_> = (0..SERVERS)
            .map(|i| {
                let mut cfg = HandleConfig::default();
                cfg.n_qps = QPS_PER_HANDLE;
                cfg.eager_qps = true;
                cfg.mem_threads = THREADS_PER_NODE + 2;
                let t0 = clock::now_ns();
                let h = fl_connect(&domain, &node, &format!("txn{i}"), cfg).expect("connect");
                trace::span(
                    "core.api.connect",
                    "",
                    (c * SERVERS + i) as u64,
                    t0,
                    clock::now_ns(),
                );
                Arc::new(h)
            })
            .collect();
        for t in 0..THREADS_PER_NODE {
            let u = (c * THREADS_PER_NODE + t) as u64;
            let client = TxnClient::new(&handles);
            let (gate, logs, bank, committed_delta, outcomes, exec_spans, slowest) = (
                gate.clone(),
                Arc::clone(&logs),
                bank.clone(),
                Arc::clone(&committed_delta),
                Arc::clone(&outcomes),
                Arc::clone(&exec_spans),
                Arc::clone(&slowest),
            );
            let mut rng = root.fork(u);
            tasks.push(clock::spawn(&format!("txn-w{u}"), move || {
                gate.wait();
                let mut log = ClientLog::with_capacity(TXNS - WARM_TXNS);
                // Mirrors the coordinator's private counter: one id per
                // `run` call, starting at 1.
                let mut txn_id = 0u64;
                for n in 0..TXNS {
                    let spec = bank.next(&mut rng);
                    let amount = 1 + rng.below(100);
                    let issue = clock::now_ns();
                    let mut ok = false;
                    for attempt in 0..=MAX_RETRIES {
                        txn_id += 1;
                        let delta = Cell::new(0i64);
                        let t0 = clock::now_ns();
                        let outcome = client.run(&spec.reads, &spec.writes, |values| {
                            let (writes, d) = apply(&spec, amount, values);
                            delta.set(d);
                            writes
                        });
                        let t1 = clock::now_ns();
                        trace::span("txn.run_call", "", (u << 32) | txn_id, t0, t1);
                        if trace::on() {
                            note_slowest(&spec, txn_id, (t0, t1), &exec_spans, &slowest);
                        }
                        match outcome {
                            Ok(TxnOutcome::Committed(_)) => {
                                committed_delta.fetch_add(delta.get(), Ordering::Relaxed);
                                outcomes[0].fetch_add(1, Ordering::Relaxed);
                                ok = true;
                                break;
                            }
                            Ok(TxnOutcome::Aborted) => {
                                outcomes[1].fetch_add(1, Ordering::Relaxed);
                                // Seeded exponential back-off: two
                                // coordinators that abort each other
                                // would otherwise retry in lockstep.
                                clock::sleep_ns(rng.below(1_000 << attempt.min(5)));
                            }
                            Err(_) => break,
                        }
                    }
                    if !ok {
                        outcomes[2].fetch_add(1, Ordering::Relaxed);
                    }
                    log.record(n >= WARM_TXNS, ok, issue, clock::now_ns());
                }
                logs.lock().expect("client task panicked").push(log);
            }));
        }
        all_handles.push(handles);
    }
    gate.open();
    for t in tasks {
        let _ = t.join();
    }
    let mut out = LabOutcome::from_logs(&logs);

    // Output check: money is conserved up to the committed deltas.
    let mut total: i64 = 0;
    for a in 0..ACCOUNTS {
        for key in [Smallbank::savings(a), Smallbank::checking(a)] {
            let raw = txn_servers[key_partition(key, SERVERS)].peek(key);
            total += raw.map_or(0, |v| {
                u64::from_le_bytes(v[..8].try_into().expect("8 bytes"))
            }) as i64;
        }
    }
    let expected =
        (ACCOUNTS * 2 * INITIAL_BALANCE) as i64 + committed_delta.load(Ordering::Relaxed);
    out.end_check_ok = total == expected;

    let [commits, aborts, _gave_up] = [0, 1, 2].map(|i| outcomes[i].load(Ordering::Relaxed) as f64);
    let slowest: Vec<f64> = slowest
        .iter()
        .map(|s| s.load(Ordering::Relaxed) as f64)
        .collect();
    let server_refs: Vec<&FlockServer> = servers.iter().collect();
    let srv = record_stack_counters(
        &mut out,
        &server_refs,
        &server_nodes,
        &client_nodes,
        NODES * SERVERS * QPS_PER_HANDLE,
    );
    let l = &mut out.layer;
    l.insert("txn.abort_ratio", stats::ratio(aborts, commits + aborts));
    l.insert("txn.retries_per_commit", stats::ratio(aborts, commits));
    l.insert(
        "txn.rpcs_per_txn",
        stats::ratio(srv.requests as f64, out.all_ops as f64),
    );
    l.insert(
        "txn.slowest_server_share",
        stats::ratio(
            slowest.iter().copied().fold(0.0, f64::max),
            slowest.iter().sum(),
        ),
    );

    drop(all_handles);
    for s in &servers {
        s.shutdown(&domain);
    }
    drop(servers);
    drop(txn_servers);
    drop(client_nodes);
    drop(server_nodes);
    drop_domain(domain);

    collect_spans(&mut out);
    out
}

/// For one `run` call that touched more than one server: which server's
/// Execute handler finished last. The handler spans are found by the
/// key the client can rebuild (see [`ExecKey`]) inside the call's own
/// interval, so two coordinators that happen to share a counter value
/// and a first key are told apart by time.
fn note_slowest(
    spec: &TxnSpec,
    txn_id: u64,
    (t0, t1): (u64, u64),
    exec_spans: &ExecSpans,
    slowest: &[AtomicU64; SERVERS],
) {
    let mut first_key = [None; SERVERS];
    for &k in spec.reads.iter().chain(&spec.writes) {
        first_key[key_partition(k, SERVERS)].get_or_insert(k);
    }
    let spans = exec_spans.lock().expect("handler panicked");
    let exits: Vec<(u64, usize)> = (0..SERVERS)
        .filter_map(|s| {
            let of_key = spans.get(&(s, txn_id, first_key[s]?))?;
            let mine = of_key.iter().find(|&&(a, b)| a >= t0 && b <= t1)?;
            Some((mine.1, s))
        })
        .collect();
    if exits.len() > 1 {
        let (_, last) = exits.iter().max().expect("more than one exit");
        slowest[*last].fetch_add(1, Ordering::Relaxed);
    }
}
