//! `kv_onesided_thrash` — the paper's motivating regime.
//!
//! Closed loop with a seeded exponential think time (mean 1 µs): 32
//! reader threads (8 nodes × 4), each with a dedicated one-sided QP,
//! against a responder NIC with 2 lanes and a 24-entry connection
//! cache. 80 % one-sided GETs, 20 % SETs (RPC + mirror publish) over
//! 1 024 preloaded keys with 32 B values. Per-client QP state overruns
//! the responder's cache, so `fabric` NIC/conn-cache and
//! `core::onesided` do most of the work and TCQ coalescing almost none
//! — the mirror image of `echo_fanin`. The SETs use the same connection
//! the other way, so a read-path gain that costs the write path shows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::{collect_spans, drop_domain, record_stack_counters, ClientLog, Gate, LabOutcome, Logs};
use crate::adapter::{
    clock, fl_connect, register_kv_mirror_backend, splitmix64, FabricConfig, FlockDomain,
    FlockServer, HandleConfig, KvConfig, KvReadClient, KvStore, ReadMode, ServerConfig, SimRng,
};
use crate::{stats, trace};

const NODES: usize = 8;
const THREADS_PER_NODE: usize = 4;
const QPS_PER_NODE: usize = 2;
const KEYS: u64 = 1024;
const VALUE: usize = 32;
/// One operation in `SET_EVERY` is a SET, at a seeded place in each
/// block: the write share is exactly 20 % for every thread and seed.
const SET_EVERY: usize = 5;
const THINK_MEAN_NS: f64 = 1_000.0;
/// Operations per reader thread; the first tenth is warm-up.
const OPS: usize = 3_000;
const WARM_OPS: usize = OPS / 10;

/// The 32 B value of `key` at `generation`: both ride in the value, the
/// rest is a filler only this function can produce.
fn value_of(key: u64, generation: u64) -> [u8; VALUE] {
    let mut v = [0u8; VALUE];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&generation.to_le_bytes());
    let fill = splitmix64(key ^ generation.rotate_left(32));
    v[16..24].copy_from_slice(&fill.to_le_bytes());
    v[24..].copy_from_slice(&splitmix64(fill).to_le_bytes());
    v
}

/// Output check of a GET: the value carries the requested key and a
/// generation some SET actually issued.
fn value_was_written(key: u64, value: &[u8], issued: &[AtomicU64]) -> bool {
    if value.len() != VALUE {
        return false;
    }
    let generation = u64::from_le_bytes(value[8..16].try_into().expect("8 bytes"));
    generation >= 1
        && generation <= issued[key as usize].load(Ordering::Relaxed)
        && value == value_of(key, generation)
}

pub fn run(seed: u64) -> LabOutcome {
    let mut fab = FabricConfig::default();
    fab.nic_lanes = 2;
    fab.nic_cache_entries = 24;
    let domain = Arc::new(FlockDomain::new(fab));
    let server_node = domain.add_node("kv-srv");
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = 4;
    scfg.sched_interval = Duration::from_micros(100);
    let server = FlockServer::listen(&domain, &server_node, "kv", scfg);
    let kv = Arc::new(KvStore::new(KvConfig::default()));
    register_kv_mirror_backend(&server, kv, VALUE as u32, KEYS as u32).expect("mirror backend");

    let mut client_nodes = Vec::with_capacity(NODES);
    let handles: Vec<_> = (0..NODES)
        .map(|n| {
            let node = domain.add_node(&format!("kv-c{n}"));
            client_nodes.push(Arc::clone(&node));
            let mut cfg = HandleConfig::default();
            cfg.n_qps = QPS_PER_NODE;
            cfg.eager_qps = true;
            cfg.mem_threads = THREADS_PER_NODE + 2;
            cfg.sched_interval = Duration::from_micros(100);
            // One RC QP per reader thread: the NIC state that grows
            // with fan-in and overruns the responder's cache.
            cfg.dedicated_mem_qps = true;
            let t0 = clock::now_ns();
            let handle = fl_connect(&domain, &node, "kv", cfg).expect("connect");
            trace::span("core.api.connect", "", n as u64, t0, clock::now_ns());
            handle
        })
        .collect();

    // Generation 1 of every key, through the RPC path, before the window.
    let issued: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(1)).collect());
    let mut loader = KvReadClient::new(&handles[0], ReadMode::Rpc).expect("loader");
    for key in 0..KEYS {
        loader.set(key, &value_of(key, 1)).expect("preload");
    }
    drop(loader);

    let gate = Gate::default();
    let logs = Logs::default();
    // (KvReadStats, ReadStats) sums: one_sided, fallbacks, reads, verbs,
    // retries, failures.
    let read_stats = Arc::new(std::sync::Mutex::new([0u64; 6]));
    let mut root = SimRng::new(seed);
    let mut tasks = Vec::with_capacity(NODES * THREADS_PER_NODE);
    for u in 0..NODES * THREADS_PER_NODE {
        // Clients are built in order before any task runs.
        let mut client =
            KvReadClient::new(&handles[u / THREADS_PER_NODE], ReadMode::OneSided).expect("client");
        let (gate, logs, issued, read_stats) = (
            gate.clone(),
            Arc::clone(&logs),
            Arc::clone(&issued),
            Arc::clone(&read_stats),
        );
        let mut rng = root.fork(u as u64);
        tasks.push(clock::spawn(&format!("kv-r{u}"), move || {
            gate.wait();
            let mut log = ClientLog::with_capacity(OPS - WARM_OPS);
            let mut out = Vec::with_capacity(VALUE);
            let mut set_at = 0;
            for op in 0..OPS {
                if op % SET_EVERY == 0 {
                    set_at = op + rng.index(SET_EVERY);
                }
                clock::sleep_ns(rng.exp(THINK_MEAN_NS) as u64);
                let key = rng.below(KEYS);
                let id = ((u as u64) << 32) | op as u64;
                let issue;
                let ok;
                if op == set_at {
                    let generation = issued[key as usize].fetch_add(1, Ordering::Relaxed) + 1;
                    let value = value_of(key, generation);
                    issue = clock::now_ns();
                    ok = client.set(key, &value).is_ok();
                    trace::span("gateway.mirror.set_call", "", id, issue, clock::now_ns());
                } else {
                    issue = clock::now_ns();
                    let hit = client.get(key, &mut out);
                    trace::span("gateway.mirror.get_call", "", id, issue, clock::now_ns());
                    ok = matches!(hit, Ok(true)) && value_was_written(key, &out, &issued);
                }
                log.record(op >= WARM_OPS, ok, issue, clock::now_ns());
            }
            let (k, r) = (client.stats(), client.reader_stats());
            let mut s = read_stats.lock().expect("client task panicked");
            for (sum, x) in s.iter_mut().zip([
                k.one_sided,
                k.fallbacks,
                r.reads,
                r.verbs,
                r.retries,
                r.failures,
            ]) {
                *sum += x;
            }
            drop(s);
            logs.lock().expect("client task panicked").push(log);
        }));
    }
    gate.open();
    for t in tasks {
        let _ = t.join();
    }
    let mut out = LabOutcome::from_logs(&logs);

    let [one_sided, fallbacks, reads, verbs, retries, failures] =
        (*read_stats.lock().expect("client task panicked")).map(|x| x as f64);
    let l = &mut out.layer;
    l.insert("core.onesided.verbs_per_read", stats::ratio(verbs, reads));
    l.insert(
        "core.onesided.retries_per_read",
        stats::ratio(retries, reads),
    );
    l.insert("core.onesided.failures", failures);
    l.insert(
        "gateway.mirror.fallback_ratio",
        stats::ratio(fallbacks, one_sided + fallbacks),
    );
    record_stack_counters(
        &mut out,
        &[&server],
        std::slice::from_ref(&server_node),
        &client_nodes,
        NODES * QPS_PER_NODE,
    );

    drop(handles);
    server.shutdown(&domain);
    drop(server);
    drop(client_nodes);
    drop(server_node);
    drop_domain(domain);

    collect_spans(&mut out);
    out
}
