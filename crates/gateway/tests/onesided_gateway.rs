//! End-to-end tests of the one-sided gateway bridges: the mirrored kv
//! backend with [`ReadMode`]-steered clients, and the hydralist bridge
//! with its one-sided leaf traversal.

use std::sync::Arc;

use flock_core::client::HandleConfig;
use flock_core::onesided::{OneSidedReader, SlotLayout};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{ConnectionHandle, FlockDomain};
use flock_gateway::proto::MemcachedText;
use flock_gateway::{
    key_hash, register_hydra_backend, register_hydra_mirror_backend, register_kv_mirror_backend,
    Gateway, GatewayConfig, HydraReader, KvReadClient, ReadMode,
};
use flock_hydralist::{HydraConfig, HydraList};
use flock_kvstore::{KvConfig, KvStore};

fn connect(domain: &FlockDomain, name: &str) -> ConnectionHandle {
    let client = domain.add_node(&format!("c-{name}"));
    ConnectionHandle::connect(domain, &client, name, HandleConfig::default()).unwrap()
}

#[test]
fn one_sided_client_agrees_with_rpc_client() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("node-m1");
    let server = FlockServer::listen(&domain, &node, "m1", ServerConfig::default());
    let kv = Arc::new(KvStore::new(KvConfig::default()));
    register_kv_mirror_backend(&server, Arc::clone(&kv), 64, 128).unwrap();

    let handle = connect(&domain, "m1");
    let mut rpc = KvReadClient::new(&handle, ReadMode::Rpc).unwrap();
    let mut os = KvReadClient::new(&handle, ReadMode::OneSided).unwrap();

    for k in 0..32u64 {
        rpc.set(k, format!("value-{k}").as_bytes()).unwrap();
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for k in 0..32u64 {
        assert!(rpc.get(k, &mut a).unwrap());
        assert!(os.get(k, &mut b).unwrap());
        assert_eq!(a, b, "paths disagree on key {k}");
        assert_eq!(a, format!("value-{k}").as_bytes());
    }
    // A missing key: the one-sided leg cannot prove absence (slot never
    // published) and falls back to RPC, which answers miss.
    assert!(!os.get(999, &mut b).unwrap());
    assert!(b.is_empty());

    let s = os.stats();
    assert_eq!(s.one_sided, 32, "all mirrored hits served one-sided");
    assert_eq!(s.fallbacks, 1, "only the miss fell back");
    assert_eq!(s.rpc, 1);
    assert_eq!(rpc.stats().one_sided, 0, "Rpc mode never touches the mirror");
    server.shutdown(&domain);
}

#[test]
fn aliased_and_oversize_slots_fall_back_to_rpc() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("node-m2");
    let server = FlockServer::listen(&domain, &node, "m2", ServerConfig::default());
    let kv = Arc::new(KvStore::new(KvConfig::default()));
    // 4 slots: keys 1 and 5 alias (1 % 4 == 5 % 4).
    register_kv_mirror_backend(&server, Arc::clone(&kv), 16, 4).unwrap();

    let handle = connect(&domain, "m2");
    let mut os = KvReadClient::new(&handle, ReadMode::OneSided).unwrap();
    os.set(1, b"one").unwrap();
    os.set(5, b"five").unwrap(); // evicts key 1's mirror slot

    let mut out = Vec::new();
    assert!(os.get(5, &mut out).unwrap());
    assert_eq!(out, b"five");
    assert!(os.get(1, &mut out).unwrap(), "aliased key still readable");
    assert_eq!(out, b"one", "alias must not leak the wrong value");
    assert_eq!(os.stats().fallbacks, 1, "alias fell back");

    // An oversize value spills: the slot is re-published as a marker,
    // never serving the stale small value.
    os.set(5, &[0xEE; 100]).unwrap();
    assert!(os.get(5, &mut out).unwrap());
    assert_eq!(out, vec![0xEE; 100], "stale inline value served");
    assert_eq!(os.stats().fallbacks, 2, "oversize fell back");
    server.shutdown(&domain);
}

/// Adaptive mode learns from observed value sizes: once the EWMA of
/// returned values crosses the cutover, it stops burning READ verbs on
/// a mirror that will only spill.
#[test]
fn adaptive_mode_stops_probing_when_values_grow() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("node-m3");
    let server = FlockServer::listen(&domain, &node, "m3", ServerConfig::default());
    let kv = Arc::new(KvStore::new(KvConfig::default()));
    register_kv_mirror_backend(&server, Arc::clone(&kv), 200, 64).unwrap();

    let handle = connect(&domain, "m3");
    let mut ad = KvReadClient::new(&handle, ReadMode::Adaptive).unwrap();
    let mut out = Vec::new();

    // Small values: adaptive starts (and stays) one-sided, except the
    // deterministic probe at read PROBE_PERIOD, which takes the RPC
    // path to keep its latency EWMA live.
    ad.set(1, &[7u8; 32]).unwrap();
    for _ in 0..16 {
        assert!(ad.get(1, &mut out).unwrap());
    }
    assert_eq!(ad.stats().one_sided, 15);
    assert_eq!(ad.stats().rpc, 1, "read 16 probes the RPC path");

    // Large values (above the mirror cap): every probe spills to RPC,
    // and each RPC reply feeds the size EWMA until probing stops.
    ad.set(2, &[9u8; 4096]).unwrap();
    for _ in 0..256 {
        assert!(ad.get(2, &mut out).unwrap());
        assert_eq!(out.len(), 4096);
    }
    let s = ad.stats();
    assert_eq!(s.one_sided, 15, "large values never served one-sided");
    assert!(
        s.fallbacks < 64,
        "adaptive kept probing a spilling mirror: {} fallbacks",
        s.fallbacks
    );
    server.shutdown(&domain);
}

/// Four client threads SET one key at once, on four dispatch shards;
/// after every round the key's mirrored slot holds the store's value and
/// word. A SET that re-read the word after the store's lock was dropped
/// could publish its own value with the next SET's word, and one-sided
/// GETs would serve a value the store no longer holds.
#[test]
fn racing_sets_leave_every_slot_with_the_stores_value_and_word() {
    const THREADS: usize = 4;
    const KEYS: u64 = 8;
    const ROUNDS: u64 = 2_000;
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("node-m4");
    let mut cfg = ServerConfig::default();
    cfg.dispatch_threads = THREADS;
    let server = FlockServer::listen(&domain, &node, "m4", cfg);
    let kv = Arc::new(KvStore::new(KvConfig::default()));
    register_kv_mirror_backend(&server, Arc::clone(&kv), 16, KEYS as u32).unwrap();
    let handles: Vec<ConnectionHandle> = (0..THREADS)
        .map(|t| {
            let client = domain.add_node(&format!("c-m4-{t}"));
            ConnectionHandle::connect(&domain, &client, "m4", HandleConfig::default()).unwrap()
        })
        .collect();
    let barrier = std::sync::Barrier::new(THREADS);
    let stale = std::thread::scope(|scope| {
        let workers: Vec<_> = handles
            .iter()
            .enumerate()
            .map(|(t, handle)| {
                let (kv, barrier) = (&kv, &barrier);
                scope.spawn(move || {
                    let mut client = KvReadClient::new(handle, ReadMode::Rpc).unwrap();
                    let lease = handle
                        .fetch_exports(Some("kv-values"))
                        .unwrap()
                        .pop()
                        .unwrap();
                    let mut reader = OneSidedReader::new(lease).unwrap();
                    let mut buf = vec![0u8; reader.layout().stride as usize];
                    let mut stale = 0;
                    for round in 0..ROUNDS {
                        let key = round % KEYS;
                        barrier.wait();
                        client.set(key, &[t as u8; 8]).unwrap();
                        barrier.wait();
                        if t != 0 {
                            continue;
                        }
                        let slot = reader
                            .read_slot(client.thread(), key as u32, &mut buf)
                            .unwrap();
                        let body = &buf[SlotLayout::HEADER..][..slot.len];
                        let (value, word) = kv.get(key).unwrap();
                        if (&body[8..], slot.word) != (&value[..], word) {
                            stale += 1;
                        }
                    }
                    stale
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .sum::<usize>()
    });
    assert_eq!(stale, 0, "rounds whose slot disagreed with the store");
    drop(handles);
    server.shutdown(&domain);
}

/// The hydralist bridge speaks the same backend contract as the kv
/// one, so an unmodified edge session (memcached protocol) runs over
/// an ordered index. Values must be exactly 8 bytes (the index stores
/// u64s).
#[test]
fn hydra_backend_serves_memcached_sessions() {
    let domain = Arc::new(FlockDomain::with_defaults());
    let node = domain.add_node("node-h1");
    let server = FlockServer::listen(&domain, &node, "h1", ServerConfig::default());
    let hydra = Arc::new(HydraList::default());
    register_hydra_backend(&server, Arc::clone(&hydra));

    let gw_node = domain.add_node("gw-h1");
    let mut cfg = GatewayConfig::default();
    cfg.handle = HandleConfig {
        n_qps: 2,
        mem_threads: 8,
        ..HandleConfig::default()
    };
    let gw = Gateway::new(Arc::clone(&domain), gw_node, "h1", cfg);
    let mut s = gw.open_session(1, Arc::new(MemcachedText)).unwrap();

    let mut out = Vec::new();
    assert_eq!(s.pump(b"set foo 0 0 8\r\nAAAABBBB\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"STORED\r\n");
    out.clear();
    assert_eq!(s.pump(b"get foo\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"VALUE foo 0 8\r\nAAAABBBB\r\nEND\r\n");
    out.clear();
    assert_eq!(s.pump(b"get nope\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"END\r\n");

    // The value really lives in the ordered index, keyed by the FNV
    // hash the gateway puts on the wire.
    assert_eq!(
        hydra.get(key_hash(b"foo")),
        Some(u64::from_le_bytes(*b"AAAABBBB"))
    );
    gw.close_session(&s);
    gw.close().unwrap();
    server.shutdown(&domain);
}

/// One-sided traversal of the mirrored leaf chain returns exactly what
/// the server-side index returns — across enough keys to force many
/// splits — and misses are authoritative.
#[test]
fn hydra_one_sided_traversal_agrees_with_index() {
    let domain = FlockDomain::with_defaults();
    let node = domain.add_node("node-h2");
    let server = FlockServer::listen(&domain, &node, "h2", ServerConfig::default());
    let hydra = Arc::new(HydraList::new(HydraConfig {
        node_capacity: 8,
        sync_search_updates: true,
    }));
    let mirror = register_hydra_mirror_backend(&server, Arc::clone(&hydra), 64).unwrap();

    // Shuffled inserts (stride walk of an odd generator mod 257) force
    // splits at every position, not just the tail.
    let mut key = 1u64;
    for i in 0..200u64 {
        mirror.insert(key * 3, i);
        key = (key * 75) % 257;
    }
    assert!(hydra.node_count() > 8, "workload must split many times");

    let handle = connect(&domain, "h2");
    let t = handle.register_thread();
    let mut reader = HydraReader::new(&handle).unwrap();
    for probe in 0..=(257 * 3) {
        assert_eq!(
            reader.get(&t, probe).unwrap(),
            hydra.get(probe),
            "traversal diverges from index at key {probe}"
        );
    }
    assert_eq!(reader.stats().failures, 0);
    server.shutdown(&domain);
}
