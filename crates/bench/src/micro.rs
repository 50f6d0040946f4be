//! The `micro` row: host nanoseconds per operation of what no other
//! place measures — the request ring (straight and at the wrap
//! boundary), the TCQ against the mutex it replaces (the §2.2
//! "lock-based sharing is up to 2.3× slower" pair; uncontended here, the
//! contended, cluster-scale version is Figure 9), a FlockTX server's
//! TATP preload at the paper's scale and a kv store's preload of 32-byte
//! values (ns and resident bytes per key), and an echo through the
//! *threaded* stack (real TCQ, rings and dispatchers on OS threads, no
//! virtual time). The codec, kvstore and index lookups are `probe.*`
//! metrics of `benchmark/`.
//!
//! Host time is not a function of the tree, so the row has no checked-in
//! file: `flock-bench micro` prints it, `--check` leaves it out. The
//! numbers describe this repository's software fabric on this host and
//! are not comparable to the paper's hardware.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use flock_core::client::HandleConfig;
use flock_core::msg::{self, EntryMeta, EntryRef, MsgHeader};
use flock_core::ring::{RingConsumer, RingLayout, RingProducer};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::tcq::{Outcome, Tcq};
use flock_core::{ConnectionHandle, FlockDomain};
use flock_fabric::{Access, MrTable};
use flock_kvstore::{KvConfig, KvStore};
use flock_sync::clock;
use flock_txn::{Tatp, TxnServer};
use parking_lot::Mutex;

use crate::json::{array, float, inline, object, Value};
use crate::SuiteRun;

const CANARY: u64 = 0x1234;

/// Host nanoseconds per operation of `body`, which performs `ops`.
#[expect(
    clippy::disallowed_methods,
    reason = "the `micro` rows time host loops and the threaded stack, which is their whole purpose; \
              the document is printed, never written or byte-compared, and nothing in it runs in a lab"
)]
fn ns_per_op(ops: u64, body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// `op` in a loop of `iters`, after a tenth as many untimed rounds.
fn time_loop(iters: u64, mut op: impl FnMut()) -> f64 {
    (0..iters / 10).for_each(|_| op());
    ns_per_op(iters, || (0..iters).for_each(|_| op()))
}

/// One `payload`-byte message through a ring of `capacity` bytes:
/// reserve, write (wrap record first when the reservation wraps), poll,
/// return the space. A 4 KiB ring under 1 600-byte messages wraps on
/// every third reservation. Returns the ns per message and the ring
/// region's resident bytes after the loop.
fn ring_cycle(iters: u64, capacity: usize, payload: usize) -> (f64, usize) {
    let mr = MrTable::new().register(capacity, Access::REMOTE_ALL);
    let layout = RingLayout::new(0, capacity);
    let mut prod = RingProducer::new(layout);
    let mut cons = RingConsumer::new(layout);
    let header = MsgHeader {
        total_len: 0,
        count: 0,
        flags: 0,
        canary: CANARY,
        head: 0,
        aux: 0,
    };
    let data = vec![7u8; payload];
    let entry = EntryRef {
        meta: EntryMeta {
            len: payload as u32,
            thread_id: 0,
            seq: 0,
            rpc_id: 0,
        },
        data: &data,
    };
    let mut staging = vec![0u8; payload + 512];
    let n = msg::encode(&mut staging, &header, &[entry]).expect("staging holds one entry");
    let mut polled = Vec::new();
    let mut wrap = vec![0u8; capacity];
    let ns = time_loop(iters, || {
        let res = prod.reserve(n).expect("the ring was drained");
        if let Some((woff, wlen)) = res.wrap {
            RingProducer::write_wrap_record(&mut wrap[..wlen], CANARY);
            mr.write(woff, &wrap[..wlen]).expect("in bounds");
        }
        mr.write(res.offset, &staging[..n]).expect("in bounds");
        let got = cons.poll_into(&mr, &mut polled).expect("well-formed");
        assert!(got, "message");
        prod.update_head(cons.head());
        black_box(polled.len());
    });
    (ns, mr.resident_bytes())
}

/// Host ns per key of `load`, which preloads `keys` keys, and, where
/// `/proc` tells, the resident bytes per key it added. Returns what
/// `load` built, so the caller decides when its heap is freed.
fn preload<T>(keys: u64, load: impl FnOnce() -> T) -> (f64, Option<f64>, T) {
    let before = rss_bytes();
    let mut built = None;
    let ns = ns_per_op(keys, || built = Some(load()));
    let bytes = before
        .zip(rss_bytes())
        .map(|(before, after)| after.saturating_sub(before) as f64 / keys as f64);
    (ns, bytes, built.expect("load ran"))
}

/// Preload one FlockTX server with `subscribers` TATP subscribers (four
/// 32-byte rows each) into a version region sized for them; resident
/// bytes include the region's words.
fn txn_load_tatp(subscribers: u64) -> (f64, Option<f64>, Arc<TxnServer>) {
    let keys = subscribers * 4;
    let tatp = Tatp::new(subscribers);
    preload(keys, || {
        let region = MrTable::new().register(keys as usize * 8, Access::REMOTE_ALL);
        let server = TxnServer::new(0, region);
        tatp.load_keys()
            .for_each(|(key, row)| server.load(key, &row));
        server
    })
}

/// Preload a kv store with `keys` 32-byte values, as `txn_load_tatp`
/// preloads a FlockTX server.
fn kv_load(keys: u64) -> (f64, Option<f64>, KvStore) {
    preload(keys, || {
        let kv = KvStore::new(KvConfig::default());
        for key in 0..keys {
            kv.put(key, &[key as u8; 32]);
        }
        kv
    })
}

/// This process's resident set size in bytes (`VmRSS`), on Linux.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kb * 1024)
}

/// Closed-loop echo RPCs through the threaded stack: `clients` handles of
/// two QPs, `threads` each, `pipeline` requests in flight per thread.
fn native_echo(clients: usize, threads: usize, pipeline: u64, ops_per_thread: u64) -> f64 {
    let domain = FlockDomain::with_defaults();
    let snode = domain.add_node("native-server");
    let server = FlockServer::listen(&domain, &snode, "native", ServerConfig::default());
    server.reg_handler(1, |req| req.to_vec());
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 2;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let node = domain.add_node(&format!("native-c{c}"));
            ConnectionHandle::connect(&domain, &node, "native", cfg.clone())
                .expect("the server is listening")
        })
        .collect();
    let fl_threads: Vec<_> = handles
        .iter()
        .flat_map(|h| (0..threads).map(|_| h.register_thread()))
        .collect();
    let total = fl_threads.len() as u64 * ops_per_thread;
    let ns = ns_per_op(total, || {
        let tasks: Vec<_> = fl_threads
            .into_iter()
            .map(|t| {
                clock::spawn("native-echo", move || {
                    let mut done = 0;
                    while done < ops_per_thread {
                        let burst = pipeline.min(ops_per_thread - done);
                        let seqs: Vec<u64> = (0..burst)
                            .map(|_| t.send_rpc(1, &done.to_le_bytes()).expect("send"))
                            .collect();
                        for s in seqs {
                            t.recv_res(s).expect("echo");
                        }
                        done += burst;
                    }
                })
            })
            .collect();
        for task in tasks {
            task.join().expect("echo thread");
        }
    });
    drop(handles);
    server.shutdown(&domain);
    ns
}

/// Time every row; `ops` of the run is the operations timed.
pub fn run_suite(quick: bool) -> SuiteRun {
    let iters: u64 = if quick { 2_000 } else { 1_000_000 };
    let echo_ops: u64 = if quick { 50 } else { 2_000 };
    // The paper's TATP point: 1 M subscribers, 4 M rows per server. The
    // two preloads run first and their stores live to the end, so no
    // freed heap absorbs either one's growth.
    let subscribers: u64 = if quick { 10_000 } else { 1_000_000 };
    let kv_keys: u64 = if quick { 40_000 } else { 1_000_000 };
    let (tatp_ns, tatp_bytes, _tatp) = txn_load_tatp(subscribers);
    let (kv_ns, kv_bytes, _kv) = kv_load(kv_keys);

    let tcq: Tcq<u64> = Tcq::new(16);
    // The FaRM-style alternative: serialize each send under a lock.
    let lock = Mutex::new(0u64);

    let rings = [
        ("ring_produce_consume_64B", ring_cycle(iters, 1 << 16, 64)),
        ("ring_wrap_boundary_1600B", ring_cycle(iters, 1 << 12, 1600)),
    ];
    let loops = [
        (
            "tcq_join_complete_uncontended",
            time_loop(iters, || match tcq.join(black_box(42)) {
                Outcome::Lead(batch) => tcq.complete(batch),
                Outcome::Sent => unreachable!("a lone joiner leads"),
            }),
        ),
        (
            "mutex_lock_send_uncontended",
            time_loop(iters, || {
                *lock.lock() = black_box(42);
            }),
        ),
    ];
    let row = |name: &str, ns: f64| vec![("name", Value::from(name)), ("ns_per_op", float(ns, 1))];
    let mut ops = (rings.len() + loops.len()) as u64 * iters + subscribers * 4 + kv_keys;
    let mut rows: Vec<_> = rings
        .iter()
        .map(|&(name, (ns, resident))| {
            let mut ring_row = row(name, ns);
            ring_row.push(("resident_bytes", Value::from(resident)));
            ring_row
        })
        .collect();
    rows.extend(loops.iter().map(|&(name, ns)| row(name, ns)));
    for (name, ns, bytes) in [
        ("txn_load_tatp", tatp_ns, tatp_bytes),
        ("kv_load", kv_ns, kv_bytes),
    ] {
        let mut load_row = row(name, ns);
        load_row.extend(bytes.map(|b| ("bytes_per_key", float(b, 1))));
        rows.push(load_row);
    }
    for (clients, threads, pipeline) in [(1, 1, 1), (1, 4, 4), (2, 4, 4), (2, 4, 8)] {
        let name = format!("native_echo_{clients}c_{threads}t_{pipeline}deep");
        let ns = native_echo(clients, threads, pipeline, echo_ops);
        rows.push(row(&name, ns));
        ops += (clients * threads) as u64 * echo_ops;
    }

    SuiteRun {
        doc: object(vec![
            ("schema", "flock-bench-micro/v1".into()),
            ("quick", quick.into()),
            ("executor", "threaded".into()),
            ("rows", array(rows.into_iter().map(|r| inline(object(r))))),
        ]),
        ops,
        cost: Default::default(),
    }
}
