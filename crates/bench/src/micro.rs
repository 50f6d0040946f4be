//! The `micro` row: host nanoseconds per operation of what no other
//! place measures — the request ring (straight and at the wrap
//! boundary), the TCQ against the mutex it replaces (the §2.2
//! "lock-based sharing is up to 2.3× slower" pair; uncontended here, the
//! contended, cluster-scale version is Figure 9), the kvstore OCC cycle,
//! and an echo through the *threaded* stack (real TCQ, rings and
//! dispatchers on OS threads, no virtual time). The codec, kvstore and
//! index lookups are `probe.*` metrics of `benchmark/`.
//!
//! Host time is not a function of the tree, so the row has no checked-in
//! file: `flock-bench micro` prints it, `--check` leaves it out. The
//! numbers describe this repository's software fabric on this host and
//! are not comparable to the paper's hardware.

use std::hint::black_box;
use std::sync::Mutex;
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

use crate::json::{array, float, inline, object};
use crate::SuiteRun;

const CANARY: u64 = 0x1234;

/// Host nanoseconds per operation of `body`, which performs `ops`.
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
/// every third reservation.
fn ring_cycle(iters: u64, capacity: usize, payload: usize) -> f64 {
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
    time_loop(iters, || {
        let res = prod.reserve(n).expect("the ring was drained");
        if let Some((woff, wlen)) = res.wrap {
            mr.with_write(|buf| {
                RingProducer::write_wrap_record(&mut buf[woff..woff + wlen], CANARY)
            });
        }
        mr.write(res.offset, &staging[..n]).expect("in bounds");
        let m = cons.poll(&mr).expect("well-formed").expect("message");
        prod.update_head(cons.head());
        black_box(m.len());
    })
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

    let tcq: Tcq<u64> = Tcq::new(16);
    // The FaRM-style alternative: serialize each send under a lock.
    let lock = Mutex::new(0u64);
    let kv = KvStore::new(KvConfig {
        partitions: 4,
        stripes: 16,
    });
    kv.put(1, &1u64.to_le_bytes());

    let loops = [
        ("ring_produce_consume_64B", ring_cycle(iters, 1 << 16, 64)),
        ("ring_wrap_boundary_1600B", ring_cycle(iters, 1 << 12, 1600)),
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
                *lock.lock().expect("never poisoned") = black_box(42);
            }),
        ),
        (
            "kvstore_occ_cycle",
            time_loop(iters, || {
                kv.try_lock(1);
                kv.update_and_unlock(1, &7u64.to_le_bytes());
            }),
        ),
    ];
    let mut ops = loops.len() as u64 * iters;
    let mut rows: Vec<(String, f64)> = loops.map(|(name, ns)| (name.to_string(), ns)).into();
    for (clients, threads, pipeline) in [(1, 1, 1), (1, 4, 4), (2, 4, 4), (2, 4, 8)] {
        rows.push((
            format!("native_echo_{clients}c_{threads}t_{pipeline}deep"),
            native_echo(clients, threads, pipeline, echo_ops),
        ));
        ops += (clients * threads) as u64 * echo_ops;
    }

    let row = |(name, ns): &(String, f64)| {
        inline(object(vec![
            ("name", name.as_str().into()),
            ("ns_per_op", float(*ns, 1)),
        ]))
    };
    SuiteRun {
        doc: object(vec![
            ("schema", "flock-bench-micro/v1".into()),
            ("quick", quick.into()),
            ("executor", "threaded".into()),
            ("rows", array(rows.iter().map(row))),
        ]),
        ops,
        handovers: 0,
    }
}
