//! Single-threaded probes: host ns per call of one public function per
//! layer, median of 5 batches of 100 000 calls, on the pinned CPU.
//!
//! Today they are a small share of `host_kops` (about 35 handovers of
//! 1.8 µs per echo operation against tens of ns per call here); they
//! become the visible part once ROADMAP item 2 cuts handovers.

use std::hint::black_box;
use std::time::Instant;

use crate::adapter::{
    clock, lpt_partition, msg, Completion, CompletionQueue, ConnCache, CqOpcode, CqStatus, Decoded,
    Histogram, HydraConfig, HydraList, KvConfig, KvStore, MemcachedText, QpNum, Request, Response,
    SimRng, Tcq, TcqOutcome, TxnRpc, VirtualLab, WireProtocol, WrId,
};
use crate::stats;

const CALLS: usize = 100_000;
const BATCHES: usize = 5;

/// Median over batches of the host ns one call of `call` takes.
fn ns_per_call(mut call: impl FnMut(usize)) -> f64 {
    let mut per_batch = [0.0; BATCHES];
    for ns in &mut per_batch {
        let start = Instant::now();
        for i in 0..CALLS {
            call(i);
        }
        *ns = start.elapsed().as_nanos() as f64 / CALLS as f64;
    }
    stats::median_f64(&mut per_batch)
}

/// Two lab tasks alternating `yield_now`: the bare cost of a handover
/// (heap push/pop, condvar wake, park) with no protocol work.
fn handover_ns() -> f64 {
    let mut per_batch = [0.0; BATCHES];
    for ns in &mut per_batch {
        let start = Instant::now();
        let ((), report) = VirtualLab::run_report(|| {
            let peer = clock::spawn("probe-peer", || {
                for _ in 0..CALLS / 2 {
                    clock::yield_now();
                }
            });
            for _ in 0..CALLS / 2 {
                clock::yield_now();
            }
            let _ = peer.join();
        });
        *ns = start.elapsed().as_nanos() as f64 / report.handovers.max(1) as f64;
    }
    stats::median_f64(&mut per_batch)
}

pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = vec![("probe.sim.vtime.handover_ns", handover_ns())];

    let mut hist = Histogram::new();
    let mut rng = SimRng::new(7);
    out.push((
        "probe.sim.stats.histogram_record_ns",
        ns_per_call(|_| hist.record(black_box(rng.below(1 << 20)))),
    ));
    black_box(hist.count());

    let tcq: Tcq<u64> = Tcq::new(16);
    out.push((
        "probe.core.tcq.join_complete_ns",
        ns_per_call(|i| {
            if let TcqOutcome::Lead(batch) = tcq.join(i as u64) {
                tcq.complete(black_box(batch));
            }
        }),
    ));

    // One coalesced message of 8 × 32 B entries, encoded then decoded.
    let payload = [0xABu8; 32];
    let entries: Vec<msg::EntryRef<'_>> = (0..8)
        .map(|i| msg::EntryRef {
            meta: msg::EntryMeta {
                len: 32,
                thread_id: i,
                seq: u64::from(i),
                rpc_id: 1,
            },
            data: &payload,
        })
        .collect();
    let header = msg::MsgHeader {
        total_len: 0,
        count: 0,
        flags: 0,
        canary: 0x5EED,
        head: 0,
        aux: 0,
    };
    let mut buf = vec![0u8; msg::encoded_size(entries.iter().map(|e| e.data.len()))];
    out.push((
        "probe.core.msg.encode_decode_ns",
        ns_per_call(|_| {
            let n = msg::encode(&mut buf, &header, &entries).expect("buffer sized above");
            let view = msg::decode(&buf[..n])
                .expect("well formed")
                .expect("complete");
            black_box(view.entries().count());
        }),
    ));

    let weights: Vec<usize> = (0..64).map(|i| 1 + (i * 7) % 5).collect();
    out.push((
        "probe.core.sched.lpt_partition_ns",
        ns_per_call(|_| {
            black_box(lpt_partition(black_box(&weights), 4));
        }),
    ));

    // 16 completions pushed, then drained by one batched poll; per
    // completion.
    let cq = CompletionQueue::new(1024);
    let mut polled = Vec::with_capacity(16);
    let completion = Completion {
        wr_id: WrId(1),
        status: CqStatus::Success,
        opcode: CqOpcode::Write,
        byte_len: 32,
        imm: None,
        src: None,
        qpn: QpNum(1),
    };
    out.push((
        "probe.fabric.cq.push_poll_ns",
        ns_per_call(|i| {
            cq.push(completion);
            if i % 16 == 15 {
                polled.clear();
                black_box(cq.poll(&mut polled, 16));
            }
        }),
    ));

    // The thrash regime in small: 96 keys over 24 entries.
    let mut cache = ConnCache::new(24);
    out.push((
        "probe.fabric.cache.access_ns",
        ns_per_call(|_| {
            black_box(cache.access(rng.below(96)));
        }),
    ));

    let kv = KvStore::new(KvConfig::default());
    for key in 0..1024 {
        kv.put(key, &payload);
    }
    out.push((
        "probe.kvstore.get_ns",
        ns_per_call(|_| {
            black_box(kv.get(rng.below(1024)));
        }),
    ));
    out.push((
        "probe.kvstore.put_ns",
        ns_per_call(|_| kv.put(rng.below(1024), black_box(&payload))),
    ));

    // GET request encoded and decoded, hit response encoded.
    let (mut wire, mut reply) = (Vec::new(), Vec::new());
    out.push((
        "probe.gateway.memcached.roundtrip_ns",
        ns_per_call(|_| {
            wire.clear();
            reply.clear();
            MemcachedText.encode_request(&Request::Get { key: b"k1234" }, &mut wire);
            let Ok(Decoded::Frame {
                req: Request::Get { key },
                ..
            }) = MemcachedText.decode(&wire)
            else {
                unreachable!("the codec decodes what it encoded");
            };
            let hit = Response::Value {
                key,
                value: Some(&payload),
            };
            MemcachedText.encode_response(&hit, &mut reply);
            black_box(reply.len());
        }),
    ));

    let execute = TxnRpc::Execute {
        txn_id: 1,
        reads: vec![1, 2],
        writes: vec![3],
    };
    out.push((
        "probe.txn.protocol.encode_decode_ns",
        ns_per_call(|_| {
            black_box(TxnRpc::decode(&black_box(&execute).encode()));
        }),
    ));

    let list = HydraList::new(HydraConfig::default());
    for key in 0..10_000u64 {
        list.insert(key * 3, key);
    }
    out.push((
        "probe.hydralist.get_ns",
        ns_per_call(|_| {
            black_box(list.get(rng.below(10_000) * 3));
        }),
    ));
    out.push((
        "probe.hydralist.scan16_ns",
        ns_per_call(|_| {
            black_box(list.scan(rng.below(10_000) * 3, 16));
        }),
    ));
    out
}
