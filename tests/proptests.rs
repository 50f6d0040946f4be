//! Property-based tests (proptest) over the core data structures and
//! protocol invariants.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use flock_repro::core::credit::{CreditState, MedianWindow};
use flock_repro::core::msg::{self, EntryMeta, EntryRef, MsgHeader};
use flock_repro::core::ring::{self, align_up, RingConsumer, RingLayout, RingProducer};
use flock_repro::core::sched::thread::{assign_threads, ThreadLoadStats};
use flock_repro::fabric::{Access, MrTable};
use flock_repro::hydralist::{HydraConfig, HydraList};
use flock_repro::kvstore::{KvConfig, KvStore};
use flock_repro::sim::Histogram;
use flock_repro::txn::protocol::KeyRead;
use flock_repro::txn::protocol::{key_partition, replicas_of, TxnResp, TxnRpc};

proptest! {
    /// Any set of entries round-trips through the message codec.
    #[test]
    fn msg_codec_roundtrip(
        payloads in vec(vec(any::<u8>(), 0..200), 0..16),
        canary in 1u64..,
        head in any::<u64>(),
        aux in any::<u64>(),
        flags in 0u16..8,
    ) {
        let entries: Vec<EntryRef<'_>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| EntryRef {
                meta: EntryMeta {
                    len: p.len() as u32,
                    thread_id: i as u32,
                    seq: i as u64 * 3 + 1,
                    rpc_id: i as u32 % 7,
                },
                data: p,
            })
            .collect();
        let header = MsgHeader { total_len: 0, count: 0, flags, canary, head, aux };
        let mut buf = vec![0u8; msg::encoded_size(payloads.iter().map(|p| p.len()))];
        let n = msg::encode(&mut buf, &header, &entries).unwrap();
        prop_assert_eq!(n, buf.len());
        let view = msg::decode(&buf).unwrap().expect("complete");
        prop_assert_eq!(view.header.canary, canary);
        prop_assert_eq!(view.header.head, head);
        prop_assert_eq!(view.header.aux, aux);
        prop_assert_eq!(view.header.flags, flags);
        let decoded = view.to_entries();
        prop_assert_eq!(decoded.len(), payloads.len());
        for (i, (meta, data)) in decoded.iter().enumerate() {
            prop_assert_eq!(meta.thread_id, i as u32);
            prop_assert_eq!(*data, payloads[i].as_slice());
        }
    }

    /// Decoding never panics on arbitrary bytes; it returns Ok(None),
    /// Ok(Some) only for structurally valid messages, or an error.
    #[test]
    fn msg_decode_handles_garbage(bytes in vec(any::<u8>(), 0..512)) {
        let _ = msg::decode(&bytes);
    }

    /// Ring buffer: any sequence of variable-size messages delivered
    /// through a ring arrives intact, in order, exactly once.
    #[test]
    fn ring_delivers_in_order(sizes in vec(1usize..300, 1..40)) {
        let table = MrTable::new();
        let cap = 4096;
        let mr = table.register(cap, Access::REMOTE_ALL);
        let layout = RingLayout::new(0, cap);
        let mut prod = RingProducer::new(layout);
        let mut cons = RingConsumer::new(layout);
        let mut buf = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..size).map(|j| (i + j) as u8).collect();
            let mut staging = vec![0u8; msg::encoded_size([size])];
            let canary = i as u64 + 1;
            msg::encode(
                &mut staging,
                &MsgHeader { total_len: 0, count: 0, flags: 0, canary, head: 0, aux: 0 },
                &[EntryRef {
                    meta: EntryMeta { len: size as u32, thread_id: i as u32, seq: i as u64, rpc_id: 0 },
                    data: &payload,
                }],
            )
            .unwrap();
            let res = prod.reserve(staging.len()).unwrap();
            if let Some((woff, wlen)) = res.wrap {
                mr.with_write(|b| {
                    RingProducer::write_wrap_record(&mut b[woff..woff + wlen], canary)
                });
            }
            mr.write(res.offset, &staging).unwrap();
            // Consume immediately (keeps the ring from filling).
            prop_assert!(cons.poll_into(&mr, &mut buf).unwrap(), "message available");
            let entries = ring::view(&buf).to_entries();
            prop_assert_eq!(entries.len(), 1);
            prop_assert_eq!(entries[0].0.thread_id, i as u32);
            prop_assert_eq!(entries[0].1, payload.as_slice());
            prop_assert_eq!(align_up(staging.len()) as u64, align_up(buf.len()) as u64);
            prod.update_head(cons.head());
        }
        prop_assert!(!cons.poll_into(&mr, &mut buf).unwrap());
    }

    /// Algorithm 1 invariants: every thread is assigned, indices are in
    /// bounds, and the output is deterministic.
    #[test]
    fn assign_threads_is_total_and_bounded(
        threads in vec((1u32..5000, 0u64..100, 0u64..1_000_000), 0..40),
        num_qps in 1usize..16,
    ) {
        let stats: Vec<ThreadLoadStats> = threads
            .iter()
            .enumerate()
            .map(|(i, &(m, r, b))| ThreadLoadStats {
                thread_id: i as u32,
                median_req_size: m,
                requests: r,
                bytes: b,
            })
            .collect();
        let out = assign_threads(&stats, num_qps);
        prop_assert_eq!(out.len(), stats.len());
        let mut seen: Vec<u32> = out.iter().map(|(t, _)| *t).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), stats.len(), "every thread exactly once");
        prop_assert!(out.iter().all(|(_, q)| *q < num_qps));
        // Fairness: when there are at least as many threads as QPs, no QP
        // is left idle.
        if stats.len() >= num_qps {
            let mut used: Vec<usize> = out.iter().map(|(_, q)| *q).collect();
            used.sort_unstable();
            used.dedup();
            prop_assert_eq!(used.len(), num_qps);
        }
        prop_assert_eq!(out.clone(), assign_threads(&stats, num_qps));
    }

    /// Credit state machine: credits never go negative, renewal fires at
    /// or below half, and grants restore sending.
    #[test]
    fn credit_state_machine(ops in vec(0u8..4, 1..200)) {
        let mut c = CreditState::new(32);
        let mut sent = 0u64;
        for op in ops {
            match op {
                0 => {
                    if c.try_consume(1) {
                        sent += 1;
                    }
                }
                1 => {
                    if c.should_request_renewal() {
                        c.mark_requested();
                    }
                }
                2 => c.grant(32),
                _ => {
                    c.decline();
                    prop_assert!(!c.try_consume(1));
                    c.reactivate(32);
                }
            }
            prop_assert!(c.credits() <= 32 * 200);
        }
        let _ = sent;
    }

    /// MedianWindow returns a value that was actually recorded.
    #[test]
    fn median_is_a_recorded_value(values in vec(0u32..10_000, 1..100)) {
        let mut w = MedianWindow::new(64);
        for &v in &values {
            w.record(v);
        }
        let tail: Vec<u32> = values.iter().rev().take(64).copied().collect();
        prop_assert!(tail.contains(&w.median()));
    }

    /// The kv store agrees with a `HashMap` under any put/get sequence
    /// over 16 keys; lengths 0–40 cross the inline bound (8 bytes), move
    /// values in and out of their rows and outgrow their arena spans.
    #[test]
    fn kvstore_matches_a_hashmap(
        ops in vec((any::<bool>(), 0u64..16, vec(any::<u8>(), 0..41usize)), 1..200)
    ) {
        let kv = KvStore::new(KvConfig::default());
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (put, key, value) in ops {
            if put {
                kv.put(key, &value);
                model.insert(key, value);
            } else {
                prop_assert_eq!(kv.get(key), model.get(&key).cloned());
            }
        }
        for key in 0..16 {
            prop_assert_eq!(kv.get(key), model.get(&key).cloned());
        }
        prop_assert_eq!(kv.len(), model.len());
    }

    /// HydraList agrees with a BTreeMap reference model under arbitrary
    /// insert/remove/get/scan sequences.
    #[test]
    fn hydralist_matches_btreemap(ops in vec((0u8..4, 0u64..200), 1..300)) {
        let h = HydraList::new(HydraConfig { node_capacity: 8, sync_search_updates: true });
        let mut model = std::collections::BTreeMap::new();
        for (op, key) in ops {
            match op {
                0 => {
                    prop_assert_eq!(h.insert(key, key + 1), model.insert(key, key + 1));
                }
                1 => {
                    prop_assert_eq!(h.remove(key), model.remove(&key));
                }
                2 => {
                    prop_assert_eq!(h.get(key), model.get(&key).copied());
                }
                _ => {
                    let got = h.scan(key, 10);
                    let expect: Vec<(u64, u64)> =
                        model.range(key..).take(10).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(h.len(), model.len());
        }
    }

    /// Transaction wire protocol round-trips for arbitrary requests.
    #[test]
    fn txn_rpc_roundtrip(
        txn_id in any::<u64>(),
        keys in vec(any::<u64>(), 0..20),
        values in vec(vec(any::<u8>(), 0..64), 0..10),
    ) {
        let kvs: Vec<(u64, Vec<u8>)> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        for rpc in [
            TxnRpc::Execute { txn_id, reads: keys.clone(), writes: keys.clone() },
            TxnRpc::Log { txn_id, writes: kvs.clone() },
            TxnRpc::Commit { txn_id, writes: kvs },
            TxnRpc::Abort { txn_id, writes: keys },
        ] {
            prop_assert_eq!(TxnRpc::decode(&rpc.encode()), Some(rpc));
        }
    }

    /// Transaction responses round-trip too.
    #[test]
    fn txn_resp_roundtrip(
        ok in any::<bool>(),
        reads in vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
    ) {
        let set: Vec<KeyRead> = reads
            .iter()
            .map(|&(key, word, slot)| KeyRead {
                key,
                value: if word % 2 == 0 { Some(word.to_le_bytes().to_vec()) } else { None },
                word,
                slot,
            })
            .collect();
        let resp = TxnResp::Execute { ok, reads: set.clone(), writes: set };
        prop_assert_eq!(TxnResp::decode(&resp.encode()), Some(resp));
    }

    /// Partitioning: primary and its two replicas are always distinct, and
    /// the partition function is total.
    #[test]
    fn partition_replicas_distinct(key in any::<u64>(), n in 3usize..12) {
        let p = key_partition(key, n);
        prop_assert!(p < n);
        let [r1, r2] = replicas_of(p, n);
        prop_assert!(r1 != p && r2 != p && r1 != r2);
    }

    /// The histogram's quantiles are within its relative-error bound.
    #[test]
    fn histogram_quantile_error_bounded(values in vec(1u64..1_000_000, 10..500)) {
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        for &v in &values {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.5f64, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            prop_assert!(
                (got - exact).abs() <= exact * 0.04 + 1.0,
                "q={} got={} exact={}", q, got, exact
            );
        }
    }
}
