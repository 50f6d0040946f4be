//! Property-based tests of the ring framing protocol (`flock_core::ring`):
//! wrap-record/canary round-trips across the wrap boundary, and rejection
//! of torn or corrupt records.
//!
//! These complement the unit tests in `ring.rs` (which pin specific
//! geometries) by driving the producer/consumer pair through arbitrary
//! payload sequences on arbitrary small rings, so wrap records fall on
//! every possible alignment — and then two whole [`Link`]s, back to back
//! over a fabric node pair, through the same.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use flock_core::msg::{encode, EntryMeta, EntryRef, MsgHeader, HDR_SIZE, META_SIZE, TRAILER_SIZE};
use flock_core::ring::{self, Link, RingConsumer, RingLayout, RingProducer, FLAG_WRAP};
use flock_core::{FlockError, RingInfo};
use flock_fabric::{Access, Fabric, MemoryRegion, MrTable, Node, Qp, Transport, PAGE};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

/// Encode a one-entry message with `canary` into `buf`, returning its length.
fn mk_msg(buf: &mut [u8], canary: u64, payload: &[u8]) -> usize {
    encode(
        buf,
        &MsgHeader {
            total_len: 0,
            count: 0,
            flags: 0,
            canary,
            head: 0,
            aux: 0,
        },
        &[EntryRef {
            meta: EntryMeta {
                len: payload.len() as u32,
                thread_id: 1,
                seq: 1,
                rpc_id: 1,
            },
            data: payload,
        }],
    )
    .unwrap()
}

/// Reserve + "RDMA write" one message, returning whether a wrap record
/// was emitted.
fn deliver(mr: &MemoryRegion, prod: &mut RingProducer, canary: u64, payload: &[u8]) -> bool {
    let mut staging = vec![0u8; 8192];
    let n = mk_msg(&mut staging, canary, payload);
    let res = prod.reserve(n).unwrap();
    let wrapped = if let Some((woff, wlen)) = res.wrap {
        mr.write(woff, &wrap_record(wlen, canary)).unwrap();
        true
    } else {
        false
    };
    mr.write(res.offset, &staging[..n]).unwrap();
    wrapped
}

/// The bytes of a wrap record of `len` bytes.
fn wrap_record(len: usize, canary: u64) -> Vec<u8> {
    let mut rec = vec![0u8; len];
    RingProducer::write_wrap_record(&mut rec, canary);
    rec
}

/// Largest payload whose one-entry message a ring of `cap` bytes takes
/// (the *aligned* encoded size must satisfy `aligned * 2 <= cap`).
fn max_payload(cap: usize) -> usize {
    cap / 128 * 64 - (HDR_SIZE + META_SIZE + TRAILER_SIZE)
}

/// One end of a [`link_pair`]: the link and the ring its peer writes into.
struct End {
    link: Link,
    ring: Arc<MemoryRegion>,
}

/// Two links back to back over a fabric node pair, rings of `cap` bytes.
/// The fabric comes along so its NIC engines outlive the links.
fn link_pair(cap: usize) -> (Fabric, End, End) {
    let fabric = Fabric::with_defaults();
    let [a, b] = ["a", "b"].map(|name| {
        let node = fabric.add_node(name);
        let cq = node.create_cq(256);
        let qp = node.create_qp(Transport::Rc, &cq, &cq);
        let ring = node.register_mr(cap, Access::REMOTE_WRITE);
        (node, qp, ring)
    });
    fabric.connect(&a.1, &b.1).unwrap();
    let (to_a, to_b) = (RingInfo::of(&a.2), RingInfo::of(&b.2));
    let end = |(node, qp, ring): (Arc<Node>, Arc<Qp>, Arc<MemoryRegion>), remote| End {
        link: Link::new(&node, qp, Arc::clone(&ring), remote),
        ring,
    };
    (fabric, end(a, to_b), end(b, to_a))
}

/// Poll `link` until a message is there (the NIC is a few hundred
/// virtual nanoseconds behind the post), for at most 100 µs.
fn poll_wait(link: &Link, buf: &mut Vec<u8>) -> bool {
    for _ in 0..1_000 {
        if link.poll_into(buf).unwrap() {
            return true;
        }
        clock::sleep_ns(100);
    }
    false
}

/// Stream `payloads` (cycled until the ring has been lapped three times)
/// from `tx` to `rx`, never polling before the ring is full; `rx` then
/// drains it, acknowledging each message with a zero-entry message whose
/// piggybacked head is what frees the ring. Returns how often the ring
/// was found full.
fn stream(tx: &End, rx: &End, payloads: &[Vec<u8>]) -> Result<usize, TestCaseError> {
    let cap = rx.ring.len();
    let mut buf = Vec::new();
    let mut in_flight = std::collections::VecDeque::new();
    let (mut fulls, mut sent_bytes, mut seq) = (0, 0, 0u64);
    // Piggybacked heads as each side sees the other's.
    let (mut tx_head_at_rx, mut rx_head_at_tx) = (0u64, 0u64);
    let mut next = payloads.iter().cycle();
    while sent_bytes < 3 * cap || !in_flight.is_empty() {
        let payload = next.next().expect("cycled");
        let entry = EntryRef {
            meta: EntryMeta {
                len: payload.len() as u32,
                thread_id: 7,
                seq,
                rpc_id: 1,
            },
            data: payload,
        };
        if sent_bytes < 3 * cap {
            match tx.link.try_send(0, 0, false, [entry].into_iter()) {
                Ok((n, _)) => {
                    sent_bytes += ring::align_up(n);
                    in_flight.push_back((seq, payload));
                    seq += 1;
                    continue;
                }
                Err(FlockError::RingFull { .. }) => {
                    prop_assert!(!in_flight.is_empty(), "an acknowledged ring is still full");
                    fulls += 1;
                }
                Err(e) => prop_assert!(false, "send failed: {e}"),
            }
            // Full: once everything posted has landed, a refused send
            // leaves the remote ring as it was. (That the tail did not
            // move either shows below: a reserved-but-unwritten span
            // would park the consumer in front of it for good.)
            clock::sleep_ns(10_000);
            let before = rx.ring.read_vec(0, cap).unwrap();
            let refused = tx.link.try_send(0, 0, false, [entry].into_iter());
            prop_assert!(matches!(refused, Err(FlockError::RingFull { .. })));
            clock::sleep_ns(10_000);
            prop_assert_eq!(&rx.ring.read_vec(0, cap).unwrap(), &before);
        }
        // Drain: exactly once, in order, heads monotone both ways.
        for (want_seq, want) in in_flight.drain(..) {
            prop_assert!(
                poll_wait(&rx.link, &mut buf),
                "message {want_seq} never arrived"
            );
            let view = ring::view(&buf);
            let got = view.to_entries();
            prop_assert_eq!(got.len(), 1);
            prop_assert_eq!(got[0].0.seq, want_seq);
            prop_assert_eq!(got[0].1, want.as_slice());
            prop_assert!(view.header.head >= tx_head_at_rx);
            tx_head_at_rx = view.header.head;
            rx.link
                .try_send(0, 0, false, std::iter::empty())
                .expect("acks never fill the ring: each is polled at once");
            prop_assert!(
                poll_wait(&tx.link, &mut buf),
                "ack of {want_seq} never arrived"
            );
            let ack = ring::view(&buf).header;
            prop_assert_eq!(ack.count, 0);
            prop_assert!(ack.head > rx_head_at_tx, "every ack follows a consume");
            rx_head_at_tx = ack.head;
        }
        prop_assert!(!rx.link.poll_into(&mut buf).unwrap(), "delivered twice");
    }
    Ok(fulls)
}

/// A 64 KiB ring keeps only the pages that hold unconsumed bytes, plus
/// one spare: over three laps of 64–1 600-byte messages and their wrap
/// records it holds at most three pages whenever a message waits and at
/// most two once the poll has drained it (a ring that kept its bytes
/// would hold all sixteen).
#[test]
fn a_ring_keeps_only_the_pages_in_flight() {
    let cap = 64 << 10;
    let mr = MrTable::new().register(cap, Access::REMOTE_ALL);
    let mut prod = RingProducer::new(RingLayout::new(0, cap));
    let mut cons = RingConsumer::new(RingLayout::new(0, cap));
    let (mut buf, mut wraps) = (Vec::new(), 0);
    for i in 0u64.. {
        if prod.tail() >= 3 * cap as u64 {
            break;
        }
        let payload = vec![i as u8 | 1; 64 + (i as usize * 7919) % 1537];
        wraps += usize::from(deliver(&mr, &mut prod, i + 1, &payload));
        let waiting = mr.resident_bytes();
        assert!(
            waiting <= 3 * PAGE,
            "{waiting} resident bytes before poll {i}"
        );
        assert!(cons.poll_into(&mr, &mut buf).unwrap(), "message {i}");
        assert_eq!(ring::view(&buf).to_entries()[0].1, payload);
        let drained = mr.resident_bytes();
        assert!(
            drained <= 2 * PAGE,
            "{drained} resident bytes after poll {i}"
        );
        prod.update_head(cons.head());
    }
    assert!(wraps >= 2, "{wraps} wrap records in three laps");
}

proptest! {
    /// Every payload sequence round-trips byte-identically through any
    /// small ring, including messages that cross the wrap boundary via a
    /// wrap record, and the consumed ring always drains back to empty.
    #[test]
    fn roundtrip_across_wrap_boundaries(
        cap_blocks in 2usize..8,
        sizes in vec(1usize..120, 1..60),
    ) {
        // An odd number of 64-byte blocks, so 128-byte records cannot tile
        // the ring exactly and the forced-wrap epilogue below terminates.
        let cap = (2 * cap_blocks + 1) * 64;
        let t = MrTable::new();
        let mr = t.register(cap, Access::REMOTE_ALL);
        let mut prod = RingProducer::new(RingLayout::new(0, cap));
        let mut cons = RingConsumer::new(RingLayout::new(0, cap));
        let mut wrapped = 0usize;
        let mut buf = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let len = len.min(max_payload(cap));
            let payload: Vec<u8> = (0..len).map(|j| (i + j) as u8).collect();
            if deliver(&mr, &mut prod, i as u64 + 1, &payload) {
                wrapped += 1;
            }
            prop_assert!(cons.poll_into(&mr, &mut buf).unwrap(), "delivered message");
            let m = ring::view(&buf);
            prop_assert_eq!(m.to_entries()[0].1, payload.as_slice());
            prop_assert_eq!(m.header.canary, i as u64 + 1);
            // Piggyback the head so the producer reuses freed space; this
            // is what forces wraps on longer sequences.
            prod.update_head(cons.head());
        }
        prop_assert!(!cons.poll_into(&mr, &mut buf).unwrap(), "ring must drain empty");
        // Head and tail agree once everything is consumed.
        prop_assert_eq!(cons.head(), prod.tail());
        // If the random sizes happened to always tile the ring exactly,
        // force a wrap: 128-byte records marching through an odd-block
        // ring must eventually straddle the end.
        let mut forced = 0usize;
        while wrapped == 0 {
            forced += 1;
            prop_assert!(forced <= cap / 64, "forced wrap did not terminate");
            if deliver(&mr, &mut prod, 0xF0CE + forced as u64, &[0xA5]) {
                wrapped += 1;
            }
            prop_assert!(cons.poll_into(&mr, &mut buf).unwrap(), "forced message");
            prop_assert_eq!(ring::view(&buf).to_entries()[0].1, &[0xA5][..]);
            prod.update_head(cons.head());
        }
        prop_assert!(wrapped > 0, "wrap path was not exercised");
    }

    /// `write_wrap_record` framing is self-consistent for every legal length:
    /// FLAG_WRAP set, zero entries, canary mirrored head and trailer.
    #[test]
    fn wrap_record_framing(len_blocks in 1usize..64, canary in 1u64..) {
        let len = len_blocks * 64;
        let rec = wrap_record(len, canary);
        prop_assert_eq!(rec.len(), len);
        let total = u32::from_le_bytes(rec[0..4].try_into().unwrap()) as usize;
        let count = u16::from_le_bytes(rec[4..6].try_into().unwrap());
        let flags = u16::from_le_bytes(rec[6..8].try_into().unwrap());
        let head_canary = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        let trailer = u64::from_le_bytes(rec[len - 8..].try_into().unwrap());
        prop_assert_eq!(total, len);
        prop_assert_eq!(count, 0);
        prop_assert_eq!(flags & FLAG_WRAP, FLAG_WRAP);
        prop_assert_eq!(head_canary, canary);
        prop_assert_eq!(trailer, canary);
    }

    /// Two links back to back: arbitrary payload sequences arrive exactly
    /// once and in order through three laps of each ring, a send refused
    /// with `RingFull` leaves nothing behind, and both piggybacked heads
    /// only grow. Each direction streams in turn over the same pair, so
    /// the second starts on rings the first left mid-lap.
    #[test]
    fn two_links_back_to_back(
        cap_blocks in 3usize..8,
        sizes in vec(1usize..120, 1..40),
    ) {
        let cap = (2 * cap_blocks + 1) * 64;
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len.min(max_payload(cap))).map(|j| (i + j) as u8).collect())
            .collect();
        VirtualLab::run(|| {
            let (_fabric, a, b) = link_pair(cap);
            for (tx, rx) in [(&a, &b), (&b, &a)] {
                let fulls = stream(tx, rx, &payloads)?;
                prop_assert!(fulls >= 2, "three laps without a full ring");
            }
            Ok(())
        })?;
    }

    /// A torn message — any prefix of the full RDMA write, so the trailer
    /// canary has not landed — is never consumed and never advances the
    /// head; completing the write then delivers it intact.
    #[test]
    fn torn_record_is_not_consumed(
        payload in vec(any::<u8>(), 1..100),
        torn_at_permille in 0usize..1000,
    ) {
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        let mut cons = RingConsumer::new(RingLayout::new(0, 1024));
        let mut staging = vec![0u8; 1024];
        // Full-width canary, as real endpoints use: its high byte is
        // nonzero, so no strict prefix of the trailer can match it.
        let n = mk_msg(&mut staging, 0x5EED_0000_0000_0001, &payload);
        // Deliver only a prefix: somewhere strictly inside the record.
        let torn_at = 1 + torn_at_permille * (n - 1) / 1000;
        mr.write(0, &staging[..torn_at]).unwrap();
        let mut buf = Vec::new();
        let polled = cons.poll_into(&mr, &mut buf).unwrap();
        prop_assert!(!polled, "torn record consumed at cut {torn_at}/{n}");
        prop_assert_eq!(cons.head(), 0);
        // The rest of the write lands; now it must be consumed intact.
        mr.write(torn_at, &staging[torn_at..n]).unwrap();
        prop_assert!(cons.poll_into(&mr, &mut buf).unwrap(), "completed record");
        prop_assert_eq!(ring::view(&buf).to_entries()[0].1, payload.as_slice());
    }

    /// A torn or corrupt *wrap* record is skipped only once its trailer
    /// canary matches; until then the consumer stays parked before it.
    #[test]
    fn torn_wrap_record_parks_consumer(len_blocks in 1usize..8, canary in 1u64..) {
        let len = len_blocks * 64;
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        let mut cons = RingConsumer::new(RingLayout::new(0, 1024));
        let mut rec = wrap_record(len, canary);
        // Tear off the trailer: the consumer must not skip the record.
        rec[len - 8..].fill(0);
        mr.write(0, &rec).unwrap();
        let mut buf = Vec::new();
        prop_assert!(!cons.poll_into(&mr, &mut buf).unwrap());
        prop_assert_eq!(cons.head(), 0);
        // Trailer lands; the record is skipped (head advances past it) and
        // the ring start is probed, which is empty.
        mr.write(len - 8, &canary.to_le_bytes()).unwrap();
        prop_assert!(!cons.poll_into(&mr, &mut buf).unwrap());
        prop_assert_eq!(cons.head(), len as u64);
    }

    /// Corrupt record lengths — below the frame minimum or beyond the ring
    /// capacity — are reported as errors, never consumed or skipped.
    #[test]
    fn corrupt_length_is_rejected(raw_len in 1u32..) {
        let cap = 1024usize;
        let hdr = (HDR_SIZE + TRAILER_SIZE) as u32;
        let t = MrTable::new();
        let mr = t.register(cap, Access::REMOTE_ALL);
        let mut cons = RingConsumer::new(RingLayout::new(0, cap));
        mr.write(0, &raw_len.to_le_bytes()).unwrap();
        let ok_range = raw_len >= hdr && raw_len as usize <= cap;
        if !ok_range {
            prop_assert!(cons.poll_into(&mr, &mut Vec::new()).is_err(), "len {raw_len} accepted");
            prop_assert_eq!(cons.head(), 0);
        }
    }
}
