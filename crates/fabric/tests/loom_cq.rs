//! Bounded-exhaustive model checking of the completion-queue ring.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p flock-fabric --test loom_cq --release
//! ```
//!
//! (or `cargo loom`, the alias in `.cargo/config.toml`). Each scenario
//! explores *every* interleaving (within the preemption bound) of a tiny
//! producer/consumer workload on the Vyukov-style ring in
//! `crates/fabric/src/cq.rs`, asserting:
//!
//! * **Exactly-once delivery** — every pushed completion is polled
//!   exactly once, never duplicated, never lost.
//! * **Per-producer FIFO** — a single producer's completions are
//!   delivered in push order.
//! * **Wrap safety** — the sequence/recycle protocol stays correct when
//!   the cursors lap a capacity-2 ring, i.e. a producer claiming a cell
//!   one lap ahead can never overwrite a payload the consumer has not
//!   yet read (the ordering contract in the module docs).
//! * **Spill order** — a producer that overruns the ring spills, and the
//!   consumer still sees its completions in push order wherever it is
//!   paused between its look at the ring and its look at the spill.
//!
//! All but the last scenario stay below ring capacity: they check the
//! lock-free ring protocol. Under `cfg(loom)` the spill lane's lock is
//! the model's own mutex (a `parking_lot` one is invisible to the model
//! scheduler, and a thread paused while holding it would hang the run).

#![cfg(loom)]

use flock_fabric::{Completion, CompletionQueue, CqOpcode, CqStatus, QpNum, WrId};
use flock_sync::{thread, Arc};

fn comp(id: u64) -> Completion {
    Completion {
        wr_id: WrId(id),
        status: CqStatus::Success,
        opcode: CqOpcode::Send,
        byte_len: 0,
        imm: None,
        src: None,
        qpn: QpNum(0),
    }
}

/// Poll until `want` completions have been collected. The empty-poll
/// yield is voluntary, so the model scheduler never charges the spin
/// against the preemption bound and exploration terminates.
fn poll_exactly(cq: &CompletionQueue, want: usize) -> Vec<Completion> {
    let mut out = Vec::new();
    while out.len() < want {
        let remaining = want - out.len();
        if cq.poll(&mut out, remaining) == 0 {
            thread::yield_now();
        }
    }
    out
}

/// One producer, one consumer, capacity-2 ring: both completions are
/// delivered exactly once and in push order under every interleaving of
/// the claim CAS, the payload write, the publish store, the ready scan,
/// and the recycle store.
#[test]
fn spsc_delivers_in_order() {
    loom::model(|| {
        let cq = CompletionQueue::new(2);
        let prod = {
            let cq = Arc::clone(&cq);
            thread::spawn(move || {
                cq.push(comp(0));
                cq.push(comp(1));
            })
        };
        let got = poll_exactly(&cq, 2);
        prod.join().unwrap();
        let ids: Vec<u64> = got.iter().map(|c| c.wr_id.0).collect();
        assert_eq!(ids, [0, 1]);
        assert!(cq.is_empty());
        assert_eq!(cq.total_pushed(), 2);
    });
}

/// Capacity-2 ring pre-advanced one full lap, then raced: the concurrent
/// push/poll run happens at positions 2..4, so every cell is claimed,
/// published, read, and recycled *one lap ahead* of its initial sequence
/// while the race is in flight. A recycle-store or publish-store ordering
/// bug (producer overwriting an unread slot, consumer reading a stale
/// lap) shows up as a wrong id or a model-detected race.
#[test]
fn wrap_races_stay_exactly_once() {
    loom::model(|| {
        let cq = CompletionQueue::new(2);
        // Lap 0, single-threaded: advance both cursors past the array.
        cq.push(comp(10));
        cq.push(comp(11));
        let first = poll_exactly(&cq, 2);
        assert_eq!(
            first.iter().map(|c| c.wr_id.0).collect::<Vec<_>>(),
            [10, 11]
        );
        // Lap 1, raced.
        let prod = {
            let cq = Arc::clone(&cq);
            thread::spawn(move || {
                cq.push(comp(20));
                cq.push(comp(21));
            })
        };
        let got = poll_exactly(&cq, 2);
        prod.join().unwrap();
        let ids: Vec<u64> = got.iter().map(|c| c.wr_id.0).collect();
        assert_eq!(ids, [20, 21]);
        assert!(cq.is_empty());
    });
}

/// Two producers race the enqueue cursor; the consumer must see both
/// completions exactly once, in *some* order (the queue promises
/// delivery, not cross-producer order — consumers route by `wr_id`).
#[test]
fn two_producers_deliver_exactly_once() {
    loom::model(|| {
        let cq = CompletionQueue::new(4);
        let producers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|id| {
                let cq = Arc::clone(&cq);
                thread::spawn(move || cq.push(comp(id)))
            })
            .collect();
        let got = poll_exactly(&cq, 2);
        for p in producers {
            p.join().unwrap();
        }
        let mut ids: Vec<u64> = got.iter().map(|c| c.wr_id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2]);
        assert_eq!(cq.total_pushed(), 2);
        assert!(cq.is_empty());
    });
}

/// One producer pushes three completions into a capacity-2 ring while
/// the consumer polls: whenever the consumer has not caught up, the
/// third spills. What is in the ring is older than what is in the spill,
/// so the consumer has to find the ring dry *under the spill lock*
/// before it takes from the spill — a ring it saw empty before the
/// producer ran says nothing. Delivery stays exactly-once and FIFO, and
/// the queue returns to the ring afterwards.
#[test]
fn overrun_spills_and_stays_fifo() {
    loom::model(|| {
        let cq = CompletionQueue::new(2);
        let prod = {
            let cq = Arc::clone(&cq);
            thread::spawn(move || {
                for id in 0..3 {
                    cq.push(comp(id));
                }
            })
        };
        let got = poll_exactly(&cq, 3);
        prod.join().unwrap();
        let ids: Vec<u64> = got.iter().map(|c| c.wr_id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert!(cq.is_empty());
        assert_eq!(cq.total_pushed(), 3);
        cq.push(comp(3));
        assert_eq!(cq.poll_one().map(|c| c.wr_id.0), Some(3));
    });
}
