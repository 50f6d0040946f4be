//! Bounded-exhaustive model checking of the TCQ protocol.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p flock-core --test loom_tcq --release
//! ```
//!
//! (or `cargo loom`, the alias in `.cargo/config.toml`). Each test
//! explores *every* thread interleaving of a small TCQ scenario within
//! the preemption bound (`LOOM_MAX_PREEMPTIONS`, default 2), asserting
//! the protocol's safety properties on each one:
//!
//! * **Leader election** — of the threads racing `tail.swap`, exactly
//!   the one that observed a null tail leads; everyone else is either
//!   collected (`SENT`) or handed leadership (`LEADER`).
//! * **Exactly-once delivery** — every submitted item appears in
//!   exactly one completed batch, under any interleaving.
//! * **Batch bound** — no batch exceeds the configured limit.
//! * **Hand-off** — a leader completing with queued followers transfers
//!   leadership; nobody spins forever (the model's deadlock detector
//!   fails the test if the protocol can strand a thread).
//! * **Announced hand-off** — under the model a follower re-checks its
//!   node only after the TCQ's event was notified
//!   (`flock_sync::spin_until`), as under `VirtualLab`: a `LEADER` or
//!   `SENT` store that `complete` does not follow with a notify leaves
//!   the follower yielding forever, which the model's depth bound
//!   reports. Every scenario checks it;
//!   `boarded_follower_is_released_by_the_notify_alone` pins the `SENT`
//!   path of a single batch.
//! * **Reclamation** — every node is retired exactly once (the
//!   `retire_node` sites, which recycle into the thread-local pool); a
//!   protocol double-free shows up as memory corruption or a failed
//!   item assertion under the model, recycle-reuse ABA is covered by
//!   `recycled_node_reuse_is_aba_safe`, and the Miri job covers the
//!   aliasing side (see DESIGN.md §5c).
//!
//! The scenarios are deliberately tiny (2–3 threads, 1–3 items each):
//! bounded-exhaustive checking is exponential in schedule points, and
//! the protocol's interesting races — swap vs. swap, link vs. collect,
//! CAS-close vs. late enqueue — all manifest with two or three threads.

#![cfg(loom)]

use flock_core::tcq::{Outcome, Tcq};
use flock_sync::{thread, Arc};

/// Drive one `join` to completion, returning the items this thread
/// delivered (empty if its item was coalesced into another's batch).
fn join_and_drive(tcq: &Tcq<u32>, item: u32) -> Vec<u32> {
    match tcq.join(item) {
        Outcome::Lead(mut batch) => {
            let items = batch.take_items();
            tcq.complete(batch);
            items
        }
        Outcome::Sent => Vec::new(),
    }
}

/// Two threads race `tail.swap` on an empty queue: exactly one wins
/// leadership for each batch, and both items are delivered exactly once
/// regardless of how the swap, link, collect, and complete interleave.
#[test]
fn leader_election_two_thread_exactly_once() {
    loom::model(|| {
        let tcq: Arc<Tcq<u32>> = Arc::new(Tcq::new(16));
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let tcq = Arc::clone(&tcq);
                thread::spawn(move || join_and_drive(&tcq, t))
            })
            .collect();
        let mut delivered: Vec<u32> = Vec::new();
        for h in handles {
            delivered.extend(h.join().unwrap());
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1], "lost or duplicated item");
        assert_eq!(tcq.requests(), 2);
        assert!(tcq.batches() >= 1 && tcq.batches() <= 2);
    });
}

/// A follower that boards the leader's own batch (the boarding window
/// lets it link before the collect) sees exactly one `complete`: the
/// `SENT` store and the notify after it are its only way out of the
/// spin. If it misses the window it leads its own batch instead; either
/// way both items are delivered once.
#[test]
fn boarded_follower_is_released_by_the_notify_alone() {
    loom::model(|| {
        let tcq: Arc<Tcq<u32>> = Arc::new(Tcq::new(16));
        let follower = {
            let tcq = Arc::clone(&tcq);
            thread::spawn(move || join_and_drive(&tcq, 1))
        };
        let mut delivered = match tcq.join_with(0, thread::yield_now) {
            Outcome::Lead(mut batch) => {
                let items = batch.take_items();
                tcq.complete(batch);
                items
            }
            Outcome::Sent => Vec::new(),
        };
        delivered.extend(follower.join().unwrap());
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1], "lost or duplicated item");
        assert_eq!(tcq.requests(), 2);
    });
}

/// Follower hand-off: the main thread is the leader and holds its batch
/// open while a follower enqueues. On `complete`, the race between the
/// tail CAS-to-null and the follower's swap+link must end with the
/// follower either leading its own batch (`WAITING → LEADER`) — never
/// stranded, never collected twice.
#[test]
fn handoff_releases_enqueued_follower() {
    loom::model(|| {
        let tcq: Arc<Tcq<u32>> = Arc::new(Tcq::new(16));
        // Deterministic leader: the queue is empty, so join(0) must lead
        // a degree-1 batch (the follower has not spawned yet).
        let batch = match tcq.join(0) {
            Outcome::Lead(b) => b,
            Outcome::Sent => unreachable!("queue was empty"),
        };
        assert_eq!(batch.items(), &[0]);
        let follower = {
            let tcq = Arc::clone(&tcq);
            thread::spawn(move || join_and_drive(&tcq, 1))
        };
        // Complete while the follower is anywhere between "not yet
        // swapped" and "spinning on its own state": every interleaving
        // of the CAS-close race must hand off correctly.
        tcq.complete(batch);
        let theirs = follower.join().unwrap();
        // Nobody else could send item 1: our batch was collected before
        // the follower existed, so the follower must lead it itself.
        assert_eq!(theirs, vec![1], "follower was not handed leadership");
        assert_eq!(tcq.requests(), 2);
        assert_eq!(tcq.batches(), 2);
    });
}

/// Batch drain vs. concurrent enqueue: a held batch with two followers
/// arriving behind it. The hand-off target must collect (`SENT`) or
/// hand off to the remaining follower; all items are delivered exactly
/// once and every node is reclaimed by exactly one owner.
#[test]
fn drain_vs_concurrent_enqueue_two_followers() {
    loom::model(|| {
        let tcq: Arc<Tcq<u32>> = Arc::new(Tcq::new(16));
        let batch = match tcq.join(0) {
            Outcome::Lead(b) => b,
            Outcome::Sent => unreachable!("queue was empty"),
        };
        let handles: Vec<_> = (1..=2u32)
            .map(|t| {
                let tcq = Arc::clone(&tcq);
                thread::spawn(move || join_and_drive(&tcq, t))
            })
            .collect();
        tcq.complete(batch);
        let mut delivered = vec![0u32];
        for h in handles {
            delivered.extend(h.join().unwrap());
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1, 2], "lost or duplicated item");
        assert_eq!(tcq.requests(), 3);
    });
}

/// Node recycling is ABA-safe: a follower whose node was freed back to
/// the thread-local pool (on the `SENT` transition) immediately joins
/// again, so its *second* `join` reuses the same node address while the
/// original leader may still be anywhere inside `complete`. The
/// dangerous shape would be `complete`'s tail CAS comparing against a
/// pointer that was recycled into a *new* enqueue (classic ABA); the
/// protocol prevents it because the CAS happens strictly before any
/// `SENT` store, so no freed node can re-enter the queue while a CAS
/// could still compare against it (DESIGN.md §5c). Every interleaving
/// must deliver all three items exactly once.
#[test]
fn recycled_node_reuse_is_aba_safe() {
    loom::model(|| {
        let tcq: Arc<Tcq<u32>> = Arc::new(Tcq::new(16));
        let batch = match tcq.join(0) {
            Outcome::Lead(b) => b,
            Outcome::Sent => unreachable!("queue was empty"),
        };
        let follower = {
            let tcq = Arc::clone(&tcq);
            thread::spawn(move || {
                // First join: may be collected into the main thread's
                // batch (freeing this thread's node into its pool) or
                // handed leadership. Either way the second join runs
                // immediately after and — when pooling is on — reuses
                // the just-freed node address.
                let mut items = join_and_drive(&tcq, 1);
                items.extend(join_and_drive(&tcq, 2));
                items
            })
        };
        tcq.complete(batch);
        let mut delivered = vec![0u32];
        delivered.extend(follower.join().unwrap());
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1, 2], "ABA: lost or duplicated item");
        assert_eq!(tcq.requests(), 3);
    });
}

/// The batch limit holds under every interleaving: with limit 1 every
/// batch is degree 1, so each of the three requests (main + two
/// spawned) is sent by its own leader via a hand-off chain.
#[test]
fn batch_limit_one_forces_handoff_chain() {
    loom::model(|| {
        let tcq: Arc<Tcq<u32>> = Arc::new(Tcq::new(1));
        let handles: Vec<_> = (1..=2u32)
            .map(|t| {
                let tcq = Arc::clone(&tcq);
                thread::spawn(move || join_and_drive(&tcq, t))
            })
            .collect();
        let mut delivered = join_and_drive(&tcq, 0);
        assert!(delivered.len() <= 1, "batch limit 1 violated");
        for h in handles {
            let items = h.join().unwrap();
            assert!(items.len() <= 1, "batch limit 1 violated");
            delivered.extend(items);
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1, 2], "lost or duplicated item");
        assert_eq!(tcq.batches(), 3, "limit-1 batches must all be degree 1");
    });
}
