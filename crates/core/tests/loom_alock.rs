//! Bounded-exhaustive model checking of the ALock cohort protocol.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p flock-core --test loom_alock --release
//! ```
//!
//! (or `cargo loom`). The ALock splits a lock into a local ticket lock
//! per cohort plus one global word taken by remote CAS
//! (`flock_core::alock`); the properties worth exhaustive interleaving
//! coverage are:
//!
//! * **Mutual exclusion** — across two cohorts sharing one global
//!   word, no two critical sections overlap, under any interleaving of
//!   local handoffs and remote CAS attempts.
//! * **No lost handover** — a release with a cohort-mate waiting always
//!   admits that mate: every acquirer's critical section runs exactly
//!   once (the model's deadlock detector fails the test if a handover
//!   can be dropped and strand a waiter).
//! * **Global word hygiene** — after all threads quiesce, the word is
//!   free; a cohort never leaves it held.
//!
//! The scenarios are tiny (2–3 threads): the interesting races —
//! handoff vs. new ticket, cap-forced release vs. foreign CAS,
//! release-then-re-win — all manifest with two or three threads.

#![cfg(loom)]

use flock_core::alock::{ALock, LockWord};
use flock_core::error::Result;
use flock_sync::atomic::{AtomicU64, Ordering};
use flock_sync::{thread, Arc};

/// The global word as the loom model sees it: an in-memory CAS standing
/// in for the one-sided `fl_cmp_and_swap` (the NIC executes the remote
/// verb atomically, so a loom atomic is an exact model of its effect).
struct ModelWord(AtomicU64);

impl ModelWord {
    fn new() -> ModelWord {
        ModelWord(AtomicU64::new(0))
    }
}

impl LockWord for &ModelWord {
    fn try_acquire(&self) -> Result<bool> {
        Ok(self
            .0
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok())
    }

    fn release(&self) -> Result<()> {
        self.0.store(0, Ordering::Release);
        Ok(())
    }
}

/// One critical section: acquire, bump the shared counter while
/// asserting we are alone inside, release.
fn critical(lock: &ALock, word: &ModelWord, in_cs: &AtomicU64, done: &AtomicU64) {
    let ticket = lock.acquire(&word).unwrap();
    assert_eq!(in_cs.fetch_add(1, Ordering::AcqRel), 0, "two threads in CS");
    in_cs.fetch_sub(1, Ordering::AcqRel);
    done.fetch_add(1, Ordering::AcqRel);
    lock.release(&word, ticket).unwrap();
}

/// Two threads of ONE cohort: mutual exclusion and exactly-once service
/// under every interleaving of ticket taking, handoff, and release.
#[test]
fn one_cohort_mutual_exclusion_and_no_lost_handover() {
    loom::model(|| {
        let word = Arc::new(ModelWord::new());
        let lock = Arc::new(ALock::new(4));
        let in_cs = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (word, lock) = (Arc::clone(&word), Arc::clone(&lock));
                let (in_cs, done) = (Arc::clone(&in_cs), Arc::clone(&done));
                thread::spawn(move || critical(&lock, &word, &in_cs, &done))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Exactly-once service (a lost handover deadlocks above instead).
        assert_eq!(done.load(Ordering::Acquire), 2);
        // The cohort never leaves the global word held.
        assert_eq!(word.0.load(Ordering::Acquire), 0, "global word leaked");
    });
}

/// Two cohorts (one thread each) racing remote CAS on the shared word:
/// the asymmetric fast path must still be mutually exclusive across
/// cohorts, and both must win eventually.
#[test]
fn two_cohorts_exclude_each_other_on_the_global_word() {
    loom::model(|| {
        let word = Arc::new(ModelWord::new());
        let in_cs = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let word = Arc::clone(&word);
                let (in_cs, done) = (Arc::clone(&in_cs), Arc::clone(&done));
                thread::spawn(move || {
                    // Each thread is its own cohort: no local handoffs
                    // possible, every acquire goes to the remote CAS.
                    let lock = ALock::new(4);
                    critical(&lock, &word, &in_cs, &done);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Acquire), 2);
        assert_eq!(word.0.load(Ordering::Acquire), 0, "global word leaked");
    });
}

/// A cohort of two against a foreign single-thread cohort: local
/// handoff keeps the word held across the first release, yet the
/// foreign cohort still gets through once the cap (or an empty local
/// queue) releases the word.
#[test]
fn handoff_holds_word_but_foreign_cohort_still_wins() {
    loom::model(|| {
        let word = Arc::new(ModelWord::new());
        let in_cs = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let cohort = Arc::new(ALock::new(1));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (word, lock) = (Arc::clone(&word), Arc::clone(&cohort));
            let (in_cs, done) = (Arc::clone(&in_cs), Arc::clone(&done));
            handles.push(thread::spawn(move || critical(&lock, &word, &in_cs, &done)));
        }
        {
            let word = Arc::clone(&word);
            let (in_cs, done) = (Arc::clone(&in_cs), Arc::clone(&done));
            handles.push(thread::spawn(move || {
                let foreign = ALock::new(1);
                critical(&foreign, &word, &in_cs, &done);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Acquire), 3);
        assert_eq!(word.0.load(Ordering::Acquire), 0, "global word leaked");
    });
}
