//! ALock: an asymmetric cohort lock over one-sided atomics.
//!
//! A naive RDMA spinlock makes every acquire a remote CAS — the slowest
//! verb the NIC serves (`CostModel::nic_atomic_extra_ns`), and under
//! contention every waiter hammers the same remote cache line. The
//! asymmetric lock (ALock, PAPERS.md) splits the lock in two:
//!
//! * a **local cohort lock** — a plain ticket lock among the threads of
//!   one client node, costing nanoseconds of local cache traffic; and
//! * a **global word** in server memory, taken with a remote CAS.
//!
//! Only the cohort's current leader touches the global word, and when a
//! cohort-mate is already waiting the leader hands the lock over
//! *locally*, keeping the global word held — one remote CAS then
//! amortizes over up to `cohort_cap` critical sections. The cap bounds
//! unfairness toward other cohorts: after `cohort_cap` consecutive
//! local handoffs (or when no cohort-mate waits) the global word is
//! released so remote waiters can win it.
//!
//! The lock's local state uses the `flock_sync` facade, so the protocol
//! is loom-checked (`crates/core/tests/loom_alock.rs`: mutual exclusion
//! across cohorts sharing one global word, and no lost handover inside
//! a cohort). The remote side is abstracted as [`LockWord`], with the
//! production implementation [`RemoteLockWord`] issuing `fl_cmp_and_swap`
//! through a connection handle, and the loom tests substituting an
//! in-memory CAS.

use flock_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use flock_sync::{backoff, Counter};

use crate::client::FlThread;
use crate::error::{FlockError, Result};

/// The global side of an [`ALock`]: a word that can be acquired with a
/// compare-and-swap and released by the holder.
pub trait LockWord {
    /// Try to take the word (CAS `0 → cookie`); `true` on success.
    fn try_acquire(&self) -> Result<bool>;
    /// Release the word (the caller must hold it).
    fn release(&self) -> Result<()>;
}

/// Production [`LockWord`]: a `u64` in a server memory region, operated
/// on with one-sided CAS verbs through the calling thread's handle.
pub struct RemoteLockWord<'a> {
    thread: &'a FlThread,
    mem_idx: usize,
    offset: u64,
    cookie: u64,
}

impl<'a> RemoteLockWord<'a> {
    /// A lock word at `offset` within advertised memory region
    /// `mem_idx`, claimed with the nonzero `cookie` (identify the
    /// holding cohort; e.g. the connection's sender id + 1).
    pub fn new(thread: &'a FlThread, mem_idx: usize, offset: u64, cookie: u64) -> RemoteLockWord<'a> {
        debug_assert_ne!(cookie, 0, "cookie 0 is the unlocked state");
        RemoteLockWord {
            thread,
            mem_idx,
            offset,
            cookie,
        }
    }
}

impl LockWord for RemoteLockWord<'_> {
    fn try_acquire(&self) -> Result<bool> {
        let old = self
            .thread
            .cmp_swap(self.mem_idx, self.offset, 0, self.cookie)?;
        Ok(old == 0)
    }

    fn release(&self) -> Result<()> {
        let old = self
            .thread
            .cmp_swap(self.mem_idx, self.offset, self.cookie, 0)?;
        if old != self.cookie {
            return Err(FlockError::RemoteOpFailed("released a lock word not held"));
        }
        Ok(())
    }
}

/// Proof an [`ALock::acquire`] succeeded; consumed by [`ALock::release`].
#[must_use = "dropping the ticket without releasing wedges the cohort"]
#[derive(Debug)]
pub struct Ticket(u64);

/// The local (cohort) half of the asymmetric lock. One instance is
/// shared by the threads of one client node; distinct cohorts contend
/// only through the global [`LockWord`].
pub struct ALock {
    /// Ticket dispenser (FIFO admission within the cohort).
    next_ticket: AtomicU64,
    /// Ticket currently allowed into the critical section.
    now_serving: AtomicU64,
    /// Whether this cohort holds the global word. Written only by the
    /// serving thread; the ticket lock's release/acquire on
    /// `now_serving` orders it across handoffs.
    global_held: AtomicBool,
    /// Consecutive local handoffs since the global word was taken.
    handoffs: AtomicU64,
    /// Cap on consecutive local handoffs (fairness toward other cohorts).
    cohort_cap: u64,
    /// Remote CASes that won the global word (stats).
    remote_acquires: Counter,
    /// Local handoffs that skipped the remote release/re-acquire (stats).
    local_handoffs: Counter,
}

/// Default local-handoff cap: one remote CAS amortizes over up to this
/// many critical sections when the cohort stays busy.
pub const DEFAULT_COHORT_CAP: u64 = 16;

impl ALock {
    /// A cohort lock handing over locally at most `cohort_cap`
    /// consecutive times before releasing the global word.
    pub fn new(cohort_cap: u64) -> ALock {
        ALock {
            next_ticket: AtomicU64::new(0),
            now_serving: AtomicU64::new(0),
            global_held: AtomicBool::new(false),
            handoffs: AtomicU64::new(0),
            cohort_cap: cohort_cap.max(1),
            remote_acquires: Counter::default(),
            local_handoffs: Counter::default(),
        }
    }

    /// Acquire: take a cohort ticket, wait to be served, and — only if
    /// the cohort does not already hold it — win the global word by
    /// remote CAS. This is the ALock hot path: the common contended
    /// acquire is a local spin plus zero remote verbs.
    pub fn acquire(&self, word: &impl LockWord) -> Result<Ticket> {
        let my = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        while self.now_serving.load(Ordering::Acquire) != my {
            backoff(spins);
            spins = spins.wrapping_add(1);
        }
        // Serving now: `global_held` is ours to read and write until we
        // store `now_serving + 1`.
        if !self.global_held.load(Ordering::Relaxed) {
            let mut spins = 0u32;
            while !word.try_acquire()? {
                backoff(spins);
                spins = spins.wrapping_add(1);
            }
            self.global_held.store(true, Ordering::Relaxed);
            self.handoffs.store(0, Ordering::Relaxed);
            self.remote_acquires.add(1);
        }
        Ok(Ticket(my))
    }

    /// Release: hand over locally if a cohort-mate waits and the cap
    /// allows, else release the global word first. Either way the next
    /// ticket is admitted — no handover is lost.
    pub fn release(&self, word: &impl LockWord, ticket: Ticket) -> Result<()> {
        let my = ticket.0;
        let waiter = self.next_ticket.load(Ordering::Relaxed) > my + 1;
        let done = self.handoffs.load(Ordering::Relaxed);
        if waiter && done < self.cohort_cap {
            // Local handoff: the global word stays held by the cohort.
            self.handoffs.store(done + 1, Ordering::Relaxed);
            self.local_handoffs.add(1);
        } else {
            // Release the global word *before* admitting the next
            // ticket: its holder must re-win it remotely, and other
            // cohorts get their window.
            self.global_held.store(false, Ordering::Relaxed);
            word.release()?;
        }
        self.now_serving.store(my + 1, Ordering::Release);
        Ok(())
    }

    /// Remote CASes that won the global word.
    pub fn remote_acquires(&self) -> u64 {
        self.remote_acquires.get()
    }

    /// Handovers served locally (remote verbs saved).
    pub fn local_handoffs(&self) -> u64 {
        self.local_handoffs.get()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// In-process lock word for unit tests (the loom suite has its own).
    struct LocalWord(AtomicU64);

    impl LockWord for LocalWord {
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

    #[test]
    fn uncontended_acquire_takes_and_releases_the_word() {
        let word = LocalWord(AtomicU64::new(0));
        let lock = ALock::new(4);
        let t = lock.acquire(&word).unwrap();
        assert_eq!(word.0.load(Ordering::Relaxed), 1);
        lock.release(&word, t).unwrap();
        // No waiter: the global word is released immediately.
        assert_eq!(word.0.load(Ordering::Relaxed), 0);
        assert_eq!(lock.remote_acquires(), 1);
        assert_eq!(lock.local_handoffs(), 0);
    }

    #[test]
    fn contended_cohort_amortizes_remote_cas() {
        let word = Arc::new(LocalWord(AtomicU64::new(0)));
        let lock = Arc::new(ALock::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let word = Arc::clone(&word);
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let t = lock.acquire(&*word).unwrap();
                    lock.release(&*word, t).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(word.0.load(Ordering::Relaxed), 0);
        // 200 critical sections; local handoffs + remote acquires cover
        // them all, and at least one handoff happened iff contention did.
        assert_eq!(lock.remote_acquires() + lock.local_handoffs(), 200);
        assert!(lock.remote_acquires() >= 1);
    }

    #[test]
    fn cohort_cap_forces_remote_release() {
        let word = LocalWord(AtomicU64::new(0));
        let lock = ALock::new(2);
        // Simulate three queued cohort-mates by pre-taking tickets.
        let t0 = lock.acquire(&word).unwrap();
        lock.next_ticket.fetch_add(3, Ordering::Relaxed);
        lock.release(&word, t0).unwrap(); // handoff 1
        let t1 = Ticket(1);
        lock.release(&word, t1).unwrap(); // handoff 2 (cap reached)
        let t2 = Ticket(2);
        lock.release(&word, t2).unwrap(); // must release the word
        assert_eq!(word.0.load(Ordering::Relaxed), 0);
        assert_eq!(lock.local_handoffs(), 2);
    }
}
