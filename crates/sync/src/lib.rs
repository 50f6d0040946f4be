//! Synchronization facade: `std` primitives normally, `loom` under
//! `cfg(loom)`.
//!
//! The lock-free modules of `flock-core` (`tcq`, `ring`, `credit`,
//! `alock`) import their atomics, threads, and unsafe cells from this
//! crate instead of `std` directly.
//! A normal build resolves to the real `std` types with zero overhead.
//! Building with `RUSTFLAGS="--cfg loom"` swaps in the `loom` model
//! checker's instrumented equivalents, so the loom suites can
//! exhaustively explore thread interleavings of the lock-free protocols
//! (see DESIGN.md, "Memory ordering and verification", and `cargo loom`).
//!
//! This crate sits below `flock-fabric` in the dependency graph, because
//! its [`clock`] seam is what every layer, the fabric's NIC lanes
//! included, waits and sleeps through. Two small types stay `std`
//! atomics under loom, because nothing synchronizes through them: a
//! stop flag is a [`Stop`], and a stats counter or id allocator is a
//! [`Counter`].
//!
//! Three deliberate API choices keep the two worlds identical:
//!
//! * [`UnsafeCell`] exposes only loom's closure-based `with`/`with_mut`
//!   accessors (no bare `get`), so every raw access site reads the same
//!   under both backends.
//! * [`backoff`] is the one blessed way to spin-wait. Under `std` it
//!   spins with a periodic OS yield; under loom every call is a
//!   *voluntary* yield, which the model scheduler uses to deprioritize
//!   the spinner — that is what makes spin loops terminate during
//!   bounded-exhaustive exploration. [`spin_until`] is the whole loop
//!   for a spin whose end somebody announces on a [`clock::Event`].
//! * [`AdaptiveBackoff`] is the blessed way to *idle-wait* (spin, then
//!   yield, then block on the event that announces the work). Under
//!   loom it degrades to plain yields: blocking is an OS-scheduler
//!   concern, invisible to the memory model.

pub mod clock;

#[cfg(loom)]
pub use loom::{cell::UnsafeCell, hint, sync::atomic, sync::Arc, thread};

#[cfg(not(loom))]
pub use std::{hint, sync::atomic, sync::Arc, thread};

/// `std` counterpart of loom's closure-based `UnsafeCell`.
#[cfg(not(loom))]
#[derive(Debug, Default)]
pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> UnsafeCell<T> {
    /// Create a cell.
    pub const fn new(value: T) -> UnsafeCell<T> {
        UnsafeCell(std::cell::UnsafeCell::new(value))
    }

    /// Immutable access to the contents via raw pointer.
    ///
    /// The pointer must not escape the closure; callers uphold the usual
    /// `UnsafeCell` aliasing rules inside `f`.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Mutable access to the contents via raw pointer.
    ///
    /// The pointer must not escape the closure; callers guarantee no
    /// concurrent access for the duration of `f`.
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

/// Pads and aligns a value to a 64-byte cache line (destructive
/// interference range on x86-64 and most aarch64 parts).
///
/// Used to keep hot atomics that different threads write (e.g. the TCQ
/// `tail`) off the cache lines of fields that are merely read or updated
/// by one thread (stats counters), eliminating false sharing.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wrap `value` on its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// One iteration of a bounded spin-wait.
///
/// `spins` is the caller's iteration counter. Under `std` this emits a
/// `spin_loop` hint and yields to the OS every 128 iterations; under
/// loom it always yields to the model scheduler so exploration makes
/// progress past the spin.
#[inline]
pub fn backoff(spins: u32) {
    #[cfg(loom)]
    {
        let _ = spins;
        thread::yield_now();
    }
    #[cfg(not(loom))]
    {
        if clock::is_virtual() {
            // A virtual task spinning never lets the peer it waits on
            // run; every spin iteration must be a virtual yield.
            #[expect(
                clippy::disallowed_methods,
                reason = "the spin-wait for a store a peer is about to make: each round hands that peer the core"
            )]
            clock::yield_now();
        } else if spins.is_multiple_of(128) || single_cpu() {
            #[expect(
                clippy::disallowed_methods,
                reason = "threaded rung of the shared spin ladder; a virtual task took clock::yield_now above"
            )]
            thread::yield_now();
        } else {
            hint::spin_loop();
        }
    }
}

/// Spin until `condition` returns `Some`, for a wait that is one store
/// by one known thread away (a TCQ follower waiting for its leader's
/// hand-off) and that the storing side follows with
/// `event.notify_all()`.
///
/// Real threads spin through [`backoff`] exactly as a bare loop would
/// and never park: a spinner does not register with `event`. A virtual
/// task yields between checks like `backoff` does, but as an
/// [`clock::Event::wait_until`] on the yield-cost period, so the
/// executor runs only the checks that follow a notify (and a satisfied
/// check nobody announced panics, naming the caller). Under loom the
/// next check likewise waits for a notify, yielding to the model
/// scheduler meanwhile: a hand-off that is not announced livelocks the
/// model instead of passing by luck.
#[inline]
#[track_caller]
pub fn spin_until<R>(event: &clock::Event, mut condition: impl FnMut() -> Option<R>) -> R {
    #[cfg(not(loom))]
    if let Some(yield_ns) = clock::yield_cost_ns() {
        return event
            .wait_until(u64::MAX, yield_ns, condition)
            .expect("a wait with no deadline ends with its condition");
    }
    let mut spins = 0u32;
    loop {
        #[cfg(loom)]
        let seen = event.epoch();
        if let Some(r) = condition() {
            return r;
        }
        spins += 1;
        backoff(spins);
        #[cfg(loom)]
        while event.epoch() == seen {
            backoff(spins);
        }
    }
}

/// A stop flag: set once, by whoever tears a service down; polled by
/// its loops and by the wait conditions that end on it.
///
/// The protocol is "set, then ring": [`Stop::set`] stores the flag and
/// then notifies every event a waiter that ends on it may sleep on, so
/// that waiter checks again ([`clock::Event::wait_until`]'s rule). The
/// flag publishes no data: what a stopped loop leaves behind is handed
/// over by the join that follows the stop. Like [`clock::Event`], it is
/// a `std` atomic under loom too.
#[derive(Debug, Default)]
pub struct Stop(std::sync::atomic::AtomicBool);

impl Stop {
    /// A flag not yet set.
    pub fn new() -> Stop {
        Stop::default()
    }

    /// Set the flag, then notify each event in `ring`.
    pub fn set<'a>(&self, ring: impl IntoIterator<Item = &'a clock::Event>) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        for event in ring {
            event.notify_all();
        }
    }

    /// Whether [`Stop::set`] has been called.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A count that only counts: a stats counter or an id allocator.
///
/// Nothing synchronizes through it, so every access is `Relaxed`: a
/// stats read may lag the bumps of other threads, an id from
/// [`Counter::add`] is unique and nothing more. A value another thread
/// must *see* goes through a protocol with an ordering of its own, not
/// through a `Counter`. Like [`Stop`], it is a `std` atomic under loom
/// too, so counting adds no schedule points to a model.
#[derive(Default)]
pub struct Counter(std::sync::atomic::AtomicU64);

impl Counter {
    /// A counter at `start` (an id allocator that never hands out 0
    /// starts at 1).
    pub const fn new(start: u64) -> Counter {
        Counter(std::sync::atomic::AtomicU64::new(start))
    }

    /// Add `n` and return the value before it: the first of the `n` ids
    /// this call allocated.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed)
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Return the count and start again from 0 (a telemetry window).
    #[inline]
    pub fn take(&self) -> u64 {
        self.0.swap(0, std::sync::atomic::Ordering::Relaxed)
    }

    /// [`Counter::get`] under the spelling of the `AtomicU64` the stats
    /// fields used to be: `benchmark/src/adapter.rs` reads its counters
    /// as `.load(Relaxed)`. `clippy.toml` keeps every other caller out.
    #[doc(hidden)]
    #[inline]
    pub fn load(&self, _: std::sync::atomic::Ordering) -> u64 {
        self.get()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.get(), f)
    }
}

/// Whether the host exposes exactly one logical CPU (computed once).
/// Spin-waiting can never overlap with the thread being waited on
/// there, so the spin tiers of [`backoff`] and [`AdaptiveBackoff`]
/// degrade to immediate yields.
#[cfg(not(loom))]
fn single_cpu() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "picks whether the threaded spin tier spins or yields; a virtual task never reaches it \
                  (backoff and idle_on take the clock path first), so no lab run depends on the host's CPU count"
    )]
    *SINGLE.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(false)
    })
}

/// Adaptive spin-then-block idle-waiting, shared by the server
/// dispatchers, the QP scheduler, the NIC lanes and the control plane.
///
/// The escalation ladder of an idle round, [`AdaptiveBackoff::idle_on`]
/// an event:
///
/// 1. first [`AdaptiveBackoff::SPIN_LIMIT`] idle rounds: `spin_loop`
///    hint (stay hot, nanoseconds of latency);
/// 2. next [`AdaptiveBackoff::YIELD_LIMIT`] idle rounds: `yield_now`
///    (let a runnable peer in — on a loaded box this is what keeps a
///    polling thread from starving the thread that would feed it);
/// 3. after that: a block on the event until it is notified or the
///    round's deadline passes. Nothing re-polls on a timer.
///
/// A virtual task sleeps a doubling virtual ladder instead (see
/// [`AdaptiveBackoff::idle_on`]). Any successful poll calls
/// [`AdaptiveBackoff::reset`], snapping back to the spin tier. Under
/// `cfg(loom)` every round is a voluntary yield: blocking is invisible
/// to the memory model.
#[derive(Debug)]
pub struct AdaptiveBackoff {
    idle_rounds: u32,
    /// Cap of the virtual ladder.
    virtual_cap_ns: u64,
    /// The last [`AdaptiveBackoff::idle_on`] round returned with its
    /// event un-notified and its deadline not passed: work found now was
    /// never announced.
    quiet: bool,
}

impl AdaptiveBackoff {
    /// Idle rounds spent in the busy-spin tier.
    #[cfg(not(loom))]
    pub(crate) const SPIN_LIMIT: u32 = 64;
    /// Additional idle rounds spent in the yield tier.
    #[cfg(not(loom))]
    pub(crate) const YIELD_LIMIT: u32 = 64;
    /// First poll period of the *virtual* ladder (spinning a virtual core
    /// is pure waste — the ladder escalates from here straight to
    /// [`Self::VIRTUAL_MAX_POLL_NS`]-capped virtual sleeps).
    pub(crate) const VIRTUAL_FIRST_POLL_NS: u64 = 250;
    /// Deep-idle cap of the virtual ladder (~1 ms), for waiters that set
    /// no cap of their own. A parked waiter costs the lab nothing per
    /// round; the cap bounds how late a round slept through wakes after
    /// its notify. Busy tasks reset the ladder, so steady-state detection
    /// stays at [`Self::VIRTUAL_FIRST_POLL_NS`] scale.
    pub(crate) const VIRTUAL_MAX_POLL_NS: u64 = Self::VIRTUAL_FIRST_POLL_NS << 12;

    /// A backoff at the spin tier, with the deep-idle virtual cap.
    pub fn new() -> AdaptiveBackoff {
        AdaptiveBackoff {
            idle_rounds: 0,
            virtual_cap_ns: Self::VIRTUAL_MAX_POLL_NS,
            quiet: false,
        }
    }

    /// Cap the *virtual* ladder at `ns` instead of the deep-idle default
    /// ([`Self::VIRTUAL_MAX_POLL_NS`]).
    ///
    /// The cap is a *modeling* choice: dedicated polling actors (server
    /// dispatchers, client response dispatchers, NIC engines) never
    /// sleep tens of microseconds between bursts on real hardware, and
    /// letting them do so in the lab inflates burst-detection latency
    /// with dispatcher count, masking the sharding win the lab exists to
    /// measure. Such actors set a tight cap here; incidental waiters keep
    /// the deep default.
    pub fn with_virtual_cap(mut self, ns: u64) -> AdaptiveBackoff {
        self.virtual_cap_ns = ns.max(Self::VIRTUAL_FIRST_POLL_NS);
        self
    }

    /// Work was found: snap back to the spin tier.
    ///
    /// Panics, naming the caller, when the idle round before it was an
    /// [`AdaptiveBackoff::idle_on`] whose event nobody notified and whose
    /// deadline had not passed — the same missed-notify check as
    /// [`clock::Event::wait_until`]'s.
    #[inline]
    #[track_caller]
    pub fn reset(&mut self) {
        let unannounced = std::mem::take(&mut self.quiet);
        assert!(
            !unannounced,
            "work found with no notify_all on the Event the idle round before it slept on"
        );
        self.idle_rounds = 0;
    }

    /// Count one idle round of the virtual ladder, and return its sleep
    /// — doubling per idle round from [`Self::VIRTUAL_FIRST_POLL_NS`] up
    /// to the cap — and the schedule of the rounds an executor may sleep
    /// through after it (see [`AdaptiveBackoff::idle_on`] for the
    /// arguments).
    fn virtual_round_on(
        &mut self,
        seen: u64,
        busy_ns: u64,
        deadline_ns: u64,
    ) -> (u64, clock::Poll) {
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        let exp = self.idle_rounds.saturating_sub(1).min(12);
        let first = (Self::VIRTUAL_FIRST_POLL_NS << exp).min(self.virtual_cap_ns);
        let cap = self.virtual_cap_ns.min(Self::VIRTUAL_MAX_POLL_NS);
        let poll = clock::Poll {
            cap_ns: cap,
            busy_ns,
            ..clock::Poll::every(seen, first.saturating_mul(2).min(cap), deadline_ns)
        };
        (first, poll)
    }

    /// Back from a [`Self::virtual_round_on`] sleep during which the
    /// executor slept through `slept` further rounds; `quiet` = the
    /// event is still un-notified and the deadline not passed.
    fn slept_through(&mut self, slept: u64, quiet: bool) {
        self.idle_rounds = self
            .idle_rounds
            .saturating_add(u32::try_from(slept).unwrap_or(u32::MAX));
        self.quiet = quiet;
    }

    /// Count one idle round of the wall ladder and make it if it is a
    /// spin or a yield; `false` once both tiers are spent and the round
    /// is the caller's to block.
    ///
    /// On a single-CPU host the spin tier is skipped: the thread that
    /// would hand us work cannot be running concurrently, so burning the
    /// only core on `spin_loop` hints just delays it — yielding is
    /// strictly better from the first idle round.
    #[cfg(not(loom))]
    fn spin_or_yield(&mut self) -> bool {
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        if self.idle_rounds <= Self::SPIN_LIMIT && !single_cpu() {
            hint::spin_loop();
        } else if self.idle_rounds <= Self::SPIN_LIMIT + Self::YIELD_LIMIT {
            #[expect(
                clippy::disallowed_methods,
                reason = "yield rung of AdaptiveBackoff's threaded ladder; a virtual task never reaches it"
            )]
            thread::yield_now();
        } else {
            return false;
        }
        true
    }

    /// One idle round of a loop whose idle polls can only be ended by
    /// `event`: everything they look at is announced by
    /// `event.notify_all()`, or is the clock passing `deadline_ns` (the
    /// last instant at which a poll still finds nothing, `u64::MAX` when
    /// the loop watches no clock). `seen` is `event.epoch()` read before
    /// the check that just came up empty. `busy_ns` is what every such
    /// empty check [`clock::charge`]s — the same amount each round, the
    /// one just made included.
    ///
    /// On real threads the round spins or yields per the ladder; past
    /// those tiers it blocks on `event` until the epoch moves off `seen`
    /// or the deadline passes — no timed re-poll. A virtual task sleeps
    /// the virtual ladder, but the executor skips the rounds that cannot
    /// find anything — event un-notified, instant not past the deadline
    /// — counting each as `busy_ns` plus its sleep
    /// ([`clock::Executor::sleep_polling`]); the ladder advances by the
    /// rounds slept through, so the next sleep is the one a task that
    /// polled every round would make.
    pub fn idle_on(&mut self, event: &clock::Event, seen: u64, busy_ns: u64, deadline_ns: u64) {
        #[cfg(loom)]
        {
            let _ = (event, seen, busy_ns, deadline_ns);
            self.idle_rounds = self.idle_rounds.saturating_add(1);
            backoff(self.idle_rounds);
        }
        #[cfg(not(loom))]
        {
            if let Some(exec) = clock::current() {
                let (first, poll) = self.virtual_round_on(seen, busy_ns, deadline_ns);
                let first = clock::take_pending().saturating_add(first);
                let slept = exec.sleep_polling(first, event.epoch_handle(), poll);
                let quiet = event.epoch() == seen && exec.now_ns() <= deadline_ns;
                self.slept_through(slept, quiet);
            } else if !self.spin_or_yield() {
                event.wait_until(deadline_ns, 0, || (event.epoch() != seen).then_some(()));
            }
        }
    }

    /// Whether the next [`AdaptiveBackoff::idle_on`] round on real
    /// threads would block.
    #[cfg(all(test, not(loom)))]
    fn would_block(&self) -> bool {
        self.idle_rounds >= Self::SPIN_LIMIT + Self::YIELD_LIMIT
    }
}

impl Default for AdaptiveBackoff {
    fn default() -> AdaptiveBackoff {
        AdaptiveBackoff::new()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unsafe_cell_roundtrip() {
        let c = UnsafeCell::new(7u32);
        // SAFETY-free by construction: single-threaded access.
        c.with_mut(|p| unsafe {
            // SAFETY: exclusive access inside the closure on one thread.
            *p = 9;
        });
        let v = c.with(|p| unsafe {
            // SAFETY: no concurrent writers; pointer valid for the read.
            *p
        });
        assert_eq!(v, 9);
    }

    #[test]
    fn cache_padded_is_aligned() {
        let v = CachePadded::new(1u8);
        assert_eq!(std::mem::align_of_val(&v), 64);
        assert_eq!(*v, 1);
    }

    #[test]
    fn a_stop_wakes_a_waiter_parked_on_its_event() {
        // No deadline: a set that forgot to ring the event hangs here.
        let shared = Arc::new((Stop::new(), clock::Event::new()));
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (stop, event) = &*shared;
                event.wait_until(u64::MAX, 500, || stop.is_set().then_some(()))
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        let (stop, event) = &*shared;
        stop.set([event]);
        assert_eq!(waiter.join().unwrap(), Some(()));
    }

    #[test]
    fn a_counter_shared_by_threads_loses_no_add_and_repeats_no_id() {
        const THREADS: u64 = 4;
        const ADDS: u64 = 10_000;
        let counter = Arc::new(Counter::new(1));
        let ids: Vec<Vec<u64>> = (0..THREADS)
            .map(|_| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || (0..ADDS).map(|_| counter.add(1)).collect())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        assert_eq!(counter.get(), 1 + THREADS * ADDS);
        let mut all: Vec<u64> = ids.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (1..=THREADS * ADDS).collect::<Vec<_>>());
        assert_eq!(counter.take(), 1 + THREADS * ADDS);
        assert_eq!(counter.get(), 0);
        assert_eq!(format!("{counter:?}"), "0");
    }

    #[test]
    fn adaptive_backoff_ladder_escalates_and_resets() {
        let event = clock::Event::new();
        let mut b = AdaptiveBackoff::new();
        let never = clock::deadline(Duration::from_secs(3600));
        for _ in 0..(AdaptiveBackoff::SPIN_LIMIT + AdaptiveBackoff::YIELD_LIMIT) {
            assert!(!b.would_block());
            b.idle_on(&event, event.epoch(), 0, never); // spins or yields
        }
        assert!(b.would_block());
        // Blocks until the deadline (nobody notifies), must not hang.
        let soon = clock::deadline(Duration::from_micros(5));
        b.idle_on(&event, event.epoch(), 0, soon);
        b.reset();
        assert!(!b.would_block());
    }
}
