//! Synchronization facade: `std` primitives normally, `loom` under
//! `cfg(loom)`.
//!
//! Every concurrent module in the workspace (`tcq`, `ring`, `credit`,
//! `sched::qp` in `flock-core`; the completion-queue ring in
//! `flock-fabric`; `lockshare` in `flock-baselines`) imports its atomics,
//! threads, and unsafe cells from this crate instead of `std` directly.
//! A normal build resolves to the real `std` types with zero overhead.
//! Building with `RUSTFLAGS="--cfg loom"` swaps in the `loom` model
//! checker's instrumented equivalents, so the loom suites can
//! exhaustively explore thread interleavings of the lock-free protocols
//! (see DESIGN.md, "Memory ordering and verification", and `cargo loom`).
//!
//! This crate sits below `flock-fabric` in the dependency graph (the
//! facade started life as `flock_core::sync`, which still re-exports it
//! for compatibility, but `flock-core` depends on `flock-fabric`, so the
//! fabric's lock-free CQ needs the facade from a lower layer).
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
//!   yield, then park with escalating timeouts). Under loom it degrades
//!   to plain yields: parking is an OS-scheduler concern, invisible to
//!   the memory model.

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
/// `tail`, the CQ ring's enqueue/dequeue cursors) off the cache lines of
/// fields that are merely read or updated by one thread (stats
/// counters), eliminating false sharing.
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
            clock::yield_now();
        } else if spins.is_multiple_of(128) || single_cpu() {
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
    if let Some(exec) = clock::current() {
        return event
            .wait_until(u64::MAX, exec.yield_cost_ns(), condition)
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

/// Whether the host exposes exactly one logical CPU (computed once).
/// Spin-waiting can never overlap with the thread being waited on
/// there, so the spin tiers of [`backoff`] and [`AdaptiveBackoff`]
/// degrade to immediate yields.
#[cfg(not(loom))]
fn single_cpu() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(false)
    })
}

/// Adaptive spin-then-park idle-waiting, shared by the server
/// dispatchers, the QP scheduler, and CQ blocking waits.
///
/// The escalation ladder on an idle poll:
///
/// 1. first [`AdaptiveBackoff::SPIN_LIMIT`] idle rounds: `spin_loop`
///    hint (stay hot, nanoseconds of latency);
/// 2. next [`AdaptiveBackoff::YIELD_LIMIT`] idle rounds: `yield_now`
///    (let a runnable peer in — on a loaded box this is what keeps a
///    polling thread from starving the thread that would feed it);
/// 3. after that: `thread::sleep` with an exponentially growing
///    duration, capped at `max_park`.
///
/// Any successful poll calls [`AdaptiveBackoff::reset`], snapping back
/// to the spin tier. Under `cfg(loom)` every tier is a voluntary yield;
/// sleeping is invisible to the memory model and only throttles the OS
/// scheduler.
#[derive(Debug)]
pub struct AdaptiveBackoff {
    idle_rounds: u32,
    // Unread under cfg(loom), where every tier is a voluntary yield.
    #[cfg_attr(loom, allow(dead_code))]
    max_park: std::time::Duration,
    /// Cap of the virtual ladder.
    virtual_cap_ns: u64,
    /// The last [`AdaptiveBackoff::idle_on`] round returned with its
    /// event un-notified: work found now was never announced.
    quiet: bool,
}

impl AdaptiveBackoff {
    /// Idle rounds spent in the busy-spin tier.
    pub(crate) const SPIN_LIMIT: u32 = 64;
    /// Additional idle rounds spent in the yield tier.
    pub(crate) const YIELD_LIMIT: u32 = 64;
    /// First park duration once spinning and yielding are exhausted.
    pub(crate) const FIRST_PARK: std::time::Duration = std::time::Duration::from_micros(5);
    /// First poll period of the *virtual* ladder (spinning a virtual core
    /// is pure waste — the ladder escalates from here straight to
    /// [`Self::VIRTUAL_MAX_POLL_NS`]-capped virtual sleeps).
    pub(crate) const VIRTUAL_FIRST_POLL_NS: u64 = 250;
    /// Deep-idle cap of the virtual ladder (~1 ms). Deliberately larger
    /// than typical `max_park` values: wall parks are sized to bound
    /// *detection latency per burned host core*, but a virtual sleeping
    /// task costs lab *events*, and thousands of idle tasks (unused NIC
    /// lanes at paper scale) polling every 2 µs of virtual time would
    /// swamp the event heap. Busy tasks reset the ladder, so steady-state
    /// detection stays at [`Self::VIRTUAL_FIRST_POLL_NS`] scale.
    pub(crate) const VIRTUAL_MAX_POLL_NS: u64 = Self::VIRTUAL_FIRST_POLL_NS << 12;

    /// A backoff whose park tier never sleeps longer than `max_park`.
    pub fn new(max_park: std::time::Duration) -> AdaptiveBackoff {
        AdaptiveBackoff {
            idle_rounds: 0,
            max_park,
            virtual_cap_ns: Self::VIRTUAL_MAX_POLL_NS,
            quiet: false,
        }
    }

    /// Cap the *virtual* ladder at `ns` instead of the deep-idle default
    /// ([`Self::VIRTUAL_MAX_POLL_NS`]).
    ///
    /// The wall ladder parks to save host CPU; detection latency is the
    /// price and deepening it is always safe. The virtual ladder has no
    /// such trade — a virtual sleep is free host-wise — so its cap is a
    /// *modeling* choice: dedicated polling actors (server dispatchers,
    /// client response dispatchers, NIC engines) never sleep tens of
    /// microseconds between bursts on real hardware, and letting them do
    /// so in the lab inflates burst-detection latency with dispatcher
    /// count, masking the sharding win the lab exists to measure. Such
    /// actors set a tight cap here; incidental waiters keep the deep
    /// default so thousands of idle tasks don't swamp the event heap.
    pub fn with_virtual_cap(mut self, ns: u64) -> AdaptiveBackoff {
        self.virtual_cap_ns = ns.max(Self::VIRTUAL_FIRST_POLL_NS);
        self
    }

    /// Work was found: snap back to the spin tier.
    ///
    /// Panics, naming the caller, when the idle round before it was an
    /// [`AdaptiveBackoff::idle_on`] whose event nobody notified — the
    /// same missed-notify check as [`clock::Event::wait_until`]'s.
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

    /// Sleep of the virtual ladder's current round: doubles per idle
    /// round from [`Self::VIRTUAL_FIRST_POLL_NS`] up to the cap.
    fn virtual_poll_ns(&self) -> u64 {
        let exp = self.idle_rounds.saturating_sub(1).min(12);
        (Self::VIRTUAL_FIRST_POLL_NS << exp).min(self.virtual_cap_ns)
    }

    /// Count one idle round of the virtual ladder and return its sleep:
    /// the virtual arm of [`AdaptiveBackoff::idle`] without the sleep,
    /// for whoever makes it on the task's behalf.
    fn virtual_round(&mut self) -> u64 {
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        self.virtual_poll_ns()
    }

    /// [`Self::virtual_round`] for a round slept on `event`: its sleep,
    /// and the schedule of the rounds an executor may sleep through
    /// after it (see [`AdaptiveBackoff::idle_on`] for the arguments).
    fn virtual_round_on(
        &mut self,
        event: &clock::Event,
        seen: u64,
        busy_ns: u64,
        deadline_ns: u64,
    ) -> (u64, clock::Poll) {
        let first = self.virtual_round();
        let cap = self.virtual_cap_ns.min(Self::VIRTUAL_MAX_POLL_NS);
        let poll = clock::Poll {
            cap_ns: cap,
            busy_ns,
            ..event.poll_every(seen, first.saturating_mul(2).min(cap), deadline_ns)
        };
        (first, poll)
    }

    /// Back from a [`Self::virtual_round_on`] sleep during which the
    /// executor slept through `slept` further rounds; `quiet` = the
    /// event is still un-notified.
    fn slept_through(&mut self, slept: u64, quiet: bool) {
        self.idle_rounds = self
            .idle_rounds
            .saturating_add(u32::try_from(slept).unwrap_or(u32::MAX));
        self.quiet = quiet;
    }

    /// Nothing to do this round: spin, yield, or park per the ladder.
    ///
    /// On a single-CPU host the spin tier is skipped: the thread that
    /// would hand us work cannot be running concurrently, so burning the
    /// only core on `spin_loop` hints just delays it — yielding is
    /// strictly better from the first idle round.
    #[inline]
    pub fn idle(&mut self) {
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        #[cfg(loom)]
        {
            thread::yield_now();
        }
        #[cfg(not(loom))]
        {
            if clock::is_virtual() {
                // Virtual ladder: each idle round is a charged virtual
                // sleep whose period doubles from VIRTUAL_FIRST_POLL_NS
                // up to VIRTUAL_MAX_POLL_NS, mirroring the park tier's
                // shape without burning wall time or host CPU.
                clock::sleep_ns(self.virtual_poll_ns());
            } else if self.idle_rounds <= Self::SPIN_LIMIT && !single_cpu() {
                hint::spin_loop();
            } else if self.idle_rounds <= Self::SPIN_LIMIT + Self::YIELD_LIMIT {
                thread::yield_now();
            } else {
                let over = self.idle_rounds - Self::SPIN_LIMIT - Self::YIELD_LIMIT;
                let exp = over.min(10); // 5 µs << 10 ≈ 5 ms, before the cap
                let park = Self::FIRST_PARK
                    .saturating_mul(1u32 << exp)
                    .min(self.max_park);
                thread::sleep(park);
            }
        }
    }

    /// [`AdaptiveBackoff::idle`] for a loop whose idle polls can only be
    /// ended by `event`: everything they look at is announced by
    /// `event.notify_all()`, or is the clock passing `deadline_ns` (the
    /// last instant at which a poll still finds nothing, `u64::MAX` when
    /// the loop watches no clock). `seen` is `event.epoch()` read before
    /// the check that just came up empty. `busy_ns` is what every such
    /// empty check [`clock::charge`]s — the same amount each round, the
    /// one just made included.
    ///
    /// On real threads this is `idle()`. A virtual task sleeps the same
    /// ladder, but the executor runs the rounds that cannot find
    /// anything — event un-notified, instant not past the deadline — by
    /// itself ([`clock::Executor::sleep_polling`]), charging each
    /// `busy_ns`; the ladder advances by the rounds slept through, so
    /// the next sleep is the one a task that polled every round would
    /// make.
    pub fn idle_on(&mut self, event: &clock::Event, seen: u64, busy_ns: u64, deadline_ns: u64) {
        #[cfg(not(loom))]
        if let Some(exec) = clock::current() {
            let (first, poll) = self.virtual_round_on(event, seen, busy_ns, deadline_ns);
            let slept = exec.sleep_polling(clock::take_pending().saturating_add(first), poll);
            self.slept_through(slept, event.epoch() == seen);
            return;
        }
        #[cfg(loom)]
        let _ = (event, seen, busy_ns, deadline_ns);
        self.idle();
    }

    /// Whether the next [`AdaptiveBackoff::idle`] call would park.
    #[cfg(test)]
    fn would_park(&self) -> bool {
        self.idle_rounds >= Self::SPIN_LIMIT + Self::YIELD_LIMIT
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
    fn adaptive_backoff_ladder_escalates_and_resets() {
        let mut b = AdaptiveBackoff::new(Duration::from_micros(50));
        for _ in 0..(AdaptiveBackoff::SPIN_LIMIT + AdaptiveBackoff::YIELD_LIMIT) {
            assert!(!b.would_park());
            b.idle();
        }
        assert!(b.would_park());
        b.idle(); // parks (5 µs), must not hang
        b.reset();
        assert!(!b.would_park());
    }
}
