//! The virtual-time execution seam.
//!
//! Every fabric/runtime site that touches *time* or the *OS scheduler* —
//! spawning a worker thread, yielding, parking, reading a clock, arming
//! a deadline — goes through this module instead of `std` directly.
//!
//! Two executors implement the seam:
//!
//! * **Threaded** (the default, when no [`Executor`] is installed):
//!   behaves exactly like the direct `std` calls the code used to make.
//!   `now_ns` is wall time since a process-wide epoch, `spawn` is
//!   `std::thread::spawn`, `sleep`/`yield` hit the OS scheduler, and
//!   [`charge`] is a no-op. This path adds one thread-local read to the
//!   call sites and nothing else.
//!
//! * **Virtual** (installed by `flock_sim::vtime::VirtualLab` on the
//!   thread its tasks share, each on a stack of its own):
//!   tasks are *cooperatively scheduled virtual cores*. Exactly one task
//!   runs at any wall instant; `now_ns` is the lab's virtual clock;
//!   `sleep`/`yield` hand the core back to the lab's virtual-time event
//!   heap, and [`charge`] accrues virtual CPU cost that is applied at
//!   the task's next yield point. Because only one task runs at a time
//!   and wake-ups are ordered by `(virtual time, sequence)`, a whole
//!   multi-threaded run — real server, real NIC lanes, real clients —
//!   is deterministic and can simulate any degree of parallelism on a
//!   single host CPU (see DESIGN.md §5e).
//!
//! A service loop can be handed to the seam as its body instead of a
//! closure that loops ([`spawn_stepper`]): `step() -> `[`Next`] runs one
//! round and says whether the loop would now flush its charge and go on,
//! idle a round of its [`AdaptiveBackoff`] ladder, or end. The threaded
//! executor runs `loop { step }` on a thread, which is the loop as it
//! was ([`StepperTask::drive`]); a virtual executor may run the steps
//! itself, on the stack of whichever task gives up the core, and then
//! the task has none of its own ([`StepperTask::run_inline`]).
//!
//! House rule for virtual tasks: **never yield while holding a lock
//! another task can contend**. The threaded code already obeys this (all
//! its spin/park sites drop locks first); conversions must preserve it,
//! otherwise the lab deadlocks (the lock holder is suspended and the
//! next task blocks the one OS thread that could resume it). And **announce
//! what a waiter waits for**: a change that can satisfy the condition of
//! an [`Event::wait_until`] is followed by that event's `notify_all`
//! before the changer yields. A parked thread needs it to wake at all;
//! a virtual executor needs it to know which polls it may skip
//! ([`Executor::sleep_polling`]). And **a step never waits**: it may
//! run on another task's stack, so it returns [`Next::Idle`] where a
//! loop would sleep. And **no task state in `thread_local!`s**: virtual
//! tasks may all share one OS thread, so a thread-local is shared by
//! every one of them, and a borrow of it held across a suspension point
//! collides with the next task's.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "this module is the virtual-clock seam: where the host's clock, scheduler and threads are reached"
)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
// std's locks, not the `parking_lot` shim's lock-order check: a manifest
// edit to `flock-sync` would rewrite the lock file `benchmark/` pins.
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::AdaptiveBackoff;

/// A cooperative scheduler driving virtual tasks. Implemented by
/// `flock_sim::vtime::VirtualLab`; installed per task via [`install`].
pub trait Executor: Send + Sync {
    /// Current virtual time in nanoseconds.
    fn now_ns(&self) -> u64;

    /// Yield the virtual core, charging `ns` of virtual time before the
    /// task becomes runnable again. Implementations clamp `ns` to at
    /// least 1 ns so every yield makes virtual progress (a zero-cost
    /// yield could spin forever at one instant). The yield cost is not a
    /// floor: [`yield_now`] adds it, [`flush_charge`] and [`sleep_ns`]
    /// advance by exactly what was charged or asked for.
    fn advance(&self, ns: u64);

    /// Spawn a new cooperative task. The child begins runnable at the
    /// current virtual instant and inherits this executor.
    fn spawn_task(&self, name: String, f: Box<dyn FnOnce() + Send>) -> TaskHandle;

    /// Spawn a task given as a step function ([`spawn_stepper`]). The
    /// default hosts it like any other task, on a thread of its own
    /// running [`StepperTask::drive`]; an executor that owns the
    /// scheduling loop can run the steps itself
    /// ([`StepperTask::run_inline`]) and needs no thread at all.
    fn spawn_stepper(&self, name: String, task: StepperTask) -> TaskHandle {
        self.spawn_task(name, Box::new(move || task.drive()))
    }

    /// The virtual cost of one bare [`yield_now`].
    fn yield_cost_ns(&self) -> u64;

    /// Sleep `first_ns`, then keep the task asleep on `poll`'s schedule
    /// for as long as waking it could change nothing: the event it waits
    /// on is un-notified (`poll.epoch` still reads `poll.seen`) and the
    /// poll instant is not past `poll.deadline_ns`. The schedule is the
    /// polls a task that ran every one would make: each failed check
    /// charges `poll.busy_ns` and sleeps the next period. An executor
    /// need not visit those polls at all: it may park the task until
    /// [`Event::notify_all`] calls [`Executor::notified`], or until the
    /// first poll past the deadline, and then wake it at the first poll
    /// of the schedule that comes after the notifying task — so the
    /// virtual timeline does not depend on how many polls ran on the
    /// task. At one instant, every sleep made here (the first included)
    /// is ordered before any other, by task id: the order does not
    /// depend on which polls ran. `epoch` is the awaited [`Event`]'s
    /// notify epoch, which an executor that parks the task keeps a
    /// handle to. Returns how many polls were slept
    /// through without running the task (always 0 from an executor that
    /// runs every poll).
    fn sleep_polling(&self, first_ns: u64, epoch: &Arc<Epoch>, poll: Poll) -> u64;

    /// The [`Epoch`] of an [`Event`] some of whose waiters this executor
    /// parked ([`Epoch::parked`] is not `None`) was just bumped: put them
    /// back on the run queue. Called by `notify_all` on the notifying
    /// task, never under the executor's own lock.
    fn notified(&self, epoch: &Epoch);
}

/// What a waiting task's next polls look like, for
/// [`Executor::sleep_polling`].
#[derive(Debug, Clone, Copy)]
pub struct Poll {
    /// The awaited [`Event`]'s epoch before the task's last failed
    /// check.
    pub seen: u64,
    /// The sleep after `first_ns`; each later one doubles, up to
    /// `cap_ns` (`period_ns == cap_ns` is a fixed period).
    pub period_ns: u64,
    /// Longest sleep of the schedule.
    pub cap_ns: u64,
    /// What one failed check [`charge`]s before it sleeps again: a
    /// constant of the waiter (a dispatcher's empty sweep over its
    /// lanes), 0 for a check that is free in virtual time.
    pub busy_ns: u64,
    /// Last instant at which a poll is known to end in another sleep:
    /// the waiter's [`deadline`], or the instant before a condition it
    /// evaluates from the clock turns true.
    pub deadline_ns: u64,
}

impl Poll {
    /// The schedule of a waiter that checks for free every `period_ns`
    /// while its event's epoch still reads `seen`.
    pub(crate) fn every(seen: u64, period_ns: u64, deadline_ns: u64) -> Poll {
        Poll {
            seen,
            period_ns,
            cap_ns: period_ns,
            busy_ns: 0,
            deadline_ns,
        }
    }
}

/// An [`Event`]'s notify count, shared with the executor its virtual
/// waiters sleep in ([`Poll::epoch`]), and the head of that executor's
/// list of the tasks it parked on the event.
#[derive(Debug, Default)]
pub struct Epoch {
    count: AtomicU64,
    /// The executor's first parked task, as id + 1 (0: none).
    parked: AtomicUsize,
}

impl Epoch {
    /// Notifies so far. A reader that sees a notify's count also sees
    /// the state the notifier published before it.
    #[inline]
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// The first task the executor parked on this epoch, if any. Only
    /// the executor changes it ([`Epoch::set_parked`]).
    #[inline]
    pub fn parked(&self) -> Option<usize> {
        self.parked.load(Ordering::Relaxed).checked_sub(1)
    }

    /// Make `task` the head of the executor's parked list.
    #[inline]
    pub fn set_parked(&self, task: Option<usize>) {
        self.parked
            .store(task.map_or(0, |id| id + 1), Ordering::Relaxed);
    }
}

thread_local! {
    /// The executor, behind an `Rc`: a task takes it for a suspension
    /// with a plain increment, and holds no borrow of this slot while it
    /// is suspended.
    static CURRENT: RefCell<Option<Rc<dyn Executor>>> = const { RefCell::new(None) };
    /// Virtual CPU time accrued by [`charge`] since the last yield.
    static PENDING_NS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide epoch for threaded-mode `now_ns`.
fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Install `exec` as the calling thread's executor (what runs on the
/// thread from now on is a virtual task of it). Returns a guard that
/// uninstalls on drop.
pub fn install(exec: Rc<dyn Executor>) -> InstallGuard {
    CURRENT.with(|c| *c.borrow_mut() = Some(exec));
    PENDING_NS.with(|p| p.set(0));
    InstallGuard { _priv: () }
}

/// Uninstalls the thread's executor when dropped.
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
        PENDING_NS.with(|p| p.set(0));
    }
}

/// The calling thread's executor, if it is a virtual task.
pub fn current() -> Option<Rc<dyn Executor>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// `f` of the calling thread's executor, through a borrow of its slot:
/// for what never suspends.
#[inline]
fn with_current<R>(f: impl FnOnce(&dyn Executor) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_deref().map(f))
}

/// Whether the calling thread runs under a virtual-time executor. Only
/// the seam branches on the executor: everything outside this crate
/// waits through [`Event`] and [`crate::AdaptiveBackoff`].
#[inline]
pub(crate) fn is_virtual() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Current time in nanoseconds: virtual time under an executor, wall
/// time since a process-wide epoch otherwise.
#[inline]
pub fn now_ns() -> u64 {
    with_current(|e| e.now_ns()).unwrap_or_else(|| wall_epoch().elapsed().as_nanos() as u64)
}

/// The virtual cost of one bare [`yield_now`], under an executor.
#[inline]
#[cfg(not(loom))]
pub(crate) fn yield_cost_ns() -> Option<u64> {
    with_current(|e| e.yield_cost_ns())
}

/// Accrue `ns` of virtual CPU cost against the calling task, applied at
/// its next yield point ([`yield_now`], [`sleep_ns`], or an
/// [`crate::AdaptiveBackoff::idle_on`] round). Charging instead of
/// immediately yielding keeps the call legal inside critical sections.
/// No-op in threaded mode.
#[inline]
pub fn charge(ns: u64) {
    if is_virtual() {
        PENDING_NS.with(|p| p.set(p.get().saturating_add(ns)));
    }
}

pub(crate) fn take_pending() -> u64 {
    swap_pending(0)
}

/// Replace the calling thread's pending [`charge`]s with `ns`. For an
/// executor that runs several tasks on one thread: what a task charged
/// goes with the task when another takes the thread, and comes back
/// with it.
#[doc(hidden)]
pub fn swap_pending(ns: u64) -> u64 {
    PENDING_NS.with(|p| p.replace(ns))
}

/// Apply any pending [`charge`]d cost now (a yield whose length is the
/// accrued work). No-op in threaded mode or with nothing pending; used
/// by poll loops on their *progressed* edge, where they would otherwise
/// never yield.
#[inline]
pub fn flush_charge() {
    // Nothing is ever pending in threaded mode.
    let pending = take_pending();
    if pending > 0 {
        if let Some(e) = current() {
            e.advance(pending);
        }
    }
}

/// Yield the core: `std::thread::yield_now` in threaded mode; in
/// virtual mode a minimum-cost virtual yield that also applies pending
/// charges.
#[inline]
pub fn yield_now() {
    match current() {
        Some(e) => {
            let ns = take_pending().saturating_add(e.yield_cost_ns());
            e.advance(ns);
        }
        None => std::thread::yield_now(),
    }
}

/// Sleep for `ns` nanoseconds of (virtual or wall) time, plus any
/// pending charges in virtual mode.
#[inline]
pub fn sleep_ns(ns: u64) {
    match current() {
        Some(e) => {
            let total = take_pending().saturating_add(ns);
            e.advance(total);
        }
        None => std::thread::sleep(Duration::from_nanos(ns)),
    }
}

/// Sleep for a [`Duration`] of (virtual or wall) time.
#[inline]
pub fn sleep(d: Duration) {
    sleep_ns(d.as_nanos().min(u64::MAX as u128) as u64);
}

/// An absolute deadline `d` from now, in the calling task's clock
/// domain. Compare with [`expired`].
#[inline]
pub fn deadline(d: Duration) -> u64 {
    now_ns().saturating_add(d.as_nanos().min(u64::MAX as u128) as u64)
}

/// Whether a [`deadline`] has passed.
#[inline]
pub fn expired(deadline_ns: u64) -> bool {
    now_ns() > deadline_ns
}

/// The one blocking-wait primitive: an event count a waiter sleeps on
/// until its condition holds or a deadline passes.
///
/// The condition lives with the caller (an inbox under its own mutex, a
/// ring cell, a credit counter); `Event` only carries the wake-up.
/// [`Event::wait_until`] is the single place that knows how a task
/// blocks under each executor:
///
/// * **Threaded:** parks on a condition variable, with no timeout when
///   there is no deadline. A notify that lands between a failed check
///   and the park is not lost: the waiter registers and reads the wake
///   ticket *before* checking, and a notifier that sees a registered
///   waiter moves the ticket under the internal lock. That lock is never
///   held while `condition` runs, so it orders against no caller lock.
/// * **Virtual:** check, then sleep `quantum_ns`, until the deadline — a
///   parked OS thread would stall the lab's one core. The sleeps go
///   through [`Executor::sleep_polling`]: a poll at which this event is
///   still un-notified cannot succeed, so the executor may park the
///   task off its run queue, and the notify puts it back at the poll
///   instant it would have seen the change at ([`Executor::notified`]).
///   That is exact only if every state change a condition looks for is
///   followed by [`Event::notify_all`] on the event its waiters sleep
///   on, before the changer next yields; a satisfied poll that saw no
///   notify since the failed one before it panics, naming the waiting
///   site.
/// * **`cfg(loom)`:** check, then yield to the model scheduler; parking
///   is invisible to the memory model, and there are no deadlines.
#[derive(Debug, Default)]
pub struct Event {
    /// Bumped by every notify. Shared so a virtual executor can watch it
    /// while the waiter is suspended, and keep its parked waiters on it;
    /// a threaded [`crate::AdaptiveBackoff::idle_on`] blocks until it
    /// moves.
    epoch: Arc<Epoch>,
    /// Threaded waiters between registration and return. Notifiers skip
    /// the lock and the wake syscall while this is zero.
    waiters: AtomicUsize,
    /// Wake ticket, moved by every notify that saw a waiter.
    ticket: Mutex<u64>,
    cv: Condvar,
}

impl Event {
    /// An event with no waiters.
    pub fn new() -> Event {
        Event::default()
    }

    /// The notify epoch. A poll loop that idles through
    /// [`crate::AdaptiveBackoff::idle_on`] reads it *before* the check
    /// whose failure sends it to sleep.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// The notify epoch itself, for [`Executor::sleep_polling`].
    #[cfg(not(loom))]
    pub(crate) fn epoch_handle(&self) -> &Arc<Epoch> {
        &self.epoch
    }

    fn ticket(&self) -> MutexGuard<'_, u64> {
        // A plain counter is valid at every step: a lock poisoned by a
        // dying waiter is safe to reuse.
        self.ticket.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every current waiter so it re-checks its condition. Call
    /// *after* publishing the state change it looks for, and after
    /// dropping the lock that guards that state. One release increment,
    /// one fence and two loads when nobody is parked; a virtual
    /// executor's parked waiters are handed to [`Executor::notified`].
    #[inline]
    pub fn notify_all(&self) {
        self.epoch.count.fetch_add(1, Ordering::Release);
        // Pairs with the fence in `wait_until` (store buffering: SeqCst
        // fences on both sides): either this load sees the waiter's
        // registration, or the waiter's check sees the caller's state.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) != 0 {
            *self.ticket() += 1;
            self.cv.notify_all();
        }
        if self.epoch.parked.load(Ordering::Relaxed) != 0 {
            with_current(|exec| exec.notified(&self.epoch));
        }
    }

    /// Block until `condition` returns `Some` (passed through) or
    /// `deadline_ns` passes (`None`). `deadline_ns` is a [`deadline`]
    /// value, `u64::MAX` for never. `condition` runs on the calling
    /// task with no `Event` lock held and must not block. `quantum_ns`
    /// is the poll period under a virtual executor, unused otherwise.
    #[track_caller]
    pub fn wait_until<R>(
        &self,
        deadline_ns: u64,
        quantum_ns: u64,
        mut condition: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        if cfg!(loom) {
            loop {
                if let Some(r) = condition() {
                    return Some(r);
                }
                crate::thread::yield_now();
            }
        }
        if let Some(exec) = current() {
            // Epoch before the previous failed check, once there is one.
            let mut quiet = None;
            loop {
                let seen = self.epoch();
                if let Some(r) = condition() {
                    assert!(
                        quiet != Some(seen),
                        "wait condition turned true with no notify_all on its Event \
                         since the failed check before it"
                    );
                    return Some(r);
                }
                if exec.now_ns() > deadline_ns {
                    return None;
                }
                let poll = Poll::every(seen, quantum_ns, deadline_ns);
                exec.sleep_polling(take_pending().saturating_add(quantum_ns), &self.epoch, poll);
                quiet = Some(seen);
            }
        }
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut seen = *self.ticket();
        let got = loop {
            fence(Ordering::SeqCst);
            if let Some(r) = condition() {
                break Some(r);
            }
            let now = now_ns();
            if now > deadline_ns {
                break None;
            }
            let mut ticket = self.ticket();
            if *ticket == seen {
                // No notify since `seen` was read, which was before the
                // check: park. The wait releases the lock atomically, so
                // a notify from here on finds us waiting.
                ticket = match deadline_ns {
                    u64::MAX => self.cv.wait(ticket).unwrap_or_else(PoisonError::into_inner),
                    _ => {
                        let left = Duration::from_nanos(deadline_ns - now);
                        let woke = self.cv.wait_timeout(ticket, left);
                        woke.unwrap_or_else(PoisonError::into_inner).0
                    }
                };
            }
            seen = *ticket;
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        got
    }
}

/// A counted ready/go gate: tasks [`Barrier::arrive`] once they are set
/// up and [`Barrier::wait`] for the go, a coordinator
/// [`Barrier::wait_arrived`] for them and [`Barrier::open`]s it.
///
/// Its waits poll on fixed grids under a virtual executor (5 µs for the
/// go, 10 µs for the arrivals), the `sleep_ns` loops of the hand-rolled
/// gates it replaced: a waiter leaves at the instant such a loop did,
/// so the timelines do not move, but sleeps parked on the barrier's
/// event in between.
#[derive(Debug, Default)]
pub struct Barrier {
    /// (tasks arrived, the instant the barrier opened).
    state: Mutex<(usize, Option<u64>)>,
    event: Event,
}

impl Barrier {
    const WAIT_POLL_NS: u64 = 5_000;
    const ARRIVED_POLL_NS: u64 = 10_000;

    /// A closed barrier nobody has arrived at.
    pub fn new() -> Barrier {
        Barrier::default()
    }

    fn state(&self) -> MutexGuard<'_, (usize, Option<u64>)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count the calling task in.
    pub fn arrive(&self) {
        self.state().0 += 1;
        self.event.notify_all();
    }

    /// Sleep until the barrier opens; the instant it opened.
    pub fn wait(&self) -> u64 {
        self.event
            .wait_until(u64::MAX, Self::WAIT_POLL_NS, || self.state().1)
            .expect("a wait with no deadline ends with its condition")
    }

    /// Sleep until `n` tasks have arrived.
    pub fn wait_arrived(&self, n: usize) {
        self.event.wait_until(u64::MAX, Self::ARRIVED_POLL_NS, || {
            (self.state().0 >= n).then_some(())
        });
    }

    /// Open the barrier now; the instant it opened.
    pub fn open(&self) -> u64 {
        let now = now_ns();
        self.state().1 = Some(now);
        self.event.notify_all();
        now
    }
}

/// Exit flag of one virtual task and the event its joiners sleep on.
#[derive(Debug, Default)]
pub struct TaskExit {
    finished: AtomicBool,
    event: Event,
    /// What the task's body died of, for its joiner.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl TaskExit {
    /// Publish that the task has deregistered. The executor calls this
    /// before it picks the next task to run, so joiners observe the
    /// exit at a deterministic virtual instant — and not under its own
    /// lock: the notify may hand it parked joiners
    /// ([`Executor::notified`]).
    pub fn signal(&self) {
        self.finished.store(true, Ordering::Release);
        self.event.notify_all();
    }

    /// [`TaskExit::signal`] for a task whose body (or step) panicked:
    /// [`TaskHandle::join`] hands `payload` to the joiner, as joining a
    /// panicked thread would.
    pub fn signal_panic(&self, payload: Box<dyn Any + Send>) {
        *self.panic.lock().unwrap_or_else(PoisonError::into_inner) = Some(payload);
        self.signal();
    }
}

/// Handle to a task spawned through the seam.
///
/// In threaded mode this is a plain `JoinHandle`. In virtual mode
/// [`TaskHandle::join`] first waits — in virtual time, yielding turns to
/// the joinee — for the task to deregister from the lab, then joins the
/// underlying OS thread, if the executor gave it one (which by then runs
/// no scheduled code). Joining a virtual task with a bare
/// `JoinHandle::join` would deadlock: the joiner holds the virtual core
/// the joinee needs to finish.
#[derive(Debug)]
pub struct TaskHandle {
    /// `None` for a task its executor runs without a thread of its own.
    inner: Option<std::thread::JoinHandle<()>>,
    /// `Some` for virtual tasks.
    exit: Option<Arc<TaskExit>>,
}

impl TaskHandle {
    /// Wrap a plain OS thread (threaded mode).
    pub fn threaded(inner: std::thread::JoinHandle<()>) -> TaskHandle {
        TaskHandle {
            inner: Some(inner),
            exit: None,
        }
    }

    /// Wrap a virtual task and its exit flag (virtual mode; called by
    /// executor implementations, which [`TaskExit::signal`] it).
    pub fn virtualized(inner: std::thread::JoinHandle<()>, exit: Arc<TaskExit>) -> TaskHandle {
        TaskHandle {
            inner: Some(inner),
            exit: Some(exit),
        }
    }

    /// The handle of a task that has no thread of its own: its executor
    /// runs it and [`TaskExit::signal`]s `exit` when it is over.
    pub fn inline(exit: Arc<TaskExit>) -> TaskHandle {
        TaskHandle {
            inner: None,
            exit: Some(exit),
        }
    }

    /// Wait for the task to finish.
    pub fn join(self) -> std::thread::Result<()> {
        if let Some(exit) = &self.exit {
            // Sleep in virtual time, on a 1 µs poll grid, so the joinee
            // keeps getting the core.
            exit.event.wait_until(u64::MAX, 1_000, || {
                exit.finished.load(Ordering::Acquire).then_some(())
            });
        }
        if let Some(thread) = self.inner {
            thread.join()?;
        }
        let panic = self.exit.and_then(|e| e.panic.lock().ok()?.take());
        panic.map_or(Ok(()), Err)
    }
}

/// Spawn a worker through the seam: a named OS thread in threaded mode,
/// a cooperative virtual task when the caller is one. Panics if the OS
/// refuses the thread (matching the `.expect` the direct call sites
/// used).
pub fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> TaskHandle {
    match current() {
        Some(e) => e.spawn_task(name.to_string(), Box::new(f)),
        None => TaskHandle::threaded(
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(f)
                .expect("spawn worker thread"),
        ),
    }
}

/// What one step of a [`spawn_stepper`] task asks for next.
#[derive(Debug)]
pub enum Next {
    /// The step did work: apply what it [`charge`]d (a [`flush_charge`]),
    /// snap the idle ladder back ([`AdaptiveBackoff::reset`]), step
    /// again.
    Again,
    /// The step found nothing to do: one idle round of the task's
    /// [`AdaptiveBackoff`] ladder on the event it was spawned with
    /// ([`AdaptiveBackoff::idle_on`]), then step again. That event ends
    /// every idling of the task: no stepper re-polls on a timer.
    Idle(IdleOn),
    /// The task is over; its state is dropped.
    Done,
}

/// The arguments of [`AdaptiveBackoff::idle_on`] on the stepper's event,
/// for [`Next::Idle`].
#[derive(Debug)]
pub struct IdleOn {
    /// [`Event::epoch`], read before the checks that found nothing.
    pub seen: u64,
    /// What every such empty step [`charge`]s, this one included.
    pub busy_ns: u64,
    /// Last instant at which a step still finds nothing (`u64::MAX` when
    /// it watches no clock).
    pub deadline_ns: u64,
}

/// A service loop given as its body: what [`spawn_stepper`] hands to
/// whoever drives it.
pub struct StepperTask {
    step: Box<dyn FnMut() -> Next + Send>,
    idler: AdaptiveBackoff,
    /// The event that announces everything the steps look at: every
    /// [`Next::Idle`] round sleeps on it.
    event: Arc<Event>,
    /// Epoch and deadline of the [`Next::Idle`] round being slept
    /// inline.
    asleep_on: Option<(u64, u64)>,
}

/// What an executor running a stepper inline schedules after
/// [`StepperTask::run_inline`].
#[derive(Debug)]
pub enum Resume {
    /// Run it again after `ns`, as after [`Executor::advance`].
    After(u64),
    /// Sleep `first_ns`, then the poll schedule on the stepper's event
    /// ([`StepperTask::epoch`]), as in [`Executor::sleep_polling`]; pass
    /// the polls slept through to the next `run_inline`.
    Polling(u64, Poll),
    /// The task is over and its state dropped.
    Done,
}

impl StepperTask {
    /// The stepper as a loop on a thread of its own — threaded mode, and
    /// an executor's [`Executor::spawn_stepper`] default: exactly the
    /// loop its body was cut from.
    pub fn drive(mut self) {
        loop {
            match (self.step)() {
                Next::Again => {
                    self.idler.reset();
                    flush_charge();
                }
                Next::Idle(on) => {
                    self.idler
                        .idle_on(&self.event, on.seen, on.busy_ns, on.deadline_ns)
                }
                Next::Done => return,
            }
        }
    }

    /// Run steps on the calling thread until one has to wait, and return
    /// the wait [`StepperTask::drive`] would have made through the seam
    /// at that point, for the executor to make itself; `Err` is the
    /// payload of a step that panicked. `slept` is what
    /// [`Executor::sleep_polling`] would have returned for the previous
    /// [`Resume::Polling`] (0 otherwise).
    ///
    /// The steps [`charge`] the stepper, whatever the calling task had
    /// pending: that is set aside and put back. A step must not reach a
    /// suspension point — the stack it runs on is somebody else's. A
    /// task that is over, or dead, drops its state before this returns,
    /// so that whatever the destructors do (charge, read the clock) is
    /// done outside the executor's locks and charged to nobody.
    pub fn run_inline(&mut self, slept: u64) -> std::thread::Result<Resume> {
        if let Some((seen, deadline_ns)) = self.asleep_on.take() {
            // A wake past the deadline may find work nobody announced.
            let quiet = self.event.epoch() == seen && now_ns() <= deadline_ns;
            self.idler.slept_through(slept, quiet);
        }
        struct Lender(u64);
        impl Drop for Lender {
            fn drop(&mut self) {
                PENDING_NS.with(|p| p.set(self.0));
            }
        }
        let _lender = Lender(take_pending());
        let outcome = catch_unwind(AssertUnwindSafe(|| self.steps_until_a_wait()));
        if !matches!(outcome, Ok(Resume::After(_) | Resume::Polling(..))) {
            self.step = Box::new(|| Next::Done);
        }
        outcome
    }

    /// The notify epoch of the event the stepper idles on, for the
    /// executor that sleeps its [`Resume::Polling`] rounds.
    pub fn epoch(&self) -> &Arc<Epoch> {
        &self.event.epoch
    }

    fn steps_until_a_wait(&mut self) -> Resume {
        loop {
            match (self.step)() {
                Next::Again => {
                    self.idler.reset();
                    let charged = take_pending();
                    if charged > 0 {
                        return Resume::After(charged);
                    }
                    // `flush_charge` with nothing pending does not yield.
                }
                Next::Idle(on) => {
                    let (first, poll) =
                        self.idler
                            .virtual_round_on(on.seen, on.busy_ns, on.deadline_ns);
                    self.asleep_on = Some((on.seen, on.deadline_ns));
                    return Resume::Polling(take_pending().saturating_add(first), poll);
                }
                Next::Done => return Resume::Done,
            }
        }
    }
}

/// Spawn a service loop through the seam, given as its body: `step`
/// runs one round and says what the loop does before the next
/// ([`Next`]); `idler` is the loop's idle ladder, and `event` announces
/// everything a step looks at, so every idle round sleeps on it.
/// Whatever `step` owns is the task's state.
///
/// In threaded mode, and under an executor that does nothing special,
/// this is [`spawn`] of `loop { step }` ([`StepperTask::drive`]): the
/// task blocks, spins, yields and parks as the loop always did. An
/// executor that owns the scheduling loop (`flock_sim::vtime::VirtualLab`)
/// gives the task no thread and no stack: it calls `step` itself
/// whenever the task is due, on the stack of whichever task is
/// suspending. For that a step obeys one more house rule: **a step
/// never waits** — no [`yield_now`], [`sleep_ns`],
/// [`Event::wait_until`] or join; it returns [`Next::Idle`] instead.
pub fn spawn_stepper(
    name: &str,
    idler: AdaptiveBackoff,
    event: Arc<Event>,
    step: impl FnMut() -> Next + Send + 'static,
) -> TaskHandle {
    let task = StepperTask {
        step: Box::new(step),
        idler,
        event,
        asleep_on: None,
    };
    match current() {
        Some(e) => e.spawn_stepper(name.to_string(), task),
        None => spawn(name, move || task.drive()),
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn threaded_mode_is_the_default() {
        assert!(!is_virtual());
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        charge(1_000_000); // must be a no-op
        flush_charge();
        yield_now();
        let d = deadline(Duration::from_secs(3600));
        assert!(!expired(d));
    }

    #[test]
    fn event_notify_between_poll_and_park_is_not_lost() {
        // Force the racy interleaving from inside `poll`: the first
        // poll fails, and before it returns the state flips and the
        // notify lands — exactly the window a lost wake-up needs. With
        // an hour-long deadline, losing it would hang the test.
        let ev = Event::new();
        let mut ready = false;
        let mut polls = 0;
        let started = Instant::now();
        let got = ev.wait_until(deadline(Duration::from_secs(3600)), 500, || {
            polls += 1;
            if ready {
                return Some(polls);
            }
            ready = true;
            ev.notify_all();
            None
        });
        assert_eq!(got, Some(2));
        assert!(started.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn event_wakes_a_waiter_on_another_thread() {
        let shared = Arc::new((Event::new(), Mutex::new(None)));
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (ev, slot) = &*shared;
                ev.wait_until(deadline(Duration::from_secs(3600)), 500, || {
                    slot.lock().unwrap().take()
                })
            })
        };
        // Whichever side gets there first, the value must arrive: either
        // the waiter's poll sees it, or the notify finds the waiter.
        let (ev, slot) = &*shared;
        *slot.lock().unwrap() = Some(7);
        ev.notify_all();
        assert_eq!(waiter.join().unwrap(), Some(7));
    }

    #[test]
    fn event_deadline_yields_none_within_a_bound() {
        let ev = Event::new();
        let started = Instant::now();
        let got: Option<()> = ev.wait_until(deadline(Duration::from_millis(20)), 500, || None);
        assert_eq!(got, None);
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(20), "{waited:?}");
        assert!(waited < Duration::from_secs(5), "{waited:?}");
    }

    #[test]
    fn threaded_spawn_and_join() {
        let h = spawn("clock-test", || {});
        assert!(h.join().is_ok());
    }

    #[test]
    fn a_threaded_wait_with_no_deadline_parks_until_notified() {
        // (ready, checks made)
        let shared = Arc::new((Event::new(), Mutex::new((false, 0))));
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (ev, state) = &*shared;
                ev.wait_until(u64::MAX, 500, || {
                    let mut state = state.lock().unwrap();
                    state.1 += 1;
                    state.0.then_some(())
                })
            })
        };
        let (ev, state) = &*shared;
        std::thread::sleep(Duration::from_millis(50));
        // Parked: nothing re-checks without a notify (bar a spurious
        // condvar wake-up).
        assert!(state.lock().unwrap().1 <= 2);
        state.lock().unwrap().0 = true;
        ev.notify_all();
        assert_eq!(waiter.join().unwrap(), Some(()));
    }

    #[test]
    fn a_threaded_stepper_idles_on_its_event_until_notified() {
        let event = Arc::new(Event::new());
        // (steps run, stop)
        let state = Arc::new(Mutex::new((0, false)));
        let task = {
            let (event, state) = (Arc::clone(&event), Arc::clone(&state));
            let bell = Arc::clone(&event);
            spawn_stepper("idle-on", AdaptiveBackoff::new(), bell, move || {
                let seen = event.epoch();
                let mut state = state.lock().unwrap();
                state.0 += 1;
                if state.1 {
                    return Next::Done;
                }
                Next::Idle(IdleOn {
                    seen,
                    busy_ns: 0,
                    deadline_ns: u64::MAX,
                })
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        // The spin and yield rounds, then one step that blocks.
        let ladder = AdaptiveBackoff::SPIN_LIMIT + AdaptiveBackoff::YIELD_LIMIT;
        let idle = state.lock().unwrap().0;
        assert!(idle <= ladder + 1, "{idle} steps in 50 ms with no notify");
        event.notify_all();
        let woken = Instant::now();
        while state.lock().unwrap().0 == idle {
            assert!(
                woken.elapsed() < Duration::from_secs(1),
                "notify did not wake the stepper"
            );
            std::thread::yield_now();
        }
        state.lock().unwrap().1 = true;
        event.notify_all();
        task.join().unwrap();
    }

    #[test]
    fn a_threaded_barrier_opens_for_every_waiter() {
        const N: usize = 4;
        let gate = Arc::new(Barrier::new());
        let waiters: Vec<_> = (0..N)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.arrive();
                    gate.wait()
                })
            })
            .collect();
        gate.wait_arrived(N);
        let opened = gate.open();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), opened);
        }
    }

    #[test]
    fn threaded_idlers_racing_their_notifiers_lose_no_wake_up() {
        const ROUNDS: u64 = 100_000;
        // Two sides pass the turn back and forth; each idles on its own
        // event until the other hands it the turn, with a ladder that is
        // never reset, so every round past the spin and yield tiers
        // blocks. A lost wake-up stalls both sides.
        let court = Arc::new((AtomicU64::new(0), [Event::new(), Event::new()]));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut sides = Vec::new();
        for side in 0..2 {
            let (court, done) = (Arc::clone(&court), done_tx.clone());
            sides.push(std::thread::spawn(move || {
                let (turn, events) = &*court;
                let mut idler = AdaptiveBackoff::new();
                loop {
                    let seen = events[side].epoch();
                    let now = turn.load(Ordering::Acquire);
                    if now >= ROUNDS {
                        break;
                    }
                    if now % 2 == side as u64 {
                        turn.store(now + 1, Ordering::Release);
                        events[1 - side].notify_all();
                    } else {
                        idler.idle_on(&events[side], seen, 0, u64::MAX);
                    }
                }
                done.send(()).unwrap();
            }));
        }
        // The watchdog: a stalled side would never send, and joining it
        // would hang the test instead of failing it.
        for _ in 0..2 {
            if done_rx.recv_timeout(Duration::from_secs(60)).is_err() {
                panic!(
                    "a wake-up was lost at turn {}",
                    court.0.load(Ordering::SeqCst)
                );
            }
        }
        for side in sides {
            side.join().unwrap();
        }
    }
}
