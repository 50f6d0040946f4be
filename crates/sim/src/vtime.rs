//! Virtual-time execution of *real* threaded code.
//!
//! [`VirtualLab`] implements the [`flock_sync::clock::Executor`] seam:
//! it runs ordinary multi-threaded code — the actual server dispatch
//! loops, NIC engine lanes, and client threads from `flock-core` /
//! `flock-fabric` — as **cooperatively scheduled virtual cores** under a
//! deterministic virtual clock.
//!
//! ## How it works
//!
//! Every task spawned through `clock::spawn` gets its own OS thread, but
//! the lab guarantees that **exactly one task executes at any wall
//! instant**. All other tasks are parked on per-task condvars. A task
//! runs until it yields through the seam (`yield_now`, `sleep_ns`, an
//! [`flock_sync::AdaptiveBackoff::idle`] round, a [`flock_sync::backoff`]
//! spin, …). The yield:
//!
//! 1. pushes the task back onto a binary heap keyed by
//!    `(wake_time, sequence)` — wake time is `now + charged cost`,
//!    clamped to strictly advance;
//! 2. pops the earliest entry, advances the virtual clock to its wake
//!    time, and hands it the core (waking its parked thread);
//! 3. parks itself until its own entry is popped.
//!
//! A task blocked in [`flock_sync::clock::Event::wait_until`] or idling
//! through [`flock_sync::AdaptiveBackoff::idle_on`] sleeps on a poll
//! schedule and names the event that can end the wait
//! ([`Executor::sleep_polling`]). When step 2 pops such a task while
//! its event is still un-notified and its deadline has not passed, the
//! poll it would run is known to fail, so the lab makes the push that
//! poll's `sleep_ns` would have made — same wake time (the poll's own
//! declared charge, [`Poll::busy_ns`], plus its next period), next
//! sequence number — and pops again, without waking the thread. The
//! heap sees the pushes a task polling every round makes, in the same
//! order, so virtual time, every tie-break and every result are the
//! same; only the host cost of an idle task changes (one heap operation
//! per poll instead of a futex wake and a context switch). [`LabReport`]
//! counts the two apart: `handovers` and `elided_polls`.
//!
//! Because execution is serialized and wake-ups follow a total
//! `(time, sequence)` order, the interleaving — and therefore every
//! counter, histogram, and byte of benchmark output — is a pure function
//! of the program and its seeds. The scheme is the cooperative-task twin
//! of the event-closure engine in [`crate::engine`]: same heap
//! discipline, but the "events" are suspension points of real code
//! instead of boxed closures, so the production hot path runs unmodified
//! with any simulated degree of parallelism on a single host CPU.
//!
//! ## Rules for code running under the lab
//!
//! * Never block on an OS primitive (channel `recv`, condvar wait, bare
//!   `thread::sleep`) — the core would never be handed over and the lab
//!   deadlocks. Blocking sites wait through the seam:
//!   [`flock_sync::clock::Event::wait_until`] for a condition the
//!   caller owns, `flock_fabric::recv_until` for a channel. Both sleep
//!   in the lab's heap here and park on real threads, so the
//!   fabric/core crates contain one loop per wait, not two.
//! * Follow every state change a waiter's condition looks for with
//!   `notify_all` on the event it sleeps on, before the next yield. The
//!   lab does not run polls of un-notified events, so a missed notify
//!   delays the waiter to its deadline; `run_report_reference` runs
//!   every poll and panics at the first one that finds such a change.
//! * Never yield while holding a lock another task can contend (the
//!   holder parks; the contender then spins forever as the only runnable
//!   task). All converted sites drop locks before yielding, as the
//!   threaded code already did.
//! * Join tasks through [`flock_sync::clock::TaskHandle::join`], which
//!   sleeps in virtual time, never via a bare `JoinHandle`.
//!
//! A spawned task that panics fails the run instead of hanging it: the
//! lab records `lab task '<name>' panicked: <message>`, frees the core,
//! stops eliding, and unwinds every task with that message at its next
//! suspension point — the root by a `panic!` out of
//! [`VirtualLab::run`].

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use flock_sync::clock::{self, Executor, Poll, TaskExit, TaskHandle};

/// Virtual cost of one bare yield, and the minimum advance of any
/// suspension: no task can occupy the core for zero virtual time, so
/// same-instant yield livelocks (producer spinning on a consumer
/// scheduled later) are impossible by construction.
pub const YIELD_COST_NS: u64 = 50;

/// In place of an elided-poll count: the run has failed (see
/// `LabState::failed`) and the resumed task is to unwind.
const FAILED: u64 = u64::MAX;

/// Go-flag parker for one task's OS thread.
///
/// Stateful on purpose: a wake that races ahead of the park (the core is
/// handed to a task whose thread has not reached `park` yet, e.g. right
/// after spawn) is remembered by the flag. The flag carries the number
/// of polls the lab elided during the sleep that just ended.
struct TaskSlot {
    run: Mutex<Option<u64>>,
    cv: Condvar,
}

impl TaskSlot {
    fn new() -> TaskSlot {
        TaskSlot {
            run: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn park(&self) -> u64 {
        let mut go = self.run.lock().expect("task slot poisoned");
        loop {
            if let Some(elided) = go.take() {
                return elided;
            }
            go = self.cv.wait(go).expect("task slot poisoned");
        }
    }

    fn wake(&self, elided: u64) {
        *self.run.lock().expect("task slot poisoned") = Some(elided);
        self.cv.notify_one();
    }
}

struct LabState {
    now: u64,
    seq: u64,
    /// `Reverse((wake_ns, seq, task_id))`: min-heap on (time, sequence).
    /// Invariant: every live task except `current` has exactly one entry.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Slot per task id; `None` = id free (on `free_ids`).
    slots: Vec<Option<Arc<TaskSlot>>>,
    /// Per task id, parallel to `slots`: while the task is asleep in
    /// [`Executor::sleep_polling`], its schedule and the polls elided so
    /// far.
    polling: Vec<Option<(Poll, u64)>>,
    free_ids: Vec<usize>,
    /// The task currently holding the core.
    current: usize,
    /// Registered tasks, including the root.
    live: usize,
    handovers: u64,
    elided_polls: u64,
    tasks_spawned: u64,
    /// Run every poll on its task (see `run_report_reference`).
    reference: bool,
    /// The first panic of a spawned task, as `lab task '<name>' panicked:
    /// <message>`. From then on the run only unwinds: no poll is elided
    /// and every task panics with this at its next suspension point.
    failed: Option<String>,
}

impl LabState {
    fn push(&mut self, wake_ns: u64, id: usize) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((wake_ns, seq, id)));
    }

    /// Advance the clock to the earliest entry whose task has something
    /// to do and make that task current. Returns its id and the polls
    /// elided during the sleep this ends.
    fn pop_runnable(&mut self) -> (usize, u64) {
        loop {
            let Reverse((t, _, id)) = self
                .heap
                .pop()
                .expect("virtual-time deadlock: no runnable task");
            self.now = self.now.max(t);
            if let Some((p, elided)) = &mut self.polling[id] {
                if !self.reference
                    && self.failed.is_none()
                    && self.now <= p.deadline_ns
                    && p.epoch.load(Ordering::Relaxed) == p.seen
                {
                    // The task would check, fail, and sleep its next
                    // period on top of what the check charged: make
                    // that push for it.
                    let wake = self
                        .now
                        .saturating_add(p.busy_ns.saturating_add(p.period_ns).max(1));
                    p.period_ns = p.period_ns.saturating_mul(2).min(p.cap_ns);
                    *elided += 1;
                    self.elided_polls += 1;
                    self.push(wake, id);
                    continue;
                }
            }
            self.current = id;
            self.handovers += 1;
            let elided = self.polling[id].take().map_or(0, |(_, elided)| elided);
            // A failed run says so to the task it resumes: a run that
            // does not fail pays nothing for the check.
            let failed = self.failed.is_some();
            return (id, if failed { FAILED } else { elided });
        }
    }

    fn slot(&self, id: usize) -> Arc<TaskSlot> {
        self.slots[id].clone().expect("live task has no slot")
    }
}

/// Fail fast: once a spawned task has panicked, end the calling task too
/// (unless it is already unwinding — destructors still join their tasks
/// cooperatively). The root panics with the recorded message; the other
/// tasks unwind with it silently, the first report having been printed.
fn raise_if_failed(st: MutexGuard<'_, LabState>) -> MutexGuard<'_, LabState> {
    if std::thread::panicking() {
        return st;
    }
    let Some(failed) = st.failed.clone() else {
        return st;
    };
    let root = st.current == 0;
    // Never unwind through the lab lock: every task still needs it.
    drop(st);
    if root {
        panic!("{failed}");
    }
    resume_unwind(Box::new(failed))
}

struct LabInner {
    state: Mutex<LabState>,
}

/// Deterministic virtual-time executor; see the module docs.
///
/// Cheap to clone (shared interior). Install into a run with
/// [`VirtualLab::run`].
#[derive(Clone)]
pub struct VirtualLab {
    inner: Arc<LabInner>,
}

/// Summary of a completed [`VirtualLab::run_report`].
#[derive(Debug, Clone, Copy)]
pub struct LabReport {
    /// Final virtual clock value.
    pub virtual_ns: u64,
    /// Times the lab gave the core to a task: one per suspension point
    /// a task actually returned from, the first schedule of a spawned
    /// task included. What the run cost the host.
    pub handovers: u64,
    /// Polls of un-notified events the lab re-armed without waking the
    /// task. `handovers + elided_polls` is the number of suspension
    /// points of a run in which tasks execute every poll themselves.
    pub elided_polls: u64,
    /// Tasks spawned over the run (excluding the root).
    pub tasks_spawned: u64,
}

impl VirtualLab {
    fn new(reference: bool) -> VirtualLab {
        VirtualLab {
            inner: Arc::new(LabInner {
                state: Mutex::new(LabState {
                    now: 0,
                    seq: 0,
                    heap: BinaryHeap::new(),
                    slots: Vec::new(),
                    polling: Vec::new(),
                    free_ids: Vec::new(),
                    current: 0,
                    live: 0,
                    handovers: 0,
                    elided_polls: 0,
                    tasks_spawned: 0,
                    reference,
                    failed: None,
                }),
            }),
        }
    }

    /// Run `f` as the root task of a fresh lab and return its result.
    ///
    /// `f` executes on the calling thread with the lab installed as its
    /// executor; everything it spawns through `clock::spawn` becomes a
    /// virtual task. `f` must join all tasks it spawned before
    /// returning (the production shutdown paths already do), otherwise
    /// this panics — a leaked virtual task would block on a core that no
    /// longer exists.
    pub fn run<R>(f: impl FnOnce() -> R) -> R {
        Self::run_report(f).0
    }

    /// Like [`VirtualLab::run`], but also return run statistics.
    pub fn run_report<R>(f: impl FnOnce() -> R) -> (R, LabReport) {
        Self::run_lab(VirtualLab::new(false), f)
    }

    /// The reference the elision is tested against, for tests only:
    /// every poll runs on its task, as if [`Executor::sleep_polling`]
    /// were a plain sleep. Same virtual timeline and results as
    /// [`VirtualLab::run_report`], `elided_polls == 0`, and `handovers`
    /// equal to the other's `handovers + elided_polls`. Because every
    /// poll is executed, the missed-notify panics of
    /// [`clock::Event::wait_until`] and
    /// [`flock_sync::AdaptiveBackoff::reset`] fire at the first poll
    /// that finds a change nobody announced.
    #[doc(hidden)]
    pub fn run_report_reference<R>(f: impl FnOnce() -> R) -> (R, LabReport) {
        Self::run_lab(VirtualLab::new(true), f)
    }

    /// Run `f` under the reference and under the lab, assert that the
    /// two agree — same result, same final clock, every elided poll one
    /// of the reference's handovers — and return the lab's run.
    #[doc(hidden)]
    pub fn run_against_reference<R>(f: impl Fn() -> R) -> (R, LabReport)
    where
        R: PartialEq + std::fmt::Debug,
    {
        let (want, reference) = Self::run_report_reference(&f);
        let (got, report) = Self::run_report(&f);
        assert_eq!(got, want, "result differs from the reference run's");
        assert_eq!(report.virtual_ns, reference.virtual_ns);
        assert_eq!(reference.elided_polls, 0);
        assert_eq!(reference.handovers, report.handovers + report.elided_polls);
        (got, report)
    }

    fn run_lab<R>(lab: VirtualLab, f: impl FnOnce() -> R) -> (R, LabReport) {
        {
            let mut st = lab.inner.state.lock().expect("lab poisoned");
            st.slots.push(Some(Arc::new(TaskSlot::new())));
            st.polling.push(None);
            st.live = 1;
            st.current = 0;
        }
        let guard = clock::install(Arc::new(lab.clone()));
        let result = f();
        drop(guard);
        let st = raise_if_failed(lab.inner.state.lock().expect("lab poisoned"));
        assert_eq!(
            st.live, 1,
            "VirtualLab::run returned with {} spawned task(s) still live; join all tasks before returning",
            st.live - 1
        );
        let report = LabReport {
            virtual_ns: st.now,
            handovers: st.handovers,
            elided_polls: st.elided_polls,
            tasks_spawned: st.tasks_spawned,
        };
        (result, report)
    }

    /// Record the first panic of a spawned task; see `LabState::failed`.
    fn record_failure(&self, name: &str, payload: &(dyn Any + Send)) {
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(payload is not a string)");
        let mut st = self.inner.state.lock().expect("lab poisoned");
        st.failed
            .get_or_insert_with(|| format!("lab task '{name}' panicked: {what}"));
    }

    /// Deregister the calling (current) task and hand the core to the
    /// next scheduled one. Called by the spawn wrapper after the task
    /// body returns; `exit` is signalled under the lab lock, before the
    /// next task is chosen, so a joiner whose poll is due now runs it.
    fn exit_current(&self, exit: &TaskExit) {
        let next = {
            let mut st = self.inner.state.lock().expect("lab poisoned");
            let me = st.current;
            st.slots[me] = None;
            st.free_ids.push(me);
            st.live -= 1;
            exit.signal();
            (st.live > 0).then(|| {
                let (id, elided) = st.pop_runnable();
                (st.slot(id), elided)
            })
        };
        if let Some((slot, elided)) = next {
            slot.wake(elided);
        }
    }

    /// Suspend the current task for `ns`; with `polling`, until the
    /// first poll from then on that the task has to run itself. Returns
    /// the polls elided in between.
    fn suspend(&self, ns: u64, polling: Option<Poll>) -> u64 {
        // Strictly positive advance: see YIELD_COST_NS.
        let ns = ns.max(1);
        let (next, elided, mine) = {
            let mut st = raise_if_failed(self.inner.state.lock().expect("lab poisoned"));
            let me = st.current;
            st.polling[me] = polling.map(|p| (p, 0));
            let wake = st.now.saturating_add(ns);
            st.push(wake, me);
            let (id, elided) = st.pop_runnable();
            if id == me {
                // Fast path: we are still the earliest task; keep the core.
                drop(st);
                return self.resumed(elided);
            }
            (st.slot(id), elided, st.slot(me))
        };
        next.wake(elided);
        self.resumed(mine.park())
    }

    /// Back on the core after a suspension that elided `elided` polls.
    fn resumed(&self, elided: u64) -> u64 {
        if elided == FAILED {
            drop(raise_if_failed(
                self.inner.state.lock().expect("lab poisoned"),
            ));
            return 0; // already unwinding
        }
        elided
    }
}

impl Executor for VirtualLab {
    fn now_ns(&self) -> u64 {
        self.inner.state.lock().expect("lab poisoned").now
    }

    fn advance(&self, ns: u64) {
        self.suspend(ns, None);
    }

    fn sleep_polling(&self, first_ns: u64, poll: Poll) -> u64 {
        self.suspend(first_ns, Some(poll))
    }

    fn spawn_task(&self, name: String, f: Box<dyn FnOnce() + Send>) -> TaskHandle {
        let slot = Arc::new(TaskSlot::new());
        {
            let mut st = self.inner.state.lock().expect("lab poisoned");
            let id = match st.free_ids.pop() {
                Some(id) => id,
                None => {
                    st.slots.push(None);
                    st.polling.push(None);
                    st.slots.len() - 1
                }
            };
            st.slots[id] = Some(slot.clone());
            st.live += 1;
            st.tasks_spawned += 1;
            // First wake-up at the current instant, in spawn order; the
            // spawner keeps the core until its own next yield.
            let now = st.now;
            st.push(now, id);
        }
        let lab = self.clone();
        let exit = Arc::new(TaskExit::default());
        let fin = exit.clone();
        let task = name.clone();
        let thread = std::thread::Builder::new()
            .name(name)
            // Virtual tasks number in the hundreds at paper scale; keep
            // their address-space reservation small.
            .stack_size(512 * 1024)
            .spawn(move || {
                let _guard = clock::install(Arc::new(lab.clone()));
                slot.park(); // wait to be scheduled for the first time
                let outcome = catch_unwind(AssertUnwindSafe(f));
                if let Err(payload) = &outcome {
                    lab.record_failure(&task, payload.as_ref());
                }
                // Release the core whatever happened: a task that died
                // holding it would leave every other task parked.
                lab.exit_current(&fin);
                if let Err(payload) = outcome {
                    resume_unwind(payload); // `TaskHandle::join` reports it
                }
            })
            .expect("spawn virtual task thread");
        TaskHandle::virtualized(thread, exit)
    }

    fn yield_cost_ns(&self) -> u64 {
        YIELD_COST_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn clock_starts_at_zero_and_sleep_advances() {
        let report = VirtualLab::run_report(|| {
            assert!(clock::is_virtual());
            assert_eq!(clock::now_ns(), 0);
            clock::sleep_ns(1_000);
            assert_eq!(clock::now_ns(), 1_000);
            clock::yield_now();
            assert_eq!(clock::now_ns(), 1_000 + YIELD_COST_NS);
        })
        .1;
        assert_eq!(report.virtual_ns, 1_000 + YIELD_COST_NS);
        assert_eq!(report.tasks_spawned, 0);
    }

    #[test]
    fn charge_applies_at_next_yield() {
        VirtualLab::run(|| {
            clock::charge(300);
            clock::charge(200);
            assert_eq!(clock::now_ns(), 0); // not yet applied
            clock::flush_charge();
            assert_eq!(clock::now_ns(), 500);
            clock::flush_charge(); // nothing pending: no advance
            assert_eq!(clock::now_ns(), 500);
        });
    }

    #[test]
    fn tasks_interleave_in_virtual_time_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        VirtualLab::run({
            let order = order.clone();
            move || {
                let mk = |tag: &'static str,
                          period: u64,
                          order: Arc<Mutex<Vec<(u64, &'static str)>>>| {
                    clock::spawn(tag, move || {
                        for _ in 0..3 {
                            clock::sleep_ns(period);
                            order.lock().unwrap().push((clock::now_ns(), tag));
                        }
                    })
                };
                let a = mk("a", 100, order.clone());
                let b = mk("b", 70, order.clone());
                a.join().unwrap();
                b.join().unwrap();
            }
        });
        let got = order.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                (70, "b"),
                (100, "a"),
                (140, "b"),
                (200, "a"),
                (210, "b"),
                (300, "a"),
            ]
        );
    }

    #[test]
    fn runs_are_deterministic() {
        fn run_once() -> (Vec<u64>, u64) {
            let log = Arc::new(Mutex::new(Vec::new()));
            let counter = Arc::new(AtomicU64::new(0));
            let report = VirtualLab::run_report({
                let log = log.clone();
                move || {
                    let handles: Vec<_> = (0..8)
                        .map(|i| {
                            let log = log.clone();
                            let counter = counter.clone();
                            clock::spawn(&format!("w{i}"), move || {
                                for _ in 0..20 {
                                    clock::sleep_ns(37 + i * 13);
                                    let v = counter.fetch_add(1, Ordering::Relaxed);
                                    log.lock().unwrap().push(v * 1_000_000 + clock::now_ns());
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                }
            })
            .1;
            let log = log.lock().unwrap().clone();
            (log, report.handovers)
        }
        let (log1, h1) = run_once();
        let (log2, h2) = run_once();
        assert_eq!(log1, log2);
        assert_eq!(h1, h2);
    }

    /// One waiter on a 500 ns quantum; the state flips at 1 234 ns. A
    /// second wait has nothing to wait for and a 1 234 ns deadline.
    /// Returns `(woke_ns, timed_out_ns, handovers)`.
    fn event_scenario() -> (u64, u64, u64) {
        let (times, report) = VirtualLab::run_report(|| {
            let shared = Arc::new((clock::Event::new(), AtomicBool::new(false)));
            let waiter = {
                let shared = shared.clone();
                let woke = Arc::new(AtomicU64::new(0));
                let w = woke.clone();
                let h = clock::spawn("waiter", move || {
                    let (ev, flag) = &*shared;
                    let got =
                        ev.wait_until(u64::MAX, 500, || flag.load(Ordering::Relaxed).then_some(()));
                    assert_eq!(got, Some(()));
                    w.store(clock::now_ns(), Ordering::Relaxed);
                });
                (h, woke)
            };
            clock::sleep_ns(1_234);
            shared.1.store(true, Ordering::Relaxed);
            shared.0.notify_all();
            waiter.0.join().unwrap();
            let woke = waiter.1.load(Ordering::Relaxed);

            let t0 = clock::now_ns();
            let never: Option<()> = shared.0.wait_until(t0 + 1_234, 500, || None);
            assert_eq!(never, None);
            (woke, clock::now_ns() - t0)
        });
        (times.0, times.1, report.handovers)
    }

    #[test]
    fn event_waiter_sees_notify_at_next_quantum_boundary() {
        let (woke, _, _) = event_scenario();
        // Polls at 0, 500, 1000 miss the flip at 1234; 1500 sees it.
        assert_eq!(woke, 1_500);
    }

    #[test]
    fn event_deadline_fires_within_one_quantum() {
        let (_, timed_out, _) = event_scenario();
        assert!(timed_out > 1_234 && timed_out <= 1_234 + 500, "{timed_out}");
    }

    #[test]
    fn event_waits_are_deterministic() {
        assert_eq!(event_scenario(), event_scenario());
    }

    #[test]
    fn spawned_task_starts_at_spawn_instant() {
        VirtualLab::run(|| {
            clock::sleep_ns(500);
            let started = Arc::new(AtomicU64::new(u64::MAX));
            let s = started.clone();
            let h = clock::spawn("child", move || {
                s.store(clock::now_ns(), Ordering::Relaxed);
            });
            h.join().unwrap();
            // The child's first schedule is at the spawn instant (the
            // joiner's poll sleeps past it, but the child ran at 500).
            assert_eq!(started.load(Ordering::Relaxed), 500);
        });
    }

    /// A flag one task sets and another waits for. The lab's handovers
    /// order the accesses; the atomic only makes the sharing legal.
    #[derive(Default)]
    struct Flag(AtomicBool);

    impl Flag {
        fn set(&self) {
            self.0.store(true, Ordering::Relaxed);
        }

        fn is_set(&self) -> Option<()> {
            self.0.load(Ordering::Relaxed).then_some(())
        }
    }

    #[test]
    fn idle_waiter_costs_one_heap_operation_per_poll() {
        let ((), report) = VirtualLab::run_against_reference(|| {
            let shared = Arc::new((clock::Event::new(), Flag::default()));
            let notifier = {
                let shared = shared.clone();
                clock::spawn("notifier", move || {
                    clock::sleep_ns(1_000_000);
                    shared.1.set();
                    shared.0.notify_all();
                })
            };
            let (ev, flag) = &*shared;
            ev.wait_until(u64::MAX, 500, || flag.is_set());
            assert_eq!(clock::now_ns(), 1_000_000);
            notifier.join().unwrap();
        });
        // The notifier's first schedule, its wake-up after the sleep,
        // and the waiter's one poll that follows the notify; the polls
        // at 500, 1 000, …, 999 500 ns never reach the waiter's thread.
        assert_eq!(report.handovers, 3);
        assert_eq!(report.elided_polls, 1_999);
    }

    /// A poll loop idling on the NIC lane's ladder (2 µs cap, so it
    /// polls at 250, 750, 1 750, 3 750, 5 750 … ns) whose doorbell rings
    /// at `ring_ns`; every empty poll charges `busy_ns` on top. Returns
    /// when it saw the ring, and where one more plain idle round took it
    /// from there.
    fn doorbell_scenario(ring_ns: u64, busy_ns: u64) -> (u64, u64) {
        VirtualLab::run_against_reference(|| {
            let shared = Arc::new((clock::Event::new(), Flag::default()));
            let times = Arc::new(Mutex::new((0, 0)));
            let lane = {
                let (shared, times) = (shared.clone(), times.clone());
                clock::spawn("lane", move || {
                    let (bell, rung) = &*shared;
                    let mut idler =
                        flock_sync::AdaptiveBackoff::new(std::time::Duration::from_micros(2))
                            .with_virtual_cap(2_000);
                    loop {
                        let seen = bell.epoch();
                        if rung.is_set().is_some() {
                            break;
                        }
                        clock::charge(busy_ns);
                        idler.idle_on(bell, seen, busy_ns, u64::MAX);
                    }
                    let saw = clock::now_ns();
                    idler.idle();
                    *times.lock().unwrap() = (saw, clock::now_ns());
                })
            };
            clock::sleep_ns(ring_ns);
            shared.1.set();
            shared.0.notify_all();
            lane.join().unwrap();
            let times = *times.lock().unwrap();
            times
        })
        .0
    }

    #[test]
    fn idle_on_wakes_at_the_ladder_instant_after_the_notify() {
        // The rounds slept through advance the ladder: the next idle
        // round sleeps what a lane that polled every round would.
        assert_eq!(doorbell_scenario(100, 0), (250, 750));
        assert_eq!(doorbell_scenario(1_234, 0), (1_750, 3_750));
        assert_eq!(doorbell_scenario(1_751, 0), (3_750, 5_750));
        assert_eq!(doorbell_scenario(4_000, 0), (5_750, 7_750));
    }

    #[test]
    fn re_armed_poll_charges_the_empty_check_and_doubles_the_period() {
        // 100 ns per empty poll: polls at 350 (100 + 250), 950 (+ 100 +
        // 500), 2 050 (+ 100 + 1 000), 4 150, 6 250 (+ 100 + 2 000) ns,
        // run by the task or re-armed by the lab alike.
        assert_eq!(doorbell_scenario(100, 100), (350, 850));
        assert_eq!(doorbell_scenario(351, 100), (950, 1_950));
        assert_eq!(doorbell_scenario(1_234, 100), (2_050, 4_050));
        assert_eq!(doorbell_scenario(2_051, 100), (4_150, 6_150));
        assert_eq!(doorbell_scenario(6_000, 100), (6_250, 8_250));
    }

    #[test]
    fn a_panicking_task_fails_the_run_at_once() {
        // The child dies while the root waits on it (and a bystander
        // sleeps on an event nobody will ever notify): the run must end
        // with the child's name and message, not hang.
        let started = std::time::Instant::now();
        let failure = std::panic::catch_unwind(|| {
            VirtualLab::run(|| {
                let never = Arc::new(clock::Event::new());
                let bystander = {
                    let never = never.clone();
                    clock::spawn("bystander", move || {
                        never.wait_until(u64::MAX, 500, || None::<()>);
                    })
                };
                let doomed = clock::spawn("doomed", || {
                    clock::sleep_ns(1_000);
                    panic!("boom at {} ns", clock::now_ns());
                });
                let _ = doomed.join();
                let _ = bystander.join();
            })
        })
        .expect_err("the child's panic must fail the run");
        let message = failure
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert_eq!(message, "lab task 'doomed' panicked: boom at 1000 ns");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "no notify_all")]
    fn reference_run_panics_on_a_missed_notify() {
        VirtualLab::run_report_reference(|| {
            let shared = Arc::new((clock::Event::new(), Flag::default()));
            let s = shared.clone();
            // Sets the flag the root waits for and tells nobody.
            let _ = clock::spawn("setter", move || {
                clock::sleep_ns(1_234);
                s.1.set();
            });
            let (ev, flag) = &*shared;
            ev.wait_until(u64::MAX, 500, || flag.is_set());
        });
    }

    #[test]
    fn backoff_and_adaptive_backoff_advance_virtual_time() {
        VirtualLab::run(|| {
            let t0 = clock::now_ns();
            flock_sync::backoff(0);
            assert!(clock::now_ns() > t0);
            let mut b = flock_sync::AdaptiveBackoff::new(std::time::Duration::from_micros(5));
            let t1 = clock::now_ns();
            for _ in 0..32 {
                b.idle();
            }
            // Escalates to the cap without wall-clock sleeping.
            assert!(clock::now_ns() - t1 >= 5_000);
        });
    }

    #[test]
    #[should_panic(expected = "still live")]
    fn leaked_task_panics_at_run_end() {
        VirtualLab::run(|| {
            // Spawn a task that idles forever, and leak its handle.
            std::mem::forget(clock::spawn("leak", || loop {
                clock::sleep_ns(1_000_000);
            }));
            clock::sleep_ns(10_000);
        });
    }
}
