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
//! Every task spawned through `clock::spawn` gets a stack of its own
//! (512 KiB; the service loops do not, see "Steppers" below), and the
//! lab guarantees that **exactly one task executes at any wall
//! instant**: all of them run on the OS thread that called
//! [`VirtualLab::run`], each suspended on its stack but one (see
//! "Stacks" below). A task runs until it yields through the seam
//! (`yield_now`, `sleep_ns`, an [`flock_sync::AdaptiveBackoff::idle_on`]
//! round, a [`flock_sync::backoff`] spin, …). The yield:
//!
//! 1. pushes the task back onto a binary heap keyed by its wake time —
//!    `now + charged cost`, clamped to strictly advance — and, among the
//!    entries due at one instant, by *order*: the poll of a task asleep
//!    in [`Executor::sleep_polling`] first, by task id, every other entry
//!    after the polls, by sequence number;
//! 2. pops the earliest entry, advances the virtual clock to its wake
//!    time (mirrored in an atomic, so that reading the clock takes no
//!    lock), and hands it the core: a switch to its stack;
//! 3. is suspended until its own entry is popped.
//!
//! ## Parking
//!
//! A task blocked in [`flock_sync::clock::Event::wait_until`] or idling
//! through [`flock_sync::AdaptiveBackoff::idle_on`] sleeps on a poll
//! schedule and names the event that can end the wait
//! ([`Executor::sleep_polling`]). If, when it goes to sleep, its event
//! is still un-notified and its first poll is not past its deadline,
//! that poll is known to fail, and so is every later one until the
//! event is notified or the deadline passes. So the lab *parks* the
//! task right there, instead of step 1's push: it gets no heap entry
//! and joins an intrusive list whose head lives in the event's
//! [`Epoch`] (with a finite deadline, it gets one entry in a second
//! heap, at its first poll past the deadline). `notify_all` finds the
//! list non-empty and calls [`Executor::notified`], which pushes every
//! task of it at the first poll of its schedule that the notifying task
//! precedes in heap order — the first poll itself, if the notifier
//! comes before it; otherwise one computed from the doubling ladder and
//! the constant `busy + cap` step ([`Poll::busy_ns`], [`Poll::cap_ns`]),
//! not by walking the polls — and credits the polls in between to the
//! task, whose `AdaptiveBackoff` ladder advances by them. An idle
//! waiter costs one heap push per wait, its wake, however long it
//! waits. [`LabReport`] counts the polls that ran (`handovers`,
//! `inline_steps`), those that did not (`elided_polls`), and the pushes
//! (`heap_pushes`).
//!
//! The lab equals a lab that runs every poll
//! ([`VirtualLab::run_report_reference`]) because a poll's order key is
//! its task's id: the polls the lab did not run would have consumed no
//! sequence number, so every other entry keeps its order too. Polls go
//! first at their instant because that was nearly always the old order
//! (a poll was re-armed one period before it was due, ahead of the
//! short charges that came due with it), which keeps the benchmark's
//! timelines within a few percent of what they were.
//!
//! ## Steppers: tasks without a stack
//!
//! A service loop spawned through `clock::spawn_stepper` — a NIC lane, a
//! server dispatch shard, a client response dispatcher — is given as its
//! body, `step() -> Next`, and gets a heap entry but no stack. When
//! step 2 pops a stepper, the task that is suspending (or exiting: the
//! two share one scheduling loop, `next_thread_task`) releases the lab
//! lock and runs the step itself, on its own stack, under
//! `catch_unwind`, with `current` set to the stepper's id. What the step
//! [`clock::charge`]d and what it returned decide the push the lab then
//! makes for it ([`StepperTask::run_inline`]): `now + charge` after
//! work, `now + charge + ladder round` after an empty sweep — a poll,
//! parked like any waiter's, since every stepper names the event that
//! ends its idling (a NIC lane its command channel's doorbell, a
//! dispatch shard the doorbell of the request rings it polls, a
//! response dispatcher that of its response rings and CQs): an idle
//! stepper costs no heap operation however long it idles, and no loop
//! re-polls on a timer. Those are exactly the pushes the same body makes through
//! `advance`/`sleep_polling` when a thread drives it
//! ([`StepperTask::drive`]) — same wake times, same order keys — so the
//! timeline does not depend on who runs a step, and the only thing that
//! changes is again the host cost: no
//! handover, no 512 KiB stack (`LabReport::inline_steps`,
//! `LabReport::stepper_tasks`). The price is one rule: a step runs on
//! somebody else's stack, so it must not reach a suspension point itself
//! (the lab panics naming the stepper), and its charges are set apart
//! from the lending task's.
//!
//! ## Stacks: a handover is a switch, not a wake-up
//!
//! `spawn_task` maps the task's stack (with an inaccessible guard page
//! below it) and lays out on it the frame that enters the task's body;
//! from then on handing the core from one task to another is
//! `fiber::switch`: push the callee-saved registers, store the stack
//! pointer in the suspending task's context, load the other's, pop,
//! return — no system call, no kernel scheduler. A task that exits
//! leaves its stack to be unmapped by whoever runs next.
//!
//! What used to be per-thread is thereby **lab-wide**, and three things
//! follow from it:
//!
//! * A `thread_local!` is shared by every task. The seam's own two are
//!   handled here (the executor is the same for all of them; a task's
//!   un-flushed [`clock::charge`]s are saved and restored around every
//!   switch); anything else must not be borrowed, or relied on to hold
//!   its value, across a suspension point (`cargo lint` fails on a new
//!   one in library code: clippy.toml disallows `LocalKey`).
//! * `std::thread::panicking()` is `true` in every task while any one
//!   of them unwinds. The lab keeps its own per-task record of who is
//!   unwinding (`LabState::current_is_unwinding`), so a failed run still
//!   unwinds every task that is not already doing so.
//! * Running off the end of the 512 KiB is a SIGSEGV on the guard page
//!   that kills the process: Rust's "thread … has overflowed its stack"
//!   report only knows the stacks std made.
//!
//! The switch exists for x86-64 Unix. On other targets, and under Miri,
//! the lab falls back to what it was before — and what
//! [`VirtualLab::run_report_reference`] still is everywhere, so that the
//! tests have something independent to compare against: every task on
//! an OS thread of its own, parked on a condvar while it does not hold
//! the core. Nothing but `reference` and the target selects between the
//! two, and the virtual timeline does not depend on it.
//!
//! Because execution is serialized and wake-ups follow a total
//! `(time, order)` order, the interleaving — and therefore every
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
//!   deadlocks. The `crossbeam` and `parking_lot` shims have no blocking
//!   call, and `cargo lint` (`clippy.toml`) rejects std's `Condvar`,
//!   `Barrier`, `mpsc::Receiver::{recv, recv_timeout, iter}` and
//!   `thread::{sleep, park}` in library code; this file's own `Condvar`
//!   (`TaskSlot`) parks the OS thread a task is hosted on, never a task.
//!   Blocking sites wait through the seam:
//!   [`flock_sync::clock::Event::wait_until`] for a condition the
//!   caller owns, [`flock_sync::AdaptiveBackoff::idle_on`] for a poll
//!   loop — a channel is a `try_recv` under either, on the event its
//!   sends notify. Both sleep in the lab's heap here and block on the
//!   same event on real threads, so the crates above the seam contain
//!   one loop per wait, and no branch on the executor.
//! * Keep no task state in a `thread_local!`, and hold no borrow of one
//!   (nor a `RefCell` borrow, nor a lock) across a suspension point:
//!   every task runs on the same OS thread.
//! * Follow every state change a waiter's condition looks for with
//!   `notify_all` on the event it sleeps on, before the next yield. The
//!   lab parks waiters of un-notified events, so a missed notify delays
//!   the waiter to its deadline — or, with none, to the instant nothing
//!   else is left to run, when the run fails with `virtual-time
//!   deadlock: …` naming every parked task. `run_report_reference`
//!   runs every poll — and every task and stepper on a thread — and
//!   panics at the first poll that finds such a change.
//! * A step never waits: it returns `Next::Idle` where a loop would
//!   sleep, naming the event that ends the idling and the deadline
//!   after which a step may find work nobody announced, and
//!   `Next::Again` where it would flush its charge.
//! * Never yield while holding a lock another task can contend (the
//!   holder is suspended; the contender then blocks the one thread that
//!   could resume it). All converted sites drop locks before yielding,
//!   as the threaded code already did.
//! * Join tasks through [`flock_sync::clock::TaskHandle::join`], which
//!   sleeps in virtual time, never via a bare `JoinHandle`.
//!
//! A spawned task that panics — in its closure or in a step — fails the
//! run instead of hanging it: the lab records `lab task '<name>'
//! panicked: <message>`, frees the core, requeues every parked task,
//! stops eliding, and unwinds every task that has a stack with that
//! message at its next suspension point — the root by a `panic!` out of
//! [`VirtualLab::run`]. Steppers keep being run meanwhile, so
//! destructors that stop and join them finish. A deadlock fails the run
//! the same way.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
// std's locks, not the `parking_lot` shim's lock-order check: a manifest
// edit to `flock-sim` would rewrite the lock file `benchmark/` pins.
use std::sync::{Arc, Mutex, MutexGuard};

use flock_sync::clock::{self, Epoch, Executor, Poll, Resume, StepperTask, TaskExit, TaskHandle};

use crate::fiber;

/// Virtual cost of one bare yield (`clock::yield_now`, a `backoff`
/// spin). Not a floor on other suspensions: a sleep or a flushed charge
/// advances by what was asked, clamped to 1 ns (`VirtualLab::suspend`)
/// — enough that no task occupies the core for zero virtual time, so
/// same-instant yield livelocks (producer spinning on a consumer
/// scheduled later) are impossible by construction.
pub(crate) const YIELD_COST_NS: u64 = 50;

/// In place of an elided-poll count: the run has failed (see
/// `LabState::failed`) and the resumed task is to unwind.
const FAILED: u64 = u64::MAX;

/// Heap order among the entries due at one instant: a poll of a task
/// asleep in [`Executor::sleep_polling`] is ordered by its task id,
/// every other entry after all polls, by sequence number (`AFTER_POLLS +
/// seq`). See "Parking" in the module docs.
const AFTER_POLLS: u64 = 1 << 63;

/// A heap entry, earliest first: `(instant, order, task id)`.
type Entry = Reverse<(u64, u64, usize)>;

/// Go-flag parker for one task's OS thread, where tasks have one (the
/// reference run, and targets without a stack switch).
///
/// Stateful on purpose: a wake that races ahead of the park (the core is
/// handed to a task whose thread has not reached `park` yet, e.g. right
/// after spawn) is remembered by the flag. The flag carries the number
/// of polls the lab elided during the sleep that just ended.
#[expect(
    clippy::disallowed_types,
    reason = "the virtual executor itself: a task hosted on an OS thread parks that thread until the lab \
              hands it the core"
)]
struct TaskSlot {
    run: Mutex<Option<u64>>,
    cv: std::sync::Condvar,
}

impl TaskSlot {
    #[expect(clippy::disallowed_types, reason = "builds `TaskSlot`'s park")]
    fn new() -> TaskSlot {
        TaskSlot {
            run: Mutex::new(None),
            cv: std::sync::Condvar::new(),
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

/// What the lab keeps per task id. An id on `LabState::free_ids` has
/// neither slot, stack, stepper nor sleep.
#[derive(Default)]
struct Task {
    name: String,
    /// With `LabState::threads`, the OS thread the task is hosted on;
    /// `None` for a stepper.
    slot: Option<Arc<TaskSlot>>,
    /// Without `threads`, where the task is suspended while it is not
    /// `current` (boxed: `switch` writes to it with the lab unlocked);
    /// `None` for a stepper.
    stack: Option<Box<fiber::Context>>,
    /// Without `threads`: the task is unwinding from a panic (see
    /// `current_is_unwinding`).
    unwinding: bool,
    /// A stepper, which has neither thread nor stack. Taken out while its
    /// step runs.
    stepper: Option<Box<InlineStepper>>,
    /// While the task is asleep in [`Executor::sleep_polling`].
    sleep: Option<Sleep>,
    /// The epoch of the event it parked on last, whose list it is on
    /// while it is parked. Kept after the wake: parking on the same
    /// event again takes no new reference to it.
    epoch: Option<Arc<Epoch>>,
}

impl Task {
    fn is_parked(&self) -> bool {
        self.sleep.as_ref().is_some_and(|s| s.parked.is_some())
    }
}

/// A task asleep in [`Executor::sleep_polling`].
struct Sleep {
    poll: Poll,
    /// Polls it slept through without running, passed on at the wake.
    elided: u64,
    /// While the task is parked (module docs, "Parking").
    parked: Option<Parked>,
}

impl Sleep {
    fn new(poll: Poll) -> Sleep {
        Sleep {
            poll,
            elided: 0,
            parked: None,
        }
    }
}

/// A task kept off the run queue until its event is notified or its
/// deadline passes.
struct Parked {
    /// The instant of the first poll it went to sleep for, which has not
    /// run; its schedule runs on from there.
    at_ns: u64,
    /// Its neighbours in the list of tasks parked on the same [`Epoch`].
    prev: Option<usize>,
    next: Option<usize>,
    /// Its entry in `LabState::deadlines`: its first poll past the
    /// deadline, and how many polls its schedule makes until then.
    deadline: Option<(u64, u64)>,
}

struct LabState {
    now: u64,
    seq: u64,
    /// The run queue. Invariant: every live task except `current` has
    /// exactly one entry in it or is parked.
    heap: BinaryHeap<Entry>,
    /// The deadline wakes of parked tasks (`Parked::deadline`), keyed as
    /// their polls would be. A notify leaves a task's entry stale: it is
    /// skipped when popped, and `park` drops them all once they outnumber
    /// the live ones by 64.
    deadlines: BinaryHeap<Entry>,
    /// Parked tasks with a live entry in `deadlines`.
    live_deadlines: usize,
    /// Every task that is not a stepper is hosted on an OS thread of its
    /// own (`Task::slot`) instead of a stack of its own (`Task::stack`).
    threads: bool,
    tasks: Vec<Task>,
    /// The context of the task that exited last, on whose stack the
    /// switch away from it was still running; whoever schedules next
    /// drops it.
    zombie: Option<Box<fiber::Context>>,
    /// [`fiber::thread_token`] of the thread every stack is switched on.
    home: usize,
    free_ids: Vec<usize>,
    /// The task currently holding the core, and the order of the entry
    /// it was popped at (0 for the root before its first suspension).
    current: usize,
    current_order: u64,
    /// Registered tasks, including the root.
    live: usize,
    handovers: u64,
    elided_polls: u64,
    inline_steps: u64,
    heap_pushes: u64,
    tasks_spawned: u64,
    stepper_tasks: u64,
    /// A stepper's step is running (on the stack of the task that is
    /// suspending or exiting): it must not suspend.
    stepping: bool,
    /// Run every poll on its task and every stepper as a task (see
    /// `run_report_reference`).
    reference: bool,
    /// The first panic of a spawned task, as `lab task '<name>' panicked:
    /// <message>`, or the deadlock. From then on the run only unwinds:
    /// no poll is elided and every task panics with this at its next
    /// suspension point.
    failed: Option<String>,
}

impl LabState {
    /// Queue task `id` at `at`, after every poll due then.
    fn push(&mut self, at: u64, id: usize) {
        let order = AFTER_POLLS | self.seq;
        self.seq += 1;
        self.heap_pushes += 1;
        self.heap.push(Reverse((at, order, id)));
    }

    /// Queue a poll of task `id` at `at`.
    fn push_poll(&mut self, at: u64, id: usize) {
        self.heap_pushes += 1;
        self.heap.push(Reverse((at, id as u64, id)));
    }

    /// Put task `id` to sleep on `epoch` until its first poll, at `at`:
    /// parked at once if that poll would fail, and so would every one
    /// after it until a notify or the deadline; queued otherwise.
    fn sleep(&mut self, at: u64, id: usize, epoch: &Arc<Epoch>, poll: Poll) {
        let parks = !self.reference
            && self.failed.is_none()
            && at <= poll.deadline_ns
            && epoch.get() == poll.seen;
        let task = &mut self.tasks[id];
        task.sleep = Some(Sleep::new(poll));
        if !parks {
            self.push_poll(at, id);
            return;
        }
        let same = task.epoch.as_ref().is_some_and(|last| Arc::ptr_eq(last, epoch));
        if !same {
            task.epoch = Some(Arc::clone(epoch));
        }
        self.park(id, at);
    }

    /// Advance the clock to the earliest entry and make its task
    /// current. Returns its id and the polls elided during the sleep
    /// this ends.
    fn pop_due(&mut self) -> (usize, u64) {
        let (at, order, id) = loop {
            match self.pop_entry() {
                Some(entry) => break entry,
                None => self.deadlock(),
            }
        };
        self.now = self.now.max(at);
        self.current = id;
        self.current_order = order;
        let elided = self.tasks[id].sleep.take().map_or(0, |s| s.elided);
        (id, elided)
    }

    /// Pop the earliest entry of the run queue and of the deadline wakes
    /// (unparking the task of the latter); `None` when both are empty.
    fn pop_entry(&mut self) -> Option<(u64, u64, usize)> {
        loop {
            let deadline_first = match (self.heap.peek(), self.deadlines.peek()) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some(Reverse(queued)), Some(Reverse(deadline))) => deadline < queued,
            };
            if !deadline_first {
                return self.heap.pop().map(|Reverse(entry)| entry);
            }
            let Reverse((at, order, id)) = self.deadlines.pop()?;
            if deadline_of(&self.tasks, id) == Some(at) {
                self.unpark(id, |_, parked| parked.deadline.expect("a deadline wake"));
                return Some((at, order, id));
            }
            // Stale: the task was woken before its deadline.
        }
    }

    /// Keep task `id`, whose poll at `at_ns` cannot succeed, off the run
    /// queue until its epoch is notified or its deadline passes.
    fn park(&mut self, id: usize, at_ns: u64) {
        let Task { sleep, epoch, .. } = &mut self.tasks[id];
        let (sleep, epoch) = (sleep.as_mut(), epoch.as_ref());
        let (sleep, epoch) = sleep.zip(epoch).expect("only a sleeper parks");
        let poll = &sleep.poll;
        let deadline =
            (poll.deadline_ns != u64::MAX).then(|| next_poll(poll, at_ns, poll.deadline_ns + 1));
        let next = epoch.parked();
        epoch.set_parked(Some(id));
        sleep.parked = Some(Parked {
            at_ns,
            prev: None,
            next,
            deadline,
        });
        if let Some(next) = next {
            self.parked_mut(next).prev = Some(id);
        }
        let Some((due, _)) = deadline else {
            return;
        };
        self.live_deadlines += 1;
        self.heap_pushes += 1;
        self.deadlines.push(Reverse((due, id as u64, id)));
        if self.deadlines.len() > 2 * self.live_deadlines + 64 {
            let tasks = &self.tasks;
            self.deadlines
                .retain(|&Reverse((due, _, id))| deadline_of(tasks, id) == Some(due));
        }
    }

    fn parked_mut(&mut self, id: usize) -> &mut Parked {
        let sleep = self.tasks[id].sleep.as_mut();
        sleep
            .and_then(|s| s.parked.as_mut())
            .expect("a parked task")
    }

    /// Take parked task `id` off its epoch's list, to run at the poll
    /// `wake` picks from its schedule: `(instant, polls until then)`.
    /// Those polls are credited to the task as slept through. Returns
    /// the instant.
    fn unpark(&mut self, id: usize, wake: impl FnOnce(&Poll, &Parked) -> (u64, u64)) -> u64 {
        let Task { sleep, epoch, .. } = &mut self.tasks[id];
        let sleep = sleep.as_mut().expect("a parked task");
        let parked = sleep.parked.take().expect("a parked task");
        let (at, polls) = wake(&sleep.poll, &parked);
        sleep.elided = polls;
        match parked.prev {
            None => epoch
                .as_ref()
                .expect("a parked task")
                .set_parked(parked.next),
            Some(prev) => self.parked_mut(prev).next = parked.next,
        }
        if let Some(next) = parked.next {
            self.parked_mut(next).prev = parked.prev;
        }
        self.live_deadlines -= usize::from(parked.deadline.is_some());
        self.elided_polls += polls;
        at
    }

    /// Put parked task `id` back on the run queue at the first poll of
    /// its schedule that comes after the current task in heap order.
    fn wake_after_current(&mut self, id: usize) {
        let bound = if id as u64 > self.current_order {
            self.now
        } else {
            self.now.saturating_add(1)
        };
        let at = self.unpark(id, |poll, parked| next_poll(poll, parked.at_ns, bound));
        self.push_poll(at, id);
    }

    /// Nothing is queued, so every live task is parked on an event that
    /// nothing left running can notify: fail the run, naming them.
    fn deadlock(&mut self) {
        let parked: Vec<&str> = (self.tasks.iter())
            .filter(|task| task.is_parked())
            .map(|task| task.name.as_str())
            .collect();
        assert!(
            !parked.is_empty(),
            "virtual-time deadlock: no runnable task"
        );
        let message = format!(
            "virtual-time deadlock: every live task waits on an event nobody is left to \
             notify: '{}'",
            parked.join("', '")
        );
        self.fail_with(message);
    }

    fn slot(&self, id: usize) -> Arc<TaskSlot> {
        self.tasks[id].slot.clone().expect("live task has no slot")
    }

    /// Where `switch` finds (or leaves) live task `id`.
    fn context(&mut self, id: usize) -> *mut fiber::Context {
        &raw mut **self.tasks[id]
            .stack
            .as_mut()
            .expect("live task has no stack")
    }

    /// A fresh task id, its first wake-up queued at the current instant
    /// in spawn order (the spawner keeps the core until its own next
    /// yield).
    fn register(&mut self, name: String) -> usize {
        let id = self.free_ids.pop().unwrap_or_else(|| {
            self.tasks.push(Task::default());
            self.tasks.len() - 1
        });
        self.tasks[id].name = name;
        self.live += 1;
        self.tasks_spawned += 1;
        self.push(self.now, id);
        id
    }

    /// Deregister task `id`. Under the lab lock and before the next task
    /// is chosen, so a joiner whose poll is due now sees the exit.
    fn retire(&mut self, id: usize) {
        let task = &mut self.tasks[id];
        task.slot = None;
        task.unwinding = false;
        task.epoch = None;
        self.free_ids.push(id);
        self.live -= 1;
    }

    /// Whether the current task is unwinding from a panic, so that a
    /// second one (out of a destructor that suspends) would abort the
    /// process. A thread knows; tasks that share a thread share its
    /// panic count, so there `std::thread::panicking()` says only that
    /// *somebody* is unwinding, and the lab keeps a flag per task: set
    /// here for the first task seen panicking while no other is known to
    /// be, and by `raise_if_failed` for the ones it unwinds itself. That
    /// is exact unless a task panics of its own accord while another is
    /// suspended halfway through its unwinding; such a task is taken
    /// for sound, and if the run has failed by then it is unwound a
    /// second time — the abort the flag exists to avoid, after the first
    /// failure has been reported.
    fn current_is_unwinding(&mut self) -> bool {
        let panicking = std::thread::panicking();
        if self.threads {
            return panicking;
        }
        let me = self.current;
        let unwinding = panicking
            && (self.tasks[me].unwinding || !self.tasks.iter().any(|task| task.unwinding));
        self.tasks[me].unwinding = unwinding;
        unwinding
    }

    /// Record the first panic of spawned task `id`; see
    /// `LabState::failed`.
    fn fail(&mut self, id: usize, payload: &(dyn Any + Send)) {
        if self.failed.is_some() {
            return;
        }
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(payload is not a string)");
        let message = format!("lab task '{}' panicked: {what}", self.tasks[id].name);
        self.fail_with(message);
    }

    /// Fail the run with `message`, and requeue every parked task so
    /// that it unwinds.
    fn fail_with(&mut self, message: String) {
        self.failed = Some(message);
        for id in 0..self.tasks.len() {
            if self.tasks[id].is_parked() {
                self.wake_after_current(id);
            }
        }
    }
}

/// The instant of parked task `id`'s entry in `LabState::deadlines`, if
/// it has a live one.
fn deadline_of(tasks: &[Task], id: usize) -> Option<u64> {
    let parked = tasks[id].sleep.as_ref()?.parked.as_ref()?;
    parked.deadline.map(|(due, _)| due)
}

/// The first instant at or after `bound` at which a task parked until a
/// poll at `parked_ns` polls, and how many polls its schedule makes
/// before then, the one at `parked_ns` included. After each failed poll
/// the task sleeps `busy_ns` plus its period, which doubles from
/// `period_ns` up to `cap_ns`: the doubling rounds are taken one by one
/// (at most 64; a few in practice), the constant rounds after them in
/// one division — a 10 s deadline on a 500 ns grid is 2·10⁷ of those.
fn next_poll(poll: &Poll, parked_ns: u64, bound: u64) -> (u64, u64) {
    if bound <= parked_ns {
        return (parked_ns, 0);
    }
    let round = |period: u64| poll.busy_ns.saturating_add(period).max(1);
    let (mut at, mut period, mut polls) = (parked_ns, poll.period_ns, 0);
    loop {
        at = at.saturating_add(round(period));
        polls += 1;
        if at >= bound {
            return (at, polls);
        }
        let doubled = period.saturating_mul(2).min(poll.cap_ns);
        if doubled == period {
            break;
        }
        period = doubled;
    }
    let step = round(period);
    let rounds = (bound - at).div_ceil(step);
    (
        at.saturating_add(rounds.saturating_mul(step)),
        polls + rounds,
    )
}

/// A task the lab runs itself, one step at a time, whenever its heap
/// entry comes up ([`Executor::spawn_stepper`]).
struct InlineStepper {
    task: StepperTask,
    exit: Arc<TaskExit>,
}

/// Fail fast: once a spawned task has panicked, end the calling task too
/// (unless it is already unwinding — destructors still join their tasks
/// cooperatively). The root panics with the recorded message; the other
/// tasks unwind with it silently, the first report having been printed.
fn raise_if_failed(mut st: MutexGuard<'_, LabState>) -> MutexGuard<'_, LabState> {
    if st.current_is_unwinding() {
        return st;
    }
    let Some(failed) = st.failed.clone() else {
        return st;
    };
    let me = st.current;
    st.tasks[me].unwinding = true;
    let root = me == 0;
    // Never unwind through the lab lock: every task still needs it.
    drop(st);
    if root {
        panic!("{failed}");
    }
    resume_unwind(Box::new(failed))
}

struct LabInner {
    state: Mutex<LabState>,
    /// `LabState::now`, stored after every `pop_due`, so that reading
    /// the clock takes no lock. Only the task holding the core reads it,
    /// after the handover that made it current.
    now: AtomicU64,
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
    /// Times the lab gave the core to a task with a stack of its own:
    /// one per suspension point such a task actually returned from, its
    /// first schedule included. What the run cost the host in stack
    /// switches (futex calls and context switches, in the reference
    /// run).
    pub handovers: u64,
    /// Polls of un-notified events the lab slept through without waking
    /// the task.
    pub elided_polls: u64,
    /// Times the lab ran a stepper that was due, on the stack of the
    /// task giving up the core. `handovers + elided_polls +
    /// inline_steps` is the number of suspension points of a run in
    /// which every task is a thread and executes every poll itself.
    pub inline_steps: u64,
    /// Entries the lab pushed onto its run queue and its deadline heap:
    /// its own host work besides the handovers and the steps. A waiter
    /// parked at its sleep costs one, at its wake (a second with a
    /// finite deadline), however many polls it sleeps through.
    pub heap_pushes: u64,
    /// Tasks spawned over the run (excluding the root), steppers
    /// included.
    pub tasks_spawned: u64,
    /// How many of them were steppers the lab ran inline: tasks with no
    /// stack (0 in the reference run).
    pub stepper_tasks: u64,
}

impl VirtualLab {
    fn new(reference: bool) -> VirtualLab {
        VirtualLab {
            inner: Arc::new(LabInner {
                state: Mutex::new(LabState {
                    now: 0,
                    seq: 0,
                    heap: BinaryHeap::new(),
                    deadlines: BinaryHeap::new(),
                    live_deadlines: 0,
                    threads: reference || !fiber::SUPPORTED,
                    tasks: Vec::new(),
                    zombie: None,
                    home: fiber::thread_token(),
                    free_ids: Vec::new(),
                    current: 0,
                    current_order: 0,
                    live: 0,
                    handovers: 0,
                    elided_polls: 0,
                    inline_steps: 0,
                    heap_pushes: 0,
                    tasks_spawned: 0,
                    stepper_tasks: 0,
                    stepping: false,
                    reference,
                    failed: None,
                }),
                now: AtomicU64::new(0),
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

    /// The reference the lab's shortcuts are tested against, for tests
    /// only: every poll runs on its task, as if
    /// [`Executor::sleep_polling`] were a plain sleep, every task on an
    /// OS thread of its own, and every stepper on one too
    /// ([`StepperTask::drive`], the loop the threaded executor runs).
    /// Same virtual timeline and results as
    /// [`VirtualLab::run_report`], `elided_polls == 0`, `inline_steps ==
    /// 0`, and `handovers` equal to the other's `handovers +
    /// elided_polls + inline_steps`. Because every poll is executed, the
    /// missed-notify panics of
    /// [`clock::Event::wait_until`] and
    /// [`flock_sync::AdaptiveBackoff::reset`] fire at the first poll
    /// that finds a change nobody announced.
    #[doc(hidden)]
    pub(crate) fn run_report_reference<R>(f: impl FnOnce() -> R) -> (R, LabReport) {
        Self::run_lab(VirtualLab::new(true), f)
    }

    /// Run `f` under the reference and under the lab, assert that the
    /// two agree — same result, same final clock, every elided poll and
    /// every inline step one of the reference's handovers — and return
    /// the lab's run.
    #[doc(hidden)]
    pub fn run_against_reference<R>(f: impl Fn() -> R) -> (R, LabReport)
    where
        R: PartialEq + std::fmt::Debug,
    {
        let (want, reference) = Self::run_report_reference(&f);
        let (got, report) = Self::run_report(&f);
        assert_eq!(got, want, "result differs from the reference run's");
        assert_eq!(report.virtual_ns, reference.virtual_ns);
        assert_eq!((reference.elided_polls, reference.inline_steps), (0, 0));
        assert_eq!(
            reference.handovers,
            report.handovers + report.elided_polls + report.inline_steps
        );
        (got, report)
    }

    fn run_lab<R>(lab: VirtualLab, f: impl FnOnce() -> R) -> (R, LabReport) {
        {
            // The root is task 0, on the calling thread's own stack.
            let mut st = lab.lock();
            let threads = st.threads;
            st.tasks.push(Task {
                name: "root".to_string(),
                slot: threads.then(|| Arc::new(TaskSlot::new())),
                stack: (!threads).then(|| Box::new(fiber::Context::running())),
                ..Task::default()
            });
            st.live = 1;
            st.current = 0;
        }
        let guard = clock::install(Rc::new(lab.clone()));
        let result = f();
        drop(guard);
        let mut st = raise_if_failed(lab.lock());
        assert_eq!(
            st.live, 1,
            "VirtualLab::run returned with {} spawned task(s) still live; join all tasks before returning",
            st.live - 1
        );
        st.zombie = None;
        assert!(
            st.tasks.iter().skip(1).all(|task| task.stack.is_none()),
            "the stack of a task that exited is still mapped"
        );
        let report = LabReport {
            virtual_ns: st.now,
            handovers: st.handovers,
            elided_polls: st.elided_polls,
            inline_steps: st.inline_steps,
            heap_pushes: st.heap_pushes,
            tasks_spawned: st.tasks_spawned,
            stepper_tasks: st.stepper_tasks,
        };
        (result, report)
    }

    fn lock(&self) -> MutexGuard<'_, LabState> {
        self.inner.state.lock().expect("lab poisoned")
    }

    /// The one scheduling loop, shared by a task that suspends and one
    /// that exits: advance to the next thread task that is due and
    /// return its id and what its slot is to be woken with. Every
    /// stepper that comes up on the way is run here, on the calling
    /// thread, with the lab lock released — and then makes the push its
    /// own `advance`/`sleep_polling` would have made on a thread: same
    /// wake time, same order key.
    fn next_thread_task<'a>(
        &'a self,
        mut st: MutexGuard<'a, LabState>,
    ) -> (MutexGuard<'a, LabState>, usize, u64) {
        loop {
            let (id, elided) = st.pop_due();
            self.inner.now.store(st.now, Ordering::Relaxed);
            let Some(mut stepper) = st.tasks[id].stepper.take() else {
                st.handovers += 1;
                // A failed run says so to the task it resumes: a run
                // that does not fail pays nothing for the check.
                let go = if st.failed.is_some() { FAILED } else { elided };
                return (st, id, go);
            };
            st.inline_steps += 1;
            st.stepping = true;
            drop(st);
            let outcome = stepper.task.run_inline(elided);
            st = self.lock();
            st.stepping = false;
            let now = st.now;
            match outcome {
                Ok(Resume::After(ns)) => st.push(now.saturating_add(ns.max(1)), id),
                Ok(Resume::Polling(first_ns, poll)) => {
                    let at = now.saturating_add(first_ns.max(1));
                    st.sleep(at, id, stepper.task.epoch(), poll)
                }
                Ok(Resume::Done) => {
                    st = self.end_task(st, id, &stepper.exit, None);
                    continue;
                }
                Err(payload) => {
                    st = self.end_task(st, id, &stepper.exit, Some(payload));
                    continue;
                }
            }
            st.tasks[id].stepper = Some(stepper);
        }
    }

    /// Deregister task `id`, whose body returned or died of `panic`, and
    /// tell its joiners — with the lab unlocked, because the notify may
    /// wake parked ones ([`Executor::notified`]). Returns the lock again.
    fn end_task<'a>(
        &'a self,
        mut st: MutexGuard<'a, LabState>,
        id: usize,
        exit: &TaskExit,
        panic: Option<Box<dyn Any + Send>>,
    ) -> MutexGuard<'a, LabState> {
        if let Some(payload) = &panic {
            st.fail(id, payload.as_ref());
        }
        st.retire(id);
        drop(st);
        match panic {
            Some(payload) => exit.signal_panic(payload),
            None => exit.signal(),
        }
        self.lock()
    }

    /// Deregister the calling (current) task, whose body has returned or
    /// died of `panic`, and hand the core to the next scheduled one:
    /// done by the time this returns if tasks are threads, and otherwise
    /// the switch returned, for the caller to make last of all.
    fn exit_current(
        &self,
        exit: &TaskExit,
        panic: Option<Box<dyn Any + Send>>,
    ) -> Option<fiber::Handover> {
        let mut st = self.lock();
        let me = st.current;
        // Whose stack this was running on when it exited, if anybody's;
        // from here on, this task's.
        st.zombie = st.tasks[me].stack.take();
        let st = self.end_task(st, me, exit, panic);
        // The root never exits: somebody is left to run.
        let (mut st, id, go) = self.next_thread_task(st);
        if st.threads {
            let next = st.slot(id);
            drop(st);
            next.wake(go);
            return None;
        }
        let handover = fiber::Handover {
            from: &raw mut **st.zombie.as_mut().expect("a task with a stack"),
            to: st.context(id),
            pass: go,
        };
        drop(st);
        // What the task charged and never flushed ends with it.
        clock::swap_pending(0);
        Some(handover)
    }

    /// Suspend the current task for `ns`; with `polling`, until the
    /// first poll from then on that the task has to run itself. Returns
    /// the polls elided in between.
    fn suspend(&self, ns: u64, polling: Option<(&Arc<Epoch>, Poll)>) -> u64 {
        // Strictly positive advance: see YIELD_COST_NS.
        let ns = ns.max(1);
        let st = self.lock();
        if st.stepping {
            // Never unwind through the lab lock.
            drop(st);
            panic!(
                "a step must not suspend (clock::yield_now, sleep, flush_charge, \
                 Event::wait_until, a join): it runs on another task's stack; \
                 return Next::Idle or Next::Again instead"
            );
        }
        assert!(
            st.threads || st.home == fiber::thread_token(),
            "a VirtualLab's tasks all run on the thread that called `run`; \
             this is another"
        );
        let mut st = raise_if_failed(st);
        // Not before: a step may be running on the stack in question.
        st.zombie = None;
        let me = st.current;
        let wake = st.now.saturating_add(ns);
        match polling {
            Some((epoch, poll)) => st.sleep(wake, me, epoch, poll),
            None => st.push(wake, me),
        }
        let (mut st, id, go) = self.next_thread_task(st);
        if id == me {
            // Fast path: we are still the earliest task; keep the core.
            drop(st);
            return self.resumed(go);
        }
        if st.threads {
            let (next, mine) = (st.slot(id), st.slot(me));
            drop(st);
            next.wake(go);
            return self.resumed(mine.park());
        }
        let (from, to) = (st.context(me), st.context(id));
        drop(st);
        // A task's charges are its own: off the thread while others run.
        let pending = clock::swap_pending(0);
        // SAFETY: `from` and `to` are the boxed contexts of two live
        // tasks (`id != me`), each dropped only by its own task's exit,
        // which neither can reach while suspended. `to` is suspended —
        // every task but `current` is, in this function or fresh from
        // `spawn_task` — and only the task holding the core, which until
        // this call is the caller, resumes anybody. All of it happens on
        // the `home` thread, checked above. The lab lock is released,
        // `PENDING_NS` is set aside, `CURRENT` is the same for every
        // task of the lab; what else a task keeps across a suspension
        // point is its own business (module docs, "Stacks").
        let go = unsafe { fiber::switch(from, to, go) };
        clock::swap_pending(pending);
        self.resumed(go)
    }

    /// Back on the core after a suspension that elided `elided` polls.
    fn resumed(&self, elided: u64) -> u64 {
        if elided == FAILED {
            drop(raise_if_failed(self.lock()));
            return 0; // already unwinding
        }
        elided
    }
}

impl Executor for VirtualLab {
    fn now_ns(&self) -> u64 {
        self.inner.now.load(Ordering::Relaxed)
    }

    fn advance(&self, ns: u64) {
        self.suspend(ns, None);
    }

    fn sleep_polling(&self, first_ns: u64, epoch: &Arc<Epoch>, poll: Poll) -> u64 {
        self.suspend(first_ns, Some((epoch, poll)))
    }

    fn spawn_task(&self, name: String, f: Box<dyn FnOnce() + Send>) -> TaskHandle {
        let exit = Arc::new(TaskExit::default());
        let (lab, fin) = (self.clone(), exit.clone());
        // Release the core whatever happened: a task that died holding
        // it would leave every other task suspended.
        let body = move || {
            let panic = catch_unwind(AssertUnwindSafe(f)).err();
            lab.exit_current(&fin, panic)
        };
        let mut st = self.lock();
        let id = st.register(name);
        if !st.threads {
            st.tasks[id].stack = Some(Box::new(fiber::Context::new(Box::new(move || {
                body().expect("a task with a stack ends in a switch")
            }))));
            return TaskHandle::inline(exit);
        }
        let slot = Arc::new(TaskSlot::new());
        st.tasks[id].slot = Some(slot.clone());
        let name = st.tasks[id].name.clone();
        drop(st);
        let lab = self.clone();
        #[expect(
            clippy::disallowed_types,
            reason = "the virtual executor itself: in the reference run (and on targets without a stack \
                      switch) each virtual task is hosted on an OS thread whose scheduling the lab serializes"
        )]
        let thread = std::thread::Builder::new()
            .name(name)
            // Virtual tasks number in the hundreds at paper scale; keep
            // their address-space reservation small.
            .stack_size(fiber::STACK_BYTES)
            .spawn(move || {
                let _guard = clock::install(Rc::new(lab));
                slot.park(); // wait to be scheduled for the first time
                body();
            })
            .expect("spawn virtual task thread");
        TaskHandle::virtualized(thread, exit)
    }

    fn spawn_stepper(&self, name: String, task: StepperTask) -> TaskHandle {
        let mut st = self.lock();
        if st.reference {
            drop(st);
            return self.spawn_task(name, Box::new(move || task.drive()));
        }
        let exit = Arc::new(TaskExit::default());
        let id = st.register(name);
        st.stepper_tasks += 1;
        st.tasks[id].stepper = Some(Box::new(InlineStepper {
            task,
            exit: exit.clone(),
        }));
        TaskHandle::inline(exit)
    }

    fn yield_cost_ns(&self) -> u64 {
        YIELD_COST_NS
    }

    fn notified(&self, epoch: &Epoch) {
        let mut st = self.lock();
        while let Some(id) = epoch.parked() {
            st.wake_after_current(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn clock_starts_at_zero_and_sleep_advances() {
        let report = VirtualLab::run_report(|| {
            assert!(clock::current().is_some());
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
            let counter = Arc::new(flock_sync::Counter::default());
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
                                    let v = counter.add(1);
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

    /// The root waits on a 500 ns quantum for a flag that a task sets
    /// and announces after sleeping `wait_ns`. Returns when the root saw
    /// it.
    fn idle_waiter(wait_ns: u64) -> (u64, LabReport) {
        VirtualLab::run_against_reference(|| {
            let shared = Arc::new((clock::Event::new(), Flag::default()));
            let notifier = {
                let shared = shared.clone();
                clock::spawn("notifier", move || {
                    clock::sleep_ns(wait_ns);
                    shared.1.set();
                    shared.0.notify_all();
                })
            };
            let (ev, flag) = &*shared;
            ev.wait_until(u64::MAX, 500, || flag.is_set());
            let woke = clock::now_ns();
            notifier.join().unwrap();
            woke
        })
    }

    #[test]
    fn idle_waiter_costs_no_heap_operation_per_poll() {
        let (woke, short) = idle_waiter(1_000_000);
        // The poll due at 1 000 000 ns runs before the notifier's wake-up
        // at that instant (polls go first), so the notify is seen by the
        // next one.
        assert_eq!(woke, 1_000_500);
        // The notifier's first schedule, its wake-up after the sleep,
        // and the waiter's one poll that follows the notify; the polls
        // at 500, 1 000, …, 1 000 000 ns never reach the waiter's stack.
        assert_eq!(short.handovers, 3);
        assert_eq!(short.elided_polls, 2_000);
        // Ten times the wait, ten times the polls slept through, and not
        // one heap push more: spawn, the notifier's sleep, and the
        // waiter's wake (it parks at its sleep).
        let (_, long) = idle_waiter(10_000_000);
        assert_eq!(long.elided_polls, 20_000);
        assert_eq!((short.heap_pushes, long.heap_pushes), (3, 3));
    }

    /// A poll loop idling on the NIC lane's ladder (2 µs cap, so it
    /// polls at 250, 750, 1 750, 3 750, 5 750 … ns) whose doorbell rings
    /// at `ring_ns`; every empty poll charges `busy_ns` on top. Returns
    /// when it saw the ring, and where one more idle round took it from
    /// there (one past its deadline, so that nothing sleeps through it).
    fn doorbell_scenario(ring_ns: u64, busy_ns: u64) -> (u64, u64) {
        VirtualLab::run_against_reference(|| {
            let shared = Arc::new((clock::Event::new(), Flag::default()));
            let times = Arc::new(Mutex::new((0, 0)));
            let lane = {
                let (shared, times) = (shared.clone(), times.clone());
                clock::spawn("lane", move || {
                    let (bell, rung) = &*shared;
                    let mut idler = ladder();
                    loop {
                        let seen = bell.epoch();
                        if rung.is_set().is_some() {
                            break;
                        }
                        clock::charge(busy_ns);
                        idler.idle_on(bell, seen, busy_ns, u64::MAX);
                    }
                    let saw = clock::now_ns();
                    idler.idle_on(bell, bell.epoch(), 0, saw);
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
        // run by the task or slept through by the lab alike.
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
    fn a_deadlock_fails_the_run_and_names_every_waiter() {
        // Two tasks each wait, with no deadline, for a flag that only the
        // other sets, after its own wait; the root joins them. Nothing
        // can ever run again: the run must say so, not spin forever.
        type Signal = Arc<(clock::Event, Flag)>;
        let started = std::time::Instant::now();
        let failure = std::panic::catch_unwind(|| {
            VirtualLab::run(|| {
                let (a, b): (Signal, Signal) = Default::default();
                let task = |name, mine: Signal, theirs: Signal| {
                    clock::spawn(name, move || {
                        theirs.0.wait_until(u64::MAX, 500, || theirs.1.is_set());
                        mine.1.set();
                        mine.0.notify_all();
                    })
                };
                let tasks = [task("a", a.clone(), b.clone()), task("b", b, a)];
                for task in tasks {
                    let _ = task.join();
                }
            })
        })
        .expect_err("a deadlock must fail the run");
        let message = failure
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert_eq!(
            message,
            "virtual-time deadlock: every live task waits on an event nobody is left to \
             notify: 'root', 'a', 'b'"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    /// A lane-like idle ladder (2 µs cap) for the stepper tests.
    fn ladder() -> flock_sync::AdaptiveBackoff {
        flock_sync::AdaptiveBackoff::new().with_virtual_cap(2_000)
    }

    #[test]
    fn stepper_interleaves_with_thread_tasks_as_its_thread_driven_twin_does() {
        use clock::{IdleOn, Next};
        let (log, report) = VirtualLab::run_against_reference(|| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let shared = Arc::new((Arc::new(clock::Event::new()), Flag::default()));
            let stepper = {
                let (log, shared) = (log.clone(), shared.clone());
                let mut steps = 0;
                let bell = Arc::clone(&shared.0);
                clock::spawn_stepper("stepper", ladder(), bell, move || {
                    let (bell, rung) = &*shared;
                    steps += 1;
                    if steps <= 8 {
                        log.lock().unwrap().push((clock::now_ns(), "step"));
                    }
                    match steps {
                        // Busy rounds of 100 ns: due at the very instants
                        // the 100 ns sleeper is, and every other one of
                        // the 50 ns sleeper's.
                        1..=4 => {
                            clock::charge(100);
                            Next::Again
                        }
                        // Work that charged nothing: no yield before the
                        // next step.
                        5 => Next::Again,
                        // Ladder rounds after 30 ns sweeps, each past its
                        // deadline as soon as it begins: none is slept
                        // through.
                        6..=8 => {
                            clock::charge(30);
                            Next::Idle(IdleOn {
                                seen: bell.epoch(),
                                busy_ns: 30,
                                deadline_ns: clock::now_ns(),
                            })
                        }
                        // Then 20 ns sweeps on the doorbell. How many of
                        // these run depends on who drives: no log.
                        _ => {
                            let seen = bell.epoch();
                            if rung.is_set().is_some() {
                                log.lock().unwrap().push((clock::now_ns(), "rung"));
                                return Next::Done;
                            }
                            clock::charge(20);
                            Next::Idle(IdleOn {
                                seen,
                                busy_ns: 20,
                                deadline_ns: u64::MAX,
                            })
                        }
                    }
                })
            };
            let sleepers: Vec<_> = [("a", 100), ("b", 50)]
                .into_iter()
                .map(|(tag, period)| {
                    let log = log.clone();
                    clock::spawn(tag, move || {
                        for _ in 0..12 {
                            clock::sleep_ns(period);
                            log.lock().unwrap().push((clock::now_ns(), tag));
                        }
                    })
                })
                .collect();
            for sleeper in sleepers {
                sleeper.join().unwrap();
            }
            clock::sleep_ns(20_000);
            shared.1.set();
            shared.0.notify_all();
            stepper.join().unwrap();
            let log = log.lock().unwrap().clone();
            log
        });
        let steps: Vec<u64> = log.iter().filter(|e| e.1 == "step").map(|e| e.0).collect();
        // Four charged rounds, the free one at the instant of the fifth,
        // then 30 + 250, 30 + 500, 30 + 1 000 ns ladder rounds.
        assert_eq!(steps, [0, 100, 200, 300, 400, 400, 680, 1_210]);
        assert_eq!((report.stepper_tasks, report.tasks_spawned), (1, 3));
        assert!(report.inline_steps >= 8, "{report:?}");
        assert!(report.elided_polls > 5, "{report:?}");
    }

    #[test]
    fn a_panicking_step_fails_the_run_at_once() {
        let started = std::time::Instant::now();
        let failure = std::panic::catch_unwind(|| {
            VirtualLab::run(|| {
                let mut steps = 0;
                let doomed =
                    clock::spawn_stepper("doomed-stepper", ladder(), Arc::default(), move || {
                        steps += 1;
                        assert!(steps < 3, "boom in step {steps} at {} ns", clock::now_ns());
                        clock::charge(500);
                        clock::Next::Again
                    });
                let _ = doomed.join();
            })
        })
        .expect_err("the step's panic must fail the run");
        let message = failure
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert_eq!(
            message,
            "lab task 'doomed-stepper' panicked: boom in step 3 at 1000 ns"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn a_step_that_suspends_fails_the_run_and_names_the_stepper() {
        let failure = std::panic::catch_unwind(|| {
            VirtualLab::run(|| {
                let sleepy = clock::spawn_stepper("sleepy", ladder(), Arc::default(), || {
                    clock::yield_now();
                    clock::Next::Done
                });
                let _ = sleepy.join();
            })
        })
        .expect_err("a suspension inside a step must fail the run");
        let message = failure
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            message.starts_with("lab task 'sleepy' panicked: a step must not suspend"),
            "{message}"
        );
    }

    #[test]
    fn an_exiting_task_does_not_lend_its_charges_to_the_next_step() {
        let (steps, report) = VirtualLab::run_against_reference(|| {
            let steps = Arc::new(Mutex::new(Vec::new()));
            // Scheduled first, exits with a millisecond charged and never
            // flushed: the stepper's first step runs on its thread.
            let spender = clock::spawn("spender", || clock::charge(1_000_000));
            let stepper = {
                let steps = steps.clone();
                clock::spawn_stepper("stepper", ladder(), Arc::default(), move || {
                    let mut steps = steps.lock().unwrap();
                    steps.push(clock::now_ns());
                    if steps.len() == 3 {
                        return clock::Next::Done;
                    }
                    clock::charge(100);
                    clock::Next::Again
                })
            };
            spender.join().unwrap();
            stepper.join().unwrap();
            let steps = steps.lock().unwrap().clone();
            steps
        });
        assert_eq!(steps, [0, 100, 200]);
        assert_eq!(report.inline_steps, 3);
    }

    /// The OS thread of the root and of each of three tasks, which take
    /// turns sleeping so that every one of them is resumed after the
    /// others have run.
    fn threads_seen(reference: bool) -> Vec<std::thread::ThreadId> {
        let run = if reference {
            VirtualLab::run_report_reference
        } else {
            VirtualLab::run_report
        };
        run(|| {
            let seen = Arc::new(Mutex::new(vec![std::thread::current().id()]));
            let tasks: Vec<_> = (0..3)
                .map(|i| {
                    let seen = seen.clone();
                    clock::spawn(&format!("t{i}"), move || {
                        let first = std::thread::current().id();
                        for _ in 0..4 {
                            clock::sleep_ns(100 + i);
                            assert_eq!(std::thread::current().id(), first);
                        }
                        seen.lock().unwrap().push(first);
                    })
                })
                .collect();
            for task in tasks {
                task.join().unwrap();
            }
            let seen = seen.lock().unwrap().clone();
            seen
        })
        .0
    }

    #[test]
    fn every_task_runs_on_the_thread_that_called_run_except_in_the_reference() {
        let here = std::thread::current().id();
        let lab = threads_seen(false);
        assert_eq!(lab.len(), 4);
        if fiber::SUPPORTED {
            assert!(lab.iter().all(|t| *t == here), "{lab:?}");
        }
        let reference = threads_seen(true);
        assert_eq!(reference[0], here);
        let distinct: std::collections::HashSet<_> = reference.iter().collect();
        assert_eq!(distinct.len(), 4, "{reference:?}");
    }

    #[test]
    fn a_suspended_task_keeps_its_charges_to_itself() {
        let (times, _) = VirtualLab::run_against_reference(|| {
            // Suspends with 300 ns charged and not flushed (a bare
            // executor sleep takes no notice of charges): they are still
            // there, and still its own, when it comes back.
            let charger = clock::spawn("charger", || {
                clock::charge(300);
                clock::current().expect("a lab task").advance(1_000);
                let back = clock::now_ns();
                clock::flush_charge();
                assert_eq!((back, clock::now_ns()), (1_000, 1_300));
            });
            // Runs while the charger is away, and again after a spender
            // (scheduled just before it) exited with a millisecond
            // charged: neither's charges are its to pay.
            let spender = clock::spawn("spender", || {
                clock::sleep_ns(600);
                clock::charge(1_000_000);
            });
            let times = Arc::new(Mutex::new(Vec::new()));
            let bystander = {
                let times = times.clone();
                clock::spawn("bystander", move || {
                    for _ in 0..2 {
                        clock::sleep_ns(600);
                        clock::flush_charge(); // nothing pending: no advance
                        times.lock().unwrap().push(clock::now_ns());
                    }
                    clock::yield_now();
                    times.lock().unwrap().push(clock::now_ns());
                })
            };
            for task in [charger, spender, bystander] {
                task.join().unwrap();
            }
            let times = times.lock().unwrap().clone();
            times
        });
        assert_eq!(times, [600, 1_200, 1_200 + YIELD_COST_NS]);
    }

    /// Joins its tasks when dropped — also while the root unwinds — and
    /// keeps what each join returned.
    struct JoinOnDrop {
        tasks: Vec<TaskHandle>,
        outcomes: Arc<Mutex<Vec<Result<(), String>>>>,
    }

    impl Drop for JoinOnDrop {
        fn drop(&mut self) {
            for task in self.tasks.drain(..) {
                let outcome = task.join().map_err(|payload| {
                    let message = payload.downcast_ref::<String>();
                    message.expect("a formatted message").clone()
                });
                self.outcomes.lock().unwrap().push(outcome);
            }
        }
    }

    #[test]
    fn joins_made_while_the_root_unwinds_see_every_task_end_in_a_panic() {
        // The root is unwound by the lab (the child's panic failed the
        // run) and joins from a destructor on its way out. The bystander
        // polls rarely enough to be resumed only after that: everything
        // is one OS thread, so `std::thread::panicking()` is true in the
        // bystander too by then — and it must still be unwound, or the
        // root's join of it never returns.
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let started = std::time::Instant::now();
        let failure = std::panic::catch_unwind({
            let outcomes = outcomes.clone();
            move || {
                VirtualLab::run(move || {
                    let never = Arc::new(clock::Event::new());
                    let doomed = clock::spawn("doomed", || {
                        clock::sleep_ns(1_000);
                        panic!("boom at {} ns", clock::now_ns());
                    });
                    let bystander = clock::spawn("bystander", move || {
                        never.wait_until(u64::MAX, 10_000, || None::<()>);
                    });
                    let _joiner = JoinOnDrop {
                        tasks: vec![doomed, bystander],
                        outcomes,
                    };
                    clock::sleep_ns(2_000);
                    unreachable!("the run failed at 1000 ns");
                })
            }
        })
        .expect_err("the child's panic must fail the run");
        let message = failure
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert_eq!(message, "lab task 'doomed' panicked: boom at 1000 ns");
        assert_eq!(
            *outcomes.lock().unwrap(),
            [
                Err("boom at 1000 ns".to_string()),
                Err("lab task 'doomed' panicked: boom at 1000 ns".to_string()),
            ]
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn ten_thousand_tasks_one_after_another_leave_no_stack_behind() {
        // `run_lab` asserts that no exited task's stack is still mapped.
        let (sum, report) = VirtualLab::run_report(|| {
            let sum = Arc::new(Mutex::new(0));
            for i in 0..10_000u64 {
                let sum = sum.clone();
                let task = clock::spawn("short-lived", move || {
                    clock::sleep_ns(10);
                    *sum.lock().unwrap() += i;
                });
                task.join().unwrap();
            }
            let sum = *sum.lock().unwrap();
            sum
        });
        assert_eq!(sum, 10_000 * 9_999 / 2);
        assert_eq!(report.tasks_spawned, 10_000);
    }

    #[test]
    fn a_task_can_use_most_of_its_stack() {
        /// Recurse until the stack is `want` bytes deeper than `base`.
        #[inline(never)]
        fn dive(base: usize, want: usize, depth: u64) -> u64 {
            let frame = std::hint::black_box([depth; 32]);
            if base - (frame.as_ptr() as usize) < want {
                return dive(base, want, depth + 1) + frame[31] - depth;
            }
            clock::yield_now(); // and be switched away from down here
            depth
        }
        let depths = Arc::new(Mutex::new(Vec::new()));
        VirtualLab::run({
            let depths = depths.clone();
            move || {
                let tasks: Vec<_> = (0..2)
                    .map(|_| {
                        let depths = depths.clone();
                        clock::spawn("deep", move || {
                            let base = std::hint::black_box(&depths) as *const _ as usize;
                            // (Not inside the `lock()`: no lock across a yield.)
                            let depth = dive(base, 400 * 1024, 0);
                            depths.lock().unwrap().push(depth);
                        })
                    })
                    .collect();
                for task in tasks {
                    task.join().unwrap();
                }
            }
        });
        let depths = depths.lock().unwrap();
        assert!(
            depths.len() == 2 && depths.iter().all(|d| *d > 100),
            "{depths:?}"
        );
    }

    #[test]
    fn idle_stepper_costs_no_heap_operation_per_poll() {
        let ((), report) = VirtualLab::run_against_reference(|| {
            let shared = Arc::new((Arc::new(clock::Event::new()), Flag::default()));
            let stepper = {
                let shared = shared.clone();
                let bell = Arc::clone(&shared.0);
                clock::spawn_stepper("idle", ladder(), bell, move || {
                    let (bell, rung) = &*shared;
                    let seen = bell.epoch();
                    if rung.is_set().is_some() {
                        return clock::Next::Done;
                    }
                    clock::Next::Idle(clock::IdleOn {
                        seen,
                        busy_ns: 0,
                        deadline_ns: u64::MAX,
                    })
                })
            };
            clock::sleep_ns(1_000_000);
            shared.1.set();
            shared.0.notify_all();
            stepper.join().unwrap();
        });
        // The first step, and the one after the notify. In between, a
        // poll every 2 µs once the ladder is at its cap (250, 750, 1 750,
        // 3 750 … 999 750 ns: 502), none of which runs anything. The
        // only thread that ever gets the core is the root: back from its
        // sleep, and from its join, whose first poll (the stepper still
        // has its last step to run) is the one other elided one.
        assert_eq!(report.inline_steps, 2);
        assert_eq!(report.handovers, 2);
        assert_eq!(report.elided_polls, 503);
        // Spawn, the root's sleep, the notify's wake and the join's
        // wake; the idle round and the join's poll park at their sleep,
        // and none is for the 502 polls.
        assert_eq!(report.heap_pushes, 4);
    }

    #[test]
    fn a_stepper_woken_by_its_deadline_may_find_work_nobody_announced() {
        // The stepper holds something back until 10 µs (a response a
        // full ring defers, say) and then does it. Nobody notifies: the
        // deadline is what it idled for, and neither run may take the
        // work it finds for a missed notify.
        let (done_at, _) = VirtualLab::run_against_reference(|| {
            let bell = Arc::new(clock::Event::new());
            let done_at = Arc::new(AtomicU64::new(0));
            let stepper = {
                let (bell, done_at) = (bell.clone(), done_at.clone());
                clock::spawn_stepper("deferrer", ladder(), Arc::clone(&bell), move || {
                    let seen = bell.epoch();
                    let now = clock::now_ns();
                    if now <= 10_000 {
                        return clock::Next::Idle(clock::IdleOn {
                            seen,
                            busy_ns: 0,
                            deadline_ns: 10_000,
                        });
                    }
                    if done_at.swap(now, Ordering::Relaxed) == 0 {
                        return clock::Next::Again;
                    }
                    clock::Next::Done
                })
            };
            stepper.join().unwrap();
            done_at.load(Ordering::Relaxed)
        });
        // Polls at 250, 750, 1 750, 3 750 … 9 750, 11 750 ns: the first
        // past the deadline does the work.
        assert_eq!(done_at, 11_750);
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
            let mut b = flock_sync::AdaptiveBackoff::new();
            let event = clock::Event::new();
            let t1 = clock::now_ns();
            for _ in 0..32 {
                b.idle_on(&event, event.epoch(), 0, t1 + 5_000);
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
