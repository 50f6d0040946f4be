//! Offline stand-in for the `loom` crate: a bounded-exhaustive
//! interleaving model checker.
//!
//! The build environment has no network access, so `flock-core` uses this
//! shim as its `cfg(loom)` dependency. Like real loom, [`model`] runs a
//! closure many times, exploring thread interleavings systematically; the
//! `sync`, `thread`, `cell`, and `hint` modules mirror loom's API so code
//! written against the `flock_core::sync` facade compiles unchanged.
//!
//! ## How it explores
//!
//! Every controlled thread is divided into *steps* at schedule points
//! (each atomic operation, `yield_now`, `spin_loop`, spawn and join). A
//! controller thread grants exactly one thread permission to run each
//! step, so an execution is fully determined by the sequence of choices.
//! The controller enumerates those choice sequences depth-first,
//! replaying the common prefix each iteration, until the space is
//! exhausted. Exploration is bounded by the number of *preemptions* per
//! execution (switching away from a thread that could have continued),
//! default 2, overridable with `LOOM_MAX_PREEMPTIONS` — the same
//! context-bounding approach loom and CHESS use. Voluntary switches
//! (yield, block, finish) are never charged, so spin-wait protocols are
//! explored fully.
//!
//! ## What it can and cannot find
//!
//! The checker executes atomics with sequentially-consistent semantics,
//! so it falsifies *protocol* bugs: lost wakeups, broken handoffs,
//! deadlocks, double-frees that manifest as assertion failures, items
//! lost or duplicated under any bounded-preemption interleaving. It does
//! **not** model weak memory (a store published with `Relaxed` is still
//! seen in order), and it does not track raw-pointer aliasing — those
//! are covered by the Miri job and the `cargo audit-orderings` policy
//! (see DESIGN.md "Memory ordering and verification").

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a stand-in for a std-backed crate is built on the host's threads and clock"
)]

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Eligible to be granted a step.
    Runnable,
    /// Voluntarily yielded; only runnable when no `Runnable` thread is.
    Yielded,
    /// Waiting for another thread to finish.
    BlockedJoin(usize),
    /// Closure returned (or unwound).
    Finished,
}

struct SchedState {
    threads: Vec<Status>,
    /// Fairness barriers: `yield_barrier[t]` holds the threads that must
    /// each be granted a step before `t` (which yielded) is eligible
    /// again. This is CHESS-style fair scheduling for spin loops: it
    /// both bounds the DFS tree (no "spin once more" branch can repeat
    /// forever while a runnable thread is starved) and preserves every
    /// distinguishable interleaving, because a re-read with no
    /// intervening step observes identical (SeqCst) state.
    yield_barrier: Vec<Vec<usize>>,
    /// Thread currently granted a step (`None` while the controller picks).
    active: Option<usize>,
    /// Set when a controlled thread panicked or a deadlock was found:
    /// all schedule points turn into panics so every thread unwinds.
    abort: bool,
    panic_msg: Option<String>,
}

struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                threads: Vec::new(),
                yield_barrier: Vec::new(),
                active: None,
                abort: false,
                panic_msg: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Register a new controlled thread, returning its tid.
    fn register(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.threads.push(Status::Runnable);
        st.yield_barrier.push(Vec::new());
        st.threads.len() - 1
    }

    /// End the current step (if `tid` holds the grant) and wait to be
    /// granted the next one. `new_status` is published before pausing.
    fn pause(&self, tid: usize, new_status: Status) {
        let mut st = self.state.lock().unwrap();
        st.threads[tid] = new_status;
        if new_status == Status::Yielded {
            st.yield_barrier[tid] = (0..st.threads.len())
                .filter(|&i| {
                    i != tid && matches!(st.threads[i], Status::Runnable | Status::Yielded)
                })
                .collect();
        }
        if st.active == Some(tid) {
            st.active = None;
        }
        self.cv.notify_all();
        loop {
            if st.abort {
                drop(st);
                panic!("loom model aborted (failure on another interleaving path)");
            }
            if st.active == Some(tid) {
                return;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Wait until granted the first step, without ending any step.
    /// Used at thread startup: the controller may have granted this
    /// thread before its OS thread even started running, and that grant
    /// must not be consumed by the arrival itself.
    fn arrive(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.abort {
                drop(st);
                panic!("loom model aborted (failure on another interleaving path)");
            }
            if st.active == Some(tid) {
                return;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Mark `tid` finished and wake the controller.
    fn finish(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.state.lock().unwrap();
        st.threads[tid] = Status::Finished;
        if st.active == Some(tid) {
            st.active = None;
        }
        if let Some(msg) = panic_msg {
            st.abort = true;
            st.panic_msg.get_or_insert(msg);
        }
        self.cv.notify_all();
    }
}

/// One decision the controller made, with the alternatives left to try.
struct Choice {
    candidates: Vec<usize>,
    index: usize,
    /// Preemptions consumed on the path up to and including this choice.
    preemptions: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The schedule point every shim primitive funnels through. Outside a
/// [`model`] run this is a no-op, so `cfg(loom)` builds still execute
/// normally (e.g. the crate's regular unit tests).
fn schedule_point(yielding: bool) {
    let current = CURRENT.with(|c| c.borrow().clone());
    if let Some((sched, tid)) = current {
        let status = if yielding {
            Status::Yielded
        } else {
            Status::Runnable
        };
        sched.pause(tid, status);
    } else if yielding {
        std::thread::yield_now();
    }
}

/// Run `f` under every interleaving within the preemption bound.
///
/// Panics if any execution panics (assertion failure), deadlocks, or if
/// the exploration exceeds `LOOM_MAX_ITERATIONS` executions (default
/// 500_000 — raise it rather than silently truncating the space).
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let max_preemptions = env_usize("LOOM_MAX_PREEMPTIONS", 2);
    let max_iterations = env_usize("LOOM_MAX_ITERATIONS", 500_000);

    let mut path: Vec<Choice> = Vec::new();
    let mut executions: usize = 0;

    loop {
        executions += 1;
        assert!(
            executions <= max_iterations,
            "loom: exceeded {max_iterations} executions; raise LOOM_MAX_ITERATIONS \
             or lower LOOM_MAX_PREEMPTIONS"
        );

        let sched = Arc::new(Scheduler::new());
        let tid0 = sched.register();
        debug_assert_eq!(tid0, 0);
        let sched0 = Arc::clone(&sched);
        let f0 = Arc::clone(&f);
        let main_handle = std::thread::spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched0), 0)));
            sched0.arrive(0);
            let result = catch_unwind(AssertUnwindSafe(|| f0()));
            let msg = result.as_ref().err().map(|p| panic_message(&**p));
            sched0.finish(0, msg);
            if let Err(p) = result {
                resume_unwind(p);
            }
        });

        let failed = run_one_execution(&sched, &mut path, max_preemptions);

        let main_result = main_handle.join();
        if failed || main_result.is_err() {
            let msg = sched
                .state
                .lock()
                .unwrap()
                .panic_msg
                .clone()
                .unwrap_or_else(|| "model execution failed".into());
            let trail: Vec<usize> = path.iter().map(|c| c.candidates[c.index]).collect();
            panic!(
                "loom: execution {executions} failed (schedule {trail:?}, \
                 preemption bound {max_preemptions}): {msg}"
            );
        }

        // Depth-first backtrack to the last choice with untried options.
        loop {
            match path.last_mut() {
                None => {
                    println!(
                        "loom: explored {executions} executions \
                         (preemption bound {max_preemptions})"
                    );
                    return;
                }
                Some(last) if last.index + 1 < last.candidates.len() => {
                    last.index += 1;
                    break;
                }
                Some(_) => {
                    path.pop();
                }
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Drive one execution to completion. Returns `true` if it failed
/// (panic in a controlled thread or deadlock).
fn run_one_execution(sched: &Scheduler, path: &mut Vec<Choice>, max_preemptions: usize) -> bool {
    let mut depth = 0usize;
    let mut last_active: Option<usize> = None;
    let max_depth = env_usize("LOOM_MAX_DEPTH", 100_000);

    loop {
        let mut st = sched.state.lock().unwrap();
        // Wait until the previously granted thread has paused, blocked,
        // finished, or aborted.
        while st.active.is_some() && !st.abort {
            st = sched.cv.wait(st).unwrap();
        }
        if st.abort {
            // Release every waiter so all threads unwind, then report.
            sched.cv.notify_all();
            while st.threads.iter().any(|t| *t != Status::Finished) {
                st = sched.cv.wait(st).unwrap();
            }
            return true;
        }
        if st.threads.iter().all(|t| *t == Status::Finished) {
            return false;
        }

        // Candidate selection. Join-blocked threads whose target finished
        // are eligible again; yielded threads only run when nothing
        // runnable exists (they declared themselves unable to progress).
        let eligible = |status: &Status, threads: &[Status]| match *status {
            Status::Runnable => true,
            Status::BlockedJoin(t) => threads[t] == Status::Finished,
            _ => false,
        };
        let mut candidates: Vec<usize> = (0..st.threads.len())
            .filter(|&i| eligible(&st.threads[i], &st.threads))
            .collect();
        if candidates.is_empty() {
            // Only yielded threads whose fairness barrier has drained are
            // eligible; if every barrier is still up (unsatisfiable right
            // now, e.g. the barrier names a join-blocked thread), fall
            // back to all yielded threads rather than falsely deadlock.
            candidates = (0..st.threads.len())
                .filter(|&i| st.threads[i] == Status::Yielded && st.yield_barrier[i].is_empty())
                .collect();
            if candidates.is_empty() {
                candidates = (0..st.threads.len())
                    .filter(|&i| st.threads[i] == Status::Yielded)
                    .collect();
            }
        }
        if candidates.is_empty() {
            st.abort = true;
            st.panic_msg
                .get_or_insert_with(|| "deadlock: every thread is join-blocked".into());
            sched.cv.notify_all();
            while st.threads.iter().any(|t| *t != Status::Finished) {
                st = sched.cv.wait(st).unwrap();
            }
            return true;
        }

        // Put the last-active thread first so "keep running" is the
        // default branch — but only if it paused at a non-yield point: a
        // thread that *yielded* asked to be switched away from, so
        // continuing it is neither the default nor chargeable. For a
        // yielded (or gone) last thread, rotate the order to start just
        // after it, so spinners round-robin instead of the lowest tid
        // starving the rest on the default DFS branch.
        let last_runnable = last_active.is_some_and(|last| st.threads[last] == Status::Runnable);
        if let Some(last) = last_active {
            if last_runnable {
                if let Some(pos) = candidates.iter().position(|&c| c == last) {
                    candidates.swap(0, pos);
                }
            } else {
                let n = st.threads.len();
                candidates.sort_by_key(|&c| (c + n - last - 1) % n);
            }
        }
        let preempting_possible = last_runnable && candidates.first() == last_active.as_ref();
        let prior_preemptions = if depth == 0 {
            0
        } else {
            path[depth - 1].preemptions
        };
        if preempting_possible && prior_preemptions >= max_preemptions {
            candidates.truncate(1);
        }

        if std::env::var_os("LOOM_TRACE").is_some() {
            eprintln!(
                "loom-trace depth={depth} statuses={:?} candidates={candidates:?} last={last_active:?}",
                st.threads
            );
        }
        let choice_tid = if depth < path.len() {
            let choice = &path[depth];
            assert_eq!(
                choice.candidates, candidates,
                "loom: non-deterministic execution (replay diverged at depth {depth})"
            );
            choice.candidates[choice.index]
        } else {
            path.push(Choice {
                candidates: candidates.clone(),
                index: 0,
                preemptions: 0,
            });
            candidates[0]
        };
        let preempted = preempting_possible && Some(choice_tid) != last_active;
        path[depth].preemptions = prior_preemptions + usize::from(preempted);
        depth += 1;
        assert!(
            depth <= max_depth,
            "loom: execution exceeded {max_depth} schedule points \
             (runaway spin?); raise LOOM_MAX_DEPTH if intentional\n\
             statuses: {:?}\nlast choices: {:?}",
            st.threads,
            &path[depth.saturating_sub(20)..]
                .iter()
                .map(|c| (c.candidates.clone(), c.index, c.preemptions))
                .collect::<Vec<_>>()
        );
        last_active = Some(choice_tid);

        // Grant the step: the chosen thread is running again. Other
        // yielded threads stay deprioritized — a yield means "I cannot
        // progress until someone else runs", and resurrecting every
        // yielded thread on every grant lets two spinners starve the one
        // thread that can make progress (the DFS default order would
        // ping-pong between the spinners forever).
        st.threads[choice_tid] = Status::Runnable;
        for barrier in &mut st.yield_barrier {
            barrier.retain(|&t| t != choice_tid);
        }
        st.active = Some(choice_tid);
        sched.cv.notify_all();
    }
}

/// Loom-shaped `thread` API.
pub mod thread {
    use super::{
        catch_unwind, panic_message, resume_unwind, Arc, AssertUnwindSafe, RefCell, Status, CURRENT,
    };

    /// Handle to a spawned model thread.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        tid: Option<usize>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread and return its result.
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some(tid), Some((sched, my_tid))) =
                (self.tid, CURRENT.with(|c| c.borrow().clone()))
            {
                // Block in the model until the target finishes, then the
                // real join below cannot stall the scheduler.
                loop {
                    let finished = {
                        let st = sched.state.lock().unwrap();
                        st.threads[tid] == Status::Finished
                    };
                    if finished {
                        break;
                    }
                    sched.pause(my_tid, Status::BlockedJoin(tid));
                }
            }
            self.inner.join()
        }
    }

    /// Spawn a controlled thread (falls back to a plain `std` spawn
    /// outside a model run).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match CURRENT.with(|c| c.borrow().clone()) {
            Some((sched, _parent)) => {
                let tid = sched.register();
                let sched2 = Arc::clone(&sched);
                let inner = std::thread::spawn(move || {
                    CURRENT
                        .with(|c: &RefCell<_>| *c.borrow_mut() = Some((Arc::clone(&sched2), tid)));
                    sched2.arrive(tid);
                    let result = catch_unwind(AssertUnwindSafe(f));
                    let msg = result.as_ref().err().map(|p| panic_message(&**p));
                    sched2.finish(tid, msg);
                    match result {
                        Ok(v) => v,
                        Err(p) => resume_unwind(p),
                    }
                });
                // The spawn itself is a schedule point: the child is now
                // a candidate.
                super::schedule_point(false);
                JoinHandle {
                    inner,
                    tid: Some(tid),
                }
            }
            None => JoinHandle {
                inner: std::thread::spawn(f),
                tid: None,
            },
        }
    }

    /// Declare that this thread cannot progress until another runs.
    pub fn yield_now() {
        super::schedule_point(true);
    }
}

/// Loom-shaped `hint` API: spinning is a yield under the model.
pub mod hint {
    /// Spin-loop hint: a voluntary schedule point.
    pub fn spin_loop() {
        super::schedule_point(true);
    }
}

/// Loom-shaped `cell` API.
pub mod cell {
    /// An unsafe cell with loom's closure-based access API. The shim does
    /// not track aliasing (Miri does); it only provides the shape.
    #[derive(Debug)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        /// Create a cell.
        pub fn new(value: T) -> UnsafeCell<T> {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        /// Immutable access to the contents via raw pointer.
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Mutable access to the contents via raw pointer.
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

/// Loom-shaped `sync` API.
pub mod sync {
    pub use std::sync::Arc;

    /// A mutex the model scheduler can see. Taking it is a schedule
    /// point, and a thread that finds it taken yields — voluntarily, so
    /// a lock wait is never charged as a preemption — until the holder,
    /// which may be paused in the middle of its critical section, has
    /// run on. (A `std` mutex would block the very OS thread the
    /// controller has granted the step to, and the model would hang.)
    /// Never poisoned: a panic aborts the whole model run.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        locked: atomic::AtomicBool,
        data: std::cell::UnsafeCell<T>,
    }

    // SAFETY: `data` is reached only through a `MutexGuard`, of which
    // `locked` admits one at a time; handing the `T` from thread to
    // thread that way needs `T: Send`, as for `std::sync::Mutex`.
    unsafe impl<T: Send> Send for Mutex<T> {}
    // SAFETY: as above.
    unsafe impl<T: Send> Sync for Mutex<T> {}

    /// Exclusive access to a [`Mutex`]'s contents; unlocks on drop.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// A mutex holding `value`.
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                locked: atomic::AtomicBool::new(false),
                data: std::cell::UnsafeCell::new(value),
            }
        }

        /// Take the lock (`Err` never happens; the type is loom's).
        pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
            while self.locked.swap(true, atomic::Ordering::SeqCst) {
                crate::thread::yield_now();
            }
            Ok(MutexGuard { lock: self })
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            // SAFETY: the guard exists, so `locked` is ours: no other
            // reference to the contents does.
            unsafe { &*self.lock.data.get() }
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: as in `deref`, and `&mut self` is the only guard.
            unsafe { &mut *self.lock.data.get() }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.lock.locked.store(false, atomic::Ordering::SeqCst);
        }
    }

    /// Model-checked atomics: every operation is a schedule point and
    /// executes with sequentially-consistent semantics regardless of the
    /// ordering argument (weak memory is *not* modeled — see crate docs).
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        /// Fences are schedule points only (SeqCst execution already
        /// orders everything).
        pub fn fence(_order: Ordering) {
            crate::schedule_point(false);
        }

        macro_rules! int_atomic {
            ($name:ident, $std:ident, $t:ty) => {
                /// Model-checked integer atomic.
                #[derive(Debug, Default)]
                pub struct $name(std::sync::atomic::$std);

                impl $name {
                    /// Create with an initial value.
                    pub fn new(v: $t) -> Self {
                        Self(std::sync::atomic::$std::new(v))
                    }

                    /// Atomic load (schedule point).
                    pub fn load(&self, _o: Ordering) -> $t {
                        crate::schedule_point(false);
                        self.0.load(Ordering::SeqCst)
                    }

                    /// Atomic store (schedule point).
                    pub fn store(&self, v: $t, _o: Ordering) {
                        crate::schedule_point(false);
                        self.0.store(v, Ordering::SeqCst)
                    }

                    /// Atomic swap (schedule point).
                    pub fn swap(&self, v: $t, _o: Ordering) -> $t {
                        crate::schedule_point(false);
                        self.0.swap(v, Ordering::SeqCst)
                    }

                    /// Atomic compare-exchange (schedule point).
                    pub fn compare_exchange(
                        &self,
                        cur: $t,
                        new: $t,
                        _ok: Ordering,
                        _err: Ordering,
                    ) -> Result<$t, $t> {
                        crate::schedule_point(false);
                        self.0
                            .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                    }

                    /// Weak compare-exchange (never spuriously fails here).
                    pub fn compare_exchange_weak(
                        &self,
                        cur: $t,
                        new: $t,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$t, $t> {
                        self.compare_exchange(cur, new, ok, err)
                    }

                    /// Atomic add (schedule point).
                    pub fn fetch_add(&self, v: $t, _o: Ordering) -> $t {
                        crate::schedule_point(false);
                        self.0.fetch_add(v, Ordering::SeqCst)
                    }

                    /// Atomic subtract (schedule point).
                    pub fn fetch_sub(&self, v: $t, _o: Ordering) -> $t {
                        crate::schedule_point(false);
                        self.0.fetch_sub(v, Ordering::SeqCst)
                    }

                    /// Atomic max (schedule point).
                    pub fn fetch_max(&self, v: $t, _o: Ordering) -> $t {
                        crate::schedule_point(false);
                        self.0.fetch_max(v, Ordering::SeqCst)
                    }

                    /// Atomic or (schedule point).
                    pub fn fetch_or(&self, v: $t, _o: Ordering) -> $t {
                        crate::schedule_point(false);
                        self.0.fetch_or(v, Ordering::SeqCst)
                    }

                    /// Unsynchronized read for `&mut self` (test teardown).
                    pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut $t) -> R) -> R {
                        let mut v = self.0.load(Ordering::SeqCst);
                        let r = f(&mut v);
                        self.0.store(v, Ordering::SeqCst);
                        r
                    }
                }
            };
        }

        int_atomic!(AtomicU8, AtomicU8, u8);
        int_atomic!(AtomicU16, AtomicU16, u16);
        int_atomic!(AtomicU32, AtomicU32, u32);
        int_atomic!(AtomicU64, AtomicU64, u64);
        int_atomic!(AtomicUsize, AtomicUsize, usize);

        /// Model-checked boolean atomic.
        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            /// Create with an initial value.
            pub fn new(v: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(v))
            }

            /// Atomic load (schedule point).
            pub fn load(&self, _o: Ordering) -> bool {
                crate::schedule_point(false);
                self.0.load(Ordering::SeqCst)
            }

            /// Atomic store (schedule point).
            pub fn store(&self, v: bool, _o: Ordering) {
                crate::schedule_point(false);
                self.0.store(v, Ordering::SeqCst)
            }

            /// Atomic swap (schedule point).
            pub fn swap(&self, v: bool, _o: Ordering) -> bool {
                crate::schedule_point(false);
                self.0.swap(v, Ordering::SeqCst)
            }
        }

        /// Model-checked pointer atomic.
        pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

        impl<T> std::fmt::Debug for AtomicPtr<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.fmt(f)
            }
        }

        impl<T> AtomicPtr<T> {
            /// Create with an initial value.
            pub fn new(p: *mut T) -> Self {
                Self(std::sync::atomic::AtomicPtr::new(p))
            }

            /// Atomic load (schedule point).
            pub fn load(&self, _o: Ordering) -> *mut T {
                crate::schedule_point(false);
                self.0.load(Ordering::SeqCst)
            }

            /// Atomic store (schedule point).
            pub fn store(&self, p: *mut T, _o: Ordering) {
                crate::schedule_point(false);
                self.0.store(p, Ordering::SeqCst)
            }

            /// Atomic swap (schedule point).
            pub fn swap(&self, p: *mut T, _o: Ordering) -> *mut T {
                crate::schedule_point(false);
                self.0.swap(p, Ordering::SeqCst)
            }

            /// Atomic compare-exchange (schedule point).
            pub fn compare_exchange(
                &self,
                cur: *mut T,
                new: *mut T,
                _ok: Ordering,
                _err: Ordering,
            ) -> Result<*mut T, *mut T> {
                crate::schedule_point(false);
                self.0
                    .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use super::sync::Arc;

    #[test]
    fn single_thread_model_runs_once() {
        super::model(|| {
            let a = AtomicU64::new(0);
            a.store(7, Ordering::SeqCst);
            assert_eq!(a.load(Ordering::SeqCst), 7);
        });
    }

    #[test]
    fn finds_a_racy_increment() {
        // Two threads doing load-then-store must lose an update on some
        // interleaving: the model has to find it.
        let found = std::panic::catch_unwind(|| {
            super::model(|| {
                let a = Arc::new(AtomicUsize::new(0));
                let mut hs = Vec::new();
                for _ in 0..2 {
                    let a = Arc::clone(&a);
                    hs.push(super::thread::spawn(move || {
                        let v = a.load(Ordering::SeqCst);
                        a.store(v + 1, Ordering::SeqCst);
                    }));
                }
                for h in hs {
                    h.join().unwrap();
                }
                assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(found.is_err(), "model missed the lost-update interleaving");
    }

    #[test]
    fn atomic_increments_always_survive() {
        super::model(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let a = Arc::clone(&a);
                hs.push(super::thread::spawn(move || {
                    a.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn spin_wait_handshake_terminates() {
        // A spins until B publishes; exploration must not hang or starve.
        super::model(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&flag);
            let h = super::thread::spawn(move || {
                f2.store(1, Ordering::SeqCst);
            });
            while flag.load(Ordering::SeqCst) == 0 {
                super::thread::yield_now();
            }
            h.join().unwrap();
        });
    }

    #[test]
    fn mutex_excludes_and_a_holder_paused_inside_does_not_hang_the_model() {
        super::model(|| {
            let m = Arc::new(super::sync::Mutex::new((0u32, 0u32)));
            let step = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let (m, step) = (Arc::clone(&m), Arc::clone(&step));
                    super::thread::spawn(move || {
                        let mut pair = m.lock().unwrap();
                        pair.0 += 1;
                        // A schedule point inside the critical section.
                        step.fetch_add(1, Ordering::SeqCst);
                        pair.1 += 1;
                        assert_eq!(pair.0, pair.1);
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(*m.lock().unwrap(), (2, 2));
        });
    }

    #[test]
    fn join_waits_for_value() {
        super::model(|| {
            let h = super::thread::spawn(|| 41 + 1);
            assert_eq!(h.join().unwrap(), 42);
        });
    }
}
