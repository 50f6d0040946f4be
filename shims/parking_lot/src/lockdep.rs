//! Lock-order checking, in debug builds only (DESIGN.md §5f).
//!
//! A lock's *class* is the place it was constructed. Each OS thread
//! keeps a stack of the classes it holds; a blocking acquisition of
//! class B while class A is held records the edge A → B in one
//! process-wide table, and the first edge that closes a cycle panics
//! with the cycle's construction sites. Two threads that take a pair of
//! locks in opposite orders can deadlock although no run ever has: this
//! reports the pair as soon as each order has been taken once, by any
//! thread of the process.
//!
//! Locks built at one site are one class, so an edge from a class to
//! itself is never recorded (per-QP lanes nest). A `try_lock` cannot
//! wait, so it closes no cycle: it records no edge, but what it
//! acquires is held. Nothing here allocates until it panics.

use std::cell::RefCell;
use std::panic::Location;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard, OnceLock, PoisonError};

/// Construction sites one process may have.
const MAX_CLASSES: usize = 1024;

/// Distinct classes one thread may hold at once.
const MAX_HELD: usize = 16;

const WORDS: usize = MAX_CLASSES / 64;

/// The site a lock was built at, numbered the first time it is taken.
pub(crate) struct Class {
    site: &'static Location<'static>,
    /// One more than the class's index into `SITES`; 0 until numbered.
    id: AtomicU16,
}

impl Class {
    /// The class of a lock built by the caller's caller.
    #[track_caller]
    pub(crate) const fn here() -> Class {
        Class {
            site: Location::caller(),
            id: AtomicU16::new(0),
        }
    }

    fn id(&self) -> u16 {
        match self.id.load(Relaxed) {
            0 => self.number(),
            id => id - 1,
        }
    }

    /// The index of this class's site, which equal sites share (one
    /// site can have more than one `Location`).
    #[cold]
    fn number(&self) -> u16 {
        let _writer = writer();
        let here = (self.site.line(), self.site.column(), self.site.file());
        let numbered = || SITES.iter().map_while(OnceLock::get);
        let id = numbered()
            .position(|s| (s.line(), s.column(), s.file()) == here)
            .unwrap_or_else(|| {
                let n = numbered().count();
                assert!(
                    n < MAX_CLASSES,
                    "more than {MAX_CLASSES} lock construction sites"
                );
                let _ = SITES[n].set(self.site);
                n
            });
        let id = u16::try_from(id).expect("MAX_CLASSES fits in u16");
        self.id.store(id + 1, Relaxed);
        id
    }
}

/// The site of every numbered class, filled from the front.
static SITES: [OnceLock<&'static Location<'static>>; MAX_CLASSES] =
    [const { OnceLock::new() }; MAX_CLASSES];

/// `ORDER[a]` has bit `b` set once class `b` was acquired while `a` was held.
static ORDER: [[AtomicU64; WORDS]; MAX_CLASSES] =
    [const { [const { AtomicU64::new(0) }; WORDS] }; MAX_CLASSES];

/// Serializes numbering and new edges; readers take neither.
static WRITER: StdMutex<()> = StdMutex::new(());

fn writer() -> StdGuard<'static, ()> {
    WRITER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ordered(from: u16, to: u16) -> bool {
    let (from, to) = (usize::from(from), usize::from(to));
    ORDER[from][to / 64].load(Relaxed) & (1 << (to % 64)) != 0
}

/// The classes this thread holds, each with how many of its locks.
struct Held {
    len: usize,
    slots: [(u16, u32); MAX_HELD],
}

thread_local! {
    static HELD: RefCell<Held> = const {
        RefCell::new(Held { len: 0, slots: [(0, 0); MAX_HELD] })
    };
}

/// A blocking acquisition of a lock of `class`: record an edge from
/// every other class this thread holds, then hold it.
pub(crate) fn acquire(class: &Class) {
    let id = class.id();
    HELD.with(|held| {
        let held = &mut *held.borrow_mut();
        let mut i = 0;
        while i < held.len {
            let from = held.slots[i].0;
            if from != id && !ordered(from, id) {
                order(from, id);
            }
            i += 1;
        }
        held.push(id);
    });
}

/// A lock of `class` was acquired without waiting (`try_lock`).
pub(crate) fn acquired(class: &Class) {
    let id = class.id();
    HELD.with(|held| held.borrow_mut().push(id));
}

/// A lock of `class` was released.
pub(crate) fn release(class: &Class) {
    let id = class.id();
    HELD.with(|held| {
        let held = &mut *held.borrow_mut();
        let mut i = held.len - 1;
        while held.slots[i].0 != id {
            i -= 1;
        }
        held.slots[i].1 -= 1;
        if held.slots[i].1 == 0 {
            held.len -= 1;
            let last = held.len;
            held.slots[i] = held.slots[last];
        }
    });
}

impl Held {
    fn push(&mut self, id: u16) {
        let mut i = 0;
        while i < self.len {
            if self.slots[i].0 == id {
                self.slots[i].1 += 1;
                return;
            }
            i += 1;
        }
        assert!(
            self.len < MAX_HELD,
            "one thread holds locks of more than {MAX_HELD} construction sites"
        );
        self.slots[self.len] = (id, 1);
        self.len += 1;
    }
}

/// Record `from → to`, panicking if `to` already reaches `from`.
#[cold]
fn order(from: u16, to: u16) {
    let writer = writer();
    if let Some(cycle) = path(to, from) {
        drop(writer);
        panic!(
            "lock-order cycle: the lock built at {} is acquired while the lock built at {} \
             is held, and the opposite order was taken before: {cycle}",
            site(to),
            site(from)
        );
    }
    let (from, to) = (usize::from(from), usize::from(to));
    ORDER[from][to / 64].fetch_or(1 << (to % 64), Relaxed);
}

fn site(id: u16) -> &'static Location<'static> {
    SITES[usize::from(id)]
        .get()
        .expect("a numbered class has a site")
}

/// The recorded path from `start` to `end`, as construction sites
/// joined by ` -> `.
fn path(start: u16, end: u16) -> Option<String> {
    // A breadth-first search: `prev[c]` is the class the search reached
    // class `c` from.
    let mut prev = [u16::MAX; MAX_CLASSES];
    let mut queue = [0u16; MAX_CLASSES];
    let (mut head, mut tail) = (0, 1);
    queue[0] = start;
    prev[usize::from(start)] = start;
    while head < tail {
        let from = queue[head];
        head += 1;
        for (w, word) in ORDER[usize::from(from)].iter().enumerate() {
            let mut bits = word.load(Relaxed);
            while bits != 0 {
                let to = (w * 64) as u16 + bits.trailing_zeros() as u16;
                bits &= bits - 1;
                if prev[usize::from(to)] != u16::MAX {
                    continue;
                }
                prev[usize::from(to)] = from;
                if to == end {
                    let mut sites = vec![site(end).to_string()];
                    let mut at = end;
                    while at != start {
                        at = prev[usize::from(at)];
                        sites.push(site(at).to_string());
                    }
                    sites.reverse();
                    return Some(sites.join(" -> "));
                }
                queue[tail] = to;
                tail += 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::{Mutex, RwLock};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Run `f`, which must panic naming the locks built on `lines` of
    /// this file, then go on panicking with its message.
    fn cycle_naming(lines: &[u32], f: impl FnOnce()) {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("no cycle was reported");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        for line in lines {
            let site = format!("{}:{line}:", file!());
            assert!(msg.contains(&site), "the site on line {line} is not named");
        }
        resume_unwind(err);
    }

    struct Shards {
        alpha: Mutex<u32>,
        beta: Mutex<u32>,
        gamma: Mutex<u32>,
    }

    impl Shards {
        fn ab(&self) {
            let _a = self.alpha.lock();
            let _b = self.beta.lock();
        }

        fn bc(&self) {
            let _b = self.beta.lock();
            let _c = self.gamma.lock();
        }

        fn ac(&self) {
            let _a = self.alpha.lock();
            let _c = self.gamma.lock();
        }

        fn ca(&self) {
            let _c = self.gamma.lock();
            let _a = self.alpha.lock();
        }
    }

    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn three_locks_taken_pairwise_in_a_ring_are_a_cycle() {
        let (alpha, a) = (Mutex::new(0), line!());
        let (beta, b) = (Mutex::new(0), line!());
        let (gamma, c) = (Mutex::new(0), line!());
        let s = Shards { alpha, beta, gamma };
        s.ab();
        s.bc();
        cycle_naming(&[a, b, c], || s.ca());
    }

    #[test]
    fn three_locks_taken_in_one_order_are_no_cycle() {
        let s = Shards {
            alpha: Mutex::new(0),
            beta: Mutex::new(0),
            gamma: Mutex::new(0),
        };
        s.ab();
        s.bc();
        s.ac();
    }

    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn opposite_orders_through_callees_are_a_cycle() {
        let (left, l) = (Mutex::new(0), line!());
        let (right, r) = (Mutex::new(0), line!());
        let take = |m: &Mutex<u32>| drop(m.lock());
        {
            let _l = left.lock();
            take(&right);
        }
        cycle_naming(&[l, r], || {
            let _r = right.lock();
            take(&left);
        });
    }

    #[test]
    fn locks_built_at_one_site_nest_in_either_order() {
        let lanes: Vec<Mutex<u32>> = (0..2).map(|_| Mutex::new(0)).collect();
        for (first, second) in [(0, 1), (1, 0)] {
            let _a = lanes[first].lock();
            let _b = lanes[second].lock();
        }
    }

    #[test]
    fn a_try_lock_records_no_edge() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        {
            let _a = a.lock();
            let _b = b.try_lock().expect("b is free");
        }
        let _b = b.lock();
        let _a = a.lock();
    }

    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn read_and_write_guards_both_count() {
        let (rw, m) = (RwLock::new(0), Mutex::new(0));
        {
            let _r = rw.read();
            let _m = m.lock();
        }
        let _m = m.lock();
        let _w = rw.write();
    }

    /// `#[derive(Default)]` builds every field at the derive attribute,
    /// so two locks of one derived struct are one class and nest in
    /// either order unchecked (DESIGN.md §5f).
    #[test]
    fn two_fields_of_a_derived_default_are_one_class() {
        #[derive(Default)]
        struct Two {
            a: Mutex<u32>,
            b: Mutex<u32>,
        }
        let two = Two::default();
        assert_eq!(two.a.class.site, two.b.class.site);
        for (first, second) in [(&two.a, &two.b), (&two.b, &two.a)] {
            let _f = first.lock();
            let _s = second.lock();
        }
    }
}
