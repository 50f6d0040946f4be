//! Proof of the zero-allocation hot send path (DESIGN.md §5c).
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass populates the thread-local pools, the steady-state
//! `join`/`complete` cycle must perform **zero** heap allocations.
//!
//! Everything runs inside a single `#[test]` function: Rust's test
//! harness runs tests on separate threads (and concurrently unless
//! `--test-threads=1`), so a global allocation counter shared across
//! `#[test]` functions would pick up harness noise. Sequential scenarios
//! inside one test keep the counter honest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use flock_core::tcq::{Outcome, Tcq};
use flock_core::Bytes;

/// Forwards to the system allocator, counting allocations made by the
/// measuring thread while armed. The arm flag is thread-local so the
/// test harness's own threads (which allocate at will) don't pollute
/// the count. Deallocations are not counted: recycling is allowed to
/// *release* memory lazily (TLS teardown), it just must not *acquire*
/// any.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the counter has no effect on the returned memory. The
// const-initialized TLS read cannot allocate (no lazy init), and
// `try_with` tolerates TLS teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counting is a side effect only; allocation itself is
    // delegated to `System` under the caller's `layout` contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: caller upholds `GlobalAlloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller passes a pointer previously returned by `alloc`
        // with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Run `f` with the counter armed on this thread, returning how many
/// allocations it made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.with(|c| c.set(true));
    f();
    ARMED.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed)
}

/// One leader-path cycle: join, drain the batch in place, complete.
fn cycle(tcq: &Tcq<u64>, item: u64) {
    match tcq.join(item) {
        Outcome::Lead(mut batch) => {
            let mut sum = 0u64;
            for it in batch.drain_items() {
                sum = sum.wrapping_add(it);
            }
            std::hint::black_box(sum);
            tcq.complete(batch);
        }
        Outcome::Sent => unreachable!("single-threaded join must lead"),
    }
}

#[test]
fn steady_state_hot_path_is_allocation_free() {
    // Sanity: a plain `Box::new` loop must register allocations, proving
    // the counter is alive before we assert zeroes with it.
    let boxed_allocs = count_allocs(|| {
        for i in 0..100u64 {
            std::hint::black_box(Box::new(i));
        }
    });
    assert!(
        boxed_allocs >= 100,
        "counting allocator is not live (saw {boxed_allocs} allocations \
         over 100 `Box::new` calls)"
    );

    // Warm-up: the first pooled cycle seeds this thread's pool with the
    // node block and the two batch scratch buffers.
    let tcq: Tcq<u64> = Tcq::new(16);
    cycle(&tcq, 0);

    // Steady state: every further join/complete recycles those blocks.
    let steady = count_allocs(|| {
        for i in 1..=10_000 {
            cycle(&tcq, i);
        }
    });
    assert_eq!(
        steady, 0,
        "hot send path allocated {steady} times over 10k steady-state \
         join/complete cycles; node or scratch recycling regressed"
    );

    // Zero-copy payload plumbing: cloning and slicing `Bytes` is
    // refcounting, never a copy or an allocation.
    let payload = Bytes::from(vec![7u8; 1024]);
    let bytes_allocs = count_allocs(|| {
        for i in 0..1_000usize {
            let c = payload.clone();
            let s = c.slice(i % 512..(i % 512) + 256);
            std::hint::black_box(&s);
        }
    });
    assert_eq!(
        bytes_allocs, 0,
        "Bytes clone/slice allocated {bytes_allocs} times; zero-copy \
         payload handoff regressed"
    );
}
