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
use std::sync::Arc;

use flock_core::msg::{EntryMeta, EntryRef};
use flock_core::ring::Link;
use flock_core::tcq::{Outcome, Tcq};
use flock_core::{Bytes, RingInfo};
use flock_fabric::{Access, CompletionQueue, Fabric, MemoryRegion, Transport, PAGE};
use flock_sync::clock;

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

/// Bytes of each link's ring: four pages, so a lap hands pages back
/// and takes them again from the region's spare.
const RING: usize = 4 * PAGE;

/// Two links over a connected QP pair on two nodes, each receiving in a
/// [`RING`]-byte ring, their send CQs and their rings.
fn link_pair(fabric: &Fabric) -> ([Link; 2], [Arc<CompletionQueue>; 2], [Arc<MemoryRegion>; 2]) {
    let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
    let (acq, bcq) = (a.create_cq(64), b.create_cq(64));
    let aqp = a.create_qp(Transport::Rc, &acq, &acq);
    let bqp = b.create_qp(Transport::Rc, &bcq, &bcq);
    fabric.connect(&aqp, &bqp).unwrap();
    let aring = a.register_mr(RING, Access::REMOTE_WRITE);
    let bring = b.register_mr(RING, Access::REMOTE_WRITE);
    let (ainfo, binfo) = (RingInfo::of(&aring), RingInfo::of(&bring));
    let rings = [Arc::clone(&aring), Arc::clone(&bring)];
    let links = [
        Link::new(&a, aqp, aring, binfo),
        Link::new(&b, bqp, bring, ainfo),
    ];
    (links, [acq, bcq], rings)
}

/// Each end of `links` sends one 100-byte entry (a 192-byte record, so
/// the rings wrap through wrap records), the NIC lane executes the
/// write, the other end polls it and the sender drains its CQ.
fn link_round_trip(links: &[Link; 2], cqs: &[Arc<CompletionQueue>; 2], buf: &mut Vec<u8>) {
    let data = [7u8; 100];
    let entry = EntryRef {
        meta: EntryMeta {
            len: data.len() as u32,
            thread_id: 1,
            seq: 1,
            rpc_id: 1,
        },
        data: &data,
    };
    for (from, to) in [(0, 1), (1, 0)] {
        links[from].try_send(0, 0, std::iter::once(entry)).unwrap();
        while !links[to].poll_into(buf).unwrap() {
            clock::yield_now();
        }
        while cqs[from].poll_one().is_some() {}
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

    // The ring path in the lab, where the NIC lane runs on this thread:
    // link send, lane execute, poll. Warm-up grows the QPs' inline
    // payload buffers, the CQs and the lab's queues, and gives each ring
    // its spare page; the counted round trips run each ring through at
    // least three laps of page turnover.
    let (rounds, record) = (1_000, 192);
    assert!(rounds * record >= 3 * RING, "fewer than three laps");
    let link_allocs = flock_sim::VirtualLab::run(|| {
        let fabric = Fabric::with_defaults();
        let (links, cqs, rings) = link_pair(&fabric);
        let mut buf = Vec::new();
        for _ in 0..200 {
            link_round_trip(&links, &cqs, &mut buf);
        }
        let allocs = count_allocs(|| {
            for _ in 0..rounds {
                link_round_trip(&links, &cqs, &mut buf);
            }
        });
        for ring in &rings {
            let resident = ring.resident_bytes();
            assert!(
                resident <= 2 * PAGE,
                "a drained ring holds {resident} bytes"
            );
        }
        allocs
    });
    assert_eq!(
        link_allocs, 0,
        "the ring path allocated {link_allocs} times over 1k steady-state \
         round trips; a link, the NIC lane or inline payload recycling \
         regressed"
    );
}
