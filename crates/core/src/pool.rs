//! Thread-local allocation pool for the hot send path (DESIGN.md §5c).
//!
//! The TCQ retires every queue node *on the thread that allocated it*
//! (a follower frees its own node after observing `SENT`; the leader
//! frees its own node inside [`crate::tcq::Tcq::complete`]). That
//! ownership discipline means retired hot-path memory can be recycled
//! through a plain thread-local free list: no atomics, no cross-thread
//! reclamation protocol, and — because a block is only reused by the
//! thread that just proved it unreachable — no ABA hazard is introduced
//! on the TCQ's `tail`/`next` pointers (see DESIGN.md §5c for the
//! argument that recycling preserves happens-before edges 1–4 of §5b).
//!
//! The pool is keyed by [`Layout`] (size + alignment), so one pool per
//! thread serves TCQ nodes of any item type as well as the recycled
//! batch scratch `Vec`s. Blocks come from and return to the global
//! allocator at the edges: `acquire` falls back to `None` (caller
//! allocates), `release` frees excess blocks beyond a small per-class
//! cap, and whatever remains is freed when the thread exits.
//!
//! Because the pool takes no locks and touches no atomics, it adds no
//! schedule points under loom — model checking of the TCQ explores the
//! same interleavings with pooling on as off, and replay stays
//! deterministic.

use std::alloc::{alloc, dealloc, Layout};
use std::cell::RefCell;
use std::ptr::NonNull;

/// Cap on retained free blocks per (size, align) class, per thread.
/// Hot paths need at most a handful (one node + two scratch buffers per
/// in-flight batch); the cap bounds worst-case retention from bursts.
const MAX_FREE_PER_CLASS: usize = 64;

/// One free list for a single block layout.
struct SizeClass {
    layout: Layout,
    free: Vec<NonNull<u8>>,
}

/// Thread-local store; wrapper exists to free retained blocks on thread
/// exit.
struct PoolStore(Vec<SizeClass>);

impl Drop for PoolStore {
    fn drop(&mut self) {
        for class in &mut self.0 {
            for ptr in class.free.drain(..) {
                // SAFETY: every pointer on the free list was produced by
                // the global allocator with exactly `class.layout` (either
                // by `acquire`'s refill or by the caller, per `release`'s
                // contract) and is owned by the list.
                unsafe { dealloc(ptr.as_ptr(), class.layout) };
            }
        }
    }
}

thread_local! {
    #[expect(
        clippy::disallowed_types,
        reason = "a free list of same-layout blocks: which task's pops and pushes fill it carries no meaning, \
                  no virtual time is charged by hit or miss, and the borrow lives inside acquire and release, \
                  which reach no suspension point"
    )]
    static POOL: RefCell<PoolStore> = const { RefCell::new(PoolStore(Vec::new())) };
}

/// Pop a recycled block of exactly `layout` from this thread's pool.
///
/// Returns `None` (caller must allocate) for zero-size layouts, when the
/// class is empty, or during thread teardown. The returned memory is
/// uninitialized.
pub(crate) fn acquire(layout: Layout) -> Option<NonNull<u8>> {
    if layout.size() == 0 {
        return None;
    }
    POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.0
            .iter_mut()
            .find(|c| c.layout == layout)
            .and_then(|c| c.free.pop())
    })
    .ok()
    .flatten()
}

/// Return a block of exactly `layout` to this thread's pool.
///
/// The caller passes ownership of `ptr`, which must have been allocated
/// by the global allocator with `layout` (e.g. via [`acquire`]'s
/// fallback path, `Box`, or `Vec`). Blocks beyond the per-class cap —
/// or arriving during thread teardown — go straight back to the global
/// allocator.
pub(crate) fn release(ptr: NonNull<u8>, layout: Layout) {
    debug_assert!(layout.size() > 0, "zero-size blocks never allocate");
    let pooled = POOL
        .try_with(|pool| {
            let mut pool = pool.borrow_mut();
            match pool.0.iter_mut().find(|c| c.layout == layout) {
                Some(c) if c.free.len() < MAX_FREE_PER_CLASS => {
                    c.free.push(ptr);
                    true
                }
                Some(_) => false,
                None => {
                    pool.0.push(SizeClass {
                        layout,
                        free: vec![ptr],
                    });
                    true
                }
            }
        })
        .unwrap_or(false);
    if !pooled {
        // SAFETY: the caller passed ownership, and `ptr` was allocated
        // with `layout` by the global allocator (function contract).
        unsafe { dealloc(ptr.as_ptr(), layout) };
    }
}

/// Allocate a block of `layout`, recycling from the pool when possible.
///
/// The returned memory is uninitialized and owned by the caller; retire
/// it with [`release`]. Panics on allocation failure (same policy as
/// `Box::new`).
pub(crate) fn acquire_or_alloc(layout: Layout) -> NonNull<u8> {
    if let Some(ptr) = acquire(layout) {
        return ptr;
    }
    debug_assert!(layout.size() > 0, "zero-size blocks never allocate");
    // SAFETY: `layout` has non-zero size (callers pool only real blocks;
    // debug-asserted above) — the only precondition of `alloc`.
    let raw = unsafe { alloc(layout) };
    match NonNull::new(raw) {
        Some(ptr) => ptr,
        None => std::alloc::handle_alloc_error(layout),
    }
}

/// A `Vec<T>` with capacity exactly `capacity`, recycling a pooled
/// buffer when one of the matching layout is available.
///
/// Zero-size element types never allocate, so they bypass the pool.
pub(crate) fn acquire_vec<T>(capacity: usize) -> Vec<T> {
    if std::mem::size_of::<T>() == 0 || capacity == 0 {
        return Vec::with_capacity(capacity);
    }
    let layout = Layout::array::<T>(capacity).expect("pool vec capacity overflows layout");
    match acquire(layout) {
        // SAFETY: the block was allocated by the global allocator with
        // exactly `Layout::array::<T>(capacity)` (release_vec's contract
        // keys the class by that layout), length 0 ≤ capacity, and `T`s
        // will only be written through normal Vec operations.
        Some(ptr) => unsafe { Vec::from_raw_parts(ptr.as_ptr().cast::<T>(), 0, capacity) },
        None => Vec::with_capacity(capacity),
    }
}

/// Retire a `Vec` obtained from [`acquire_vec`] back into the pool.
///
/// The contents are dropped; the buffer is retained for reuse only when
/// its capacity still matches `expected_capacity` (a grown or stolen
/// buffer just drops normally — pooling is best-effort).
pub(crate) fn release_vec<T>(mut v: Vec<T>, expected_capacity: usize) {
    v.clear();
    if std::mem::size_of::<T>() == 0 || v.capacity() != expected_capacity || expected_capacity == 0
    {
        return; // Vec's own Drop handles it.
    }
    let layout = Layout::array::<T>(v.capacity()).expect("pool vec capacity overflows layout");
    let ptr = v.as_mut_ptr().cast::<u8>();
    std::mem::forget(v);
    release(
        NonNull::new(ptr).expect("live Vec buffer is non-null"),
        layout,
    );
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn blocks_recycle_within_a_thread() {
        let layout = Layout::from_size_align(192, 64).unwrap();
        let a = acquire_or_alloc(layout);
        release(a, layout);
        let b = acquire_or_alloc(layout);
        assert_eq!(a, b, "freshly released block should be reused (LIFO)");
        release(b, layout);
    }

    #[test]
    fn distinct_layouts_use_distinct_classes() {
        let l1 = Layout::from_size_align(64, 64).unwrap();
        let l2 = Layout::from_size_align(128, 64).unwrap();
        let a = acquire_or_alloc(l1);
        release(a, l1);
        assert!(acquire(l2).is_none(), "must not serve a smaller block");
        let b = acquire_or_alloc(l1);
        assert_eq!(a, b);
        release(b, l1);
    }

    #[test]
    fn vecs_recycle_and_mismatched_capacity_is_dropped() {
        let v: Vec<u64> = acquire_vec(8);
        assert_eq!(v.capacity(), 8);
        let ptr = v.as_ptr();
        release_vec(v, 8);
        let w: Vec<u64> = acquire_vec(8);
        assert_eq!(w.as_ptr(), ptr, "buffer should be recycled");
        // A grown vec is not pooled (capacity mismatch) — just dropped.
        let mut g: Vec<u64> = acquire_vec(8);
        g.extend(0..100);
        let grown_cap = g.capacity();
        assert_ne!(grown_cap, 8);
        release_vec(g, 8);
        release_vec(w, 8);
    }

    #[test]
    fn zst_vecs_bypass_the_pool() {
        let v: Vec<()> = acquire_vec(16);
        assert!(v.capacity() >= 16);
        release_vec(v, 16);
    }

    #[test]
    fn pool_survives_cap_overflow() {
        let layout = Layout::from_size_align(32, 8).unwrap();
        let blocks: Vec<_> = (0..MAX_FREE_PER_CLASS + 8)
            .map(|_| acquire_or_alloc(layout))
            .collect();
        for b in blocks {
            release(b, layout); // beyond the cap: deallocated, not pooled
        }
        let again = acquire_or_alloc(layout);
        release(again, layout);
    }
}
