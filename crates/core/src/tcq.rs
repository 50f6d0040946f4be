//! Flock synchronization: the thread combining queue (TCQ, paper §4.2).
//!
//! Threads that share a QP coordinate through an MCS-style queue
//! ([Mellor-Crummey & Scott]) instead of a lock. A thread enqueues its
//! request with one atomic swap. If the queue was empty it becomes the
//! transient *leader*: it collects the requests of all queued *followers*
//! (up to a bound, ensuring its own progress), sends one coalesced message,
//! and hands leadership to the first uncollected follower. Followers spin
//! only on their own cache line.
//!
//! Compared to a lock, every enqueued request is eventually sent by *some*
//! leader without the thread ever re-acquiring anything — the combining
//! degree rises with contention, which is exactly the paper's observation
//! that sharing plus coalescing beats both per-thread QPs and lock-based
//! sharing at high thread counts.
//!
//! The queue is generic over the item type: the RPC layer submits encoded
//! request entries, the memory-op layer submits work requests.
//!
//! [Mellor-Crummey & Scott]: https://doi.org/10.1145/103727.103729

use std::alloc::Layout;
use std::ptr;
use std::ptr::NonNull;

use flock_sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use flock_sync::clock::Event;
use flock_sync::{backoff, spin_until, CachePadded, UnsafeCell};

use crate::pool;

/// Node states. `WAITING` → (`LEADER` | `SENT`).
const WAITING: u8 = 0;
const LEADER: u8 = 1;
const SENT: u8 = 2;

/// Default bound on requests per coalesced batch (keeps the leader's own
/// latency bounded, paper §4.2).
pub(crate) const DEFAULT_BATCH_LIMIT: usize = 16;

/// Aligned to a cache line so a follower spinning on its own node's
/// `state` never shares that line with a neighboring node (DESIGN.md
/// §5c): node memory comes from a pool that hands out tightly packed
/// 64-byte-aligned blocks, so without the alignment two nodes could
/// straddle one line and the leader's writes would steal it from an
/// unrelated spinner.
#[repr(align(64))]
struct Node<T> {
    state: AtomicU8,
    next: AtomicPtr<Node<T>>,
    /// The follower deposits its item before publishing the node; the
    /// leader takes it during collection. Only ever accessed by the owner
    /// (before publication) and by the unique leader (after).
    item: UnsafeCell<Option<T>>,
}

/// Result of [`Tcq::join`].
pub enum Outcome<T> {
    /// Some other thread's leader coalesced and sent this request.
    Sent,
    /// This thread is the leader and must send the batch, then call
    /// [`Tcq::complete`].
    Lead(Batch<T>),
}

/// A collected batch held by the current leader.
///
/// The batch owns the items of every collected request (leader's own item
/// first). Dropping a batch without calling [`Tcq::complete`] would strand
/// the followers, so the runtime always completes; `Batch` has no `Drop`
/// of its own beyond releasing items.
pub struct Batch<T> {
    items: Vec<T>,
    /// Raw nodes backing the batch; `nodes[0]` is the leader's own node.
    nodes: Vec<*mut Node<T>>,
}

impl<T> Batch<T> {
    /// The coalescing degree: number of requests in this batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch is empty (never: it always holds the leader's
    /// own request).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrow the collected items (leader's own first, then followers in
    /// queue order).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Take ownership of the collected items (the batch keeps its queue
    /// bookkeeping so [`Tcq::complete`] still releases the followers).
    ///
    /// Taking the `Vec` removes its buffer from the recycling cycle (the
    /// pool only retains buffers of exactly `batch_limit` capacity);
    /// allocation-free callers should prefer [`Batch::drain_items`].
    pub fn take_items(&mut self) -> Vec<T> {
        std::mem::take(&mut self.items)
    }

    /// Drain the collected items in place (leader's own first, then
    /// followers in queue order), leaving the buffer with the batch so
    /// [`Tcq::complete`] can recycle it. This is the allocation-free
    /// counterpart of [`Batch::take_items`].
    pub fn drain_items(&mut self) -> std::vec::Drain<'_, T> {
        self.items.drain(..)
    }
}

/// The thread combining queue for one shared QP.
///
/// Layout: `tail` sits alone on its own cache line ([`CachePadded`]).
/// Every joining thread RMWs `tail`, while `handed_off` is written by
/// every hand-off's notify and by every follower that blocks on it;
/// without the padding each of those writes would invalidate the line
/// every swapper needs (false sharing, DESIGN.md §5c).
#[derive(Debug)]
pub struct Tcq<T> {
    tail: CachePadded<AtomicPtr<Node<T>>>,
    batch_limit: usize,
    /// Notified by [`Tcq::complete`] after its `LEADER`/`SENT` stores:
    /// what a follower's spin ([`spin_until`]) waits to be told.
    handed_off: Event,
}

// SAFETY: nodes are shared across threads; access to `item` is serialized
// by the queue protocol (owner before publication, the unique leader
// after), and all cross-thread handoff happens through Release/Acquire
// atomics on `tail`, `next`, and `state`.
unsafe impl<T: Send> Send for Tcq<T> {}
// SAFETY: `&Tcq` only exposes `join`/`complete`, which are the protocol
// entry points described above; `T: Send` suffices because items move
// between threads but are never aliased concurrently.
unsafe impl<T: Send> Sync for Tcq<T> {}

impl<T> Default for Tcq<T> {
    fn default() -> Self {
        Self::new(DEFAULT_BATCH_LIMIT)
    }
}

impl<T> Tcq<T> {
    /// Create a TCQ with the given per-batch request bound (`>= 1`).
    /// Nodes and batch scratch are recycled through the thread-local
    /// pool (`crate::pool`).
    pub fn new(batch_limit: usize) -> Tcq<T> {
        assert!(batch_limit >= 1);
        Tcq {
            tail: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            batch_limit,
            handed_off: Event::new(),
        }
    }

    /// Allocate and initialize a queue node, recycling a retired block
    /// from this thread's pool when available.
    fn alloc_node(&self, item: T) -> *mut Node<T> {
        let node = pool::acquire_or_alloc(Layout::new::<Node<T>>())
            .as_ptr()
            .cast::<Node<T>>();
        // SAFETY: `node` is a fresh, uninitialized, exclusively owned
        // block of exactly `Layout::new::<Node<T>>()`; writing the
        // initial value claims it before publication.
        unsafe {
            node.write(Node {
                state: AtomicU8::new(WAITING),
                next: AtomicPtr::new(ptr::null_mut()),
                item: UnsafeCell::new(Some(item)),
            });
        }
        node
    }

    /// Retire a node whose terminal transition has been observed (the
    /// caller is its unique owner again): drop it in place and hand the
    /// block to this thread's pool for the next `join`.
    ///
    /// # Safety
    ///
    /// `node` must have been produced by `alloc_node` on this `Tcq` and
    /// must be exclusively owned by the calling thread (post-`SENT` for
    /// followers, post-handoff for the leader's own node).
    unsafe fn retire_node(&self, node: *mut Node<T>) {
        // SAFETY: caller guarantees unique ownership; the value is
        // initialized (written by `alloc_node`) and dropped exactly once.
        unsafe { ptr::drop_in_place(node) };
        pool::release(
            NonNull::new(node.cast::<u8>()).expect("queue nodes are non-null"),
            Layout::new::<Node<T>>(),
        );
    }

    /// Submit `item`. Blocks (spinning with yields) until the item has been
    /// taken into a batch. Returns [`Outcome::Lead`] if this thread must
    /// perform the send.
    pub fn join(&self, item: T) -> Outcome<T> {
        self.join_with(item, || {})
    }

    /// [`Tcq::join`] with a *boarding window*: when the caller becomes the
    /// leader, `boarding` runs after publication but before the batch is
    /// collected, so requests submitted concurrently during the window
    /// land in this batch instead of the next one. On real hardware the
    /// window exists for free (doorbell + DMA latency); callers on fast
    /// or single-CPU hosts can widen it deliberately (e.g. one
    /// `yield_now`) so combining still emerges under contention.
    ///
    /// `boarding` is not invoked on the follower path, and delaying
    /// collection is always safe: followers link themselves and spin
    /// regardless of how long the leader takes to collect.
    pub fn join_with(&self, item: T, boarding: impl FnOnce()) -> Outcome<T> {
        let node = self.alloc_node(item);
        // Publish: single atomic swap makes us the queue tail.
        let prev = self.tail.swap(node, Ordering::AcqRel);
        if prev.is_null() {
            // Queue was empty: we are the leader.
            boarding();
            return Outcome::Lead(self.collect(node));
        }
        // SAFETY: `prev` was the tail; its owner cannot free it until it
        // observes SENT/LEADER, which cannot happen before its `next` is
        // linked (the leader spins for the link whenever `tail != prev`).
        unsafe {
            (*prev).next.store(node, Ordering::Release);
        }
        // Spin on our own node's state until a leader's `complete`
        // moves it.
        let state = spin_until(&self.handed_off, || {
            // SAFETY: we own `node` until we observe a terminal state.
            let state = unsafe { (*node).state.load(Ordering::Acquire) };
            (state != WAITING).then_some(state)
        });
        if state == LEADER {
            return Outcome::Lead(self.collect(node));
        }
        // SENT: our item was consumed by a leader that no longer holds
        // any reference to this node.
        // SAFETY: terminal state observed; we are the unique owner again
        // and the item slot is empty. Retiring on the allocating thread
        // is what lets the pool skip cross-thread synchronization
        // (DESIGN.md §5c).
        unsafe { self.retire_node(node) };
        Outcome::Sent
    }

    /// Collect a batch starting at `start` (our own node). Called only by
    /// the unique leader.
    fn collect(&self, start: *mut Node<T>) -> Batch<T> {
        // Scratch buffers: recycled at `batch_limit` capacity through the
        // thread-local pool, so a steady-state leader never allocates.
        let mut nodes = pool::acquire_vec::<*mut Node<T>>(self.batch_limit);
        let mut items = pool::acquire_vec::<T>(self.batch_limit);
        nodes.push(start);
        items.push(
            // SAFETY: `start` is our own node; the item was deposited
            // before publication and no other thread accesses the slot
            // between publication and leadership.
            unsafe { (*start).item.with_mut(|slot| (*slot).take()) }
                .expect("leader's own item present"),
        );
        let mut cur = start;
        while nodes.len() < self.batch_limit {
            // SAFETY: `cur` is a collected, not-yet-released node.
            let mut next = unsafe { (*cur).next.load(Ordering::Acquire) };
            if next.is_null() {
                if self.tail.load(Ordering::Acquire) == cur {
                    break; // queue (currently) ends at cur
                }
                // A successor has swapped the tail but not linked yet.
                let mut spins = 0u32;
                while next.is_null() {
                    spins += 1;
                    backoff(spins);
                    // SAFETY: as above.
                    next = unsafe { (*cur).next.load(Ordering::Acquire) };
                }
            }
            // SAFETY: `next` is published (linked) and WAITING: its item
            // was deposited before publication; only we (the leader) take.
            let item = unsafe { (*next).item.with_mut(|slot| (*slot).take()) }
                .expect("follower item present");
            items.push(item);
            nodes.push(next);
            cur = next;
        }
        Batch { items, nodes }
    }

    /// Finish a batch after sending: hand leadership to the next waiting
    /// thread (if any) and release all batch nodes.
    pub fn complete(&self, batch: Batch<T>) {
        let Batch { items, nodes } = batch;
        // Recycle the scratch buffer (contents dropped) for the next
        // `collect` on this thread.
        pool::release_vec(items, self.batch_limit);
        let last = *nodes.last().expect("batch is never empty");
        // SAFETY: `last` is ours until released below.
        let mut next = unsafe { (*last).next.load(Ordering::Acquire) };
        if next.is_null()
            && self
                .tail
                .compare_exchange(last, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            // A successor has swapped the tail; wait for the link.
            let mut spins = 0u32;
            while next.is_null() {
                spins += 1;
                backoff(spins);
                // SAFETY: as above.
                next = unsafe { (*last).next.load(Ordering::Acquire) };
            }
        }
        if !next.is_null() {
            // SAFETY: `next` is a live, WAITING node owned by a spinning
            // thread; setting LEADER transfers queue-head ownership to it.
            unsafe { (*next).state.store(LEADER, Ordering::Release) };
        }
        // Release nodes. nodes[0] is our own: we retire it directly (no
        // other thread can reach it: its successor, if any, was either
        // collected by us or is the handoff target reached via `last`, and
        // the tail no longer points at it). Followers retire themselves on
        // seeing SENT; we must not touch them afterwards. Note the order:
        // the tail CAS above already happened, so recycling our own node
        // now cannot alias a pointer any concurrent `complete`/`join` CAS
        // still compares against (the no-ABA argument of DESIGN.md §5c).
        let own = nodes[0];
        // SAFETY: see comment above — we are the unique owner of our own
        // node again.
        unsafe { self.retire_node(own) };
        for &n in &nodes[1..] {
            // SAFETY: follower nodes are live until we store SENT.
            unsafe { (*n).state.store(SENT, Ordering::Release) };
        }
        // Every follower this call released, and the next leader, learn
        // of it here: followers re-check their state only after a notify.
        if nodes.len() > 1 || !next.is_null() {
            self.handed_off.notify_all();
        }
        // Recycle the node-pointer scratch for the next `collect`.
        pool::release_vec(nodes, self.batch_limit);
    }
}

impl<T> Drop for Tcq<T> {
    fn drop(&mut self) {
        // A TCQ must be drained before drop; any remaining node belongs to
        // a thread that is still spinning, which would be a bug in the
        // runtime. Nothing to free here (nodes are owned by threads).
        debug_assert!(
            self.tail.load(Ordering::Relaxed).is_null(),
            "TCQ dropped while threads were queued"
        );
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn sole_thread_is_always_leader_with_degree_one() {
        let tcq: Tcq<u32> = Tcq::new(8);
        let mut lens = Vec::new();
        for i in 0..10 {
            match tcq.join(i) {
                Outcome::Lead(batch) => {
                    assert_eq!(batch.items(), &[i]);
                    lens.push(batch.len());
                    tcq.complete(batch);
                }
                Outcome::Sent => panic!("no other thread could have sent"),
            }
        }
        assert_eq!(lens, [1; 10]);
    }

    #[test]
    fn batch_limit_is_respected() {
        let tcq: Arc<Tcq<usize>> = Arc::new(Tcq::new(4));
        // Miri runs the same protocol coverage at a fraction of the
        // iteration count; interpretation is ~100x slower than native.
        let n_threads = if cfg!(miri) { 4 } else { 8 };
        let per_thread = if cfg!(miri) { 8 } else { 50 };
        let seen = Arc::new(Mutex::new(Vec::new()));
        let max_degree = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let tcq = Arc::clone(&tcq);
            let seen = Arc::clone(&seen);
            let max_degree = Arc::clone(&max_degree);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    match tcq.join(t * per_thread + i) {
                        Outcome::Lead(batch) => {
                            max_degree.fetch_max(batch.len(), Ordering::Relaxed);
                            seen.lock().extend_from_slice(batch.items());
                            tcq.complete(batch);
                        }
                        Outcome::Sent => {}
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(max_degree.load(Ordering::Relaxed) <= 4);
        let mut all = seen.lock().clone();
        all.sort_unstable();
        assert_eq!(all, (0..n_threads * per_thread).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_is_delivered_exactly_once_under_contention() {
        let tcq: Arc<Tcq<u64>> = Arc::new(Tcq::new(16));
        // Reduced under Miri (see batch_limit_is_respected).
        let n_threads: u64 = if cfg!(miri) { 4 } else { 12 };
        let per_thread: u64 = if cfg!(miri) { 16 } else { 200 };
        let seen = Arc::new(Mutex::new(Vec::new()));
        let lens = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let tcq = Arc::clone(&tcq);
            let seen = Arc::clone(&seen);
            let lens = Arc::clone(&lens);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    match tcq.join(t * per_thread + i) {
                        Outcome::Lead(batch) => {
                            seen.lock().extend_from_slice(batch.items());
                            lens.lock().push(batch.len());
                            tcq.complete(batch);
                        }
                        Outcome::Sent => {}
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all = seen.lock().clone();
        let total = (n_threads * per_thread) as usize;
        assert_eq!(all.len(), total, "lost or duplicated items");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "duplicated items");
        let lens = lens.lock().clone();
        assert_eq!(lens.iter().sum::<usize>(), total);
        assert!(lens.iter().all(|&len| (1..=16).contains(&len)), "{lens:?}");
    }

    #[test]
    fn contention_produces_coalescing() {
        // Deterministically force followers: the main thread becomes the
        // leader and holds its batch open while four other threads enqueue
        // behind it. On complete, leadership passes to the first follower,
        // whose batch must coalesce the remaining three.
        let tcq: Arc<Tcq<u64>> = Arc::new(Tcq::new(16));
        let enqueued = Arc::new(AtomicUsize::new(0));
        let batch = match tcq.join(0) {
            Outcome::Lead(b) => b,
            Outcome::Sent => unreachable!("queue was empty"),
        };
        let lens = Arc::new(Mutex::new(vec![batch.len()]));
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let tcq = Arc::clone(&tcq);
            let enqueued = Arc::clone(&enqueued);
            let lens = Arc::clone(&lens);
            handles.push(std::thread::spawn(move || {
                enqueued.fetch_add(1, Ordering::SeqCst);
                match tcq.join(t) {
                    Outcome::Lead(b) => {
                        lens.lock().push(b.len());
                        tcq.complete(b);
                    }
                    Outcome::Sent => {}
                }
            }));
        }
        // Wait until all four are about to (or already did) enqueue, then
        // give them time to finish the swap+link.
        while enqueued.load(Ordering::SeqCst) < 4 {
            std::thread::yield_now();
        }
        let settle = if cfg!(miri) { 5 } else { 100 };
        std::thread::sleep(std::time::Duration::from_millis(settle));
        tcq.complete(batch);
        for h in handles {
            h.join().unwrap();
        }
        let lens = lens.lock().clone();
        assert_eq!(lens.iter().sum::<usize>(), 5);
        // Batch 1 was ours (degree 1); the followers were coalesced into
        // at most a couple of batches.
        assert!(lens.len() < 5, "batches {lens:?}: no coalescing at all");
        let degree = 5.0 / lens.len() as f64;
        assert!(degree > 1.2, "degree {degree}");
    }

    #[test]
    fn items_preserve_queue_order_within_batch() {
        let tcq: Tcq<u32> = Tcq::new(8);
        // Single-threaded: enqueue via join is inherently one at a time,
        // so emulate the follower path with two threads and a barrier.
        let tcq = Arc::new(tcq);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let tcq2 = Arc::clone(&tcq);
        let b2 = Arc::clone(&barrier);
        let h = std::thread::spawn(move || {
            b2.wait();
            match tcq2.join(2) {
                Outcome::Lead(batch) => {
                    let items = batch.items().to_vec();
                    tcq2.complete(batch);
                    items
                }
                Outcome::Sent => vec![],
            }
        });
        barrier.wait();
        let mine = match tcq.join(1) {
            Outcome::Lead(batch) => {
                let items = batch.items().to_vec();
                tcq.complete(batch);
                items
            }
            Outcome::Sent => vec![],
        };
        let theirs = h.join().unwrap();
        let mut all = mine;
        all.extend(theirs);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2]);
    }
}
