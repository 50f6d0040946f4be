//! Completion queues.
//!
//! A [`CompletionQueue`] buffers [`Completion`] entries DMA-ed by the NIC
//! engine; applications poll it (`ibv_poll_cq` style).
//!
//! # Design: a locked deque
//!
//! The queue is a `Mutex<VecDeque>` that reserves nothing up front and
//! grows to its high-water mark (a queue whose deque cycles would touch
//! every entry of a reservation), plus its length mirrored in an atomic
//! that is stored under the lock:
//! an empty poll reads that one word and takes no lock, and a batched
//! [`CompletionQueue::poll`] drains up to `max` entries under one lock.
//! Every push notifies [`CompletionQueue::pushed_event`], which costs one
//! fence and two loads while nobody is parked on it. (The seed's
//! per-completion cost was its condvar `notify_all`, not the lock.)
//!
//! Real CQ overflow is fatal; the seed modeled that by growing without
//! bound, and so does this queue: a push neither blocks the NIC lane that
//! makes it nor drops the entry. Several lanes may share a CQ (the
//! server's immediate CQ, one connection's send CQ across lanes). Like
//! hardware, the queue promises delivery: entries leave in push order,
//! and consumers route by `wr_id`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flock_sync::clock::{self, Event};
use parking_lot::Mutex;

use crate::verbs::Completion;

/// A completion queue shared between the NIC engine (producer) and
/// application threads (consumers). See the module docs.
pub struct CompletionQueue {
    entries: Mutex<VecDeque<Completion>>,
    /// `entries.len()`, stored under the lock by every push and poll.
    len: AtomicUsize,
    /// Signalled by every push; [`CompletionQueue::wait_one`] sleeps on
    /// it. Shared when one poller watches several queues
    /// ([`CompletionQueue::with_event`]).
    pushed_event: Arc<Event>,
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("len", &self.len())
            .finish()
    }
}

impl CompletionQueue {
    /// Create an empty CQ of verbs size `capacity`. It reserves nothing:
    /// the queue grows to the most entries it has held, past `capacity`
    /// too, rather than dropping completions.
    pub fn new(capacity: usize) -> Arc<CompletionQueue> {
        Self::with_event(capacity, Arc::new(Event::new()))
    }

    /// [`CompletionQueue::new`] with the caller's event as
    /// [`CompletionQueue::pushed_event`]: a poll loop that sweeps
    /// several queues (and rings) idles on one event they all notify.
    pub fn with_event(_capacity: usize, pushed_event: Arc<Event>) -> Arc<CompletionQueue> {
        Arc::new(CompletionQueue {
            entries: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            pushed_event,
        })
    }

    /// Mirror the queue's length after a change made under its lock.
    fn set_len(&self, entries: &VecDeque<Completion>) {
        self.len.store(entries.len(), Ordering::Relaxed);
    }

    /// NIC-side: enqueue a completion. Never blocks on a consumer and
    /// never drops.
    pub fn push(&self, c: Completion) {
        {
            let mut entries = self.entries.lock();
            entries.push_back(c);
            self.set_len(&entries);
        }
        self.pushed_event.notify_all();
    }

    /// Poll up to `max` completions into `out`; returns how many were
    /// moved. An empty queue is one atomic load, no lock.
    pub fn poll(&self, out: &mut Vec<Completion>, max: usize) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut entries = self.entries.lock();
        let n = entries.len().min(max);
        out.extend(entries.drain(..n));
        self.set_len(&entries);
        n
    }

    /// Poll a single completion without blocking (or allocating).
    pub fn poll_one(&self) -> Option<Completion> {
        if self.is_empty() {
            return None;
        }
        let mut entries = self.entries.lock();
        let c = entries.pop_front();
        self.set_len(&entries);
        c
    }

    /// Block until a completion is available or `timeout` elapses (on
    /// the calling task's clock: virtual under a virtual-time executor).
    pub fn wait_one(&self, timeout: Duration) -> Option<Completion> {
        self.pushed_event
            .wait_until(clock::deadline(timeout), 500, || self.poll_one())
    }

    /// The event every [`CompletionQueue::push`] notifies, for a poll
    /// loop that idles on this queue
    /// ([`flock_sync::AdaptiveBackoff::idle_on`]).
    pub fn pushed_event(&self) -> &Event {
        &self.pushed_event
    }

    /// Number of queued completions. A waiter that reads a stale 0 has
    /// not missed the push: the push notifies
    /// [`CompletionQueue::pushed_event`] after the store, and the waiter
    /// checks again after that event's fence.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{QpNum, WrId};
    use crate::verbs::{CqOpcode, CqStatus};

    fn comp(id: u64) -> Completion {
        Completion {
            wr_id: WrId(id),
            status: CqStatus::Success,
            opcode: CqOpcode::Send,
            byte_len: 0,
            imm: None,
            src: None,
            qpn: QpNum(0),
        }
    }

    #[test]
    fn poll_drains_fifo() {
        let cq = CompletionQueue::new(8);
        for i in 0..5 {
            cq.push(comp(i));
        }
        let mut out = Vec::new();
        assert_eq!(cq.poll(&mut out, 3), 3);
        assert_eq!(out.iter().map(|c| c.wr_id.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.poll(&mut out, 10), 2);
        assert!(cq.is_empty());
    }

    #[test]
    fn poll_one_and_counters() {
        let cq = CompletionQueue::new(2);
        assert!(cq.poll_one().is_none());
        cq.push(comp(9));
        cq.push(comp(10));
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.poll_one().unwrap().wr_id, WrId(9));
        assert_eq!(cq.len(), 1);
    }

    #[test]
    fn wait_one_times_out_when_empty() {
        let cq = CompletionQueue::new(1);
        assert!(cq.wait_one(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn wait_one_wakes_on_push() {
        let cq = CompletionQueue::new(1);
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || cq2.wait_one(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        cq.push(comp(77));
        let got = t.join().unwrap();
        assert_eq!(got.unwrap().wr_id, WrId(77));
    }

    #[test]
    fn ring_wraps_many_laps() {
        let cq = CompletionQueue::new(4);
        let mut out = Vec::new();
        for lap in 0..100u64 {
            for i in 0..4 {
                cq.push(comp(lap * 4 + i));
            }
            out.clear();
            assert_eq!(cq.poll(&mut out, 8), 4);
            assert_eq!(out[0].wr_id.0, lap * 4);
            assert_eq!(out[3].wr_id.0, lap * 4 + 3);
        }
        assert!(cq.is_empty());
    }

    #[test]
    fn overflow_past_capacity_loses_nothing() {
        // Capacity 4, push 100 without polling: everything is delivered,
        // FIFO, and the queue keeps working afterwards.
        let cq = CompletionQueue::new(4);
        for i in 0..100 {
            cq.push(comp(i));
        }
        assert_eq!(cq.len(), 100);
        let mut out = Vec::new();
        let mut got = 0;
        while got < 100 {
            let n = cq.poll(&mut out, 7);
            assert!(n > 0, "lost completions after {got}");
            got += n;
        }
        let ids: Vec<u64> = out.iter().map(|c| c.wr_id.0).collect();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
        assert!(cq.is_empty());
        cq.push(comp(500));
        assert_eq!(cq.poll_one().unwrap().wr_id, WrId(500));
    }

    #[test]
    fn concurrent_producers_deliver_each_entry_exactly_once() {
        let cq = CompletionQueue::new(64);
        let producers = 4;
        let per = 5000u64;
        let mut joins = Vec::new();
        for p in 0..producers {
            let cq = Arc::clone(&cq);
            joins.push(std::thread::spawn(move || {
                for i in 0..per {
                    cq.push(comp(p * per + i));
                }
            }));
        }
        let mut seen = vec![false; (producers * per) as usize];
        let mut out = Vec::new();
        let mut got = 0u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while got < producers * per {
            out.clear();
            let n = cq.poll(&mut out, 256);
            for c in &out {
                assert!(!seen[c.wr_id.0 as usize], "duplicate {}", c.wr_id.0);
                seen[c.wr_id.0 as usize] = true;
            }
            got += n as u64;
            assert!(std::time::Instant::now() < deadline, "stalled at {got}");
            if n == 0 {
                std::thread::yield_now();
            }
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(seen.iter().all(|&s| s));
        // Nothing beyond what was pushed.
        assert_eq!(cq.poll(&mut out, usize::MAX), 0);
    }

    #[test]
    fn one_producer_is_delivered_in_push_order() {
        // One producer, one consumer, 10 000 entries through a queue
        // reserved at 256: strict FIFO, across every growth.
        let cq = CompletionQueue::new(256);
        let cq2 = Arc::clone(&cq);
        let t = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                cq2.push(comp(i));
            }
        });
        let mut next = 0u64;
        let mut out = Vec::new();
        while next < 10_000 {
            out.clear();
            let n = cq.poll(&mut out, 64);
            for c in &out {
                assert_eq!(c.wr_id.0, next);
                next += 1;
            }
            if n == 0 {
                std::hint::spin_loop();
            }
        }
        t.join().unwrap();
        assert!(cq.is_empty());
    }
}
