//! The two-layer index: data layer + asynchronously updated search layer.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

/// Sentinel "no next node".
const NIL: usize = usize::MAX;

/// Index configuration.
#[derive(Debug, Clone)]
pub struct HydraConfig {
    /// Maximum entries per data node before it splits.
    pub node_capacity: usize,
    /// Apply search-layer updates synchronously after each split (true)
    /// or only on [`HydraList::flush_search_updates`] (false — the
    /// asynchronous mode HydraList is named for).
    pub sync_search_updates: bool,
}

impl Default for HydraConfig {
    fn default() -> Self {
        HydraConfig {
            node_capacity: 64,
            sync_search_updates: true,
        }
    }
}

#[derive(Debug)]
struct DataNode {
    /// Sorted `(key, value)` entries.
    entries: Vec<(u64, u64)>,
    /// Arena index of the successor ([`NIL`] at the tail). Only a split
    /// of this node changes it, under this node's lock.
    next: usize,
}

/// Arena slot: the node under its own lock, and the smallest key it may
/// hold. Nodes never merge, so `min_key` is fixed at construction; the
/// arena's lock publishes it with the slot.
#[derive(Debug)]
struct Slot {
    min_key: u64,
    node: Mutex<DataNode>,
}

impl Slot {
    fn new(min_key: u64, entries: Vec<(u64, u64)>, next: usize) -> Arc<Slot> {
        Arc::new(Slot {
            min_key,
            node: Mutex::new(DataNode { entries, next }),
        })
    }
}

/// [`HydraList::export_node`]'s snapshot: `(min_key, next, entries)`,
/// with `next` as `None` at the tail.
pub(crate) type NodeSnapshot = (u64, Option<usize>, Vec<(u64, u64)>);

/// The HydraList-style ordered index. Keys and values are `u64` (the
/// paper's workload uses 8-byte keys and values).
///
/// The data layer is a chain of nodes, each owning the keys from its
/// `min_key` up to its successor's. Its links live under the node locks:
/// an operation walks the chain one locked node at a time and works on
/// the node that owns its key while still holding that node's lock, so
/// no split can move the key away in between. Lock order: a node, then
/// the arena, `pending` and the search layer (a split takes all three);
/// no code path holds two node locks at once.
#[derive(Debug)]
pub struct HydraList {
    cfg: HydraConfig,
    /// Append-only arena of reference-counted slots: indices are stable
    /// and slots can be pinned without holding the arena lock.
    arena: RwLock<Vec<Arc<Slot>>>,
    /// Search layer: anchor key → arena index. Possibly stale.
    search: RwLock<BTreeMap<u64, usize>>,
    /// Search-layer updates not yet applied (async mode).
    pending: Mutex<Vec<(u64, usize)>>,
}

impl Default for HydraList {
    fn default() -> Self {
        Self::new(HydraConfig::default())
    }
}

impl HydraList {
    /// Create an empty index.
    pub fn new(cfg: HydraConfig) -> HydraList {
        assert!(cfg.node_capacity >= 2);
        let mut search = BTreeMap::new();
        search.insert(0u64, 0usize);
        HydraList {
            cfg,
            arena: RwLock::new(vec![Slot::new(0, Vec::new(), NIL)]),
            search: RwLock::new(search),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Number of live entries: the sum over the data nodes, each read
    /// under its lock. Exact when no writer runs concurrently.
    pub fn len(&self) -> usize {
        let slots = self.arena.read().clone();
        slots
            .iter()
            .map(|slot| slot.node.lock().entries.len())
            .sum()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of data nodes currently in the arena.
    pub fn node_count(&self) -> usize {
        self.arena.read().len()
    }

    /// Maximum entries a data node holds before splitting.
    pub fn node_capacity(&self) -> usize {
        self.cfg.node_capacity
    }

    /// Number of pending (unapplied) search-layer updates.
    #[cfg(test)]
    fn pending_search_updates(&self) -> usize {
        self.pending.lock().len()
    }

    /// Apply all pending search-layer updates (the asynchronous updater's
    /// work; call from a background thread in async mode).
    pub(crate) fn flush_search_updates(&self) {
        let updates: Vec<(u64, usize)> = std::mem::take(&mut *self.pending.lock());
        if updates.is_empty() {
            return;
        }
        let mut search = self.search.write();
        for (anchor, idx) in updates {
            search.insert(anchor, idx);
        }
    }

    fn slot(&self, idx: usize) -> Arc<Slot> {
        Arc::clone(&self.arena.read()[idx])
    }

    /// Run `f` on the data node that owns `key`, under its lock, with its
    /// arena index. The search layer names a node at or before the owner
    /// (possibly stale); the walk forward from there locks one node at a
    /// time and moves on while the successor's `min_key` is still `<=
    /// key`. A node's `min_key` never changes, so a node passed stays
    /// passed; the node it stops at cannot split while it is held.
    fn with_node<R>(&self, key: u64, f: impl FnOnce(usize, &mut DataNode) -> R) -> R {
        let mut idx = {
            let search = self.search.read();
            search
                .range(..=key)
                .next_back()
                .map(|(_, &idx)| idx)
                .unwrap_or(0)
        };
        loop {
            let slot = self.slot(idx);
            let mut node = slot.node.lock();
            if node.next == NIL || self.arena.read()[node.next].min_key > key {
                return f(idx, &mut node);
            }
            idx = node.next;
        }
    }

    /// Insert or overwrite `key`; returns the previous value if any.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        self.insert_watch(key, value, &mut |_| {})
    }

    /// [`HydraList::insert`] that also reports every arena index whose
    /// node changed (the node inserted into, plus the new upper half on
    /// a split). Mirrors that export the leaf layer into a one-sided
    /// segment (`flock-gateway`'s hydra bridge) republish exactly the
    /// touched nodes.
    pub fn insert_watch(
        &self,
        key: u64,
        value: u64,
        touched: &mut dyn FnMut(usize),
    ) -> Option<u64> {
        self.with_node(key, |idx, node| {
            let old = match node.entries.binary_search_by_key(&key, |e| e.0) {
                Ok(pos) => Some(std::mem::replace(&mut node.entries[pos].1, value)),
                Err(pos) => {
                    node.entries.insert(pos, (key, value));
                    if node.entries.len() > self.cfg.node_capacity {
                        self.split(node, touched);
                    }
                    None
                }
            };
            touched(idx);
            old
        })
    }

    /// Snapshot one data node for export: `(min_key, next, entries)`,
    /// with `next` as `None` at the tail, read under the node lock, so
    /// the snapshot is internally consistent (a concurrent split cannot
    /// interleave).
    pub fn export_node(&self, idx: usize) -> Option<NodeSnapshot> {
        let slot = {
            let arena = self.arena.read();
            Arc::clone(arena.get(idx)?)
        };
        let node = slot.node.lock();
        Some((
            slot.min_key,
            (node.next != NIL).then_some(node.next),
            node.entries.clone(),
        ))
    }

    /// Split a full node (whose lock is held): the upper half moves to a
    /// new node appended to the arena and linked in after it; the
    /// search-layer update is queued.
    fn split(&self, node: &mut DataNode, touched: &mut dyn FnMut(usize)) {
        let upper = node.entries.split_off(node.entries.len() / 2);
        let split_key = upper[0].0;
        let new_idx = {
            let mut arena = self.arena.write();
            arena.push(Slot::new(split_key, upper, node.next));
            arena.len() - 1
        };
        node.next = new_idx;
        touched(new_idx);
        self.pending.lock().push((split_key, new_idx));
        if self.cfg.sync_search_updates {
            self.flush_search_updates();
        }
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.with_node(key, |_, node| {
            let pos = node.entries.binary_search_by_key(&key, |e| e.0).ok()?;
            Some(node.entries[pos].1)
        })
    }

    /// Scan `count` entries starting at the first key `>= start`, one
    /// locked node at a time. A split of a node not yet reached leaves
    /// its upper half on the chain ahead, so every key present for the
    /// whole scan is returned, in increasing order.
    pub fn scan(&self, start: u64, count: usize) -> Vec<(u64, u64)> {
        let take = |node: &DataNode, out: &mut Vec<(u64, u64)>| {
            let from = node.entries.partition_point(|e| e.0 < start);
            let room = count - out.len();
            out.extend(node.entries[from..].iter().take(room));
            node.next
        };
        let mut out = Vec::with_capacity(count);
        let mut next = self.with_node(start, |_, node| take(node, &mut out));
        while out.len() < count && next != NIL {
            next = take(&self.slot(next).node.lock(), &mut out);
        }
        out
    }

    /// Remove `key`; returns its value if present.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.with_node(key, |_, node| {
            let pos = node.entries.binary_search_by_key(&key, |e| e.0).ok()?;
            Some(node.entries.remove(pos).1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let h = HydraList::default();
        assert!(h.is_empty());
        assert_eq!(h.insert(10, 100), None);
        assert_eq!(h.insert(20, 200), None);
        assert_eq!(h.get(10), Some(100));
        assert_eq!(h.get(20), Some(200));
        assert_eq!(h.get(15), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn overwrite_returns_old() {
        let h = HydraList::default();
        h.insert(1, 1);
        assert_eq!(h.insert(1, 2), Some(1));
        assert_eq!(h.get(1), Some(2));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn splits_preserve_all_keys() {
        let h = HydraList::new(HydraConfig {
            node_capacity: 8,
            sync_search_updates: true,
        });
        for k in 0..1000u64 {
            h.insert(k * 7 % 1000, k);
        }
        assert!(h.node_count() > 10, "no splits happened");
        for k in 0..1000u64 {
            assert!(h.get(k).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let h = HydraList::new(HydraConfig {
            node_capacity: 16,
            sync_search_updates: true,
        });
        for k in (0..500u64).rev() {
            h.insert(k * 2, k);
        }
        let out = h.scan(100, 64);
        assert_eq!(out.len(), 64);
        assert_eq!(out[0].0, 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        // Scan starting between keys begins at the next key.
        let out = h.scan(101, 4);
        assert_eq!(out[0].0, 102);
        // Scan past the end returns what exists.
        let out = h.scan(990, 64);
        assert_eq!(out.len(), 5); // 990, 992, 994, 996, 998
    }

    #[test]
    fn remove_works_across_splits() {
        let h = HydraList::new(HydraConfig {
            node_capacity: 8,
            sync_search_updates: true,
        });
        for k in 0..200u64 {
            h.insert(k, k);
        }
        for k in (0..200u64).step_by(2) {
            assert_eq!(h.remove(k), Some(k));
        }
        assert_eq!(h.len(), 100);
        for k in 0..200u64 {
            assert_eq!(h.get(k).is_some(), k % 2 == 1);
        }
        assert_eq!(h.remove(400), None);
    }

    #[test]
    fn stale_search_layer_is_repaired_by_walking() {
        // Async mode: splits do NOT update the search layer until flushed.
        let h = HydraList::new(HydraConfig {
            node_capacity: 4,
            sync_search_updates: false,
        });
        for k in 0..100u64 {
            h.insert(k, k + 1);
        }
        assert!(h.pending_search_updates() > 0);
        // All lookups still succeed through forward walks.
        for k in 0..100u64 {
            assert_eq!(h.get(k), Some(k + 1), "stale lookup failed for {k}");
        }
        let pending = h.pending_search_updates();
        h.flush_search_updates();
        assert_eq!(h.pending_search_updates(), 0);
        assert!(pending > 0);
        for k in 0..100u64 {
            assert_eq!(h.get(k), Some(k + 1));
        }
    }

    #[test]
    fn concurrent_inserts_and_gets() {
        let h = Arc::new(HydraList::new(HydraConfig {
            node_capacity: 16,
            sync_search_updates: true,
        }));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let k = t * 10_000 + i;
                    h.insert(k, k);
                    assert_eq!(h.get(k), Some(k));
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.len(), 2000);
        for t in 0..4u64 {
            for i in 0..500u64 {
                let k = t * 10_000 + i;
                assert_eq!(h.get(k), Some(k));
            }
        }
    }

    #[test]
    fn insert_watch_reports_touched_nodes_and_exports_chain() {
        let h = HydraList::new(HydraConfig {
            node_capacity: 4,
            sync_search_updates: true,
        });
        let mut touched = Vec::new();
        for k in 0..16u64 {
            h.insert_watch(k, k + 100, &mut |i| touched.push(i));
        }
        assert!(touched.len() >= 16, "each insert reports at least one node");
        assert!(touched.iter().any(|&i| i > 0), "splits report the new node");
        // Walking the exported chain from node 0 visits every key in order
        // (the invariant the one-sided leaf traversal relies on).
        let mut chain = Vec::new();
        let mut cur = Some(0);
        while let Some(i) = cur {
            let (min_key, next, entries) = h.export_node(i).unwrap();
            assert!(entries.iter().all(|&(k, _)| k >= min_key));
            chain.extend(entries);
            cur = next;
        }
        assert_eq!(chain.len(), 16);
        assert!(chain.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(h.export_node(h.node_count()).is_none());
    }

    #[test]
    fn scan_spanning_many_nodes() {
        let h = HydraList::new(HydraConfig {
            node_capacity: 4,
            sync_search_updates: true,
        });
        for k in 0..64u64 {
            h.insert(k, k * 10);
        }
        let out = h.scan(0, 64);
        assert_eq!(out.len(), 64);
        for (i, (k, v)) in out.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(*v, i as u64 * 10);
        }
    }

    #[test]
    fn background_updater_keeps_lookups_correct() {
        // Async mode with a dedicated updater thread flushing the search
        // layer while writers insert — the HydraList deployment model.
        let h = Arc::new(HydraList::new(HydraConfig {
            node_capacity: 8,
            sync_search_updates: false,
        }));
        // Dropping `stop` ends the updater.
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let updater = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                while stopped.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                    h.flush_search_updates();
                    std::thread::yield_now();
                }
                h.flush_search_updates();
            })
        };
        let mut writers = Vec::new();
        for t in 0..3u64 {
            let h = Arc::clone(&h);
            writers.push(std::thread::spawn(move || {
                for i in 0..400u64 {
                    let k = i * 3 + t;
                    h.insert(k, k + 7);
                    assert_eq!(h.get(k), Some(k + 7));
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        drop(stop);
        updater.join().unwrap();
        assert_eq!(h.len(), 1200);
        assert_eq!(h.pending_search_updates(), 0);
        for t in 0..3u64 {
            for i in 0..400u64 {
                let k = i * 3 + t;
                assert_eq!(h.get(k), Some(k + 7));
            }
        }
    }

    #[test]
    fn interleaved_concurrent_inserts_split_safely() {
        // Threads insert interleaved key ranges to force split races on
        // the same nodes.
        let h = Arc::new(HydraList::new(HydraConfig {
            node_capacity: 4,
            sync_search_updates: true,
        }));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    h.insert(i * 4 + t, i);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.len(), 2000);
        let all = h.scan(0, 2000);
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn readers_racing_splits_see_every_preloaded_key() {
        // Every 16th key (all even) is there from the start; writers
        // fill in the odd keys between them in a scattered order, so
        // every node splits several times under the readers' feet. A
        // lookup that lands on a node whose range a split just moved on,
        // or a scan that loses a node's upper half, misses a preloaded
        // key. A lookup that picks its node before locking it and does
        // not re-check under the lock fails a round only now and then,
        // eight rounds nearly always.
        for _ in 0..8 {
            readers_race_splits(16, 1_024);
        }
    }

    fn readers_race_splits(stride: u64, preloaded: u64) {
        let odds = preloaded * stride / 2;
        let h = HydraList::new(HydraConfig {
            node_capacity: 8,
            sync_search_updates: true,
        });
        for k in (0..preloaded).rev() {
            h.insert(k * stride, k);
        }
        let nodes_before = h.node_count();
        let writers_done = std::sync::OnceLock::new();
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    let (h, writers_done) = (&h, &writers_done);
                    s.spawn(move || loop {
                        let last = writers_done.get().is_some();
                        for k in 0..preloaded {
                            assert_eq!(h.get(k * stride), Some(k), "key {} lost", k * stride);
                        }
                        for start in (r..preloaded * stride).step_by(97) {
                            let out = h.scan(start, 32);
                            assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "scan from {start}");
                            let Some(&(end, _)) = out.last() else {
                                continue;
                            };
                            let kept = out.iter().map(|e| e.0).filter(|k| k % stride == 0);
                            let first = start.next_multiple_of(stride);
                            assert!(
                                kept.eq((first..=end).step_by(stride as usize)),
                                "scan from {start} skipped a preloaded key"
                            );
                        }
                        if last {
                            break;
                        }
                    })
                })
                .collect();
            let writers: Vec<_> = (0..2u64)
                .map(|w| {
                    let h = &h;
                    s.spawn(move || {
                        for i in (w..odds).step_by(2) {
                            // 7919 is prime to `odds`, a power of two.
                            let odd = 2 * (i * 7_919 % odds) + 1;
                            assert_eq!(h.insert(odd, odd), None);
                        }
                    })
                })
                .collect();
            for t in writers {
                t.join().unwrap();
            }
            writers_done.set(()).unwrap();
            for t in readers {
                t.join().unwrap();
            }
        });
        assert!(h.node_count() >= 4 * nodes_before, "too few splits");
        let keys = preloaded + odds;
        assert_eq!(h.len(), keys as usize);
        let all = h.scan(0, keys as usize + 1);
        let expected = (0..preloaded * stride).filter(|k| k % 2 == 1 || k % stride == 0);
        assert!(all.iter().map(|e| e.0).eq(expected));
    }
}
