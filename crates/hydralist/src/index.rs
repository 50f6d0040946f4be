//! The two-layer index: data layer + asynchronously updated search layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
}

/// Arena slot: the node payload under its own lock, plus lock-free
/// navigation fields readable without the lock.
#[derive(Debug)]
struct Slot {
    node: Mutex<DataNode>,
    min_key: AtomicU64,
    next: AtomicUsize,
}

/// [`HydraList::export_node`]'s snapshot: `(min_key, next, entries)`,
/// with `next` as `None` at the tail.
pub(crate) type NodeSnapshot = (u64, Option<usize>, Vec<(u64, u64)>);

/// The HydraList-style ordered index. Keys and values are `u64` (the
/// paper's workload uses 8-byte keys and values).
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
    len: AtomicUsize,
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
        let arena = vec![Arc::new(Slot {
            node: Mutex::new(DataNode {
                entries: Vec::new(),
            }),
            min_key: AtomicU64::new(0),
            next: AtomicUsize::new(NIL),
        })];
        let mut search = BTreeMap::new();
        search.insert(0u64, 0usize);
        HydraList {
            cfg,
            arena: RwLock::new(arena),
            search: RwLock::new(search),
            pending: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
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

    /// Locate the data node that may hold `key`: search layer first, then
    /// forward-walk in the data layer to repair staleness. Returns
    /// `(index, slot)`.
    fn locate(&self, key: u64) -> (usize, Arc<Slot>) {
        let start = {
            let search = self.search.read();
            search
                .range(..=key)
                .next_back()
                .map(|(_, &idx)| idx)
                .unwrap_or(0)
        };
        let mut idx = start;
        let mut slot = self.slot(idx);
        loop {
            let next = slot.next.load(Ordering::Acquire);
            if next == NIL {
                return (idx, slot);
            }
            let next_slot = self.slot(next);
            if next_slot.min_key.load(Ordering::Acquire) <= key {
                idx = next;
                slot = next_slot;
            } else {
                return (idx, slot);
            }
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
        loop {
            let (idx, slot) = self.locate(key);
            let mut node = slot.node.lock();
            // Re-check under the lock: a concurrent split may have moved
            // our key range to a successor.
            let next = slot.next.load(Ordering::Acquire);
            if next != NIL && self.slot(next).min_key.load(Ordering::Acquire) <= key {
                continue; // raced with a split; retry
            }
            match node.entries.binary_search_by_key(&key, |e| e.0) {
                Ok(pos) => {
                    let old = node.entries[pos].1;
                    node.entries[pos].1 = value;
                    touched(idx);
                    return Some(old);
                }
                Err(pos) => {
                    node.entries.insert(pos, (key, value));
                    self.len.fetch_add(1, Ordering::Relaxed);
                    if node.entries.len() > self.cfg.node_capacity {
                        self.split(idx, &slot, &mut node, touched);
                    }
                    touched(idx);
                    return None;
                }
            }
        }
    }

    /// Snapshot one data node for export: `(min_key, next, entries)`,
    /// with `next` as `None` at the tail. Navigation fields and payload
    /// are read under the node lock, so the snapshot is internally
    /// consistent (a concurrent split cannot interleave).
    pub fn export_node(&self, idx: usize) -> Option<NodeSnapshot> {
        let slot = {
            let arena = self.arena.read();
            Arc::clone(arena.get(idx)?)
        };
        let node = slot.node.lock();
        let next = slot.next.load(Ordering::Acquire);
        Some((
            slot.min_key.load(Ordering::Acquire),
            (next != NIL).then_some(next),
            node.entries.clone(),
        ))
    }

    /// Split a full node (whose lock is held): the upper half moves to a
    /// new node appended to the arena; the search-layer update is queued.
    fn split(
        &self,
        _idx: usize,
        slot: &Arc<Slot>,
        node: &mut DataNode,
        touched: &mut dyn FnMut(usize),
    ) {
        let mid = node.entries.len() / 2;
        let upper: Vec<(u64, u64)> = node.entries.split_off(mid);
        let split_key = upper[0].0;
        let new_idx = {
            // The node mutex is held but the arena lock is not, so taking
            // the write lock here cannot deadlock.
            let mut arena = self.arena.write();
            let old_next = slot.next.load(Ordering::Acquire);
            arena.push(Arc::new(Slot {
                node: Mutex::new(DataNode { entries: upper }),
                min_key: AtomicU64::new(split_key),
                next: AtomicUsize::new(old_next),
            }));
            let new_idx = arena.len() - 1;
            // Publish the new node *after* it is fully initialized.
            slot.next.store(new_idx, Ordering::Release);
            new_idx
        };
        touched(new_idx);
        self.pending.lock().push((split_key, new_idx));
        if self.cfg.sync_search_updates {
            self.flush_search_updates();
        }
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        loop {
            let (_, slot) = self.locate(key);
            let node = slot.node.lock();
            // Re-check under the lock: a concurrent split may have moved
            // this key's range to a successor between locate and lock.
            let next = slot.next.load(Ordering::Acquire);
            if next != NIL && self.slot(next).min_key.load(Ordering::Acquire) <= key {
                continue;
            }
            return node
                .entries
                .binary_search_by_key(&key, |e| e.0)
                .ok()
                .map(|pos| node.entries[pos].1);
        }
    }

    /// Scan `count` entries starting at the first key `>= start`.
    pub fn scan(&self, start: u64, count: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(count);
        let (_, mut slot) = self.locate(start);
        loop {
            let next = {
                let node = slot.node.lock();
                let from = node
                    .entries
                    .binary_search_by_key(&start, |e| e.0)
                    .unwrap_or_else(|p| p);
                for &(k, v) in &node.entries[from..] {
                    if out.len() == count {
                        return out;
                    }
                    if k >= start {
                        out.push((k, v));
                    }
                }
                slot.next.load(Ordering::Acquire)
            };
            if out.len() == count || next == NIL {
                return out;
            }
            slot = self.slot(next);
        }
    }

    /// Remove `key`; returns its value if present.
    pub fn remove(&self, key: u64) -> Option<u64> {
        loop {
            let (_, slot) = self.locate(key);
            let mut node = slot.node.lock();
            // Same split re-check as `get`.
            let next = slot.next.load(Ordering::Acquire);
            if next != NIL && self.slot(next).min_key.load(Ordering::Acquire) <= key {
                continue;
            }
            return match node.entries.binary_search_by_key(&key, |e| e.0) {
                Ok(pos) => {
                    let (_, v) = node.entries.remove(pos);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    Some(v)
                }
                Err(_) => None,
            };
        }
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
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let updater = {
            let h = Arc::clone(&h);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
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
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
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
}
