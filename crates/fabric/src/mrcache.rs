//! The MR registration cache.
//!
//! `ibv_reg_mr` pins pages and installs MTT/MPT entries — a control-
//! plane cost that scales with region size and dominates connection
//! setup for ring-buffer-sized registrations (Swift, PAPERS.md). The
//! cache parks deregistration candidates instead of tearing them down,
//! keyed by *layout* (length and access rights): a connection being
//! built reuses a parked region of identical layout and pays only a buffer
//! zeroing ([`CostModel::memset_time`](crate::CostModel)) instead of the
//! full registration penalty
//! ([`CostModel::reg_mr_time`](crate::CostModel)).
//!
//! Zeroing on reuse is not an optimization detail — it is required for
//! correctness: Flock rings validate slot canaries, and a recycled
//! buffer still holds the previous connection's canary sequence.
//!
//! The parked regions are one queue in park order: an acquire takes the
//! newest region of its layout and records exactly one hit (warm reuse)
//! or miss (cold registration); a release parks at the back and evicts
//! from the front past capacity, naming the regions to deregister.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::mr::{Access, MemoryRegion};

/// Configuration for a node's MR registration cache.
#[derive(Debug, Clone)]
pub struct MrCacheConfig {
    /// Master switch. Disabled (the default), every acquire registers
    /// cold and every release deregisters.
    pub enabled: bool,
    /// Maximum parked regions retained across all layouts.
    pub capacity: usize,
}

impl Default for MrCacheConfig {
    fn default() -> Self {
        MrCacheConfig {
            enabled: false,
            capacity: 4096,
        }
    }
}

/// A cache of parked (registered but unleased) regions.
#[derive(Debug)]
pub struct MrCache {
    cfg: MrCacheConfig,
    /// Parked regions, oldest first. Reuse takes the most recently
    /// parked region of a layout (its pages are warmest); eviction takes
    /// the front.
    parked: VecDeque<Arc<MemoryRegion>>,
    hits: u64,
    misses: u64,
}

impl MrCache {
    /// Build a cache from its configuration.
    pub fn new(cfg: MrCacheConfig) -> MrCache {
        MrCache {
            cfg,
            parked: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MrCacheConfig {
        &self.cfg
    }

    /// Warm acquires so far (reused a parked region).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cold acquires so far (fresh registration).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of parked regions.
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// Whether no regions are parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Try to reuse a parked region of layout `(len, access)`. On
    /// success the region leaves the cache and a hit is recorded; on
    /// `None` a miss is recorded (the caller registers cold).
    pub(crate) fn take(&mut self, len: usize, access: Access) -> Option<Arc<MemoryRegion>> {
        if !self.cfg.enabled {
            return None;
        }
        let newest = self
            .parked
            .iter()
            .rposition(|mr| mr.len() == len && mr.access() == access);
        match newest {
            Some(i) => {
                self.hits += 1;
                self.parked.remove(i)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Park a region for reuse; one already parked stays parked once.
    /// Returns the regions evicted to enforce capacity — the caller owns
    /// their teardown (deregistration and cost accounting). When the
    /// cache is disabled the offered region itself comes back as the
    /// single "eviction".
    pub(crate) fn put(&mut self, mr: Arc<MemoryRegion>) -> Vec<Arc<MemoryRegion>> {
        if !self.cfg.enabled {
            return vec![mr];
        }
        if !self.parked.iter().any(|p| p.lkey() == mr.lkey()) {
            self.parked.push_back(mr);
        }
        let excess = self.parked.len().saturating_sub(self.cfg.capacity);
        self.parked.drain(..excess).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::MrTable;

    fn cache(capacity: usize) -> MrCache {
        MrCache::new(MrCacheConfig {
            enabled: true,
            capacity,
        })
    }

    #[test]
    fn cold_then_warm_roundtrip() {
        let t = MrTable::new();
        let mut c = cache(8);
        assert!(c.take(1024, Access::REMOTE_WRITE).is_none());
        assert_eq!(c.misses(), 1);
        let mr = t.register(1024, Access::REMOTE_WRITE);
        assert!(c.put(mr).is_empty());
        let back = c.take(1024, Access::REMOTE_WRITE).expect("warm");
        assert_eq!(back.len(), 1024);
        assert_eq!(c.hits(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn layouts_do_not_cross() {
        let t = MrTable::new();
        let mut c = cache(8);
        c.put(t.register(1024, Access::REMOTE_WRITE));
        // Different length and different rights both miss.
        assert!(c.take(2048, Access::REMOTE_WRITE).is_none());
        assert!(c.take(1024, Access::LOCAL).is_none());
        assert_eq!(c.misses(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_evicts_lru_region() {
        let t = MrTable::new();
        let mut c = cache(2);
        let a = t.register(64, Access::LOCAL);
        let b = t.register(64, Access::LOCAL);
        let d = t.register(64, Access::LOCAL);
        let a_lkey = a.lkey();
        assert!(c.put(a).is_empty());
        assert!(c.put(b).is_empty());
        let evicted = c.put(d);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].lkey(), a_lkey, "oldest parked region goes");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disabled_cache_returns_region_to_caller() {
        let t = MrTable::new();
        let mut c = MrCache::new(MrCacheConfig::default());
        assert!(c.take(64, Access::LOCAL).is_none());
        let mr = t.register(64, Access::LOCAL);
        let back = c.put(mr);
        assert_eq!(back.len(), 1);
        assert!(c.is_empty());
        // Disabled: stats stay silent.
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn lifo_reuse_prefers_most_recently_parked() {
        let t = MrTable::new();
        let mut c = cache(8);
        let a = t.register(64, Access::LOCAL);
        let b = t.register(64, Access::LOCAL);
        let b_lkey = b.lkey();
        c.put(a);
        c.put(b);
        assert_eq!(c.take(64, Access::LOCAL).unwrap().lkey(), b_lkey);
    }

    /// A region parked twice is listed once: otherwise two acquires
    /// could both be handed it.
    #[test]
    fn a_region_put_twice_is_parked_once() {
        let t = MrTable::new();
        let mut c = cache(8);
        let mr = t.register(64, Access::LOCAL);
        assert!(c.put(Arc::clone(&mr)).is_empty());
        assert!(c.put(Arc::clone(&mr)).is_empty());
        assert_eq!(c.len(), 1);
        assert_eq!(c.take(64, Access::LOCAL).unwrap().lkey(), mr.lkey());
        assert!(c.take(64, Access::LOCAL).is_none());
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }
}
