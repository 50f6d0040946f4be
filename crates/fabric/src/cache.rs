//! The RNIC connection-state cache model.
//!
//! Real RNICs keep queue-pair metadata, congestion-control state and memory
//! translation entries in a small on-NIC SRAM (paper Figure 1). When the
//! working set of active connections exceeds the cache, every verb pays a
//! PCIe round trip to fetch state from host memory — the root cause of the
//! throughput collapse in Figure 2(a) and the reason Flock caps active QPs
//! at `MAX_AQP`.
//!
//! [`ConnCache`] is a strict-LRU set of opaque `u64` keys (one per cached
//! connection/translation entry) with hit/miss statistics. The threaded
//! fabric uses it for observability; the DES models use the hit/miss result
//! to charge [`CostModel::nic_service`](crate::CostModel::nic_service).

use std::collections::HashMap;

/// Replacement policy for [`ConnCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Strict least-recently-used (the default; worst case under cyclic
    /// access — every access misses once the working set exceeds the
    /// capacity).
    Lru,
    /// Pseudo-random victim selection (models the set-associative,
    /// non-ideal replacement of real RNIC caches: the hit ratio degrades
    /// gracefully to roughly `capacity / working_set`).
    Random,
}

/// Strict-LRU cache over opaque `u64` keys with hit/miss accounting.
///
/// Implemented as an intrusive doubly-linked list over a slab, giving O(1)
/// touch/insert/evict without per-op allocation.
#[derive(Debug)]
pub struct ConnCache {
    capacity: usize,
    policy: Eviction,
    prng: u64,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl ConnCache {
    /// Create an LRU cache holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, Eviction::Lru, 0x9E37_79B9)
    }

    /// Create a cache with an explicit replacement policy.
    pub fn with_policy(capacity: usize, policy: Eviction, seed: u64) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ConnCache {
            capacity,
            policy,
            prng: seed | 1,
            map: HashMap::with_capacity(capacity * 2),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Access `key`: returns `true` on a hit. On a miss the key is inserted,
    /// evicting the least recently used entry if full.
    pub fn access(&mut self, key: u64) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            self.move_to_front(idx);
            return true;
        }
        self.misses += 1;
        if self.map.len() >= self.capacity {
            match self.policy {
                Eviction::Lru => self.evict_lru(),
                Eviction::Random => self.evict_random(),
            }
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        false
    }

    /// Whether `key` is currently cached (does not update recency or stats).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Insert or touch `key` *without* recording a hit or miss (and
    /// without evicting — the caller enforces capacity, e.g. via
    /// [`ConnCache::pop_lru`]). Used by the MR registration cache, which
    /// counts hits/misses only on acquire, not when regions are parked.
    pub(crate) fn insert_quiet(&mut self, key: u64) {
        if let Some(&idx) = self.map.get(&key) {
            self.move_to_front(idx);
            return;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Remove and return the least-recently-used key, if any. Lets a
    /// caller that owns the values (e.g. the MR registration cache)
    /// learn *which* entry to tear down when enforcing its own capacity.
    pub(crate) fn pop_lru(&mut self) -> Option<u64> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let key = self.slots[idx].key;
        self.map.remove(&key);
        self.unlink(idx);
        self.free.push(idx);
        Some(key)
    }

    /// Remove `key` if present (e.g., QP destroyed).
    pub(crate) fn invalidate(&mut self, key: u64) {
        if let Some(idx) = self.map.remove(&key) {
            self.unlink(idx);
            self.free.push(idx);
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 if no accesses yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn evict_random(&mut self) {
        // xorshift64* victim pick over live slots.
        self.prng ^= self.prng << 13;
        self.prng ^= self.prng >> 7;
        self.prng ^= self.prng << 17;
        let mut idx = (self.prng as usize) % self.slots.len();
        // Walk to a live slot (free slots are rare and transient).
        for _ in 0..self.slots.len() {
            if !self.free.contains(&idx) {
                break;
            }
            idx = (idx + 1) % self.slots.len();
        }
        let key = self.slots[idx].key;
        if self.map.remove(&key).is_some() {
            self.unlink(idx);
            self.free.push(idx);
        } else {
            // Stale slot: fall back to LRU for safety.
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        let lru = self.tail;
        debug_assert_ne!(lru, NIL);
        let key = self.slots[lru].key;
        self.map.remove(&key);
        self.unlink(lru);
        self.free.push(lru);
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Slot { prev, next, .. } = self.slots[idx];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }
}

/// Build the cache key for a queue pair's connection state.
pub fn qp_state_key(node: u32, qpn: u32) -> u64 {
    ((node as u64) << 32) | qpn as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = ConnCache::new(4);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ConnCache::new(3);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // 1 becomes MRU; LRU order now 2, 3, 1
        c.access(4); // evicts 2
        assert!(!c.contains(2));
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(c.contains(4));
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut c = ConnCache::new(256);
        for round in 0..10 {
            for k in 0..256u64 {
                let hit = c.access(k);
                assert_eq!(hit, round > 0, "round={round} k={k}");
            }
        }
        assert_eq!(c.misses(), 256);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        // Cyclic access over 2x capacity with strict LRU: every access
        // misses — the Figure 2(a) cliff in miniature.
        let mut c = ConnCache::new(128);
        for _ in 0..4 {
            for k in 0..256u64 {
                c.access(k);
            }
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 1024);
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = ConnCache::new(2);
        c.access(7);
        c.invalidate(7);
        assert!(!c.contains(7));
        assert_eq!(c.len(), 0);
        // Slot is recycled.
        c.access(8);
        c.access(9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn len_is_bounded_by_capacity() {
        let mut c = ConnCache::new(10);
        for k in 0..1000 {
            c.access(k);
            assert!(c.len() <= 10);
        }
    }

    #[test]
    fn insert_quiet_and_pop_lru() {
        let mut c = ConnCache::new(8);
        c.insert_quiet(1);
        c.insert_quiet(2);
        c.insert_quiet(3);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.len(), 3);
        c.insert_quiet(1); // touch: 1 becomes MRU
        assert_eq!(c.pop_lru(), Some(2));
        assert_eq!(c.pop_lru(), Some(3));
        assert_eq!(c.pop_lru(), Some(1));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
        // Quiet entries still produce hits for real accesses.
        c.insert_quiet(9);
        assert!(c.access(9));
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn qp_state_key_is_injective_per_field() {
        assert_ne!(qp_state_key(1, 2), qp_state_key(2, 1));
        assert_ne!(qp_state_key(0, 1), qp_state_key(1, 0));
    }

    #[test]
    fn random_eviction_degrades_gracefully() {
        // Cyclic access over 2x capacity: strict LRU gets 0% hits, the
        // random policy lands near capacity/working_set.
        let mut lru = ConnCache::with_policy(128, Eviction::Lru, 1);
        let mut rnd = ConnCache::with_policy(128, Eviction::Random, 1);
        for _ in 0..16 {
            for k in 0..256u64 {
                lru.access(k);
                rnd.access(k);
            }
        }
        assert_eq!(lru.hits(), 0);
        let ratio = rnd.hit_ratio();
        assert!(ratio > 0.05 && ratio < 0.6, "ratio={ratio}");
        assert!(rnd.len() <= 128);
    }

    #[test]
    fn random_eviction_within_capacity_always_hits() {
        let mut c = ConnCache::with_policy(64, Eviction::Random, 3);
        for round in 0..5 {
            for k in 0..64u64 {
                assert_eq!(c.access(k), round > 0);
            }
        }
    }

    #[test]
    fn random_eviction_is_seed_deterministic() {
        let run = |seed| {
            let mut c = ConnCache::with_policy(32, Eviction::Random, seed);
            for k in 0..1000u64 {
                c.access(k % 64);
            }
            c.hits()
        };
        assert_eq!(run(9), run(9));
    }
}
