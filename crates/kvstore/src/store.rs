//! The partitioned store.

use std::collections::HashMap;

use parking_lot::RwLock;

use crate::versioned::VersionEntry;

/// Store configuration.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Number of partitions (one per server in a distributed deployment).
    pub partitions: usize,
    /// Lock stripes per partition.
    pub stripes: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            partitions: 1,
            stripes: 16,
        }
    }
}

/// One partition: lock-striped hash buckets of versioned entries.
#[derive(Debug)]
pub struct Partition {
    stripes: Vec<RwLock<HashMap<u64, VersionEntry>>>,
}

impl Partition {
    fn new(stripes: usize) -> Partition {
        Partition {
            stripes: (0..stripes).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn stripe(&self, key: u64) -> &RwLock<HashMap<u64, VersionEntry>> {
        &self.stripes[mix(key) as usize % self.stripes.len()]
    }

    /// Number of keys in this partition.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the partition holds no keys.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().is_empty())
    }
}

/// SplitMix-style hash used for partitioning and striping.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A read snapshot of an entry: `(value, version word)`.
pub(crate) type ReadResult = Option<(Vec<u8>, u64)>;

/// The partitioned key-value store.
#[derive(Debug)]
pub struct KvStore {
    partitions: Vec<Partition>,
}

impl KvStore {
    /// Create a store with the given configuration.
    pub fn new(cfg: KvConfig) -> KvStore {
        assert!(cfg.partitions >= 1 && cfg.stripes >= 1);
        KvStore {
            partitions: (0..cfg.partitions)
                .map(|_| Partition::new(cfg.stripes))
                .collect(),
        }
    }

    /// Which partition owns `key`.
    pub(crate) fn partition_of(&self, key: u64) -> usize {
        (mix(key) >> 32) as usize % self.partitions.len()
    }

    /// Access a partition directly (e.g., a server owning one partition).
    pub fn partition(&self, idx: usize) -> &Partition {
        &self.partitions[idx]
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total keys across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(|p| p.is_empty())
    }

    /// Insert or overwrite `key` (unconditional put; version bumps if the
    /// key exists).
    pub fn put(&self, key: u64, value: &[u8]) {
        let part = &self.partitions[self.partition_of(key)];
        let mut map = part.stripe(key).write();
        match map.get_mut(&key) {
            Some(e) => {
                // Unconditional puts ignore the lock (loader path).
                let locked = e.is_locked();
                // Overwrite in place: a put of the size the key already
                // holds allocates nothing (handlers run on dispatch
                // steps, whose allocations should not outlive them).
                e.value.clear();
                e.value.extend_from_slice(value);
                e.word = (e.version() + 1) | if locked { crate::LOCK_BIT } else { 0 };
            }
            None => {
                map.insert(key, VersionEntry::new(value.to_vec()));
            }
        }
    }

    /// Read `key`: `(value, version word)` or `None`.
    pub fn get(&self, key: u64) -> ReadResult {
        let part = &self.partitions[self.partition_of(key)];
        let map = part.stripe(key).read();
        map.get(&key).map(|e| (e.value.clone(), e.word))
    }

    /// Remove `key`; returns whether it existed.
    pub fn remove(&self, key: u64) -> bool {
        let part = &self.partitions[self.partition_of(key)];
        part.stripe(key).write().remove(&key).is_some()
    }

    /// OCC: try to lock `key` for writing. Returns `false` if missing or
    /// already locked.
    pub fn try_lock(&self, key: u64) -> bool {
        let part = &self.partitions[self.partition_of(key)];
        let mut map = part.stripe(key).write();
        map.get_mut(&key).map(|e| e.try_lock()).unwrap_or(false)
    }

    /// OCC: unlock without updating (abort).
    pub fn unlock(&self, key: u64) {
        let part = &self.partitions[self.partition_of(key)];
        if let Some(e) = part.stripe(key).write().get_mut(&key) {
            e.unlock();
        }
    }

    /// OCC: install `value`, bump the version, release the lock (commit).
    pub fn update_and_unlock(&self, key: u64, value: &[u8]) {
        let part = &self.partitions[self.partition_of(key)];
        if let Some(e) = part.stripe(key).write().get_mut(&key) {
            e.update_and_unlock(value.to_vec());
        }
    }

    /// OCC: validate that `key` still has version word `word` and is not
    /// locked by another writer (paper Fig. 13 validation phase).
    #[cfg(test)]
    fn validate(&self, key: u64, word: u64) -> bool {
        let part = &self.partitions[self.partition_of(key)];
        let map = part.stripe(key).read();
        match map.get(&key) {
            Some(e) => !e.is_locked() && e.word == word,
            None => false,
        }
    }

    /// The current version word of `key` (what a one-sided validation read
    /// would fetch), or `None`.
    pub fn version_word(&self, key: u64) -> Option<u64> {
        let part = &self.partitions[self.partition_of(key)];
        part.stripe(key).read().get(&key).map(|e| e.word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KvStore {
        KvStore::new(KvConfig {
            partitions: 4,
            stripes: 8,
        })
    }

    #[test]
    fn put_get_remove() {
        let kv = store();
        kv.put(1, b"one");
        kv.put(2, b"two");
        assert_eq!(kv.get(1).unwrap().0, b"one");
        assert_eq!(kv.get(2).unwrap().0, b"two");
        assert!(kv.get(3).is_none());
        assert!(kv.remove(1));
        assert!(!kv.remove(1));
        assert!(kv.get(1).is_none());
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn overwrite_bumps_version() {
        let kv = store();
        kv.put(7, b"a");
        let (_, v1) = kv.get(7).unwrap();
        kv.put(7, b"b");
        let (val, v2) = kv.get(7).unwrap();
        assert_eq!(val, b"b");
        assert!(v2 > v1);
    }

    #[test]
    fn partitioning_is_stable_and_total() {
        let kv = store();
        for key in 0..1000 {
            let p = kv.partition_of(key);
            assert!(p < 4);
            assert_eq!(p, kv.partition_of(key));
        }
        // All partitions get some share.
        for key in 0..1000 {
            kv.put(key, b"x");
        }
        for p in 0..4 {
            assert!(kv.partition(p).len() > 100, "partition {p} underfilled");
        }
    }

    #[test]
    fn occ_lock_protocol() {
        let kv = store();
        kv.put(5, b"v");
        let (_, word) = kv.get(5).unwrap();
        assert!(kv.try_lock(5));
        assert!(!kv.try_lock(5), "double lock must fail");
        // Validation fails while locked.
        assert!(!kv.validate(5, word));
        kv.unlock(5);
        assert!(kv.validate(5, word));
        // Commit path.
        assert!(kv.try_lock(5));
        kv.update_and_unlock(5, b"v2");
        assert!(!kv.validate(5, word), "version changed");
        let (val, word2) = kv.get(5).unwrap();
        assert_eq!(val, b"v2");
        assert!(kv.validate(5, word2));
    }

    #[test]
    fn lock_missing_key_fails() {
        let kv = store();
        assert!(!kv.try_lock(99));
        kv.unlock(99); // no-op, no panic
        assert!(!kv.validate(99, 1));
    }

    #[test]
    fn version_word_matches_get() {
        let kv = store();
        kv.put(11, b"x");
        assert_eq!(kv.version_word(11).unwrap(), kv.get(11).unwrap().1);
        assert!(kv.version_word(12).is_none());
    }

    #[test]
    fn concurrent_occ_commits_are_serializable() {
        use std::sync::Arc;
        let kv = Arc::new(store());
        kv.put(1, &0u64.to_le_bytes());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let kv = Arc::clone(&kv);
            handles.push(std::thread::spawn(move || {
                let mut commits = 0u64;
                for _ in 0..500 {
                    // Read-modify-write with OCC retry.
                    loop {
                        let (val, _word) = kv.get(1).unwrap();
                        let n = u64::from_le_bytes(val.try_into().unwrap());
                        if !kv.try_lock(1) {
                            std::thread::yield_now();
                            continue;
                        }
                        // Re-read under lock (the value may have moved
                        // between read and lock) — classic OCC upgrade.
                        let (val2, _) = kv.get(1).unwrap();
                        let n2 = u64::from_le_bytes(val2.try_into().unwrap());
                        let _ = n;
                        kv.update_and_unlock(1, &(n2 + 1).to_le_bytes());
                        commits += 1;
                        break;
                    }
                }
                commits
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 2000);
        let (val, _) = kv.get(1).unwrap();
        assert_eq!(u64::from_le_bytes(val.try_into().unwrap()), 2000);
    }
}
