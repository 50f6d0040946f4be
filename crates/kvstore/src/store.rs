//! The kv store: a [`Table`] whose rows carry no slot.

use crate::table::Table;

/// Store configuration. It has no knobs: the store is one [`Table`] of
/// fixed stripe count.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvConfig {}

/// The key-value store.
pub struct KvStore {
    table: Table,
}

impl KvStore {
    /// An empty store.
    pub fn new(_cfg: KvConfig) -> KvStore {
        KvStore {
            table: Table::new(),
        }
    }

    /// Keys in the store.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store holds no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert or overwrite `key`.
    pub fn put(&self, key: u64, value: &[u8]) {
        self.put_then(key, value, || ());
    }

    /// [`KvStore::put`], then `publish()` while the key's stripe is still
    /// locked: a mirror that `publish` writes sees one key's puts in
    /// store order.
    pub fn put_then<R>(&self, key: u64, value: &[u8], publish: impl FnOnce() -> R) -> R {
        let mut s = self.table.stripe(key);
        if s.set(key, value).is_none() {
            s.insert(key, u32::MAX, value);
        }
        publish()
    }

    /// `key`'s value, or `None`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.table
            .stripe(key)
            .get(key)
            .map(|(_, value)| value.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_stores_the_value_and_returns_what_publish_returns() {
        let kv = KvStore::new(KvConfig::default());
        assert!(kv.is_empty());
        assert_eq!(kv.put_then(7, b"v", || 42), 42);
        assert_eq!(kv.get(7).as_deref(), Some(b"v".as_slice()));
        assert!(!kv.is_empty());
    }
}
