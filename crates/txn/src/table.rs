//! FlockTX's row table: one row per key, the only copy of its version
//! word and value.
//!
//! A table is [`STRIPES`] locked stripes. Each holds an index from key to
//! row, dense rows of `{word, slot, value span}`, and a byte arena the
//! spans point into, so no value is a heap allocation of its own. A
//! value is overwritten in place when it fits its span; one that outgrows
//! it moves to the arena's end and leaves its old bytes dead (FlockTX's
//! values keep their size, so this is rare). The index hashes with one
//! multiply ([`KeyMap`]): keys come from the cluster's own loaders and
//! coordinators, not from outside it.

use flock_fabric::KeyMap;
use parking_lot::{Mutex, MutexGuard};

/// Lock stripes per table.
const STRIPES: usize = 64;

/// One key's row.
pub(crate) struct Row {
    /// Version/lock word: bit 63 ([`flock_kvstore::LOCK_BIT`]) is the
    /// lock, the low bits a version counter.
    pub(crate) word: u64,
    /// Index of the row's word in the server's validation region (8-byte
    /// words); unused in a backup table.
    pub(crate) slot: u32,
    /// The value: `len` bytes at `off` in the stripe's arena, in a span
    /// of `cap` bytes.
    off: u32,
    len: u32,
    cap: u32,
}

/// One stripe of a [`Table`].
#[derive(Default)]
pub(crate) struct Stripe {
    /// Key → index into `rows`.
    index: KeyMap<u64, u32>,
    /// Dense rows, in insertion order.
    pub(crate) rows: Vec<Row>,
    /// Every row's value bytes.
    arena: Vec<u8>,
}

impl Stripe {
    /// The row index of `key`: one probe.
    pub(crate) fn find(&self, key: u64) -> Option<usize> {
        self.index.get(&key).map(|&i| i as usize)
    }

    /// Row `i`'s value.
    pub(crate) fn value(&self, i: usize) -> &[u8] {
        let row = &self.rows[i];
        &self.arena[row.off as usize..][..row.len as usize]
    }

    /// Set row `i`'s value: in place when it fits the row's span, else
    /// in a new span at the arena's end.
    pub(crate) fn set_value(&mut self, i: usize, value: &[u8]) {
        let row = &mut self.rows[i];
        let len = u32::try_from(value.len()).expect("a value fits a u32 length");
        if len > row.cap {
            row.off = u32::try_from(self.arena.len()).expect("a stripe's arena fits u32 offsets");
            row.cap = len;
            self.arena.extend_from_slice(value);
        } else {
            self.arena[row.off as usize..][..value.len()].copy_from_slice(value);
        }
        row.len = len;
    }

    /// Add a row for `key`, which has none, holding `value`; returns its
    /// index.
    pub(crate) fn push(&mut self, key: u64, word: u64, slot: u32, value: &[u8]) -> usize {
        let i = self.rows.len();
        self.rows.push(Row {
            word,
            slot,
            off: 0,
            len: 0,
            cap: 0,
        });
        self.set_value(i, value);
        self.index.insert(
            key,
            u32::try_from(i).expect("a stripe's rows fit u32 indices"),
        );
        i
    }
}

/// A striped row table.
pub(crate) struct Table {
    stripes: Box<[Mutex<Stripe>]>,
}

impl Table {
    pub(crate) fn new() -> Table {
        Table {
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    /// Lock the stripe that holds `key`.
    pub(crate) fn stripe(&self, key: u64) -> MutexGuard<'_, Stripe> {
        // The top bits of a Fibonacci product; the stripe's index hashes
        // with the product's middle bits, so the two stay independent.
        let s = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - STRIPES.trailing_zeros());
        self.stripes[s as usize].lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_overwritten_in_place_until_they_outgrow_their_span() {
        let t = Table::new();
        let mut s = t.stripe(3);
        let i = s.push(3, 1, 0, b"four");
        s.set_value(i, b"two");
        assert_eq!(s.value(i), b"two");
        s.set_value(i, b"four");
        assert_eq!(s.value(i), b"four");
        assert_eq!(s.arena.len(), 4, "a value within its span stays put");
        s.set_value(i, b"longer");
        assert_eq!(s.value(i), b"longer");
        assert_eq!(s.arena.len(), 10, "an outgrown span moves to the end");
        assert_eq!(s.find(3), Some(i));
        assert_eq!(s.find(4), None);
    }
}
