//! The row table: one map from key to row per stripe.
//!
//! A table is [`STRIPES`] locked stripes, each one map from key to row
//! (hashed with `S`) and a byte arena. A row is the key's slot and
//! value: up to [`INLINE`] bytes inline, a longer value in a span of the
//! arena, overwritten in place while it fits; one that outgrows its span
//! moves to the arena's end, and one that shrinks to [`INLINE`] bytes
//! moves into its row. Either leaves its old span dead, and a stripe
//! compacts its arena when more than half of it is dead. A row holds no
//! version word: a table's owner keeps that where a one-sided reader
//! reads it, at the row's slot.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

use parking_lot::{Mutex, MutexGuard};

/// Lock stripes per table.
const STRIPES: usize = 64;

/// The longest value a row holds inline.
const INLINE: usize = 8;

/// One key's row.
struct Row {
    /// The key's slot in its owner's one-sided region; `u32::MAX` for
    /// an owner that keeps none (a backup table, the kv store).
    slot: u32,
    len: u32,
    /// The value when `len` is at most [`INLINE`], else its arena span:
    /// offset and capacity, two little-endian `u32`s.
    val: [u8; INLINE],
}

impl Row {
    /// The arena span `(off, cap)` of a value too long to be inline.
    fn span(&self) -> Option<(usize, usize)> {
        let [a, b, c, d, e, f, g, h] = self.val;
        let half = |bytes: [u8; 4]| u32::from_le_bytes(bytes) as usize;
        (self.len as usize > INLINE).then(|| (half([a, b, c, d]), half([e, f, g, h])))
    }

    fn set_span(&mut self, off: usize, cap: usize) {
        let word = |n: usize| u32::try_from(n).expect("a stripe's arena fits u32 offsets");
        let ([a, b, c, d], [e, f, g, h]) = (word(off).to_le_bytes(), word(cap).to_le_bytes());
        self.val = [a, b, c, d, e, f, g, h];
    }
}

/// One stripe of a [`Table`].
pub struct Stripe<S = RandomState> {
    rows: HashMap<u64, Row, S>,
    /// Every spanned value's bytes.
    arena: Vec<u8>,
    /// Bytes of `arena` no row's span covers.
    dead: usize,
}

impl<S: Default> Default for Stripe<S> {
    fn default() -> Self {
        Stripe {
            rows: HashMap::default(),
            arena: Vec::new(),
            dead: 0,
        }
    }
}

impl<S: BuildHasher> Stripe<S> {
    /// `key`'s slot and value: one probe.
    pub fn get(&self, key: u64) -> Option<(u32, &[u8])> {
        let row = self.rows.get(&key)?;
        let bytes = match row.span() {
            Some((off, _)) => &self.arena[off..],
            None => &row.val[..],
        };
        Some((row.slot, &bytes[..row.len as usize]))
    }

    /// Set `key`'s value; returns its slot, or `None` if it has no row.
    pub fn set(&mut self, key: u64, value: &[u8]) -> Option<u32> {
        let row = self.rows.get_mut(&key)?;
        let slot = row.slot;
        self.dead += store(&mut self.arena, row, &[value]);
        self.compact();
        Some(slot)
    }

    /// Add a row for `key`, which has none.
    pub fn insert(&mut self, key: u64, slot: u32, value: &[u8]) {
        self.put(key, slot, &[value]);
    }

    /// Set `key`'s value to `parts`, one after the other, adding a row
    /// with `slot` if it has none: a value in pieces is stored without
    /// being gathered first.
    pub fn put(&mut self, key: u64, slot: u32, parts: &[&[u8]]) {
        let row = self.rows.entry(key).or_insert(Row {
            slot,
            len: 0,
            val: [0; INLINE],
        });
        self.dead += store(&mut self.arena, row, parts);
        self.compact();
    }

    /// Rebuild the arena from the live spans once more than half of it
    /// is dead, and no fewer dead bytes than the stripe has rows: the
    /// walk over the rows is paid for by the bytes it gives back.
    fn compact(&mut self) {
        if self.dead * 2 <= self.arena.len() || self.dead < self.rows.len() {
            return;
        }
        let old = std::mem::take(&mut self.arena);
        self.arena.reserve_exact(old.len() - self.dead);
        for row in self.rows.values_mut() {
            if let Some((off, cap)) = row.span() {
                row.set_span(self.arena.len(), cap);
                self.arena.extend_from_slice(&old[off..off + cap]);
            }
        }
        self.dead = 0;
    }
}

/// Write the value `parts` make up into `row`: inline when it is short,
/// else in place when it fits the row's span, else in a new span at the
/// arena's end. Returns the bytes of the span it left, if it left one.
fn store(arena: &mut Vec<u8>, row: &mut Row, parts: &[&[u8]]) -> usize {
    let n = parts.iter().map(|p| p.len()).sum();
    let copy = |mut to: &mut [u8]| {
        for part in parts {
            let (head, rest) = to.split_at_mut(part.len());
            head.copy_from_slice(part);
            to = rest;
        }
    };
    let old = row.span();
    let dead = match old {
        _ if n <= INLINE => {
            copy(&mut row.val[..n]);
            old.map_or(0, |(_, cap)| cap)
        }
        Some((off, cap)) if n <= cap => {
            copy(&mut arena[off..][..n]);
            0
        }
        _ => {
            row.set_span(arena.len(), n);
            for part in parts {
                arena.extend_from_slice(part);
            }
            old.map_or(0, |(_, cap)| cap)
        }
    };
    row.len = u32::try_from(n).expect("a value fits a u32 length");
    dead
}

/// A striped row table; `S` hashes each stripe's map.
pub struct Table<S = RandomState> {
    stripes: Box<[Mutex<Stripe<S>>]>,
}

impl<S: Default> Table<S> {
    /// An empty table.
    pub fn new() -> Table<S> {
        Table {
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }
}

impl<S: Default> Default for Table<S> {
    fn default() -> Self {
        Table::new()
    }
}

impl<S> Table<S> {
    /// Lock the stripe that holds `key`.
    pub fn stripe(&self, key: u64) -> MutexGuard<'_, Stripe<S>> {
        // The top bits of a Fibonacci product; the stripe's map hashes
        // with `S`, which must not index by the same bits.
        let s = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - STRIPES.trailing_zeros());
        self.stripes[s as usize].lock()
    }

    /// Rows in the table.
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().rows.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_overwritten_in_place_until_they_outgrow_their_span() {
        let t: Table = Table::new();
        let mut s = t.stripe(3);
        s.insert(3, 5, b"ten bytes!");
        assert_eq!(s.set(3, b"nine byte"), Some(5));
        assert_eq!(s.get(3), Some((5, b"nine byte".as_slice())));
        assert_eq!(s.arena.len(), 10, "a value within its span stays put");
        s.set(3, b"eleven bytes");
        assert_eq!(s.get(3), Some((5, b"eleven bytes".as_slice())));
        assert_eq!(s.arena.len(), 22, "an outgrown span moves to the end");
        s.set(3, b"short");
        assert_eq!(s.get(3), Some((5, b"short".as_slice())));
        assert_eq!(
            s.arena.len(),
            0,
            "a short value is inline, its span compacted away"
        );
        assert_eq!(s.set(4, b"x"), None);
        assert_eq!(s.get(4), None);
    }

    #[test]
    fn a_value_that_changes_size_leaves_no_arena_behind() {
        let t: Table = Table::new();
        let mut s = t.stripe(9);
        s.insert(9, 0, &[1; 100]);
        for _ in 0..10_000 {
            s.set(9, &[2; 4]);
            s.set(9, &[3; 100]);
        }
        assert_eq!(s.get(9), Some((0, [3; 100].as_slice())));
        assert!(
            s.arena.len() <= 256,
            "{} arena bytes for 100 live",
            s.arena.len()
        );
    }

    #[test]
    fn compaction_keeps_every_other_rows_value() {
        let t: Table = Table::new();
        let mut s = t.stripe(0);
        for key in 0..4 {
            s.insert(key, key as u32, &[key as u8; 20]);
        }
        // Key 0 outgrows its span (20 of 130 bytes dead), then moves
        // inline (70 of 130).
        s.set(0, &[9; 50]);
        assert_eq!(s.arena.len(), 130, "half or less dead stays");
        s.set(0, b"in");
        assert_eq!(s.arena.len(), 60, "the dead spans compacted away");
        for key in 1..4 {
            assert_eq!(s.get(key), Some((key as u32, [key as u8; 20].as_slice())));
        }
        assert_eq!(s.get(0), Some((0, b"in".as_slice())));
        s.set(2, &[7; 20]);
        assert_eq!(
            s.get(2),
            Some((2, [7; 20].as_slice())),
            "a span is overwritten in place"
        );
    }

    /// A value in pieces lands as one, inline or in a span, and a row
    /// that `put` finds keeps its slot.
    #[test]
    fn a_value_put_in_pieces_reads_back_whole() {
        let t: Table = Table::new();
        let mut s = t.stripe(5);
        s.put(5, 2, &[b"ab", b"", b"cd"]);
        assert_eq!(s.get(5), Some((2, b"abcd".as_slice())));
        s.put(5, 9, &[b"a longer ", b"value"]);
        assert_eq!(s.get(5), Some((2, b"a longer value".as_slice())));
        s.put(5, 9, &[b"in", b"line"]);
        assert_eq!(s.get(5), Some((2, b"inline".as_slice())));
        assert_eq!(s.arena.len(), 0, "the dead span compacted away");
    }
}
