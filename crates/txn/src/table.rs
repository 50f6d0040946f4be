//! FlockTX's row table: one map from key to row per stripe.
//!
//! A table is [`STRIPES`] locked stripes, each one map from key to row
//! (hashed with one multiply, [`KeyMap`]: keys come from the cluster's own
//! loaders and coordinators) and a byte arena. A row is the key's slot and
//! value: up to [`INLINE`] bytes inline, a longer value in a span of the
//! arena, overwritten in place while it fits; one that outgrows its span
//! moves to the arena's end and leaves its old bytes dead (FlockTX's
//! values keep their size, so this is rare). A row holds no version word:
//! the server keeps that in its validation region, at the row's slot.

use flock_fabric::KeyMap;
use parking_lot::{Mutex, MutexGuard};

/// Lock stripes per table.
const STRIPES: usize = 64;

/// The longest value a row holds inline.
const INLINE: usize = 8;

/// One key's row.
struct Row {
    /// Index of the key's version word in the server's validation region
    /// (8-byte words); unused in a backup table.
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
}

/// One stripe of a [`Table`].
#[derive(Default)]
pub(crate) struct Stripe {
    rows: KeyMap<u64, Row>,
    /// Every spanned value's bytes.
    arena: Vec<u8>,
}

impl Stripe {
    /// `key`'s slot and value: one probe.
    pub(crate) fn get(&self, key: u64) -> Option<(u32, &[u8])> {
        let row = self.rows.get(&key)?;
        let bytes = match row.span() {
            Some((off, _)) => &self.arena[off..],
            None => &row.val[..],
        };
        Some((row.slot, &bytes[..row.len as usize]))
    }

    /// Set `key`'s value; returns its slot, or `None` if it has no row.
    pub(crate) fn set(&mut self, key: u64, value: &[u8]) -> Option<u32> {
        let row = self.rows.get_mut(&key)?;
        store(&mut self.arena, row, value);
        Some(row.slot)
    }

    /// Add a row for `key`, which has none.
    pub(crate) fn insert(&mut self, key: u64, slot: u32, value: &[u8]) {
        let row = self.rows.entry(key).or_insert(Row {
            slot,
            len: 0,
            val: [0; INLINE],
        });
        store(&mut self.arena, row, value);
    }
}

/// Write `value` into `row`: inline when it is short, else in place when
/// it fits the row's span, else in a new span at the arena's end.
fn store(arena: &mut Vec<u8>, row: &mut Row, value: &[u8]) {
    let n = value.len();
    let len = u32::try_from(n).expect("a value fits a u32 length");
    match row.span() {
        _ if n <= INLINE => row.val[..n].copy_from_slice(value),
        Some((off, cap)) if n <= cap => arena[off..][..n].copy_from_slice(value),
        _ => {
            let off = u32::try_from(arena.len()).expect("a stripe's arena fits u32 offsets");
            let ([a, b, c, d], [e, f, g, h]) = (off.to_le_bytes(), len.to_le_bytes());
            row.val = [a, b, c, d, e, f, g, h];
            arena.extend_from_slice(value);
        }
    }
    row.len = len;
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
        // The top bits of a Fibonacci product; the stripe's map hashes
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
        s.insert(3, 5, b"ten bytes!");
        assert_eq!(s.set(3, b"nine byte"), Some(5));
        assert_eq!(s.get(3), Some((5, b"nine byte".as_slice())));
        assert_eq!(s.arena.len(), 10, "a value within its span stays put");
        s.set(3, b"eleven bytes");
        assert_eq!(s.get(3), Some((5, b"eleven bytes".as_slice())));
        assert_eq!(s.arena.len(), 22, "an outgrown span moves to the end");
        s.set(3, b"short");
        assert_eq!(s.get(3), Some((5, b"short".as_slice())));
        assert_eq!(s.arena.len(), 22, "a short value is inline");
        assert_eq!(s.set(4, b"x"), None);
        assert_eq!(s.get(4), None);
    }
}
