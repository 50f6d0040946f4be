#![warn(missing_docs)]

//! # flock-kvstore
//!
//! The one in-memory row store of the reproduction: FlockTX's partitions
//! (paper §8.5) and the gateway's kv backends both keep their keys in a
//! [`Table`]. A table is 64 locked stripes, each one map from key to a
//! 16-byte row — the key's slot and its value, inline up to 8 bytes,
//! else a span of the stripe's byte arena — so a preloaded key with a
//! short value costs a map entry and nothing else.
//!
//! A row holds no version word. A version word lives only where a
//! one-sided reader reads it: a FlockTX server keeps each key's word in
//! its validation region at the row's slot, and the gateway's mirror
//! publishes each SET into a segment slot that carries its own seqlock
//! word (`flock_core::onesided`, whose `LOCK_BIT` is the one lock-bit
//! definition). [`KvStore`] is the table with no slots; its
//! [`KvStore::put_then`] runs the mirror's publish under the key's
//! stripe lock, so one key's puts reach the mirror in store order.

pub(crate) mod readmode;
mod store;
mod table;

pub use readmode::{AdaptivePolicy, ReadMode};
pub use store::{KvConfig, KvStore};
pub use table::{Stripe, Table};
