#![warn(missing_docs)]

//! # flock-kvstore
//!
//! A MICA-style partitioned in-memory key-value store — the storage
//! substrate for FlockTX and the FaSST comparison (paper §8.5). Unlike
//! MICA's lossy index we are lossless; what matters for the reproduction
//! is the access interface: partitioned ownership, per-entry version and
//! lock words for optimistic concurrency control, and O(1) point access.
//!
//! Layout: keys hash to a partition; each partition holds lock-striped
//! buckets. Every entry carries a 64-bit *version/lock word* — bit 63 is
//! the lock bit, the low 63 bits a version counter bumped on each update —
//! exactly the word a remote validator reads with a one-sided RDMA read in
//! the validation phase of FlockTX.

pub(crate) mod readmode;
pub mod store;
pub mod versioned;

pub use readmode::{AdaptivePolicy, ReadMode};
pub use store::{KvConfig, KvStore, Partition};
pub use versioned::{VersionEntry, LOCK_BIT};
