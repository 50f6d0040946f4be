#![warn(missing_docs)]

//! # flock-txn
//!
//! **FlockTX** — the distributed transaction system of the Flock paper's
//! §8.5: optimistic concurrency control (OCC), two-phase commit (2PC), and
//! 3-way primary-backup replication over key-partitioned servers,
//! communicating through Flock RPCs and one-sided reads. Each
//! [`TxnServer`] keeps its partition in one row table
//! ([`flock_kvstore::Table`]): a key's row holds its value and the slot
//! of its version word (bit 63, [`flock_core::onesided::LOCK_BIT`], is
//! the lock) in the region clients read one-sidedly; the word lives
//! there and nowhere else.
//!
//! A transaction (paper Figure 13) runs in four phases:
//!
//! 1. **Execution** — the coordinator RPCs each involved primary, which
//!    *locks* the write-set keys (abort on conflict) and returns values,
//!    version words, and the memory offsets of the read-set version words.
//! 2. **Validation** — the coordinator issues *one-sided RDMA reads*
//!    (`fl_read`) of the read-set version words; any change or lock causes
//!    an abort.
//! 3. **Logging** — write-set updates are RPC'd to each partition's two
//!    replicas, which ACK after applying to their backup copies.
//! 4. **Commit** — primaries install the new values, bump versions, and
//!    unlock.
//!
//! The coordinator writes these phases once, as one per-transaction
//! state machine (`coordinator.rs`, `Txn`), and drives it two ways:
//! [`TxnClient::run`] blocks on a transaction's outstanding operations,
//! [`TxnClient::run_pipelined`] polls many machines from one thread, as
//! the paper's coroutines do (§8.5.2). An error mid-transaction is
//! returned only after the machine has received what was outstanding and
//! sent Abort to every server it knows to hold its locks.
//!
//! For write-hot keys where OCC retries burn more verbs than locks
//! would, [`TxnClient::run_locked`] wraps the same four phases in
//! pessimistic [`StripeLocks`] — per-stripe ALock cohorts over a remote
//! CAS word table ([`export_stripe_locks`]) — trading one amortized
//! remote atomic per stripe for zero aborts.
//!
//! [`workloads`] provides the paper's TATP (read-intensive) and Smallbank
//! (write-intensive) benchmark generators.

pub mod coordinator;
pub mod protocol;
pub mod server;
pub mod workloads;

pub use coordinator::{PipelineStats, StripeLocks, TxnClient, TxnLogic, TxnOutcome};
pub use protocol::{key_partition, TxnResp, TxnRpc};
pub use server::{export_stripe_locks, TxnServer};
pub use workloads::{Smallbank, Tatp, TxnSpec};
