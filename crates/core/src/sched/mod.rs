//! Flock's symbiotic send-recv scheduling (paper §5).
//!
//! * [`qp`] — receiver-side QP scheduling: the server bounds the number of
//!   active QPs (`MAX_AQP`) and redistributes them across senders in
//!   proportion to their utilization.
//! * [`thread`] — sender-side thread scheduling: Algorithm 1, packing
//!   application threads onto active QPs by request-size class and byte
//!   quota to avoid head-of-line blocking.
//! * [`tenant`] — per-tenant accounting for the gateway topology: share
//!   caps, issued/completed counters, and the fairness snapshot.
//!
//! The policies are pure state machines: the threaded runtime and the
//! discrete-event models drive the same code. Tenant counters are the
//! one exception (lock-free statistics bumped from the dispatch path).

pub mod qp;
pub mod tenant;
pub mod thread;

pub use qp::{QpScheduler, QpSchedulerConfig, SenderQp};
pub(crate) use tenant::DEFAULT_TENANT;
pub use tenant::{jains_index, FairnessSnapshot, TenantAccounting, TenantCounters, TenantRow};
pub use thread::{assign_threads, ThreadLoadStats};
