#![warn(missing_docs)]

//! # flock-models
//!
//! Discrete-event models of the Flock paper's evaluation clusters (see
//! DESIGN.md §2 for the substitution rationale: the figures depend on
//! hardware parallelism — RNIC processing units, a connection-state cache,
//! 32-core servers, 24 nodes — that cannot exist on the test machine, so
//! they are reproduced in virtual time).
//!
//! The models reuse the *real* Flock policy code: the message codec, the
//! credit state machine, the receiver-side QP scheduler, and Algorithm 1
//! all come from [`flock_core`]; the transaction experiments run real
//! lock/version logic on per-server version words in FlockTX's word
//! format; the index experiments run a real [`flock_hydralist`] index.
//! Only time is simulated.
//!
//! Entry points live in [`experiments`]: [`experiments::run_rpc`],
//! [`experiments::run_raw_read`], and [`experiments::run_txn`].

pub mod client;
pub mod coord;
pub mod experiments;
pub mod hydra;
pub(crate) mod net;
pub mod server;
pub mod world;

pub use experiments::{
    run_raw_read, run_rpc, run_txn, RawReadConfig, Report, RpcConfig, TxnConfig,
};
pub use world::SystemKind;
