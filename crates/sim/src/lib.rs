#![warn(missing_docs)]

//! # flock-sim
//!
//! A small deterministic discrete-event simulation (DES) kernel used to
//! reproduce the cluster-scale experiments of the Flock paper (SOSP 2021)
//! on commodity hardware.
//!
//! The kernel provides:
//!
//! * a virtual clock in nanoseconds ([`Ns`]),
//! * an event engine ([`Sim`]) dispatching boxed closures in time order,
//! * passive FIFO resources ([`resource`]) for modelling NIC processing
//!   units, wires, and CPU cores,
//! * reproducible random number generation ([`rng`]),
//! * streaming statistics ([`stats`]) including an HDR-style log-bucket
//!   histogram for median / p99 latency series.
//!
//! Determinism: all state lives in the caller-supplied *world*; events fire
//! in `(time, sequence)` order; RNGs are explicitly seeded. Two runs with
//! the same seed produce byte-identical output.

pub mod engine;
mod fiber;
pub(crate) mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod vtime;

pub use engine::Sim;
pub use resource::{BankedServer, MultiServer};
pub use rng::SimRng;
pub use stats::{Counter, Histogram};
pub use time::Ns;
pub use vtime::VirtualLab;
