#![warn(missing_docs)]

//! # flock-core
//!
//! A Rust reproduction of **Flock** (Monga, Kashyap, Min — SOSP 2021), a
//! communication framework that scales RDMA RPCs over hardware reliable
//! connections by *sharing queue pairs among threads*.
//!
//! The library provides the paper's three contributions:
//!
//! 1. **Connection handle abstraction** ([`client::ConnectionHandle`]) —
//!    one logical connection per remote node multiplexing application
//!    threads over an internally managed set of RC QPs, exposing RPC,
//!    one-sided memory, and atomic operations (Table 2; see [`api`]).
//! 2. **Flock synchronization** ([`tcq::Tcq`]) — an MCS-style thread
//!    combining queue: a transient leader coalesces concurrent requests
//!    into one message ([`msg`]) written with a single RDMA write into the
//!    peer's ring buffer ([`ring`]).
//! 3. **Symbiotic send-recv scheduling** ([`sched`]) — receiver-side QP
//!    scheduling with credit renewal ([`credit`]) bounding active QPs at
//!    the server, and sender-side thread scheduling (Algorithm 1) packing
//!    threads onto active QPs by request-size class.
//!
//! The RDMA substrate is the in-process [`flock_fabric`] crate (see
//! DESIGN.md for the hardware-substitution rationale).
//!
//! ## Quickstart
//!
//! ```
//! use flock_core::client::HandleConfig;
//! use flock_core::server::{FlockServer, ServerConfig};
//! use flock_core::{ConnectionHandle, FlockDomain};
//!
//! let domain = FlockDomain::with_defaults();
//! let server_node = domain.add_node("server");
//! let client_node = domain.add_node("client");
//!
//! let server = FlockServer::listen(&domain, &server_node, "kv", ServerConfig::default());
//! server.reg_handler(1, |req| {
//!     let mut out = b"echo:".to_vec();
//!     out.extend_from_slice(req);
//!     out
//! });
//!
//! let handle = ConnectionHandle::connect(
//!     &domain, &client_node, "kv", HandleConfig::default(),
//! ).unwrap();
//! let t = handle.register_thread();
//! let reply = t.call(1, b"hello").unwrap();
//! assert_eq!(reply, b"echo:hello");
//! server.shutdown(&domain);
//! ```

pub mod alock;
pub mod api;
pub mod client;
pub mod credit;
pub mod domain;
pub mod error;
pub mod msg;
pub mod onesided;
mod pool;
mod requests;
pub mod ring;
pub mod sched;
pub mod server;
pub mod tcq;

pub use alock::{ALock, LockWord, RemoteLockWord};
pub use bytes::Bytes;
pub use client::{ConnectionHandle, FlThread, HandleConfig, HandleMetrics, MemToken, QpMetrics};
pub use domain::{FlockDomain, MemRegionInfo, RingInfo, SegmentLease};
pub use onesided::{OneSidedReader, SegmentWriter, SlotLayout};
pub use error::{FlockError, Result};
pub use server::{lpt_partition, FlockServer, ServerConfig};
pub use tcq::Tcq;
