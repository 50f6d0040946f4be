#![warn(missing_docs)]

//! # flock-baselines
//!
//! The comparison systems of the Flock paper, implemented over the same
//! software fabric:
//!
//! * [`erpc`] — a UD-datagram RPC in the style of eRPC/FaSST: per-packet
//!   receive-buffer recycling, software fragmentation/reassembly (4 KB
//!   MTU), client-side retransmission timers, and session credit windows.
//!   This is the baseline of Figures 2(b), 6–8, 14–18.
//! * [`lockshare`] — FaRM-style RC QP sharing behind a lock: each thread
//!   encodes and posts its own single-request message while holding the
//!   QP lock (no coalescing). With one thread per QP it degenerates into
//!   the *no sharing* configuration. These are the baselines of Figure 9.
//!
//! The lock-sharing client speaks the Flock ring/message protocol, so it
//! connects to an unmodified [`flock_core::server::FlockServer`].

pub mod erpc;
pub mod lockshare;

pub use erpc::{UdRpcClient, UdRpcConfig, UdRpcServer};
pub use lockshare::{LockShareConfig, LockSharedClient};
