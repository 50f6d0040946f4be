#![warn(missing_docs)]

//! # flock-baselines
//!
//! The comparison systems of the Flock paper, implemented over the same
//! software fabric:
//!
//! * [`erpc`] — a UD-datagram RPC in the style of eRPC/FaSST: per-packet
//!   receive-buffer recycling, software fragmentation/reassembly (4 KB
//!   MTU), client-side retransmission timers and at-most-once replies;
//!   each client thread owns its UD endpoint. This is the baseline of
//!   Figures 2(b), 6–8, 14–18.
//! * [`lock_shared`] — FaRM-style RC QP sharing behind a lock, the
//!   baseline of Figure 9. It is a Flock connection handle configured
//!   not to coalesce, so it needs no client of its own.

use flock_core::client::HandleConfig;

pub mod erpc;

pub use erpc::{UdRpcClient, UdRpcConfig, UdRpcServer};

/// FaRM-style lock-based QP sharing (and the no-sharing special case):
/// the [`HandleConfig`] of a [`flock_core::ConnectionHandle`] whose
/// `n_qps` RC QPs threads share behind a lock.
///
/// Each thread encodes its own single-request message and posts its own
/// RDMA write while it holds the QP. No coalescing — the configuration
/// the paper's Figure 9 compares against (2 or 4 threads per QP behind a
/// spinlock). With `n_qps` equal to the thread count every thread owns
/// its QP: the *no sharing* configuration.
///
/// The lock is the lane's TCQ bounded at one request per batch: a leader
/// sends only its own request, then hands the lane to the next waiter,
/// which is an MCS queue lock. Threads stay on the lane they registered
/// on (`id % n_qps`, FaRM's static assignment): the sender-side thread
/// scheduler is off. The client speaks the Flock ring/message protocol,
/// so the peer is an unmodified [`flock_core::server::FlockServer`].
pub fn lock_shared(n_qps: usize) -> HandleConfig {
    HandleConfig {
        n_qps,
        batch_limit: 1,
        auto_thread_sched: false,
        ..HandleConfig::default()
    }
}
