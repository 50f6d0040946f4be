#![warn(missing_docs)]

//! # flock-fabric
//!
//! A software RDMA fabric substituting for the ConnectX-5 hardware used in
//! the Flock paper (SOSP 2021). See DESIGN.md §2 for the substitution
//! rationale.
//!
//! The fabric provides verbs-level semantics in process:
//!
//! * **Transports** — RC, UC, and UD queue pairs with the capability matrix
//!   of the paper's Table 1 (verbs supported, MTU limits, reliability).
//! * **Memory regions** — registered buffers with lkey/rkey protection,
//!   address translation (MTT) and access checks (MPT).
//! * **One-sided verbs** — read, write, write-with-immediate, fetch-and-add
//!   and compare-and-swap executed by a per-node NIC engine thread with no
//!   involvement of the target's CPU.
//! * **Two-sided verbs** — send/recv with posted receive buffers, RNR
//!   failures on RC, silent drops and a synthetic 40-byte GRH on UD, plus
//!   optional UD loss injection.
//! * **The RNIC connection cache** — a per-node LRU over connection state
//!   ([`ConnCache`]) mirroring the paper's Figure 1, and the [`CostModel`]
//!   that prices cache misses (PCIe fetches), wire time, doorbells, and
//!   host polling for the discrete-event experiments.
//!
//! ## Concurrency discipline
//!
//! Its cross-thread state is locks plus `Relaxed` stats counters, ID
//! allocators, the completion queues' length mirrors (written under
//! their locks), and words published with Release and read with
//! Acquire that only one writer at a time changes: a QP's state, peer
//! and lease epoch (under its `transition` lock) and the fabric's table
//! generation (bumped after each change to a node's QP or MR table) —
//! no lock-free protocols, so no loom suite. Every
//! `Ordering::` site is inventoried by `cargo audit-orderings` (see
//! `orderings.allow`); a lock-free protocol would need a model first
//! (DESIGN.md, "Memory ordering and verification").
//!
//! ## Example
//!
//! ```
//! use flock_fabric::{Access, Fabric, RemoteAddr, SendOp, SendWr, Sge, Transport, WrId};
//! use std::time::Duration;
//!
//! let fabric = Fabric::with_defaults();
//! let client = fabric.add_node("client");
//! let server = fabric.add_node("server");
//!
//! // Server exposes 1 KiB of remotely writable memory.
//! let smr = server.register_mr(1024, Access::REMOTE_ALL);
//! // Client stages its payload in a local region.
//! let cmr = client.register_mr(1024, Access::LOCAL);
//! cmr.write(0, b"hello rdma").unwrap();
//!
//! let cq = client.create_cq(16);
//! let scq = server.create_cq(16);
//! let cqp = client.create_qp(Transport::Rc, &cq, &cq);
//! let sqp = server.create_qp(Transport::Rc, &scq, &scq);
//! fabric.connect(&cqp, &sqp).unwrap();
//!
//! cqp.post_send(SendWr::write(
//!     WrId(1),
//!     Sge { lkey: cmr.lkey(), addr: cmr.addr(), len: 10 },
//!     RemoteAddr { rkey: smr.rkey(), addr: smr.addr() },
//! )).unwrap();
//!
//! let comp = cq.wait_one(Duration::from_secs(1)).unwrap();
//! assert!(comp.is_ok());
//! assert_eq!(smr.read_vec(0, 10).unwrap(), b"hello rdma");
//! ```

pub mod cache;
pub(crate) mod chan;
pub mod cq;
pub mod fabric;
pub mod mr;
pub(crate) mod mrcache;
pub mod nic;
pub mod qp;
pub mod qpool;
pub mod timing;
pub mod types;
pub mod verbs;

pub use cache::{qp_state_key, ConnCache, Eviction};
pub use chan::{doorbell, DoorbellSender};
pub use cq::CompletionQueue;
pub use fabric::{connect_qps, Fabric, FabricConfig, Node};
pub use mr::{Access, MemoryRegion, MrTable, Pages, PAGE};
pub use mrcache::{MrCache, MrCacheConfig};
pub use qpool::{QpPool, QpPoolConfig, QpPoolStats};
pub use nic::{NicStats, GRH_BYTES};
pub use qp::Qp;
pub use timing::CostModel;
pub use types::{FabricError, KeyMap, Lkey, NodeId, QpNum, QpState, Result, Rkey, Transport, WrId};
pub use verbs::{Completion, CqOpcode, CqStatus, RecvWr, RemoteAddr, SendOp, SendWr, Sge};
