//! `flock-gateway` — a multi-tenant protocol gateway over Flock.
//!
//! The classic proxy/cache-tier topology (ROADMAP item 1, RDMAvisor in
//! PAPERS.md): edge threads terminate client connections speaking
//! ordinary cache wire protocols, decode requests, and fan them into
//! `flock-kvstore` over a *small, shared, capped* set of Flock
//! connections — many client flows per QP, which is exactly the
//! regime Flock's coalescing and QP scheduling are built for.
//!
//! Layers:
//!
//! * [`proto`] — pluggable wire protocols (memcached-text) with
//!   incremental, panic-free decoders.
//! * [`edge`] — per-client sessions pumping bytes → frames → backend
//!   RPCs → encoded responses.
//! * [`gateway`] — tenant-keyed shared backend connections and session
//!   lifecycle; the tenant id rides the Flock connect handshake so the
//!   backend's QP scheduler can enforce per-tenant AQP share caps.
//! * [`tenant`] — the edge-side session → tenant registry.
//! * [`backend`] — the kv RPC handlers (GET/SET/PING) registered on a
//!   `FlockServer`.
//! * [`mirror`] — the kv backend with a one-sided value mirror and the
//!   [`ReadMode`]-steered client (`Rpc` / `OneSided` / `Adaptive`).
//! * [`hydra`] — the same bridge over `flock-hydralist`, plus a leaf
//!   mirror a client traverses with raw READs.
//! * [`rpc`] — the gateway↔backend payload contract (FNV-hashed keys).

pub mod backend;
pub mod edge;
pub mod gateway;
pub mod hydra;
pub mod mirror;
pub mod proto;
pub mod rpc;
pub mod tenant;

pub use backend::register_kv_backend;
pub use flock_kvstore::{AdaptivePolicy, ReadMode};
pub use hydra::{
    register_hydra_backend, register_hydra_mirror_backend, HydraMirror, HydraReader, LeafView,
};
pub use mirror::{register_kv_mirror_backend, KvReadClient, KvReadStats};
pub use edge::{EdgeError, EdgeSession};
pub use gateway::{Gateway, GatewayConfig};
pub use proto::{Decoded, MemcachedText, ProtoError, Request, Response, WireProtocol};
pub use rpc::key_hash;
pub use tenant::{SessionId, TenantRegistry};
