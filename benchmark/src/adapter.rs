//! The pinned API surface: every item of `crates/*` the benchmark
//! touches is named in this file and nowhere else.
//!
//! Workloads and probes import from here, so a later change that
//! reshapes one of these APIs (ROADMAP item 1 turns the stats structs
//! into views over one registry) has exactly one file to keep
//! compiling, and `README.md` lists the same names. Counters are copied
//! out into the plain structs below, so no workload depends on how a
//! crate stores them.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

pub use flock_core::api::fl_connect;
pub use flock_core::client::{ConnectionHandle, HandleConfig};
pub use flock_core::msg;
pub use flock_core::sched::jains_index;
pub use flock_core::server::{lpt_partition, FlockServer, ServerConfig};
pub use flock_core::tcq::{Outcome as TcqOutcome, Tcq};
pub use flock_core::FlockDomain;
pub use flock_fabric::{
    Completion, CompletionQueue, ConnCache, CqOpcode, CqStatus, FabricConfig, Node, QpNum, WrId,
};
pub use flock_gateway::proto::{Decoded, MemcachedText, Request, Response, WireProtocol};
pub use flock_gateway::{
    key_hash, register_kv_backend, register_kv_mirror_backend, Gateway, GatewayConfig,
    KvReadClient, ReadMode,
};
pub use flock_hydralist::{HydraConfig, HydraList};
pub use flock_kvstore::{KvConfig, KvStore};
pub use flock_sim::rng::{splitmix64, SimRng, ZipfTable};
pub use flock_sim::stats::Histogram;
pub use flock_sim::vtime::VirtualLab;
pub use flock_sync::clock;
pub use flock_txn::protocol::{
    key_partition, TxnResp, TxnRpc, RPC_ABORT, RPC_COMMIT, RPC_EXECUTE, RPC_LOG,
};
pub use flock_txn::{Smallbank, TxnClient, TxnOutcome, TxnServer, TxnSpec};

/// `ServerStats`, copied out.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounters {
    pub messages: u64,
    pub requests: u64,
    pub grants: u64,
    pub declines: u64,
    pub head_flushes_skipped: u64,
}

impl ServerCounters {
    /// Add another server's counters (the three `txn_smallbank` servers).
    pub fn add(&mut self, o: ServerCounters) {
        self.messages += o.messages;
        self.requests += o.requests;
        self.grants += o.grants;
        self.declines += o.declines;
        self.head_flushes_skipped += o.head_flushes_skipped;
    }
}

pub fn server_counters(server: &FlockServer) -> ServerCounters {
    let s = server.stats();
    ServerCounters {
        messages: s.messages.load(Relaxed),
        requests: s.requests.load(Relaxed),
        grants: s.grants.load(Relaxed),
        declines: s.declines.load(Relaxed),
        head_flushes_skipped: s.head_flushes_skipped.load(Relaxed),
    }
}

/// `NicStats`, summed over nodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct NicCounters {
    pub verbs: u64,
    pub bytes: u64,
    pub reads: u64,
    pub atomics: u64,
    pub rnr_failures: u64,
    pub ud_drops: u64,
}

pub fn nic_counters<'a>(nodes: impl IntoIterator<Item = &'a Arc<Node>>) -> NicCounters {
    let mut c = NicCounters::default();
    for n in nodes {
        let s = n.stats();
        c.verbs += s.verbs.load(Relaxed);
        c.bytes += s.bytes.load(Relaxed);
        c.reads += s.reads.load(Relaxed);
        c.atomics += s.atomics.load(Relaxed);
        c.rnr_failures += s.rnr_failures.load(Relaxed);
        c.ud_drops += s.ud_drops.load(Relaxed);
    }
    c
}

/// `(hits, misses)` of the nodes' NIC connection caches, summed.
pub fn cache_counters(nodes: &[Arc<Node>]) -> (u64, u64) {
    nodes.iter().fold((0, 0), |(h, m), n| {
        let c = n.cache().lock();
        (h + c.hits(), m + c.misses())
    })
}

/// `(leases, warm leases)` of the nodes' QP pools, summed.
pub fn qpool_counters(nodes: &[Arc<Node>]) -> (u64, u64) {
    nodes.iter().fold((0, 0), |(l, w), n| {
        let s = n.pool().stats();
        (l + s.leases.load(Relaxed), w + s.warm.load(Relaxed))
    })
}

/// `(requests, messages)` a handle has sent (`HandleMetrics`).
pub fn handle_counters(handle: &ConnectionHandle) -> (u64, u64) {
    let m = handle.metrics();
    (m.requests, m.messages)
}
