//! The simulation world: nodes, requests, statistics.
//!
//! One `World` type covers every experiment family (raw verbs, RPC
//! systems, transactions, the index service); per-experiment drivers in
//! [`crate::experiments`] configure the relevant parts. All model state is
//! deterministic: randomness flows from the experiment seed.

use std::collections::VecDeque;

use flock_core::credit::{CreditState, MedianWindow};
use flock_core::sched::qp::QpScheduler;
use flock_fabric::{ConnCache, CostModel};
use flock_sim::{BankedServer, Counter, Histogram, MultiServer, Ns, SimRng};

/// Which communication system a client stack models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Flock: TCQ coalescing + credits + symbiotic scheduling.
    Flock,
    /// FaRM-style lock-shared RC QPs (no coalescing).
    LockShare,
    /// One dedicated RC QP per thread (no sharing).
    NoShare,
    /// eRPC/FaSST-style UD RPC.
    UdRpc,
}

/// Identifies a request in the world's slab.
pub(crate) type ReqId = usize;

/// What a request is for (drives service time and per-kind stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Plain RPC with fixed handler cost.
    Echo,
    /// Index point lookup.
    Get,
    /// Index range scan.
    Scan,
    /// Transaction phase RPC (execute/log/commit/abort).
    Txn(TxnPhase),
    /// One-sided read (raw or validation).
    Read,
}

/// Transaction phases (paper Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    /// Execution: lock writes, read values.
    Execute,
    /// One-sided validation read.
    Validate,
    /// Log to a replica.
    Log,
    /// Commit on a primary.
    Commit,
    /// Abort (unlock).
    Abort,
}

/// A request in flight.
#[derive(Debug, Clone)]
pub struct Req {
    /// Issue timestamp (for latency).
    pub issued: Ns,
    /// Originating client index.
    pub client: usize,
    /// Originating thread index within the client.
    pub thread: usize,
    /// Destination server index.
    pub server: usize,
    /// Request payload bytes.
    pub size: usize,
    /// Response payload bytes.
    pub resp_size: usize,
    /// What this request is.
    pub kind: ReqKind,
    /// Key targeted by the request (index/raw experiments).
    pub key: u64,
    /// Owning transaction slot (txn experiments).
    pub txn: Option<usize>,
}

/// State of a QP lane's send side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneState {
    /// No leader active.
    Idle,
    /// A leader is preparing or sending a batch.
    Busy,
    /// A leader is parked waiting for a credit grant.
    WaitCredits,
}

/// Closed-loop generator state for one application thread.
#[derive(Debug)]
pub struct ThreadModel {
    /// The QP lane this thread currently submits on, per server.
    pub assigned_qp: Vec<usize>,
    /// The scheduler's target lane, per server. Adopted only once the
    /// thread has drained its outstanding requests (migration safety,
    /// paper §5.2).
    pub target_qp: Vec<usize>,
    /// Refills withheld while draining for a migration.
    pub parked: usize,
    /// Requests currently in flight.
    pub inflight: usize,
    /// Stats for Algorithm 1 since the last scheduling pass.
    pub bytes: u64,
    /// Requests since the last scheduling pass.
    pub reqs: u64,
    /// Median request size tracker.
    pub sizes: MedianWindow,
    /// Per-thread RNG (workload draws).
    pub rng: SimRng,
    /// Fixed request size for this thread (mixed-size experiments).
    pub req_size: usize,
    /// The thread's CPU is busy submitting until this instant: a thread
    /// that just led a flush cannot enqueue its next request behind
    /// itself (it is single-threaded), so its own outstanding requests
    /// never self-coalesce.
    pub next_free: Ns,
    /// Requests issued but not yet handed to the transport (the thread
    /// submits them one at a time).
    pub submit_queue: VecDeque<ReqId>,
    /// A submit event is scheduled.
    pub submitting: bool,
}

/// One QP lane of a client connection (Flock / lock-share model).
#[derive(Debug)]
pub struct QpModel {
    /// Globally unique QP id (cache key on the server NIC).
    pub global_id: u64,
    /// Destination server.
    pub server: usize,
    /// Requests waiting for the next batch.
    pub pending: VecDeque<ReqId>,
    /// Send-side state.
    pub state: LaneState,
    /// Credit state (real Flock code).
    pub credits: CreditState,
    /// Coalescing degrees since the last renewal (for the report).
    pub degrees: MedianWindow,
    /// Whether the server scheduler keeps this QP active.
    pub active: bool,
    /// Messages sent on this QP (coalescing accounting).
    pub messages: u64,
    /// Requests sent on this QP.
    pub requests: u64,
    /// Server-side: requests landed in this lane's ring, not yet picked
    /// up by a dispatcher sweep.
    pub srv_pending: VecDeque<ReqId>,
    /// Server-side: a dispatcher is currently processing this lane.
    pub srv_busy: bool,
}

/// A client node: its NIC, link, QP lanes and threads.
#[derive(Debug)]
pub struct ClientNode {
    /// NIC processing units.
    pub nic: BankedServer,
    /// Egress/ingress link serialization (full duplex: two stations).
    pub tx_link: MultiServer,
    /// Ingress link.
    pub rx_link: MultiServer,
    /// QP lanes to each server: `qps[server][lane]`.
    pub qps: Vec<Vec<QpModel>>,
    /// Application threads.
    pub threads: Vec<ThreadModel>,
}

/// A server node.
#[derive(Debug)]
pub struct ServerNode {
    /// NIC processing units.
    pub nic: BankedServer,
    /// NIC connection cache.
    pub cache: ConnCache,
    /// Egress link.
    pub tx_link: MultiServer,
    /// Ingress link.
    pub rx_link: MultiServer,
    /// CPU cores handling requests.
    pub cores: MultiServer,
    /// The scheduler thread (credit handling + redistribution).
    pub sched_cpu: MultiServer,
    /// Receiver-side QP scheduler (real Flock code).
    pub qp_sched: QpScheduler,
}

/// Aggregated measurements (recorded only after warmup).
#[derive(Debug, Default)]
pub struct Stats {
    /// Completed requests (transactions in txn experiments).
    pub completed: Counter,
    /// End-to-end request latency.
    pub latency: Histogram,
    /// Latency of index gets.
    pub get_latency: Histogram,
    /// Latency of index scans.
    pub scan_latency: Histogram,
    /// Coalescing degree per message.
    pub degree: Histogram,
    /// Messages that crossed the wire client→server.
    pub messages: u64,
    /// Wire packets client→server.
    pub packets: u64,
    /// Transaction aborts.
    pub aborts: u64,
    /// Transaction commits.
    pub commits: u64,
}

/// The world.
pub struct World {
    /// Timing constants.
    pub cost: CostModel,
    /// World RNG (forked into threads).
    pub rng: SimRng,
    /// Which client stack is being modelled.
    pub system: SystemKind,
    /// Clients.
    pub clients: Vec<ClientNode>,
    /// Servers.
    pub servers: Vec<ServerNode>,
    /// Request slab (never shrinks; slots recycled via `free`).
    pub reqs: Vec<Req>,
    /// Recycled request slots.
    pub free: Vec<ReqId>,
    /// Measurements.
    pub stats: Stats,
    /// Measurement starts here.
    pub warmup: Ns,
    /// TCQ batch bound (1 disables coalescing).
    pub batch_limit: usize,
    /// Run the sender-side thread scheduler (Algorithm 1).
    pub thread_sched: bool,
    /// Closed-loop outstanding requests per thread.
    pub outstanding: usize,
    /// Extra per-request server CPU cost.
    pub handler_ns: u64,
    /// Per-request response handler (experiment-specific app logic).
    pub app: AppLogic,
    /// Transaction slots (txn experiments).
    pub txns: Vec<crate::coord::TxnSlot>,
    /// Shared transaction engine state (txn experiments).
    pub txn_engine: Option<crate::coord::TxnEngine>,
}

/// Server-side application logic.
pub enum AppLogic {
    /// Fixed-cost echo (cost from `World::handler_ns`).
    Echo,
    /// HydraList service: real index, modelled service times.
    Hydra(crate::hydra::HydraApp),
    /// FlockTX/FaSST servers: real `TxnServer` logic per partition.
    Txn,
}

impl World {
    /// Allocate a request slot.
    pub(crate) fn alloc_req(&mut self, req: Req) -> ReqId {
        if let Some(id) = self.free.pop() {
            self.reqs[id] = req;
            id
        } else {
            self.reqs.push(req);
            self.reqs.len() - 1
        }
    }

    /// Release a request slot.
    pub(crate) fn release_req(&mut self, id: ReqId) {
        self.free.push(id);
    }

    /// Global QP id for the server NIC cache.
    pub(crate) fn qp_global_id(client: usize, server: usize, lane: usize) -> u64 {
        ((client as u64) << 24) | ((server as u64) << 12) | lane as u64
    }

    /// Record a completed request at `now`.
    pub(crate) fn record_completion(&mut self, id: ReqId, now: Ns) {
        let req = &self.reqs[id];
        if req.issued >= self.warmup {
            let lat = (now - req.issued).as_nanos();
            self.stats.completed.record(req.size as u64);
            self.stats.latency.record(lat);
            match req.kind {
                ReqKind::Get => self.stats.get_latency.record(lat),
                ReqKind::Scan => self.stats.scan_latency.record(lat),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_global_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..50 {
            for s in 0..4 {
                for l in 0..16 {
                    assert!(seen.insert(World::qp_global_id(c, s, l)));
                }
            }
        }
    }
}
