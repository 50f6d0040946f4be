//! The fabric: the set of nodes, their NIC engines, and connection setup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flock_sync::clock::{self, TaskHandle};
use flock_sync::Counter;
use parking_lot::{Mutex, RwLock};

use crate::cache::ConnCache;
use crate::chan::{doorbell, DoorbellSender};
use crate::cq::CompletionQueue;
use crate::mr::{Access, MemoryRegion, MrTable};
use crate::mrcache::{MrCache, MrCacheConfig};
use crate::nic::{EngineLane, NicCmd, NicStats};
use crate::qp::Qp;
use crate::qpool::{QpPool, QpPoolConfig};
use crate::timing::CostModel;
use crate::types::{FabricError, KeyMap, NodeId, QpNum, Result, Transport};

/// Fabric-wide configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// The timing/cost model (used for accounting and by DES models).
    pub cost: CostModel,
    /// Probability that a UD datagram is silently lost (loss injection for
    /// exercising software reliability layers). RC traffic never drops.
    pub ud_drop_probability: f64,
    /// Seed for loss injection and any other fabric randomness.
    pub seed: u64,
    /// NIC connection-cache entries per node (overrides the cost model's
    /// value for the stats cache attached to each node).
    pub nic_cache_entries: usize,
    /// Engine lanes per node. Work requests are sharded across lanes by
    /// QPN, so per-QP FIFO ordering is preserved (all RC guarantees)
    /// while unrelated QPs execute in parallel. Defaults to 2, a constant
    /// so that a scenario builds the same topology on every host;
    /// override for benchmarks sweeping the lane count.
    pub nic_lanes: usize,
    /// Per-node QP pool (the elastic control plane's warm-lease path).
    /// Disabled by default: leases cold-create, releases destroy.
    pub qpool: QpPoolConfig,
    /// Per-node MR registration cache. Disabled by default: acquires
    /// register cold, releases deregister.
    pub mr_cache: MrCacheConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        let cost = CostModel::default();
        let entries = cost.nic_cache_entries;
        FabricConfig {
            cost,
            ud_drop_probability: 0.0,
            seed: 0x5EED,
            nic_cache_entries: entries,
            nic_lanes: 2,
            qpool: QpPoolConfig::default(),
            mr_cache: MrCacheConfig::default(),
        }
    }
}

/// Shared fabric state, visible to NIC engines.
#[derive(Debug)]
pub(crate) struct FabricInner {
    pub(crate) nodes: RwLock<KeyMap<NodeId, Arc<Node>>>,
    pub(crate) config: FabricConfig,
    next_node: Counter,
    /// The table generation: bumped by every QP create, destroy and
    /// reset ([`Node::release_qp`]) and every MR register and
    /// deregister, on any node. A NIC
    /// lane keeps what it looked up across verbs while this stands
    /// still (`nic::Resolved`).
    pub(crate) tables: Arc<AtomicU64>,
}

impl FabricInner {
    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> Result<Arc<Node>> {
        self.nodes
            .read()
            .get(&id)
            .cloned()
            .ok_or(FabricError::NodeNotFound(id))
    }
}

/// A machine attached to the fabric: registered memory, queue pairs, a NIC
/// engine with a connection cache, and statistics.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    name: String,
    mrs: MrTable,
    qps: RwLock<KeyMap<QpNum, Arc<Qp>>>,
    next_qpn: Counter,
    cache: Mutex<ConnCache>,
    stats: NicStats,
    /// One command channel per engine lane; QPs are pinned to a lane by
    /// QPN at creation, preserving per-QP FIFO execution order.
    engine_txs: Vec<DoorbellSender<NicCmd>>,
    /// The cost model, for charging control-plane operations (QP
    /// creation/reset, MR registration) to the calling virtual task.
    cost: CostModel,
    /// Recycled-QP free list (see `crates/fabric/src/qpool.rs`).
    pool: QpPool,
    /// Parked-MR registration cache.
    mr_cache: Mutex<MrCache>,
    /// Placeholder CQ bound to pooled QPs while they sit in the free
    /// list; a lease rebinds to the lessee's real CQs.
    parked_cq: Arc<CompletionQueue>,
    /// The fabric's table generation ([`FabricInner::tables`]).
    tables: Arc<AtomicU64>,
}

impl Node {
    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's memory-region table.
    pub fn mrs(&self) -> &MrTable {
        &self.mrs
    }

    /// The node's NIC connection cache (stats-bearing LRU model).
    pub fn cache(&self) -> &Mutex<ConnCache> {
        &self.cache
    }

    /// NIC statistics.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// The fabric's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Register a zeroed memory region of `len` bytes.
    pub fn register_mr(&self, len: usize, access: Access) -> Arc<MemoryRegion> {
        self.mrs.register(len, access)
    }

    /// Create a completion queue.
    pub fn create_cq(&self, capacity: usize) -> Arc<CompletionQueue> {
        CompletionQueue::new(capacity)
    }

    /// Create a queue pair in the `Init` state.
    pub fn create_qp(
        &self,
        transport: Transport,
        send_cq: &Arc<CompletionQueue>,
        recv_cq: &Arc<CompletionQueue>,
    ) -> Arc<Qp> {
        let qpn = QpNum(u32::try_from(self.next_qpn.add(1)).expect("QP numbers are 32 bits wide"));
        // Pin the QP to a lane by QPN: all its work requests execute on
        // one engine thread, so per-QP FIFO ordering (all RC guarantees)
        // is preserved while unrelated QPs run on other lanes.
        let lane = qpn.0 as usize % self.engine_txs.len();
        let qp = Qp::new(
            self.id,
            qpn,
            transport,
            Arc::clone(send_cq),
            Arc::clone(recv_cq),
            self.engine_txs[lane].clone(),
        );
        self.qps.write().insert(qpn, Arc::clone(&qp));
        self.tables.fetch_add(1, Ordering::Release);
        qp
    }

    /// Look up a queue pair by number.
    pub fn qp(&self, qpn: QpNum) -> Option<Arc<Qp>> {
        self.qps.read().get(&qpn).cloned()
    }

    /// Destroy a queue pair: it is removed from the node, its connection
    /// state is evicted from the NIC cache, and any work still queued in
    /// the engine for it is silently dropped (verbs `ibv_destroy_qp`
    /// semantics after moving through the error state).
    pub fn destroy_qp(&self, qpn: QpNum) -> bool {
        let removed = self.qps.write().remove(&qpn);
        if let Some(qp) = &removed {
            qp.set_error();
            self.cache
                .lock()
                .invalidate(crate::cache::qp_state_key(self.id.0, qpn.0));
            self.tables.fetch_add(1, Ordering::Release);
        }
        removed.is_some()
    }

    /// Number of queue pairs on this node.
    pub fn qp_count(&self) -> usize {
        self.qps.read().len()
    }

    /// Route an engine command to the lane that owns `qpn` — the same
    /// QPN→lane pinning as [`Node::create_qp`], so responder work
    /// forwarded for one QP executes in FIFO order on one lane. Used by
    /// the engine to hand one-sided verbs to the responder node's NIC.
    pub(crate) fn forward_cmd(&self, qpn: QpNum, cmd: NicCmd) {
        let lane = qpn.0 as usize % self.engine_txs.len();
        let _ = self.engine_txs[lane].send(cmd);
    }

    /// The node's QP pool.
    pub fn pool(&self) -> &QpPool {
        &self.pool
    }

    /// The node's MR registration cache.
    pub fn mr_cache(&self) -> &Mutex<MrCache> {
        &self.mr_cache
    }

    /// Lease a QP: recycle one from the pool (reset + CQ rebind,
    /// charging [`CostModel::ctrl_reset_qp_ns`]) when possible, fall
    /// back to a cold [`Node::create_qp`] (charging
    /// [`CostModel::ctrl_create_qp_ns`]) otherwise. Only RC QPs pool —
    /// the connection-oriented state is what is expensive to rebuild.
    ///
    /// The connect path is a measured hot path under churn: warm leases
    /// are allocation-free (the `churn` suite's `allocs` counts them).
    pub fn lease_qp(
        &self,
        transport: Transport,
        send_cq: &Arc<CompletionQueue>,
        recv_cq: &Arc<CompletionQueue>,
    ) -> Arc<Qp> {
        self.pool.stats().leases.add(1);
        if transport == Transport::Rc {
            if let Some(qp) = self.pool.take() {
                qp.rebind_cqs(send_cq, recv_cq);
                clock::charge(self.cost.ctrl_reset_qp_ns);
                self.pool.stats().warm.add(1);
                return qp;
            }
        }
        clock::charge(self.cost.ctrl_create_qp_ns);
        self.pool.stats().cold.add(1);
        self.create_qp(transport, send_cq, recv_cq)
    }

    /// Release a leased QP: reset it (bumping its lease epoch so stale
    /// queued work is dropped by the engine) and park it in the pool;
    /// destroy it when the pool is disabled, full, or the transport is
    /// not RC. Charges [`CostModel::ctrl_reset_qp_ns`] — the
    /// modify-to-RESET verb — never the creation cost.
    ///
    /// Allocation-free when the QP is pooled (the `churn` suite's
    /// `allocs` counts it).
    pub fn release_qp(&self, qp: &Arc<Qp>) {
        qp.reset();
        self.tables.fetch_add(1, Ordering::Release);
        clock::charge(self.cost.ctrl_reset_qp_ns);
        self.cache
            .lock()
            .invalidate(crate::cache::qp_state_key(self.id.0, qp.qpn().0));
        qp.rebind_cqs(&self.parked_cq, &self.parked_cq);
        self.pool.stats().recycled.add(1);
        if qp.transport() != Transport::Rc || !self.pool.put(Arc::clone(qp)) {
            self.pool.stats().discarded.add(1);
            self.destroy_qp(qp.qpn());
        }
    }

    /// Cold-create one pooled RC QP (bound to the placeholder CQ) and
    /// park it (explicit pre-warming); charges the full creation cost
    /// to the caller.
    /// Returns `false` if the pool refused it (disabled or full).
    pub(crate) fn refill_one_qp(&self) -> bool {
        let qp = self.create_qp(Transport::Rc, &self.parked_cq, &self.parked_cq);
        clock::charge(self.cost.ctrl_create_qp_ns);
        if self.pool.put(Arc::clone(&qp)) {
            true
        } else {
            self.destroy_qp(qp.qpn());
            false
        }
    }

    /// Pre-fill the pool with `n` cold-created QPs (charged to the
    /// caller — benchmarks do this during setup, before measuring).
    /// Returns how many were actually parked.
    pub fn prewarm_qps(&self, n: usize) -> usize {
        let mut parked = 0;
        for _ in 0..n {
            if !self.refill_one_qp() {
                break;
            }
            self.pool.stats().refilled.add(1);
            parked += 1;
        }
        parked
    }

    /// Acquire a registered region of `len` bytes: reuse a parked region
    /// of identical layout (zeroing it — ring canary protocols depend on
    /// fresh buffers — and charging only [`CostModel::memset_time`]; the
    /// zeroing drops its pages, [`MemoryRegion::zero`]), or register
    /// cold, charging the Swift-style penalty [`CostModel::reg_mr_time`].
    pub fn acquire_mr(&self, len: usize, access: Access) -> Arc<MemoryRegion> {
        if let Some(mr) = self.mr_cache.lock().take(len, access) {
            mr.zero();
            clock::charge(self.cost.memset_time(len).as_nanos());
            return mr;
        }
        clock::charge(self.cost.reg_mr_time(len).as_nanos());
        self.mrs.register(len, access)
    }

    /// Release a region acquired via [`Node::acquire_mr`]: clear its
    /// doorbell ([`MemoryRegion::set_doorbell`]) and park it for reuse,
    /// deregistering (and charging
    /// [`CostModel::ctrl_dereg_mr_ns`]) whatever the cache evicts — the
    /// region itself when the cache is disabled.
    pub fn release_mr(&self, mr: &Arc<MemoryRegion>) {
        mr.set_doorbell(None);
        let evicted = self.mr_cache.lock().put(Arc::clone(mr));
        for victim in evicted {
            self.mrs.deregister(victim.lkey());
            clock::charge(self.cost.ctrl_dereg_mr_ns);
        }
    }
}

/// The top-level fabric handle. Dropping it stops all NIC engines.
#[derive(Debug)]
pub struct Fabric {
    inner: Arc<FabricInner>,
    engines: Mutex<Vec<(DoorbellSender<NicCmd>, TaskHandle)>>,
}

impl Fabric {
    /// Create an empty fabric.
    pub fn new(config: FabricConfig) -> Fabric {
        Fabric {
            inner: Arc::new(FabricInner {
                nodes: RwLock::new(KeyMap::default()),
                config,
                next_node: Counter::default(),
                tables: Arc::default(),
            }),
            engines: Mutex::new(Vec::new()),
        }
    }

    /// Create a fabric with default configuration.
    pub fn with_defaults() -> Fabric {
        Fabric::new(FabricConfig::default())
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.inner.config
    }

    /// Attach a new node and start its NIC engine lanes
    /// (`config.nic_lanes` threads; at least one).
    pub fn add_node(&self, name: &str) -> Arc<Node> {
        let id = NodeId(
            u32::try_from(self.inner.next_node.add(1))
                .expect("a fabric holds at most u32::MAX nodes"),
        );
        let lanes = self.inner.config.nic_lanes.max(1);
        let channels: Vec<_> = (0..lanes).map(|_| doorbell()).collect();
        let node = Arc::new(Node {
            id,
            name: name.to_string(),
            mrs: MrTable::with_generation(Arc::clone(&self.inner.tables)),
            qps: RwLock::new(KeyMap::default()),
            next_qpn: Counter::new(1),
            cache: Mutex::new(ConnCache::new(self.inner.config.nic_cache_entries)),
            stats: NicStats::default(),
            engine_txs: channels.iter().map(|(tx, ..)| tx.clone()).collect(),
            cost: self.inner.config.cost.clone(),
            pool: QpPool::new(self.inner.config.qpool.clone()),
            mr_cache: Mutex::new(MrCache::new(self.inner.config.mr_cache.clone())),
            parked_cq: CompletionQueue::new(1),
            tables: Arc::clone(&self.inner.tables),
        });
        self.inner.nodes.write().insert(id, Arc::clone(&node));
        for (lane, (tx, rx, rung)) in channels.into_iter().enumerate() {
            let inner = Arc::clone(&self.inner);
            let node2 = Arc::clone(&node);
            // Through the clock seam: a real thread normally, a
            // virtual core under `flock_sim::VirtualLab`.
            let mut engine = EngineLane::new(inner, node2, rx, Arc::clone(&rung), lane);
            let handle = clock::spawn_stepper(
                &format!("nic-{name}/{lane}"),
                EngineLane::idler(),
                rung,
                move || engine.step(),
            );
            self.engines.lock().push((tx, handle));
        }
        node
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> Result<Arc<Node>> {
        self.inner.node(id)
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.read().len()
    }

    /// Connect two queue pairs (RC or UC). Both transition to RTS.
    pub fn connect(&self, a: &Qp, b: &Qp) -> Result<()> {
        connect_qps(a, b)
    }

    /// Stop all NIC engines and wait for them to exit. Called by
    /// `Drop`; explicit invocation is idempotent.
    pub fn shutdown(&self) {
        let mut engines = self.engines.lock();
        for (tx, _) in engines.iter() {
            let _ = tx.send(NicCmd::Stop);
        }
        for (_, handle) in engines.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Connect two queue pairs (RC or UC) without needing the [`Fabric`]
/// handle. Both transition to RTS.
pub fn connect_qps(a: &Qp, b: &Qp) -> Result<()> {
    if a.transport() != b.transport() {
        return Err(FabricError::UnsupportedVerb {
            transport: a.transport(),
            verb: "connect across transports",
        });
    }
    a.set_connected((b.node(), b.qpn()))?;
    b.set_connected((a.node(), a.qpn()))?;
    Ok(())
}
