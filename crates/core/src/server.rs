//! The server side of Flock: accepting connections, the request
//! dispatcher (paper §4.3), response coalescing, and the receiver-side QP
//! scheduler with credit renewal over write-with-imm (§5.1, §7).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{Receiver, TryRecvError};
use flock_fabric::{
    doorbell, Access, CompletionQueue, CostModel, CqOpcode, DoorbellSender, MemoryRegion, Node, Qp,
    Transport,
};
use flock_sync::clock::{self, Event, IdleOn, Next, TaskHandle};
use flock_sync::{Counter, Stop};
use parking_lot::{Mutex, RwLock};

use crate::credit::{LaneGate, LanePhase};
use crate::domain::{
    AttachMemRequest, AttachReply, AttachRequest, ConnectReply, ConnectRequest, CtrlMsg,
    ExportReply, FlockDomain, MemRegionInfo, RingInfo, SegmentLease,
};
use crate::error::{FlockError, Result};
use crate::msg::{self, EntryMeta, EntryRef, FLAG_CREDIT_GRANT, FLAG_DRAINED, RPC_POSTED};
use crate::ring::{self, Link};
use crate::sched::qp::{QpScheduler, QpSchedulerConfig, SenderQp};
use crate::sched::tenant::{FairnessSnapshot, TenantCounters};

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Request/response ring capacity per QP (bytes).
    pub ring_capacity: usize,
    /// Receiver-side QP scheduler parameters.
    pub sched: QpSchedulerConfig,
    /// QP redistribution interval.
    pub sched_interval: Duration,
    /// Blocking-wait timeout.
    pub timeout: Duration,
    /// Dispatcher worker threads. Each owns a disjoint partition of
    /// connections (rebalanced when the QP scheduler redistributes active
    /// QPs); `1` is the single-dispatcher degenerate case. Defaults to 2,
    /// a constant so that a scenario builds the same topology on every
    /// host (sharding only wins where the workers can run in parallel:
    /// EXPERIMENTS.md "Receive-path scaling").
    pub dispatch_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ring_capacity: 1 << 16,
            sched: QpSchedulerConfig::default(),
            sched_interval: Duration::from_millis(10),
            timeout: Duration::from_secs(10),
            dispatch_threads: 2,
        }
    }
}

/// An RPC handler: bytes in, bytes out.
pub(crate) type Handler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// A request pulled via the manual API (`fl_recv_rpc`).
pub struct IncomingRpc {
    /// The request's RPC id, without the [`RPC_POSTED`] mark.
    pub rpc_id: u32,
    /// Request payload: a zero-copy slice of the coalesced request
    /// message.
    pub data: Bytes,
    /// Token to pass to [`FlockServer::send_res`].
    pub token: RpcToken,
}

/// Identifies the request's origin for `fl_send_res`.
#[derive(Debug, Clone, Copy)]
pub struct RpcToken {
    conn: usize,
    qp: usize,
    meta: EntryMeta,
}

struct ServerQpCtx {
    /// Requests in (the lane's dispatch shard polls), responses out (the
    /// shard, `send_res` callers and the QP scheduler send). Its
    /// [`Link::head_debt`] lets the shard skip redundant zero-entry
    /// head-only writes while the client is not short of ring space.
    link: Link,
    /// What the QP scheduler decided for the lane and how far the client
    /// has followed (paper §5.1/§5.2). On the shared context, so it
    /// moves with the lane from shard to shard. An active or draining
    /// lane is visited on every sweep; a silent one — the client posted
    /// its [`FLAG_DRAINED`] marker and sends nothing until the next
    /// grant — is skipped outright, so at high connection counts (QPs ≫
    /// MAX_AQP) the dispatch budget is not burnt on empty probes.
    gate: LaneGate,
    /// Visits of the lane's dispatch shard in sweeps that could find
    /// something ([`FlockServer::lane_probes`]).
    probes: Counter,
    /// Some dispatch shard polls the lane. A lane that moves is claimed
    /// by its new shard only once the old one settled it and let it go,
    /// so the server handles a lane's messages in ring order even across
    /// a re-cut.
    held: AtomicBool,
}

impl ServerQpCtx {
    /// Take the lane for a shard's sweeps: `false` while another shard
    /// still holds it.
    fn claim(&self) -> bool {
        let free = self
            .held
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed);
        free.is_ok()
    }

    /// Hand the settled lane on to whichever shard claims it next.
    fn let_go(&self) {
        self.held.store(false, Ordering::Release);
    }
}

struct ServerConn {
    /// Requests the connection's lanes served since the scheduling task
    /// last weighed the dispatch partition (`rebalance_dispatch`).
    served: Counter,
    /// The tenant's shared counter block, cloned out of the scheduler's
    /// registry at accept time so the dispatch hot path bumps per-tenant
    /// issued/completed statistics without any lock.
    counters: Arc<TenantCounters>,
    /// Send CQ shared by this connection's QPs (drained once per
    /// dispatcher sweep).
    send_cq: Arc<CompletionQueue>,
}

/// A live connection's slot in the [`Topology`].
struct ConnRecord {
    conn: Arc<ServerConn>,
    /// The connection's QP lanes: they attach lazily (`CtrlMsg::Attach`)
    /// and leave in one batch at detach. Dispatch shards copy them into
    /// their partition snapshot and never come back for them on the hot
    /// path.
    lanes: Vec<Arc<ServerQpCtx>>,
    /// Passive peers of the client's dedicated one-sided QPs
    /// ([`CtrlMsg::AttachMem`]). Never polled or dispatched — one-sided
    /// verbs complete on the requester's CQ — but each one is live NIC
    /// connection state on this node, competing for the connection
    /// cache exactly as the paper's crossover argument describes.
    mem_qps: Vec<Arc<Qp>>,
}

/// Connection membership and everything that changes with it: one lock
/// ([`ServerInner::topology`]) for the control plane's rare events —
/// connect, attach, detach, rebalance, handler registration. Never held
/// across a wait, a yield or [`flush_response`]; lock order is
/// `topology` before `qp_sched`.
struct Topology {
    /// Indexed by sender id; `None` once the connection departed.
    slots: Vec<Option<ConnRecord>>,
    /// Slot → dispatch shard. Seeded round-robin at accept time and
    /// re-cut by the scheduling task by requests served (see
    /// `rebalance_dispatch`).
    assign: Vec<usize>,
    /// Server QPN → (slot, lane), for the credit immediates.
    qpns: HashMap<u32, (usize, usize)>,
    handlers: Arc<HashMap<u32, Handler>>,
    /// Bumped on every change above ([`ServerInner::publish`]);
    /// [`ServerInner::generation`] mirrors it for the shards.
    gen: u64,
    /// `acked[w]`: the latest generation shard `w` adopted. Once every
    /// entry reaches a detach's generation no shard holds the departed
    /// lanes or defers a response on them.
    acked: Vec<u64>,
}

impl Topology {
    fn record(&self, sender: usize) -> Option<&ConnRecord> {
        self.slots.get(sender)?.as_ref()
    }

    fn lane(&self, sender: usize, lane: usize) -> Option<&Arc<ServerQpCtx>> {
        self.record(sender)?.lanes.get(lane)
    }

    fn record_mut(&mut self, sender: usize) -> Result<&mut ConnRecord> {
        let slot = self.slots.get_mut(sender).and_then(Option::as_mut);
        slot.ok_or(FlockError::Disconnected)
    }
}

/// Aggregate server statistics.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Coalesced request messages received.
    pub messages: Counter,
    /// Individual RPC requests processed.
    pub requests: Counter,
    /// Credit renewals granted.
    pub grants: Counter,
    /// Credit renewals declined.
    pub declines: Counter,
    /// Lanes the scheduler took out of the active set (redistribution, or
    /// a lane attached past the AQP budget).
    pub deactivations: Counter,
    /// Deactivated lanes whose client posted its drained marker in time:
    /// the lane went silent.
    pub drains_completed: Counter,
    /// Visits dispatch shards paid to draining lanes (one per lane per
    /// sweep that could find something, from the deactivation to the
    /// marker or the reactivation; see [`FlockServer::lane_probes`]).
    pub drain_sweeps: Counter,
    /// Redundant head-only response writes elided because the client's
    /// view of the consumed head was still fresh (within a quarter ring).
    pub head_flushes_skipped: Counter,
    /// Individual RPC responses written (dispatcher and manual path).
    pub responses: Counter,
    /// Response messages that carried them (head-only and credit-control
    /// messages are not counted).
    pub response_messages: Counter,
    /// Deferral episodes: times a dispatch shard found a client's
    /// response ring full and began holding the lane's responses back
    /// (retried on the lane's later visits, until they fit or
    /// `cfg.timeout` drops them).
    pub response_ring_full: Counter,
    /// Dispatch partitions the scheduling task re-cut
    /// (`rebalance_dispatch`).
    pub dispatch_recuts: Counter,
}

impl ServerStats {
    /// Observed mean coalescing degree (requests per message).
    pub fn mean_coalescing_degree(&self) -> f64 {
        let m = self.messages.get();
        if m == 0 {
            0.0
        } else {
            self.requests.get() as f64 / m as f64
        }
    }
}

/// A registered one-sided export: `(name, mem_mrs index, stride,
/// slots, meta)`.
type ExportEntry = (String, usize, u32, u32, u64);

struct ServerInner {
    node: Arc<Node>,
    cfg: ServerConfig,
    /// Fabric cost model, used to charge virtual CPU time for host-side
    /// work (polling, codec, handlers, doorbells) when running under a
    /// virtual-time executor. Charges are no-ops in threaded mode.
    cost: CostModel,
    topology: Mutex<Topology>,
    /// [`Topology::gen`], read by every shard step without the lock.
    generation: AtomicU64,
    /// Notified after every [`Topology::acked`] write and when the
    /// server stops: what `detach_one`'s quiescence wait sleeps on.
    acked: Event,
    /// One doorbell per dispatch shard, which an idle shard blocks on
    /// (in the lab: is parked on). The NIC rings it after every write
    /// into a request ring of the shard's snapshot (`DispatchShard::adopt`
    /// installs it), and the server after every other change an idle
    /// sweep looks at: a new topology generation, a silent lane
    /// reactivated, a moved lane let go, the stop
    /// ([`ServerInner::ring_shards`]).
    doorbells: Vec<Arc<Event>>,
    qp_sched: Mutex<QpScheduler>,
    mem_mrs: RwLock<Vec<Arc<MemoryRegion>>>,
    /// One-sided segment exports. Registered by the application via
    /// [`FlockServer::export_segment`]; served to clients as
    /// [`SegmentLease`]s over [`CtrlMsg::Export`].
    exports: RwLock<Vec<ExportEntry>>,
    imm_cq: Arc<flock_fabric::CompletionQueue>,
    /// Requests with no registered handler, for [`FlockServer::recv_rpc`]
    /// (a doorbell channel: `manual_rung` is notified by every send).
    manual_tx: DoorbellSender<IncomingRpc>,
    manual_rx: Receiver<IncomingRpc>,
    manual_rung: Arc<Event>,
    stats: ServerStats,
    stop: Stop,
}

impl ServerInner {
    /// Wake every dispatch shard: something its idle sweeps look at
    /// changed.
    fn ring_shards(&self) {
        for bell in &self.doorbells {
            bell.notify_all();
        }
    }

    /// Publish a new topology generation — the caller changed `topo` —
    /// and ring every shard to fold it in. Returns the generation.
    fn publish(&self, topo: &mut Topology) -> u64 {
        topo.gen += 1;
        self.generation.store(topo.gen, Ordering::Release);
        self.ring_shards();
        topo.gen
    }
}

/// A Flock RPC server bound to one node.
pub struct FlockServer {
    inner: Arc<ServerInner>,
    name: String,
    /// Our own end of the control channel (the registry holds the
    /// clients' end), for the shutdown wake-up.
    accept_tx: DoorbellSender<CtrlMsg>,
    threads: Mutex<Vec<TaskHandle>>,
}

impl FlockServer {
    /// Start a server on `node`, listening in the domain registry as
    /// `name`. Spawns the accept, dispatcher, and QP-scheduler threads.
    pub fn listen(
        domain: &FlockDomain,
        node: &Arc<Node>,
        name: &str,
        cfg: ServerConfig,
    ) -> FlockServer {
        let (manual_tx, manual_rx, manual_rung) = doorbell();
        let imm_cq = node.create_cq(4096);
        let shards = cfg.dispatch_threads.max(1);
        let inner = Arc::new(ServerInner {
            node: Arc::clone(node),
            cfg: cfg.clone(),
            cost: domain.fabric().config().cost.clone(),
            topology: Mutex::new(Topology {
                slots: Vec::new(),
                assign: Vec::new(),
                qpns: HashMap::new(),
                handlers: Arc::default(),
                gen: 0,
                acked: vec![0; shards],
            }),
            generation: AtomicU64::new(0),
            acked: Event::new(),
            doorbells: (0..shards).map(|_| Arc::new(Event::new())).collect(),
            qp_sched: Mutex::new(QpScheduler::new(cfg.sched.clone())),
            mem_mrs: RwLock::new(Vec::new()),
            exports: RwLock::new(Vec::new()),
            imm_cq,
            manual_tx,
            manual_rx,
            manual_rung,
            stats: ServerStats::default(),
            stop: Stop::new(),
        });

        let (accept_tx, accept_rx, accept_rung) = doorbell::<CtrlMsg>();
        domain.register_listener(name, accept_tx.clone());

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(clock::spawn(&format!("fl-accept-{name}"), move || {
                accept_loop(&inner, &accept_rx, &accept_rung)
            }));
        }
        for worker in 0..shards {
            let mut shard = DispatchShard::new(Arc::clone(&inner), worker);
            threads.push(clock::spawn_stepper(
                &format!("fl-dispatch-{name}/{worker}"),
                DispatchShard::idler(),
                Arc::clone(&inner.doorbells[worker]),
                move || shard.step(),
            ));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(clock::spawn(&format!("fl-qpsched-{name}"), move || {
                qp_sched_loop(&inner)
            }));
        }

        FlockServer {
            inner,
            name: name.to_string(),
            accept_tx,
            threads: Mutex::new(threads),
        }
    }

    /// Register the handler for `rpc_id` (`fl_reg_handler`). It also
    /// handles the posted requests for `rpc_id`, whose output is dropped.
    ///
    /// # Panics
    ///
    /// If `rpc_id` has its top bit set: that bit marks a posted request
    /// ([`RPC_POSTED`]).
    pub fn reg_handler(&self, rpc_id: u32, f: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static) {
        assert!(
            !msg::is_posted(rpc_id),
            "rpc id {rpc_id:#x}: the top bit marks a posted request"
        );
        let mut topo = self.inner.topology.lock();
        Arc::make_mut(&mut topo.handlers).insert(rpc_id, Arc::new(f));
        self.inner.publish(&mut topo);
    }

    /// Register a memory region of `len` bytes for one-sided operations
    /// (`fl_attach_mreg`). Must be called before clients connect. Returns
    /// the region index clients use.
    pub fn attach_mreg(&self, len: usize) -> usize {
        let mr = self.inner.node.register_mr(len, Access::REMOTE_ALL);
        let mut mrs = self.inner.mem_mrs.write();
        mrs.push(mr);
        mrs.len() - 1
    }

    /// Direct access to an attached region (server-local reads/writes).
    pub fn mem_region(&self, idx: usize) -> Option<Arc<MemoryRegion>> {
        self.inner.mem_mrs.read().get(idx).cloned()
    }

    /// Export a slotted view of an attached region for one-sided reads:
    /// `slots` records of `stride` bytes each, starting at the region
    /// base. Clients discover exports by name over the control path
    /// ([`crate::client::ConnectionHandle::fetch_exports`]) and read
    /// slots with zero further server CPU involvement. `meta` is
    /// layout-specific (e.g. the value capacity inside a versioned
    /// slot). Fails if the geometry overruns the region.
    pub fn export_segment(
        &self,
        name: &str,
        mr_idx: usize,
        stride: u32,
        slots: u32,
        meta: u64,
    ) -> Result<()> {
        let mrs = self.inner.mem_mrs.read();
        let mr = mrs.get(mr_idx).ok_or(FlockError::Disconnected)?;
        let need = stride as u64 * slots as u64;
        if stride == 0 || need > mr.len() as u64 {
            return Err(FlockError::CorruptMessage("export overruns its region"));
        }
        drop(mrs);
        self.inner
            .exports
            .write()
            .push((name.to_string(), mr_idx, stride, slots, meta));
        Ok(())
    }

    /// Pull a request with no registered handler (`fl_recv_rpc`).
    /// `None` once the timeout passes or the server stops.
    pub fn recv_rpc(&self, timeout: Duration) -> Option<IncomingRpc> {
        let deadline = clock::deadline(timeout);
        let inner = &*self.inner;
        let polled = inner.manual_rung.wait_until(deadline, 1_000, || {
            let rpc = inner.manual_rx.try_recv().ok();
            (rpc.is_some() || inner.stop.is_set()).then_some(rpc)
        });
        polled.flatten()
    }

    /// Respond to a request obtained via [`FlockServer::recv_rpc`]
    /// (`fl_send_res`). A posted request takes no response: its sender
    /// was answered when it landed, so its token fails with
    /// `InvalidArgument`.
    pub fn send_res(&self, token: RpcToken, data: &[u8]) -> Result<()> {
        if msg::is_posted(token.meta.rpc_id) {
            return Err(FlockError::InvalidArgument(
                "a posted request takes no response",
            ));
        }
        let (qp, counters) = {
            let topo = self.inner.topology.lock();
            let record = topo.record(token.conn).ok_or(FlockError::Disconnected)?;
            let qp = record.lanes.get(token.qp).ok_or(FlockError::Disconnected)?;
            (Arc::clone(qp), Arc::clone(&record.conn.counters))
        };
        let meta = EntryMeta {
            len: data.len() as u32,
            rpc_id: 0,
            ..token.meta
        };
        // `flush_response` is generic over the payload, so the response
        // bytes go straight from the caller's slice into the ring write.
        flush_response(&self.inner, &qp, &[(meta, data)], 0, 0)?;
        counters.completed.add(1);
        Ok(())
    }

    /// Server statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// How often the dispatch shard of lane `lane` of sender `sender`
    /// has visited it in a sweep that could find something: the first
    /// sweep after work, or after the shard's doorbell rang or its
    /// deadline passed. Grows while the lane is active or draining and
    /// its shard sweeps, stands still while it is silent. The sweeps it
    /// leaves out repeat an empty one with nothing announced since —
    /// only an executor that runs every poll makes them — so the count
    /// is the same on either executor.
    pub fn lane_probes(&self, sender: u32, lane: usize) -> Option<u64> {
        let topo = self.inner.topology.lock();
        let lane = topo.lane(sender as usize, lane)?;
        Some(lane.probes.get())
    }

    /// Number of QPs currently active under the scheduler.
    pub fn active_qps(&self) -> usize {
        self.inner.qp_sched.lock().total_active()
    }

    /// Cap `tenant`'s total active QPs (takes effect at the next
    /// scheduler redistribution). See
    /// [`crate::sched::QpScheduler::set_tenant_cap`].
    pub fn set_tenant_cap(&self, tenant: u32, cap: usize) {
        self.inner.qp_sched.lock().set_tenant_cap(tenant, cap);
    }

    /// Remove `tenant`'s active-QP cap.
    pub fn clear_tenant_cap(&self, tenant: u32) {
        self.inner.qp_sched.lock().clear_tenant_cap(tenant);
    }

    /// Point-in-time per-tenant fairness view (shares, caps, request
    /// counters, Jain's index helpers).
    pub fn fairness_snapshot(&self) -> FairnessSnapshot {
        self.inner.qp_sched.lock().fairness_snapshot()
    }

    /// Stop all server threads and unregister from `domain`.
    pub fn shutdown(&self, domain: &FlockDomain) {
        domain.unregister_listener(&self.name);
        // Wake the accept loop out of its blocked receive; the stop rings
        // every other wait: the dispatch shards' doorbells, the accept
        // loop's quiescence wait, the QP scheduler's immediate CQ and
        // `recv_rpc`.
        let _ = self.accept_tx.send(CtrlMsg::Stop);
        let inner = &*self.inner;
        let bells = inner.doorbells.iter().map(Arc::as_ref);
        let waits = [
            &inner.acked,
            inner.imm_cq.pushed_event(),
            &*inner.manual_rung,
        ];
        inner.stop.set(bells.chain(waits));
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Control-plane loop: connection handshakes (paper §3's `fl_connect`
/// server side), lazy lane attach, and graceful detach — the server end
/// of the out-of-band control channel.
fn accept_loop(inner: &Arc<ServerInner>, rx: &Receiver<CtrlMsg>, rung: &Event) {
    while !inner.stop.is_set() {
        let polled = rung.wait_until(u64::MAX, 5_000, || match rx.try_recv() {
            Err(TryRecvError::Empty) => None,
            polled => Some(polled),
        });
        let Some(Ok(msg)) = polled else {
            return;
        };
        match msg {
            CtrlMsg::Connect(req) => {
                let reply = accept_one(inner, &req);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::Attach(req) => {
                let reply = attach_one(inner, &req);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::AttachMem(req) => {
                let reply = attach_mem_one(inner, &req);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::Detach(req) => {
                let reply = detach_one(inner, req.sender_id);
                let _ = req.reply.send(reply);
            }
            CtrlMsg::Stop => return,
            CtrlMsg::Export(req) => {
                let mrs = inner.mem_mrs.read();
                let segments = inner
                    .exports
                    .read()
                    .iter()
                    .filter(|(name, ..)| {
                        req.filter.as_deref().is_none_or(|f| f == name.as_str())
                    })
                    .filter_map(|(name, mr_idx, stride, slots, meta)| {
                        mrs.get(*mr_idx).map(|mr| SegmentLease {
                            name: name.clone(),
                            region: MemRegionInfo {
                                rkey: mr.rkey(),
                                addr: mr.addr(),
                                len: mr.len(),
                            },
                            stride: *stride,
                            slots: *slots,
                            meta: *meta,
                        })
                    })
                    .collect();
                let _ = req.reply.send(Ok(ExportReply { segments }));
            }
        }
    }
}

/// Lease a server QP paired to `client_qp` and build its lane context.
/// The QP comes from the node's pool (warm path: reset + reuse instead
/// of the full creation penalty) and its rings from the MR cache; a lane
/// that fails to come up returns both.
fn build_server_lane(
    inner: &ServerInner,
    send_cq: &Arc<CompletionQueue>,
    client_qp: &Arc<Qp>,
    response_ring: RingInfo,
) -> Result<Arc<ServerQpCtx>> {
    let qp = inner.node.lease_qp(Transport::Rc, send_cq, &inner.imm_cq);
    if let Err(e) = flock_fabric::connect_qps(client_qp, &qp) {
        inner.node.release_qp(&qp);
        return Err(e.into());
    }
    let req_mr = inner
        .node
        .acquire_mr(inner.cfg.ring_capacity, Access::REMOTE_WRITE);
    let link = Link::new(&inner.node, qp, req_mr, response_ring);
    // Post receive slots for credit-renewal write-with-imm.
    for _ in 0..IMM_RECV_DEPTH {
        if let Err(e) = link.post_credit_recv() {
            link.release(&inner.node);
            return Err(e);
        }
    }
    Ok(Arc::new(ServerQpCtx {
        link,
        gate: LaneGate::default(),
        probes: Counter::default(),
        held: AtomicBool::new(false),
    }))
}

/// A lane the scheduler registered outside the active set (no room in
/// the AQP budget) starts deactivated. No zero grant is sent: its client
/// learns the epoch from the first renewal it is declined, and until
/// then — or until a redistribution moves the lane — it is served like
/// any draining lane. Caller holds the scheduler lock.
fn gate_new_lane(inner: &ServerInner, sched: &QpScheduler, ctx: &ServerQpCtx, sq: SenderQp) {
    if !sched.is_active(sq) {
        ctx.gate.deactivate();
        inner.stats.deactivations.add(1);
    }
}

fn accept_one(inner: &Arc<ServerInner>, req: &ConnectRequest) -> Result<ConnectReply> {
    let n = req.client_qps.len();
    if n == 0 || req.response_rings.len() != n {
        return Err(FlockError::CorruptMessage("malformed connect request"));
    }
    let send_cq = inner.node.create_cq(1024);
    let mut lanes = Vec::with_capacity(n);
    for (client_qp, ring) in req.client_qps.iter().zip(&req.response_rings) {
        match build_server_lane(inner, &send_cq, client_qp, *ring) {
            Ok(ctx) => lanes.push(ctx),
            Err(e) => {
                // The connection never existed: no lane may outlive it.
                for ctx in &lanes {
                    ctx.link.release(&inner.node);
                }
                return Err(e);
            }
        }
    }
    let server_qps = lanes.iter().map(|ctx| ctx.link.qpn()).collect();
    let request_rings = lanes.iter().map(|ctx| ctx.link.ring_info()).collect();

    let mut topo = inner.topology.lock();
    let slot = topo.slots.len();
    let sender_id = slot as u32;
    for (i, ctx) in lanes.iter().enumerate() {
        topo.qpns.insert(ctx.link.qpn().0, (slot, i));
    }
    let counters = {
        let mut sched = inner.qp_sched.lock();
        sched.register_sender_tenant(sender_id, n, req.tenant);
        for (qp, ctx) in lanes.iter().enumerate() {
            let sq = SenderQp {
                sender: sender_id,
                qp,
            };
            gate_new_lane(inner, &sched, ctx, sq);
        }
        sched.accounting().counters(req.tenant)
    };
    topo.slots.push(Some(ConnRecord {
        conn: Arc::new(ServerConn {
            served: Counter::default(),
            counters,
            send_cq,
        }),
        lanes,
        mem_qps: Vec::new(),
    }));
    // Seed the new connection's dispatcher round-robin; the scheduling
    // task re-cuts by requests served as traffic develops.
    topo.assign.push(slot % inner.doorbells.len());
    inner.publish(&mut topo);
    drop(topo);

    let memory_regions: Vec<MemRegionInfo> = inner
        .mem_mrs
        .read()
        .iter()
        .map(|mr| MemRegionInfo {
            rkey: mr.rkey(),
            addr: mr.addr(),
            len: mr.len(),
        })
        .collect();

    Ok(ConnectReply {
        server_node: inner.node.id(),
        server_qps,
        request_rings,
        memory_regions,
        initial_credits: inner.cfg.sched.grant_size,
        sender_id,
    })
}

/// Materialize one more lane on a live connection (the server half of
/// lazy QP creation): lease a QP, pair it with the client's, and grow
/// both the scheduler's view of the sender and the dispatch snapshot.
fn attach_one(inner: &Arc<ServerInner>, req: &AttachRequest) -> Result<AttachReply> {
    let mut topo = inner.topology.lock();
    let slot = req.sender_id as usize;
    let record = topo.record_mut(slot)?;
    let send_cq = &record.conn.send_cq;
    let ctx = build_server_lane(inner, send_cq, &req.client_qp, req.response_ring)?;
    if req.lane != record.lanes.len() {
        // Lanes attach densely in order; a mismatch means the client and
        // server disagree about the connection's shape.
        ctx.link.release(&inner.node);
        return Err(FlockError::CorruptMessage("attach lane out of order"));
    }
    // Grow the sender in the scheduler; the lane starts active only if
    // the AQP budget has room (the next redistribution arbitrates).
    {
        let mut sched = inner.qp_sched.lock();
        sched.add_qp(req.sender_id);
        let sq = SenderQp {
            sender: req.sender_id,
            qp: req.lane,
        };
        gate_new_lane(inner, &sched, &ctx, sq);
    }
    let (qpn, request_ring) = (ctx.link.qpn(), ctx.link.ring_info());
    record.lanes.push(ctx);
    topo.qpns.insert(qpn.0, (slot, req.lane));
    inner.publish(&mut topo);

    Ok(AttachReply {
        request_ring,
        initial_credits: inner.cfg.sched.grant_size,
    })
}

/// Pair a dedicated one-sided QP with a live connection (the client
/// half is a per-thread "mem QP", the FaRM/HERD-style baseline). The
/// server side is passive: the QP joins no dispatch shard and no
/// scheduler sender — it is raw per-client connection state, outside
/// every coordination mechanism Flock layers over the shared lanes.
fn attach_mem_one(inner: &Arc<ServerInner>, req: &AttachMemRequest) -> Result<()> {
    let mut topo = inner.topology.lock();
    let record = topo.record_mut(req.sender_id as usize)?;
    // Tiny CQ: nothing ever completes on the passive side (one-sided
    // verbs signal only the requester), but a QP needs one to exist.
    let cq = inner.node.create_cq(8);
    let qp = inner.node.lease_qp(Transport::Rc, &cq, &cq);
    if let Err(e) = flock_fabric::connect_qps(&req.client_qp, &qp) {
        inner.node.release_qp(&qp);
        return Err(e.into());
    }
    record.mem_qps.push(qp);
    Ok(())
}

/// Gracefully tear down a sender: take its record out of the topology,
/// release its AQP share, wait until every dispatch shard adopted the
/// generation without it (quiescence — no shard still holds the
/// departing lanes), then recycle its QPs and rings into the node's
/// pools. Established connections only ever see a republished
/// generation, never a stalled dispatcher.
fn detach_one(inner: &Arc<ServerInner>, sender_id: u32) -> Result<()> {
    let (record, target) = {
        let mut topo = inner.topology.lock();
        let slot = topo.slots.get_mut(sender_id as usize);
        // Unknown or already detached: idempotent.
        let Some(record) = slot.and_then(Option::take) else {
            return Ok(());
        };
        for ctx in &record.lanes {
            topo.qpns.remove(&ctx.link.qpn().0);
        }
        let target = inner.publish(&mut topo);
        (record, target)
    };
    // The departing sender's whole AQP share returns to the pool now —
    // survivors pick it up at the next redistribution.
    inner.qp_sched.lock().unregister_sender(sender_id);

    // A stale shard would otherwise post into a ring another lessee now
    // owns.
    let deadline = clock::deadline(inner.cfg.timeout);
    inner
        .acked
        .wait_until(deadline, 1_000, || {
            if inner.topology.lock().acked.iter().all(|&gen| gen >= target) {
                Some(Ok(()))
            } else if inner.stop.is_set() {
                Some(Err(FlockError::Disconnected))
            } else {
                None
            }
        })
        .unwrap_or(Err(FlockError::Timeout))?;

    for ctx in &record.lanes {
        #[cfg(debug_assertions)]
        assert_silent_is_empty(ctx);
        ctx.link.release(&inner.node);
    }
    // Dedicated one-sided QPs leave with the sender too (no dispatcher
    // ever touches them).
    for qp in &record.mem_qps {
        inner.node.release_qp(qp);
    }
    Ok(())
}

/// Empty response slice with a concrete payload type, for head-only and
/// credit-control messages (the generic [`flush_response`] cannot infer
/// `B` from a bare `&[]`).
const NO_RESPONSES: &[(EntryMeta, &[u8])] = &[];

/// Receive buffers posted per QP for credit-renewal immediates.
const IMM_RECV_DEPTH: usize = 64;

/// Messages one visit to a lane handles before the worker moves on
/// round-robin. Two, not a deep drain: the doorbell a backlogged visit
/// defers pays for its second message (2 × (poll + codec + handler) is
/// less than one poll + handle + doorbell visit), so the worker's other
/// lanes wait no longer than they did when every visit rang a doorbell.
/// Draining a backlog in one visit reaches the same throughput but lets
/// one tenant's backlog delay every other lane of the shard.
const VISIT_MESSAGES: usize = 2;

/// A lane's deferred responses flush at this many entries: the TCQ's
/// default `batch_limit`, so responses coalesce no deeper than requests.
const COALESCE_MAX_ENTRIES: usize = 16;

/// One lane of a worker's partition snapshot, with the worker-local
/// response-coalescing state (paper §4.3): while the lane's request ring
/// still has a message ready, its responses stay in `pending` and go out
/// as one message — one doorbell — when the ring runs dry.
struct Lane {
    /// Connection slot and lane index (the origin half of an [`RpcToken`]).
    conn_idx: usize,
    qp_idx: usize,
    qp: Arc<ServerQpCtx>,
    /// The message read ahead of the last one handled, empty for none:
    /// already out of the ring, handled first on the next visit.
    /// `pending` is non-empty between visits only while this is, or
    /// `full_until` is `Some`.
    ahead: Vec<u8>,
    /// Handler outputs not yet flushed (cleared, not freed).
    pending: Vec<(EntryMeta, Vec<u8>)>,
    /// Encoded entry bytes held in `pending`.
    pending_bytes: usize,
    /// The response ring was full at the last flush: `pending` stays
    /// deferred and every visit retries, until this deadline
    /// (`cfg.timeout` after the ring last took anything) drops it.
    full_until: Option<u64>,
    /// Drain epoch of a [`FLAG_DRAINED`] marker handled this visit,
    /// applied to the lane's gate when the visit ends (`finish_drain`).
    marker: Option<u16>,
    /// This shard holds the lane ([`ServerQpCtx::claim`]); until it does,
    /// its sweeps pass the lane by.
    claimed: bool,
}

impl Lane {
    /// Fresh state for lane `qp_idx` of connection slot `conn_idx`.
    fn new(conn_idx: usize, qp_idx: usize, qp: &Arc<ServerQpCtx>) -> Lane {
        Lane {
            conn_idx,
            qp_idx,
            qp: Arc::clone(qp),
            ahead: Vec::new(),
            pending: Vec::with_capacity(COALESCE_MAX_ENTRIES),
            pending_bytes: 0,
            full_until: None,
            marker: None,
            claimed: false,
        }
    }

    /// Nothing read ahead, nothing deferred: the lane may go to another
    /// shard.
    fn is_settled(&self) -> bool {
        self.ahead.is_empty() && self.pending.is_empty()
    }
}

/// A connection of a shard's partition, with the shard's state of each
/// of its lanes.
struct ShardConn {
    slot: usize,
    conn: Arc<ServerConn>,
    lanes: Vec<Lane>,
    /// The last adoption found the connection gone from this shard
    /// (re-cut to another, or departed): its lanes settle, then go.
    leaving: bool,
}

/// One request-dispatcher worker: polls the request rings of the
/// connections assigned to it, runs handlers, coalesces responses across
/// each lane's backlog, and piggybacks the consumed head. A
/// `clock::spawn_stepper` task: [`DispatchShard::step`] is one sweep.
///
/// With `cfg.dispatch_threads == 1` a single worker owns every
/// connection — the seed's single-dispatcher behaviour. With more
/// workers each owns a disjoint partition of connections, re-cut by the
/// scheduling task as the requests served shift (`rebalance_dispatch`).
struct DispatchShard {
    inner: Arc<ServerInner>,
    worker: usize,
    /// The shard's partition and handler table as of topology generation
    /// `seen`, in slot order: a sweep takes no lock, and comes back to
    /// the topology only when the generation moves.
    conns: Vec<ShardConn>,
    handlers: Arc<HashMap<u32, Handler>>,
    seen: u64,
    /// Send-CQ drain scratch: batched poll, one sync edge per sweep.
    drained: Vec<flock_fabric::Completion>,
    /// The request message being handled: every message is copied out of
    /// its ring into this buffer, or into the lane's `ahead`, which is
    /// swapped with it.
    msg: Vec<u8>,
    /// Doorbell epoch and deadline of the last sweep, while it was empty:
    /// the next sweep repeats it if it begins with neither moved on.
    idle: Option<(u64, u64)>,
}

impl DispatchShard {
    fn new(inner: Arc<ServerInner>, worker: usize) -> DispatchShard {
        DispatchShard {
            inner,
            worker,
            conns: Vec::new(),
            handlers: Arc::default(),
            seen: u64::MAX,
            drained: Vec::new(),
            msg: Vec::new(),
            idle: None,
        }
    }

    /// Dispatchers are dedicated polling cores (paper §4.3): on real
    /// threads a shard spins, yields, then blocks on its doorbell, but in
    /// the lab a deep ladder would charge burst-detection latency that
    /// grows with dispatcher count (fewer conns each → deeper idle
    /// between bursts), inverting the sharding win. 1 µs models a
    /// polling core.
    fn idler() -> flock_sync::AdaptiveBackoff {
        flock_sync::AdaptiveBackoff::new().with_virtual_cap(1_000)
    }

    /// The "no request on a silent lane" oracle over the lanes this
    /// worker holds, which only it silences: when it adopts a generation
    /// and when the server stops (`detach_one` checks a departing
    /// connection's lanes itself).
    #[cfg(debug_assertions)]
    fn assert_silent_lanes_are_empty(&self) {
        let lanes = self.conns.iter().flat_map(|c| &c.lanes);
        let held = lanes.filter(|lane| lane.claimed);
        held.for_each(|lane| assert_silent_is_empty(&lane.qp));
    }

    /// Fold the current topology generation in. The state of every lane
    /// that stays on this shard is kept; a lane that leaves is settled
    /// first — its read-ahead message handled, its deferred responses
    /// flushed — then let go to the shard it moved to; a lane that
    /// arrives starts fresh and is polled once its old shard let it go.
    /// `false`, the old partition kept for another sweep, while a full
    /// response ring still holds a leaving lane's responses back (or the
    /// topology moved again while the leaving lanes settled).
    fn adopt(&mut self) -> bool {
        if self.try_adopt() {
            return true;
        }
        let inner = &*self.inner;
        let mut settled = true;
        for c in self.conns.iter_mut().filter(|c| c.leaving) {
            for lane in &mut c.lanes {
                settled &= settle_lane(inner, &self.handlers, &c.conn, lane);
            }
        }
        settled && self.try_adopt()
    }

    /// One pass of [`DispatchShard::adopt`] under the topology lock: mark
    /// the connections that leave, and adopt the generation if their
    /// lanes are settled.
    fn try_adopt(&mut self) -> bool {
        let inner = &*self.inner;
        let mut topo = inner.topology.lock();
        self.handlers = Arc::clone(&topo.handlers);
        let mut unsettled = false;
        for c in &mut self.conns {
            c.leaving = topo.assign[c.slot] != self.worker || topo.record(c.slot).is_none();
            unsettled |= c.leaving && !c.lanes.iter().all(Lane::is_settled);
        }
        if unsettled {
            return false;
        }
        #[cfg(debug_assertions)]
        self.assert_silent_lanes_are_empty();
        let mut released = false;
        self.conns.retain(|c| {
            for lane in c.lanes.iter().filter(|lane| c.leaving && lane.claimed) {
                lane.qp.let_go();
                released = true;
            }
            !c.leaving
        });
        self.conns = partition(&topo, self.worker, std::mem::take(&mut self.conns));
        let bell = &inner.doorbells[self.worker];
        for lane in self.conns.iter_mut().flat_map(|c| &mut c.lanes) {
            // Installed before the sweep that follows reads the ring, so a
            // write that lands while the partition is being re-cut rings
            // whichever shard polls the ring next.
            lane.qp.link.set_doorbell(bell);
            lane.claimed = lane.claimed || lane.qp.claim();
        }
        self.seen = topo.gen;
        // Quiescence ack: no departed lane is referenced by this shard's
        // snapshot and none of its responses is still deferred here, so
        // `detach_one` may recycle them.
        topo.acked[self.worker] = topo.gen;
        drop(topo);
        inner.acked.notify_all();
        if released {
            // The shards the lanes moved to pass them by until now.
            inner.ring_shards();
        }
        true
    }

    /// One sweep over the partition. A busy sweep asks for `Next::Again`,
    /// which applies the accrued virtual CPU cost — otherwise a saturated
    /// dispatcher would freeze virtual time for every other task. Nothing
    /// in here may wait: a full response ring leaves the lane's
    /// responses deferred (`flush_pending`). An empty sweep idles on the
    /// shard's doorbell until something it looks at changes, or the
    /// earliest deferral's timeout passes.
    fn step(&mut self) -> Next {
        // Before anything the sweep looks at: whatever changes after this
        // read rings the doorbell again.
        let seen = self.inner.doorbells[self.worker].epoch();
        if self.inner.stop.is_set() {
            #[cfg(debug_assertions)]
            self.assert_silent_lanes_are_empty();
            return Next::Done;
        }
        let repeat = self
            .idle
            .take()
            .is_some_and(|(was, deadline)| was == seen && clock::now_ns() <= deadline);
        // The last instant at which this sweep, repeated, still finds
        // nothing.
        let mut deadline_ns = u64::MAX;
        if self.inner.generation.load(Ordering::Acquire) != self.seen && !self.adopt() {
            // Another shard may have taken over the leaving lanes'
            // doorbells: poll every round until this one lets go.
            deadline_ns = clock::now_ns();
        }
        let inner = &*self.inner;
        let mut progressed = false;
        let (mut visited, mut draining) = (0, 0);
        for ShardConn { conn, lanes, .. } in self.conns.iter_mut() {
            // Drain signaled response-write completions for the whole
            // connection in one batched sweep (the send CQ is shared by
            // the connection's QPs).
            if !lanes.is_empty() {
                self.drained.clear();
                conn.send_cq.poll(&mut self.drained, usize::MAX);
            }
            for lane in lanes.iter_mut() {
                // A lane another shard still holds is passed by: that
                // shard rings this one when it lets go.
                if !lane.claimed {
                    if !lane.qp.claim() {
                        continue;
                    }
                    lane.claimed = true;
                }
                // A silent lane's client sends nothing until the next
                // grant, and the gate is active again before that grant
                // is written: nothing to find, unless deferred responses
                // are still waiting here.
                match lane.qp.gate.phase() {
                    LanePhase::Silent if lane.ahead.is_empty() && lane.full_until.is_none() => {
                        continue
                    }
                    LanePhase::Draining(_) => draining += 1,
                    _ => {}
                }
                visited += 1;
                if !repeat {
                    lane.qp.probes.add(1);
                }
                progressed |= visit_lane(inner, &self.handlers, conn, lane, &mut self.msg);
                if let Some(until) = lane.full_until {
                    deadline_ns = deadline_ns.min(until);
                }
            }
        }
        if draining > 0 && !repeat {
            inner.stats.drain_sweeps.add(draining);
        }
        if progressed {
            return Next::Again;
        }
        // Every visit was one empty probe of the lane's ring.
        self.idle = Some((seen, deadline_ns));
        Next::Idle(IdleOn {
            seen,
            busy_ns: visited * inner.cost.cpu_poll_empty_ns,
            deadline_ns,
        })
    }
}

/// Worker `worker`'s share of the live connections, in slot order:
/// `kept` (its connections that stay, in slot order, their lane state
/// intact), grown by the lanes attached since, and fresh state for every
/// connection that arrives. The only place lane buffers are allocated.
fn partition(topo: &Topology, worker: usize, kept: Vec<ShardConn>) -> Vec<ShardConn> {
    let mut kept = kept.into_iter().peekable();
    let mut conns = Vec::new();
    for (slot, record) in topo.slots.iter().enumerate() {
        let Some(record) = record.as_ref().filter(|_| topo.assign[slot] == worker) else {
            continue;
        };
        let mut c = kept
            .next_if(|c| c.slot == slot)
            .unwrap_or_else(|| ShardConn {
                slot,
                conn: Arc::clone(&record.conn),
                lanes: Vec::with_capacity(record.lanes.len()),
                leaving: false,
            });
        for (qp_idx, qp) in record.lanes.iter().enumerate().skip(c.lanes.len()) {
            c.lanes.push(Lane::new(slot, qp_idx, qp));
        }
        conns.push(c);
    }
    conns
}

/// Poll `qp`'s request ring into `msg`. An empty probe is charged here;
/// a message is charged where it is handled (`handle_message`), so a
/// read-ahead message costs the sweep that runs its handlers, not the one
/// that found it.
fn poll_requests(inner: &ServerInner, qp: &ServerQpCtx, msg: &mut Vec<u8>) -> Result<bool> {
    // The link folds the piggybacked head in now, not when the message
    // is handled: a flush that runs while this message is still the
    // read-ahead one sees the freshest response-ring space.
    let polled = qp.link.poll_into(msg);
    if matches!(polled, Ok(false)) {
        clock::charge(inner.cost.cpu_poll_empty_ns);
    }
    polled
}

/// One visit to a lane: handle up to [`VISIT_MESSAGES`] messages in
/// `msg`, then read one message ahead. A lone request is answered at
/// once; while a further message is already waiting the doorbell is
/// deferred. Returns whether the visit made progress.
fn visit_lane(
    inner: &ServerInner,
    handlers: &HashMap<u32, Handler>,
    conn: &ServerConn,
    lane: &mut Lane,
    msg: &mut Vec<u8>,
) -> bool {
    if lane.ahead.is_empty() {
        match poll_requests(inner, &lane.qp, msg) {
            Ok(true) => {}
            // Nothing new — and no fresher view of the response ring's
            // head either, so a retry can only find the deadline passed.
            Ok(false) => return lane.full_until.is_some() && flush_pending(inner, conn, lane),
            // Corrupt request ring: drop the message stream.
            Err(_) => return true,
        }
    } else {
        std::mem::swap(msg, &mut lane.ahead);
        lane.ahead.clear();
    }
    for handled in 1.. {
        handle_message(inner, handlers, conn, lane, msg);
        if handled == VISIT_MESSAGES {
            // Read ahead: found now, handled on the next visit.
            let _ = poll_requests(inner, &lane.qp, &mut lane.ahead);
            break;
        }
        if !matches!(poll_requests(inner, &lane.qp, msg), Ok(true)) {
            break;
        }
    }
    // Send what is ready, never wait for a batch to fill: with the ring
    // dry the deferred responses go out now. Every response message
    // republishes the consumed head, and a client whose view of it lags
    // by a quarter ring (head debt) is refreshed even with the ring
    // still busy or with nothing to send (manual-path-only traffic), so
    // its stale view is bounded at cap/4 plus one visit and never wedges
    // the producer. Below that, a head-only write is redundant.
    let debt = lane.qp.link.head_debt();
    if debt >= (inner.cfg.ring_capacity as u64) / 4
        || (lane.ahead.is_empty() && !lane.pending.is_empty())
    {
        flush_pending(inner, conn, lane);
    } else if lane.pending.is_empty() && debt > 0 {
        inner.stats.head_flushes_skipped.add(1);
    }
    finish_drain(inner, lane);
    true
}

/// Apply the [`FLAG_DRAINED`] marker this visit handled, after the visit
/// flushed what the lane owed: the lane goes silent if the marker's epoch
/// is still the gate's. A stale one — the scheduler reactivated the lane
/// while the marker was in flight — is ignored and the lane stays
/// visited. (Responses a full ring still defers keep the lane visited
/// through `full_until`, silent or not.)
fn finish_drain(inner: &ServerInner, lane: &mut Lane) {
    if let Some(epoch) = lane.marker.take() {
        if lane.qp.gate.mark_silent(epoch) {
            inner.stats.drains_completed.add(1);
        }
    }
}

/// The "no request on a silent lane" oracle (debug builds): the ring is
/// read before the gate, so a request that a reactivation let in between
/// the two reads cannot fail it.
#[cfg(debug_assertions)]
fn assert_silent_is_empty(qp: &ServerQpCtx) {
    let waiting = qp.link.holds_message();
    assert!(
        !(waiting && qp.gate.phase() == LanePhase::Silent),
        "a silent lane's request ring holds a message (qpn {:?})",
        qp.link.qpn()
    );
}

/// Run the handlers of one request message; outputs join the lane's
/// deferred responses, which flush early at [`COALESCE_MAX_ENTRIES`]
/// entries or a quarter response ring of encoded bytes. A posted
/// request ([`RPC_POSTED`]) is handled the same way and answered by
/// nothing: its output is dropped.
fn handle_message(
    inner: &ServerInner,
    handlers: &HashMap<u32, Handler>,
    conn: &ServerConn,
    lane: &mut Lane,
    msg: &[u8],
) {
    clock::charge(inner.cost.cpu_ring_poll_ns);
    let view = ring::view(msg);
    if view.header.flags & FLAG_DRAINED != 0 {
        // The client's last word on a deactivated lane; no entries, and
        // not counted as a request message.
        lane.marker = Some(msg::unpack_aux(view.header.aux).1);
        return;
    }
    let entries = u64::from(view.header.count);
    inner.stats.messages.add(1);
    inner.stats.requests.add(entries);
    conn.served.add(entries);
    // Per-tenant accounting: lock-free bumps on the shared
    // counter block (never through the scheduler mutex).
    conn.counters.issued.add(entries);
    for (meta, data) in view.entries() {
        let posted = msg::is_posted(meta.rpc_id);
        let rpc_id = meta.rpc_id & !RPC_POSTED;
        if posted {
            conn.counters.completed.add(1);
        }
        // A handler registered since the shard adopted `handlers` is
        // looked up in the topology: a request sent after `reg_handler`
        // returned never goes to the manual queue.
        let late;
        let handler = match handlers.get(&rpc_id) {
            None => {
                late = inner.topology.lock().handlers.get(&rpc_id).cloned();
                late.as_ref()
            }
            known => known,
        };
        if let Some(h) = handler {
            clock::charge(inner.cost.cpu_codec_ns + inner.cost.app_handler_ns);
            // The handler's output Vec is the one per-request allocation
            // the server keeps: the `Handler` signature owns its result.
            let out = h(data);
            if posted {
                continue;
            }
            lane.pending_bytes += msg::entry_size(out.len());
            lane.pending.push((
                EntryMeta {
                    len: out.len() as u32,
                    thread_id: meta.thread_id,
                    seq: meta.seq,
                    rpc_id: 0,
                },
                out,
            ));
            if lane.pending.len() >= COALESCE_MAX_ENTRIES
                || lane.pending_bytes >= lane.qp.link.remote_capacity() / 4
            {
                flush_pending(inner, conn, lane);
            }
        } else {
            clock::charge(inner.cost.cpu_codec_ns);
            let _ = inner.manual_tx.send(IncomingRpc {
                rpc_id,
                // Out of the shard's message buffer, which the next poll
                // overwrites.
                data: Bytes::copy_from_slice(data),
                token: RpcToken {
                    conn: lane.conn_idx,
                    qp: lane.qp_idx,
                    meta,
                },
            });
        }
    }
}

/// Post the lane's deferred responses as coalesced messages (paper
/// §4.3) — one, unless a full ring let them pile up past the flush
/// limits — or a head-only message when there are none. Never waits:
/// while the client's response ring is full they stay deferred and the
/// lane's next visits retry, for `cfg.timeout`. After that, or on any
/// other failure, they are dropped uncounted: the callers time out,
/// nothing retries. Returns whether anything was sent or dropped.
fn flush_pending(inner: &ServerInner, conn: &ServerConn, lane: &mut Lane) -> bool {
    let mut sent = 0;
    let outcome = loop {
        // The longest prefix within the limits `handle_message` flushes
        // at: everything, unless earlier flushes found the ring full.
        let mut bytes = 0;
        let batch = lane.pending[sent..]
            .iter()
            .take(COALESCE_MAX_ENTRIES)
            .take_while(|(_, out)| {
                let fits = bytes < lane.qp.link.remote_capacity() / 4;
                bytes += msg::entry_size(out.len());
                fits
            })
            .count();
        match try_flush_response(inner, &lane.qp, &lane.pending[sent..sent + batch], 0, 0) {
            Ok(()) => sent += batch,
            Err(e) => break Err(e),
        }
        if sent == lane.pending.len() {
            break Ok(());
        }
    };
    conn.counters.completed.add(sent as u64);
    lane.pending.drain(..sent);
    if sent > 0 {
        // The timeout is for a ring that frees nothing.
        lane.full_until = None;
    }
    // (A head-only message the ring has no room for is simply not sent:
    // the head debt stands, and the next visit with a message retries.)
    let mut keep = false;
    if matches!(outcome, Err(FlockError::RingFull { .. })) && !lane.pending.is_empty() {
        let deadline = *lane.full_until.get_or_insert_with(|| {
            // A deferral episode begins.
            inner.stats.response_ring_full.add(1);
            clock::deadline(inner.cfg.timeout)
        });
        keep = !clock::expired(deadline) && !inner.stop.is_set();
    }
    if !keep {
        lane.pending.clear();
        lane.full_until = None;
    }
    lane.pending_bytes = lane
        .pending
        .iter()
        .map(|(_, out)| msg::entry_size(out.len()))
        .sum();
    sent > 0 || !keep
}

/// Leave nothing deferred on `lane`: handle its read-ahead message and
/// flush. Runs before a lane leaves its worker's partition; `false`
/// while a full response ring still holds responses back.
fn settle_lane(
    inner: &ServerInner,
    handlers: &HashMap<u32, Handler>,
    conn: &ServerConn,
    lane: &mut Lane,
) -> bool {
    if !lane.ahead.is_empty() {
        let ahead = std::mem::take(&mut lane.ahead);
        handle_message(inner, handlers, conn, lane, &ahead);
    }
    if !lane.pending.is_empty() {
        flush_pending(inner, conn, lane);
    }
    finish_drain(inner, lane);
    lane.pending.is_empty()
}

/// [`try_flush_response`] for a task that may wait — `send_res` callers
/// and the QP scheduler's credit grants, never a dispatch shard's step:
/// while the client's response ring is full, yield and retry, up to
/// `cfg.timeout` ([`ring::send_while_full`]).
fn flush_response<B: AsRef<[u8]>>(
    inner: &ServerInner,
    qp: &ServerQpCtx,
    responses: &[(EntryMeta, B)],
    extra_flags: u16,
    aux: u64,
) -> Result<()> {
    ring::send_while_full(&inner.stop, inner.cfg.timeout, || {
        try_flush_response(inner, qp, responses, extra_flags, aux)
    })
}

/// Encode and post one coalesced response message on `qp`, or fail with
/// [`FlockError::RingFull`], nothing written, when the client's response
/// ring has no room for it.
///
/// Generic over the payload type so handler outputs (`Vec<u8>`), manual
/// responses (`&[u8]`), and head-only messages all encode without an
/// intermediate copy into an owned buffer.
fn try_flush_response<B: AsRef<[u8]>>(
    inner: &ServerInner,
    qp: &ServerQpCtx,
    responses: &[(EntryMeta, B)],
    extra_flags: u16,
    aux: u64,
) -> Result<()> {
    // Every response message piggybacks the consumed head, which is what
    // lets dispatchers elide redundant head-only writes.
    let (need, _) = qp.link.try_send(
        extra_flags,
        aux,
        false,
        responses.iter().map(|(meta, data)| EntryRef {
            meta: *meta,
            data: data.as_ref(),
        }),
    )?;
    if !responses.is_empty() {
        let n = responses.len() as u64;
        inner.stats.responses.add(n);
        inner.stats.response_messages.add(1);
    }
    // Host cost of encoding the message and ringing the doorbell.
    clock::charge(inner.cost.cpu_doorbell_ns + inner.cost.memcpy_time(need).as_nanos());
    Ok(())
}

/// QP scheduler loop: polls the shared receive CQ for credit-renewal
/// immediates, grants or declines, and periodically redistributes active
/// QPs (paper §5.1, §7) and re-weighs the dispatcher partition.
fn qp_sched_loop(inner: &Arc<ServerInner>) {
    let sched_interval_ns = inner.cfg.sched_interval.as_nanos().min(u64::MAX as u128) as u64;
    let mut last_redistribution = clock::now_ns();
    let mut recut = Recut::default();
    // Batched immediate sweep: one sync edge per sweep instead of one
    // `poll_one` per credit request.
    let mut imms: Vec<flock_fabric::Completion> = Vec::new();
    // On real threads the ladder spins and yields, then blocks on the
    // immediate CQ's event until a push or the next redistribution, so
    // a credit request is picked up at once, not after a timed snooze.
    // Under virtual time the cap is 1 µs like the dispatch shards': the
    // model is a dedicated polling core, and a 200 µs virtual nap would
    // turn every credit renewal that lands in it into a hundreds-of-µs
    // client stall.
    let mut idler = flock_sync::AdaptiveBackoff::new().with_virtual_cap(1_000);
    let pushed = inner.imm_cq.pushed_event();
    while !inner.stop.is_set() {
        let mut progressed = false;
        let seen = pushed.epoch();
        imms.clear();
        inner.imm_cq.poll(&mut imms, 1024);
        for c in imms.drain(..) {
            progressed = true;
            clock::charge(inner.cost.cpu_poll_cqe_ns);
            if c.opcode != CqOpcode::RecvImm {
                continue;
            }
            let Some(imm) = c.imm else { continue };
            // Clone the lane context out of the lock: `flush_response`
            // below can spin in virtual time on a full ring.
            let looked_up = {
                let topo = inner.topology.lock();
                topo.qpns.get(&c.qpn.0).and_then(|&(slot, qp_idx)| {
                    let qp = topo.lane(slot, qp_idx)?;
                    Some((slot as u32, qp_idx, Arc::clone(qp)))
                })
            };
            let Some((sender_id, qp_idx, qp)) = looked_up else {
                continue;
            };
            let qp = &qp;
            // Re-post the consumed receive slot.
            clock::charge(inner.cost.cpu_post_recv_ns);
            let _ = qp.link.post_credit_recv();
            let median_degree = msg::unpack_credit_imm(imm);
            let decision = inner.qp_sched.lock().on_credit_request(
                SenderQp {
                    sender: sender_id,
                    qp: qp_idx,
                },
                median_degree,
            );
            let (granted, flag) = match decision {
                Some(credits) => {
                    inner.stats.grants.add(1);
                    (credits, FLAG_CREDIT_GRANT)
                }
                None => {
                    inner.stats.declines.add(1);
                    (0, FLAG_CREDIT_GRANT)
                }
            };
            // A decline repeats the lane's drain epoch: it may be the
            // first the client hears of it (a lane attached inactive).
            let epoch = if granted == 0 { qp.gate.epoch() } else { 0 };
            let _ = flush_response(inner, qp, NO_RESPONSES, flag, msg::pack_aux(granted, epoch));
        }

        if clock::now_ns().saturating_sub(last_redistribution) >= sched_interval_ns {
            last_redistribution = clock::now_ns();
            let mut changes = inner.qp_sched.lock().redistribute();
            if !changes.is_empty() {
                // A sender hears of its activations before its
                // deactivations: its client never sees zero active lanes.
                // (Ordered here: `redistribute`'s own order is also what
                // the DES model's server walks.)
                changes.sort_by_key(|&(sq, now_active)| (sq.sender, !now_active));
                for (sq, now_active) in changes {
                    // Clone the lane out of the lock (same rationale as
                    // the credit path above).
                    let looked_up = {
                        let topo = inner.topology.lock();
                        topo.lane(sq.sender as usize, sq.qp).cloned()
                    };
                    let Some(qp) = looked_up else {
                        continue;
                    };
                    // Proactively notify the client. Reactivation: the
                    // gate is active before the fresh grant is written,
                    // so whatever that grant lets the client send finds
                    // the lane visited. Deactivation: a zero grant with
                    // the epoch the client's drained marker must echo.
                    let aux = if now_active {
                        if qp.gate.activate() {
                            // Its shard skipped it: from now on its idle
                            // sweeps visit one lane more.
                            inner.ring_shards();
                        }
                        msg::pack_aux(inner.cfg.sched.grant_size, 0)
                    } else {
                        inner.stats.deactivations.add(1);
                        msg::pack_aux(0, qp.gate.deactivate())
                    };
                    let _ = flush_response(inner, &qp, NO_RESPONSES, FLAG_CREDIT_GRANT, aux);
                }
            }
            rebalance_dispatch(inner, &mut recut);
        }
        if progressed {
            idler.reset();
            clock::flush_charge();
        } else {
            // An idle round looks at the immediate CQ, the stop flag (the
            // stop rings the CQ's event) and the clock: nothing changes
            // before a push or the next redistribution instant.
            let due = last_redistribution.saturating_add(sched_interval_ns);
            idler.idle_on(pushed, seen, 0, due.saturating_sub(1));
        }
    }
}

/// The scheduling task's scratch for [`rebalance_dispatch`]: reused, so
/// a weighing that keeps the cut allocates nothing.
#[derive(Default)]
struct Recut {
    /// Slot → requests served since the last weighing.
    weights: Vec<usize>,
    lpt: Lpt,
}

impl Recut {
    /// Cut `weights` anew into `lpt.assign`: `true` when the new cut's
    /// heaviest worker is lighter than `current`'s under the same weights
    /// by more than the square root of that load. A count of requests
    /// over one interval is noisy by about its square root (a Poisson
    /// count's deviation), so a smaller gain would re-cut on noise: four
    /// connections of equal traffic on two shards re-cut six times in ten
    /// intervals with any gain taken.
    fn lighter(&mut self, current: &[usize], workers: usize) -> bool {
        let heaviest = self.lpt.heaviest(&self.weights, current, workers);
        let proposed = self.lpt.cut(&self.weights, workers);
        proposed + heaviest.isqrt() < heaviest
    }
}

/// Re-weigh the connection → dispatch-worker partition so handler
/// capacity follows the traffic: each connection weighs the requests its
/// lanes served since the last weighing (a departed one nothing), and
/// greedy LPT cuts the partition anew. The new cut is adopted — a new
/// topology generation published — only when its heaviest worker is
/// lighter than the current cut's under the same weights, by more than
/// the counting noise ([`Recut::lighter`]), so cuts of equal cost never
/// flap. No-op with a single worker.
fn rebalance_dispatch(inner: &ServerInner, recut: &mut Recut) {
    let workers = inner.doorbells.len();
    if workers == 1 {
        return;
    }
    let mut topo = inner.topology.lock();
    let served = |slot: &Option<ConnRecord>| slot.as_ref().map_or(0, |r| r.conn.served.take());
    let weights = topo.slots.iter().map(|slot| served(slot) as usize);
    recut.weights.clear();
    recut.weights.extend(weights);
    if recut.lighter(&topo.assign, workers) {
        topo.assign.clone_from(&recut.lpt.assign);
        inner.stats.dispatch_recuts.add(1);
        inner.publish(&mut topo);
    }
}

/// Greedy LPT binning's working vectors: `assign` holds the last cut.
#[derive(Default)]
struct Lpt {
    order: Vec<usize>,
    load: Vec<usize>,
    assign: Vec<usize>,
}

impl Lpt {
    /// Place each item, heaviest first (ties broken by lower index), on
    /// the currently least-loaded of `workers` (at least 1) workers, into
    /// `assign`. Returns the heaviest worker's load.
    fn cut(&mut self, weights: &[usize], workers: usize) -> usize {
        let workers = workers.max(1);
        self.order.clear();
        self.order.extend(0..weights.len());
        // The order is total, so the unstable sort is deterministic.
        self.order
            .sort_unstable_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
        self.load.clear();
        self.load.resize(workers, 0);
        self.assign.clear();
        self.assign.resize(weights.len(), 0);
        for &idx in &self.order {
            let target = (0..workers).min_by_key(|&t| self.load[t]).unwrap_or(0);
            self.load[target] += weights[idx];
            self.assign[idx] = target;
        }
        self.load.iter().copied().max().unwrap_or(0)
    }

    /// The heaviest worker's load under the cut `assign`.
    fn heaviest(&mut self, weights: &[usize], assign: &[usize], workers: usize) -> usize {
        self.load.clear();
        self.load.resize(workers.max(1), 0);
        for (&w, &weight) in assign.iter().zip(weights) {
            self.load[w] += weight;
        }
        self.load.iter().copied().max().unwrap_or(0)
    }
}

/// Greedy LPT binning: place each item, heaviest first (ties broken by
/// lower index), on the currently least-loaded worker. Returns the
/// item → worker assignment. `workers` is clamped to at least 1, so the
/// result is total even when callers ask for zero workers or have more
/// workers than items.
///
/// Classic LPT bound: the max worker load is within `max(weights)` of
/// the min worker load, because the last item placed on the heaviest
/// worker went there when it was the lightest.
pub fn lpt_partition(weights: &[usize], workers: usize) -> Vec<usize> {
    let mut lpt = Lpt::default();
    lpt.cut(weights, workers);
    lpt.assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ConnectionHandle, HandleConfig};
    use flock_sim::vtime::VirtualLab;

    /// The cut [`Recut::lighter`] adopts on two workers for `weights`
    /// over the cut `current`, if any.
    fn recut(weights: &[usize], current: &[usize]) -> Option<Vec<usize>> {
        let mut recut = Recut::default();
        recut.weights.extend_from_slice(weights);
        recut.lighter(current, 2).then(|| recut.lpt.assign.clone())
    }

    #[test]
    fn a_connection_serving_three_times_each_other_gets_a_shard_to_itself() {
        // Seeded round-robin, the heavy connection shares its shard.
        let cut = recut(&[300, 100, 100, 100], &[0, 1, 0, 1]);
        assert_eq!(cut.as_deref(), Some(&[0, 1, 1, 1][..]));
    }

    #[test]
    fn a_cut_no_lighter_than_the_current_one_is_not_adopted() {
        // LPT deals these out as [0, 1, 0, 1]: another cut, as heavy.
        assert_eq!(recut(&[100, 100, 100, 100], &[0, 0, 1, 1]), None);
        // Lighter by one request of 201: counting noise.
        assert_eq!(recut(&[101, 100, 100, 99], &[0, 1, 0, 1]), None);
        // An idle server keeps its cut.
        assert_eq!(recut(&[0, 0, 0], &[0, 1, 0]), None);
    }

    #[test]
    fn an_idle_connection_keeps_an_owner() {
        let cut = recut(&[0, 300, 100, 100, 0], &[0, 1, 0, 1, 0]).expect("a lighter cut");
        assert_eq!(cut.len(), 5);
        assert!(cut.iter().all(|&w| w < 2), "{cut:?}");
        assert_eq!(cut[1..4], [0, 1, 1]);
    }

    /// A server named `name` (two dispatch shards by default) that
    /// echoes RPC 1.
    fn echo_server(domain: &FlockDomain, name: &str, scfg: ServerConfig) -> FlockServer {
        let node = domain.add_node(&format!("{name}-srv"));
        let server = FlockServer::listen(domain, &node, name, scfg);
        server.reg_handler(1, |req| req.to_vec());
        server
    }

    fn connect(domain: &FlockDomain, name: &str, client: usize) -> Arc<ConnectionHandle> {
        let node = domain.add_node(&format!("{name}-cli{client}"));
        let mut cfg = HandleConfig::default();
        cfg.n_qps = 1;
        Arc::new(ConnectionHandle::connect(domain, &node, name, cfg).expect("connect"))
    }

    /// Four connections calling at one pace on two shards: the weights of
    /// one interval differ by counting noise, which no re-cut follows.
    #[test]
    fn steady_equal_traffic_re_cuts_at_most_once_in_ten_intervals() {
        const INTERVAL: Duration = Duration::from_micros(100);
        let (recuts, calls) = VirtualLab::run(|| {
            let domain = FlockDomain::with_defaults();
            let mut scfg = ServerConfig::default();
            scfg.sched_interval = INTERVAL;
            let server = echo_server(&domain, "steady", scfg);
            let handles: Vec<_> = (0..4).map(|c| connect(&domain, "steady", c)).collect();
            clock::flush_charge(); // set-up cost is not part of the scenario
            let until = clock::now_ns() + 10 * INTERVAL.as_nanos() as u64;
            let calls = Arc::new(Counter::default());
            let callers: Vec<_> = handles
                .iter()
                .map(|h| {
                    let (t, calls) = (h.register_thread(), Arc::clone(&calls));
                    clock::spawn("steady-caller", move || {
                        while clock::now_ns() < until {
                            t.call(1, b"x").expect("call");
                            calls.add(1);
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().expect("caller");
            }
            let recuts = server.stats().dispatch_recuts.get();
            server.shutdown(&domain);
            (recuts, calls.get())
        });
        assert!(calls > 400, "{calls} calls");
        assert!(recuts <= 1, "{recuts} re-cuts in ten intervals");
    }

    /// A backlogged lane moved between the two shards again and again:
    /// each thread's requests are still handled in the order it sent
    /// them, the order they lie in the ring.
    #[test]
    fn a_lane_moved_with_a_backlog_is_handled_in_ring_order() {
        const THREADS: u8 = 4;
        const WINDOW: u32 = 8;
        const ROUNDS: u32 = 40;
        let (handled, moves) = VirtualLab::run(|| {
            let domain = FlockDomain::with_defaults();
            let node = domain.add_node("order-srv");
            let mut scfg = ServerConfig::default();
            // The test moves the lane itself.
            scfg.sched_interval = Duration::from_secs(60);
            let server = FlockServer::listen(&domain, &node, "order", scfg);
            let log = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&log);
            server.reg_handler(1, move |req| {
                let k = u32::from_le_bytes(req[1..5].try_into().unwrap());
                sink.lock().push((req[0], k));
                req.to_vec()
            });
            let handle = connect(&domain, "order", 0);
            clock::flush_charge(); // set-up cost is not part of the scenario
            let callers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let t = handle.register_thread();
                    clock::spawn("order-caller", move || {
                        for round in 0..ROUNDS {
                            let seqs: Vec<u64> = (round * WINDOW..(round + 1) * WINDOW)
                                .map(|k| {
                                    let mut payload = vec![thread];
                                    payload.extend_from_slice(&k.to_le_bytes());
                                    t.send_rpc(1, &payload).expect("send")
                                })
                                .collect();
                            for seq in seqs {
                                t.recv_res(seq).expect("recv");
                            }
                        }
                    })
                })
                .collect();
            let total = usize::from(THREADS) * (ROUNDS * WINDOW) as usize;
            let mut moves = 0;
            while log.lock().len() < total {
                clock::sleep(Duration::from_micros(2));
                let inner = &server.inner;
                let mut topo = inner.topology.lock();
                topo.assign[0] ^= 1;
                inner.publish(&mut topo);
                moves += 1;
            }
            for caller in callers {
                caller.join().expect("caller");
            }
            server.shutdown(&domain);
            let handled = std::mem::take(&mut *log.lock());
            (handled, moves)
        });
        assert!(moves >= 20, "{moves} moves");
        for thread in 0..THREADS {
            let ks = handled.iter().filter(|&&(t, _)| t == thread);
            let ks: Vec<u32> = ks.map(|&(_, k)| k).collect();
            let late = ks.iter().zip(0..).find(|&(&k, i)| k != i);
            assert_eq!(late, None, "thread {thread}: request k handled as the i-th");
            assert_eq!(ks.len() as u32, ROUNDS * WINDOW);
        }
    }

    /// The instants a steady client's pipelined calls complete, with or
    /// without a second connection accepted while they run.
    fn steady_completions(bystander: bool) -> Vec<u64> {
        VirtualLab::run(move || {
            let domain = FlockDomain::with_defaults();
            let server = echo_server(&domain, "calm", ServerConfig::default());
            let handle = connect(&domain, "calm", 0);
            clock::flush_charge(); // set-up cost is not part of the scenario
            let done = Arc::new(Mutex::new(Vec::new()));
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    let (t, done) = (handle.register_thread(), Arc::clone(&done));
                    clock::spawn("calm-caller", move || {
                        for _ in 0..30 {
                            let seqs: Vec<u64> =
                                (0..8).map(|_| t.send_rpc(1, b"x").expect("send")).collect();
                            for seq in seqs {
                                t.recv_res(seq).expect("recv");
                                done.lock().push(clock::now_ns());
                            }
                        }
                    })
                })
                .collect();
            clock::sleep(Duration::from_micros(20));
            let other = bystander.then(|| connect(&domain, "calm", 1));
            for caller in callers {
                caller.join().expect("caller");
            }
            drop(other);
            server.shutdown(&domain);
            let mut done = std::mem::take(&mut *done.lock());
            done.sort_unstable();
            done
        })
    }

    /// Another connection's accept re-partitions the shards, and a
    /// steady lane keeps its read-ahead message and deferred responses:
    /// the steady client's calls complete at the same instants.
    #[test]
    fn an_accept_does_not_disturb_a_steady_lane() {
        let calm = steady_completions(false);
        let busy = steady_completions(true);
        assert_eq!((calm.len(), busy.len()), (4 * 30 * 8, 4 * 30 * 8));
        let moved = calm.iter().zip(&busy).position(|(c, b)| c != b);
        assert_eq!(moved, None, "the first completion the accept moved");
    }

    /// A closed connection leaves nothing behind in the server: once
    /// `close` returns, no one holds its send CQ (reserved for 1 024
    /// completions at accept), so a churning server does not grow.
    #[test]
    fn a_closed_connection_frees_its_send_cq() {
        flock_sim::vtime::VirtualLab::run(|| {
            let domain = FlockDomain::with_defaults();
            let server_node = domain.add_node("free-srv");
            let server =
                FlockServer::listen(&domain, &server_node, "free", ServerConfig::default());
            server.reg_handler(1, |req| req.to_vec());
            let client_node = domain.add_node("free-cli");
            let mut cfg = HandleConfig::default();
            cfg.n_qps = 2;
            cfg.eager_qps = true;
            let mut handle = ConnectionHandle::connect(&domain, &client_node, "free", cfg).unwrap();
            assert_eq!(&handle.register_thread().call(1, b"x").unwrap()[..], b"x");
            let send_cq = {
                let topo = server.inner.topology.lock();
                let record = topo.record(handle.sender_id() as usize).unwrap();
                Arc::downgrade(&record.conn.send_cq)
            };
            handle.close().unwrap();
            assert!(
                send_cq.upgrade().is_none(),
                "a closed connection's send CQ is still held"
            );
            server.shutdown(&domain);
        });
    }
}
