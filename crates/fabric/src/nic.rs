//! The NIC engine: background tasks ("lanes") per node that execute
//! posted work requests against the in-process fabric.
//!
//! Each node runs `FabricConfig::nic_lanes` engine lanes; a QP is pinned
//! to one lane by QPN at creation, so work requests of one QP execute in
//! FIFO order (all RC guarantees) while unrelated QPs proceed in
//! parallel — the same sharding real NICs apply across their processing
//! units.
//!
//! The engine performs real memory movement (so two-sided and one-sided
//! semantics are exercised end to end) — zero-copy, via
//! [`MemoryRegion::dma_to`], one guarded `memcpy` from source MR to
//! destination MR with no per-verb scratch buffer, or for an inline
//! write from the payload its work request carries — records
//! connection-cache accesses on both endpoints, and DMAs completions to
//! the relevant CQs. Errors surface as error-status completions and
//! transition the QP to the error state, mirroring verbs behaviour.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{Receiver, TryRecvError};
use flock_sync::clock::{self, Event, IdleOn, Next};
use flock_sync::AdaptiveBackoff;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cache::qp_state_key;
use crate::fabric::{FabricInner, Node};
use crate::mr::{Access, MemoryRegion};
use crate::qp::Qp;
use crate::timing::CostModel;
use crate::types::{FabricError, KeyMap, NodeId, QpNum, QpState, Result};
use crate::verbs::{Completion, CqOpcode, CqStatus, RecvWr, RemoteAddr, SendOp, SendWr, Sge};

/// Size of the global routing header prefixed to UD receive payloads.
pub const GRH_BYTES: usize = 40;

/// Commands accepted by a node's NIC engine.
#[derive(Debug)]
pub(crate) enum NicCmd {
    /// Execute a send-side work request posted on `src_qpn`.
    Post {
        /// The posting queue pair.
        src_qpn: QpNum,
        /// What was posted.
        verb: Verb,
    },
    /// A one-sided verb (READ / FetchAdd / CmpSwap) arriving at the
    /// *responder* node's engine. The requester lane charges only the
    /// issue cost (WQE fetch + connection-state lookup) and forwards the
    /// verb here, because the expensive half of a one-sided op —
    /// fetching the payload over PCIe and generating the response —
    /// runs on the responder NIC's processing units and competes with
    /// every other client's verbs for them and for the responder's
    /// connection cache. This is the serialization that coalesced RPC
    /// amortizes away at high fan-in (paper §2, §8.3.1).
    Respond {
        /// Node that posted the verb (owns the QP, CQ, and local MR).
        req_node: NodeId,
        /// The posting queue pair on `req_node`.
        src_qpn: QpNum,
        /// The responder-side queue pair, whose connection state is
        /// what the responder NIC must have resident.
        dst_qpn: QpNum,
        /// What was posted.
        verb: Verb,
    },
    /// Stop the engine thread.
    Stop,
}

/// A posted work request, as a lane executes it.
#[derive(Debug)]
pub(crate) struct Verb {
    /// The QP's lease epoch at post time ([`crate::qp::Qp::epoch`]).
    /// The engine drops work whose epoch no longer matches: the QP was
    /// reset (recycled into the pool) after this was posted.
    pub(crate) epoch: u64,
    /// The work request.
    pub(crate) wr: SendWr,
    /// An inline write's payload ([`Qp::post_inline`]), handed back to
    /// the QP once the lane is done with it.
    pub(crate) payload: Option<Vec<u8>>,
}

/// Per-node NIC statistics (atomically updated by the engine).
#[derive(Debug, Default)]
pub struct NicStats {
    /// Total verbs executed.
    pub verbs: AtomicU64,
    /// Total payload bytes moved.
    pub bytes: AtomicU64,
    /// Two-sided sends delivered.
    pub sends: AtomicU64,
    /// One-sided writes executed.
    pub writes: AtomicU64,
    /// One-sided reads executed.
    pub reads: AtomicU64,
    /// Remote atomics executed.
    pub atomics: AtomicU64,
    /// RC sends that failed with receiver-not-ready.
    pub rnr_failures: AtomicU64,
    /// UD datagrams dropped (loss injection or no receive buffer).
    pub ud_drops: AtomicU64,
}

impl NicStats {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where the responder half of a one-sided verb runs: the destination
/// node and the responder-side QPN ([`one_sided_target`]).
type Responder = (NodeId, QpNum);

/// What a lane has looked up: nodes, queue pairs and memory regions,
/// each found once and then borrowed by every verb that names it. Nodes
/// are never removed; the rest is forgotten whenever the fabric's table
/// generation has moved since the last verb ([`FabricInner::tables`]:
/// every QP create, destroy and reset and every MR register and
/// deregister), so a verb resolves exactly what a fresh lookup would.
/// A lookup allocates only when a map outgrows its capacity, which a
/// flush keeps.
#[derive(Default)]
struct Resolved {
    generation: u64,
    nodes: KeyMap<NodeId, Arc<Node>>,
    qps: KeyMap<(NodeId, QpNum), Arc<Qp>>,
    mrs: Regions,
}

impl Resolved {
    /// Forget the queue pairs and regions if the fabric's tables have
    /// changed since they were looked up.
    fn refresh(&mut self, fabric: &FabricInner) {
        let generation = fabric.tables.load(Ordering::Acquire);
        if generation != self.generation {
            self.qps.clear();
            self.mrs.0.clear();
            self.generation = generation;
        }
    }

    fn node(&mut self, fabric: &FabricInner, id: NodeId) -> Option<&Arc<Node>> {
        node_in(&mut self.nodes, fabric, id)
    }

    fn qp(&mut self, fabric: &FabricInner, node: NodeId, qpn: QpNum) -> Option<&Arc<Qp>> {
        match self.qps.entry((node, qpn)) {
            Entry::Occupied(hit) => Some(hit.into_mut()),
            Entry::Vacant(slot) => {
                Some(slot.insert(node_in(&mut self.nodes, fabric, node)?.qp(qpn)?))
            }
        }
    }
}

fn node_in<'a>(
    nodes: &'a mut KeyMap<NodeId, Arc<Node>>,
    fabric: &FabricInner,
    id: NodeId,
) -> Option<&'a Arc<Node>> {
    match nodes.entry(id) {
        Entry::Occupied(hit) => Some(hit.into_mut()),
        Entry::Vacant(slot) => Some(slot.insert(fabric.node(id).ok()?)),
    }
}

/// The memory regions a lane has looked up, by node and key (an lkey
/// and an rkey are the same number).
#[derive(Default)]
struct Regions(KeyMap<(NodeId, u32), Arc<MemoryRegion>>);

impl Regions {
    /// Look up the region `key` names on `node`, unless already known.
    fn load(&mut self, node: &Node, key: u32) {
        if let Entry::Vacant(slot) = self.0.entry((node.id(), key)) {
            if let Some(mr) = node.mrs().lookup(key) {
                slot.insert(mr);
            }
        }
    }

    /// A local SGE's region and buffer offset (bounds-checked), once
    /// [`Regions::load`]ed.
    fn local(&self, node: NodeId, sge: Sge) -> Result<(&MemoryRegion, usize)> {
        let mr = self.0.get(&(node, sge.lkey.0));
        let mr = mr.ok_or(FabricError::BadLkey(sge.lkey))?;
        Ok((mr, mr.translate(sge.addr, sge.len)?))
    }

    /// The region behind `len` bytes at `at` (rights and bounds
    /// checked) and their buffer offset, once [`Regions::load`]ed.
    fn remote(
        &self,
        node: NodeId,
        at: RemoteAddr,
        len: usize,
        needed: Access,
    ) -> Result<(&MemoryRegion, usize)> {
        let mr = self.0.get(&(node, at.rkey.0));
        let mr = mr.ok_or(FabricError::BadRkey(at.rkey))?;
        mr.allow(needed)?;
        Ok((mr, mr.translate(at.addr, len)?))
    }
}

/// One engine lane: a `clock::spawn_stepper` task owned by the fabric —
/// a dedicated thread idling on its command channel's doorbell on real
/// threads, a virtual core with no thread under `flock_sim::VirtualLab`.
/// `lane` only perturbs the loss-injection RNG so lanes draw independent
/// streams.
///
/// Each verb occupies the lane for its NIC service time (per the
/// fabric's [`CostModel`]) before executing, which is what serializes a
/// lane's throughput in virtual time: one lane processes at most
/// `1s / nic_service` verbs per virtual second, and QPs sharded across
/// lanes genuinely overlap. The charge is a no-op on real threads,
/// where timing is accounting-only. Because one lane is one task,
/// per-QP FIFO order holds under both executors for the verbs a lane
/// executes itself; a one-sided verb executes later, on the responder's
/// lane, so a verb posted after it on the same QP may complete first.
pub(crate) struct EngineLane {
    fabric: Arc<FabricInner>,
    node: Arc<Node>,
    rx: Receiver<NicCmd>,
    /// The command channel's doorbell: nothing but a command ends the
    /// lane's idling, and every command rings it.
    rung: Arc<Event>,
    rng: SmallRng,
    /// The verb whose service time the lane is sleeping, and where a
    /// one-sided one goes next.
    serving: Option<(NicCmd, Option<Responder>)>,
    resolved: Resolved,
}

impl EngineLane {
    pub(crate) fn new(
        fabric: Arc<FabricInner>,
        node: Arc<Node>,
        rx: Receiver<NicCmd>,
        rung: Arc<Event>,
        lane: usize,
    ) -> EngineLane {
        let rng = SmallRng::seed_from_u64(
            fabric.config.seed ^ (node.id().0 as u64) << 17 ^ (lane as u64) << 40,
        );
        EngineLane {
            fabric,
            node,
            rx,
            rung,
            rng,
            serving: None,
            resolved: Resolved::default(),
        }
    }

    /// An idle NIC lane re-polls quickly (hardware notices doorbells in
    /// well under a microsecond); the tight virtual cap bounds added
    /// detection latency to 2 µs even after long idle stretches.
    pub(crate) fn idler() -> AdaptiveBackoff {
        AdaptiveBackoff::new().with_virtual_cap(2_000)
    }

    /// Execute the verb whose service time has passed, then take the
    /// next command and charge its service time: `Next::Again` sleeps
    /// it.
    pub(crate) fn step(&mut self) -> Next {
        if let Some((cmd, target)) = self.serving.take() {
            self.execute(cmd, target);
        }
        let seen = self.rung.epoch();
        let cmd = match self.rx.try_recv() {
            Ok(cmd) => cmd,
            Err(TryRecvError::Disconnected) => return Next::Done,
            Err(TryRecvError::Empty) => {
                return Next::Idle(IdleOn {
                    seen,
                    busy_ns: 0,
                    deadline_ns: u64::MAX,
                })
            }
        };
        let cost = &self.fabric.config.cost;
        let target = match &cmd {
            NicCmd::Post { src_qpn, verb } => {
                let wr = &verb.wr;
                let target =
                    one_sided_target(&self.fabric, &mut self.resolved, &self.node, *src_qpn, wr);
                clock::charge(match target {
                    // One-sided verb: the requester NIC only fetches the
                    // WQE and looks up its connection state before the
                    // request packet leaves (no payload bytes move
                    // through it at issue time); the payload DMA and
                    // response generation are the responder NIC's work.
                    // Charge the issue half here; the responder half is
                    // queued on the destination node's lane (sharded by
                    // the responder QPN, so per-QP FIFO order holds).
                    Some(_) => cost
                        .nic_service(0, resident(&self.node, *src_qpn))
                        .as_nanos(),
                    None => service_ns(cost, &self.node, *src_qpn, wr),
                });
                target
            }
            // `node` is the responder here: service time is priced by
            // whether *this* NIC has the responder-side QP state
            // resident — the fan-in effect: past the cache size, every
            // one-sided verb pays the PCIe state fetch.
            NicCmd::Respond { dst_qpn, verb, .. } => {
                clock::charge(service_ns(cost, &self.node, *dst_qpn, &verb.wr));
                None
            }
            NicCmd::Stop => return Next::Done,
        };
        self.serving = Some((cmd, target));
        Next::Again
    }

    fn execute(&mut self, cmd: NicCmd, target: Option<Responder>) {
        let (fabric, resolved) = (&*self.fabric, &mut self.resolved);
        match (cmd, target) {
            (NicCmd::Post { src_qpn, verb }, Some((dst, dst_qpn))) => {
                let respond = NicCmd::Respond {
                    req_node: self.node.id(),
                    src_qpn,
                    dst_qpn,
                    verb,
                };
                if let Some(dst) = resolved.node(fabric, dst) {
                    dst.forward_cmd(dst_qpn, respond);
                }
            }
            (NicCmd::Post { src_qpn, verb }, None) => {
                let node = self.node.id();
                process(fabric, resolved, node, src_qpn, verb, &mut self.rng)
            }
            (
                NicCmd::Respond {
                    req_node,
                    src_qpn,
                    verb,
                    ..
                },
                _,
            ) => process(fabric, resolved, req_node, src_qpn, verb, &mut self.rng),
            (NicCmd::Stop, _) => {}
        }
    }
}

/// Resolve the responder for a one-sided verb, when it can run on the
/// destination node's engine: returns the destination node and the
/// responder-side QPN for READ / FetchAdd / CmpSwap. Two-sided sends
/// and ring writes return `None` — their responder-side work is the
/// receive path, which the host-CPU model already prices — as do
/// unresolvable destinations (the requester lane then surfaces the
/// error through the normal path).
fn one_sided_target(
    fabric: &FabricInner,
    resolved: &mut Resolved,
    node: &Node,
    src_qpn: QpNum,
    wr: &SendWr,
) -> Option<Responder> {
    if !matches!(
        wr.op,
        SendOp::Read { .. } | SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. }
    ) {
        return None;
    }
    resolved.refresh(fabric);
    let qp = resolved.qp(fabric, node.id(), src_qpn)?;
    let (dst, dst_qpn) = qp.remote().or(wr.dst)?;
    resolved.node(fabric, dst)?;
    Some((dst, dst_qpn))
}

/// Whether `qpn`'s connection state is resident in `node`'s NIC cache
/// (the actual hit/miss is recorded by `process` with the same key).
fn resident(node: &Node, qpn: QpNum) -> bool {
    node.cache()
        .lock()
        .contains(qp_state_key(node.id().0, qpn.0))
}

/// NIC service time for executing `wr` on `node`'s lane, keyed by
/// whichever QPN's connection state that lane looks up — the posting QP
/// on the requester, the responder-side QP for a forwarded one-sided
/// verb: base verb cost plus the connection-state lookup, DMA per byte
/// over the node's PCIe link, the read/atomic surcharge, and the CQE
/// DMA when a completion will be generated.
fn service_ns(cost: &CostModel, node: &Node, qpn: QpNum, wr: &SendWr) -> u64 {
    let bytes = match wr.op {
        SendOp::Send { local }
        | SendOp::Write { local, .. }
        | SendOp::WriteImm { local, .. }
        | SendOp::Read { local, .. } => local.len,
        SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. } => 8,
    };
    let mut ns = cost.nic_service(bytes, resident(node, qpn)).as_nanos();
    if matches!(wr.op, SendOp::Read { .. }) {
        ns += cost.nic_read_extra_ns;
    }
    if matches!(wr.op, SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. }) {
        ns += cost.nic_atomic_extra_ns;
    }
    if wr.signaled {
        ns += cost.nic_cqe_dma_ns;
    }
    ns
}

/// Execute send-side work posted on `node`'s QP `src_qpn`: check its
/// lease and state, touch its connection state, move the data,
/// complete, and hand an inline payload back to the QP. Every object the
/// verb names is looked up once, through `resolved`.
fn process(
    fabric: &FabricInner,
    resolved: &mut Resolved,
    node: NodeId,
    src_qpn: QpNum,
    verb: Verb,
    rng: &mut SmallRng,
) {
    resolved.refresh(fabric);
    let Some(qp) = resolved.qp(fabric, node, src_qpn) else {
        return; // QP destroyed after posting; nothing to complete into.
    };
    let wr = &verb.wr;
    // Where the verb goes, looked up now: a lookup changes nothing, and
    // a failed one is reported in its turn below.
    let dst = qp.remote().or(wr.dst);
    if let Some((dst_node, dst_qpn)) = dst {
        resolved.qp(fabric, dst_node, dst_qpn);
    }
    let Resolved {
        nodes, qps, mrs, ..
    } = resolved;
    let (node, qp) = (&nodes[&node], &qps[&(node, src_qpn)]);
    if qp.epoch() != verb.epoch {
        // Posted in a previous lease; the QP was reset (recycled into
        // the node's pool) since. Executing would target the *new*
        // lessee's connection, and completing would land in the new
        // lessee's CQ — drop silently, like work on a destroyed QP.
        return;
    }
    match qp.state() {
        QpState::Error => return complete_send(qp, wr, CqStatus::WorkRequestFlushed, 0),
        // Reset between the epoch check and here, or posted on a QP that
        // was never brought up: nothing valid to execute against.
        QpState::Init => return,
        QpState::Rtr | QpState::Rts => {}
    }

    // Touch the source-side connection state in the NIC cache.
    node.cache()
        .lock()
        .access(qp_state_key(node.id().0, src_qpn.0));

    let dst = dst
        .ok_or(FabricError::MissingDestination)
        .and_then(|(id, qpn)| {
            let dst_node = nodes.get(&id).ok_or(FabricError::NodeNotFound(id))?;
            let dst_qp = qps
                .get(&(id, qpn))
                .ok_or(FabricError::QpNotFound(id, qpn))?;
            Ok((&**dst_node, &**dst_qp))
        });
    let result = dst.and_then(|dst| execute(fabric, node, qp, dst, mrs, &verb, rng));
    match result {
        Ok(bytes) => {
            node.stats().verbs.fetch_add(1, Ordering::Relaxed);
            node.stats()
                .bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            if wr.signaled {
                complete_send(qp, wr, CqStatus::Success, bytes);
            }
        }
        Err(e) => {
            let status = match e {
                FabricError::BadLkey(_) => CqStatus::LocalProtectionError,
                FabricError::NoReceiveBuffer => {
                    node.stats().bump(&node.stats().rnr_failures);
                    CqStatus::RnrRetryExceeded
                }
                FabricError::AccessViolation { .. }
                | FabricError::BadRkey(_)
                | FabricError::Misaligned(_)
                | FabricError::ReceiveBufferTooSmall { .. } => CqStatus::RemoteAccessError,
                _ => CqStatus::RemoteAccessError,
            };
            qp.set_error();
            complete_send(qp, wr, status, 0);
        }
    }
    // A verb dropped or flushed above (destroyed QP, reset lease, QP in
    // error) dropped its payload instead: a cold path, and the QP's next
    // inline write allocates one.
    if let Some(payload) = verb.payload {
        qp.recycle_inline(payload);
    }
}

fn complete_send(qp: &Qp, wr: &SendWr, status: CqStatus, bytes: usize) {
    let opcode = match wr.op {
        SendOp::Send { .. } => CqOpcode::Send,
        SendOp::Write { .. } | SendOp::WriteImm { .. } => CqOpcode::Write,
        SendOp::Read { .. } => CqOpcode::Read,
        SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. } => CqOpcode::Atomic,
    };
    qp.complete_send(Completion {
        wr_id: wr.wr_id,
        status,
        opcode,
        byte_len: bytes,
        imm: None,
        src: None,
        qpn: qp.qpn(),
    });
}

/// Execute the data movement for `verb` from `node`'s `qp` to its
/// destination `(node, QP)`; returns bytes moved.
fn execute(
    fabric: &FabricInner,
    node: &Node,
    qp: &Qp,
    (dst_node, dst_qp): (&Node, &Qp),
    mrs: &mut Regions,
    verb: &Verb,
    rng: &mut SmallRng,
) -> Result<usize> {
    let (src, dst) = (node.id(), dst_node.id());
    let dst_qpn = dst_qp.qpn();

    // Touch the destination-side connection state in its NIC cache.
    dst_node
        .cache()
        .lock()
        .access(qp_state_key(dst.0, dst_qpn.0));

    // An inline write: the payload is the work request's, and the local
    // SGE is not read ([`Qp::post_inline`]).
    if let (Some(payload), SendOp::Write { remote, .. }) = (&verb.payload, verb.wr.op) {
        mrs.load(dst_node, remote.rkey.0);
        let (dst_mr, off) = mrs.remote(dst, remote, payload.len(), Access::REMOTE_WRITE)?;
        dst_mr.dma_in(off, payload)?;
        node.stats().bump(&node.stats().writes);
        return Ok(payload.len());
    }
    match verb.wr.op {
        SendOp::Send { local } => {
            mrs.load(node, local.lkey.0);
            let src_off = mrs.local(src, local)?.1;
            let is_ud = !qp.transport().connected();
            if is_ud
                && fabric.config.ud_drop_probability > 0.0
                && rng.gen::<f64>() < fabric.config.ud_drop_probability
            {
                node.stats().bump(&node.stats().ud_drops);
                return Ok(local.len); // silently lost on the wire
            }
            let Some(recv) = dst_qp.pop_recv() else {
                if is_ud {
                    // UD: no buffer means the datagram is dropped, sender
                    // still completes successfully.
                    node.stats().bump(&node.stats().ud_drops);
                    return Ok(local.len);
                }
                return Err(FabricError::NoReceiveBuffer);
            };
            let grh = if is_ud { GRH_BYTES } else { 0 };
            let need = local.len + grh;
            if recv.local.len < need {
                deliver_recv_error(dst_qp, &recv);
                if is_ud {
                    node.stats().bump(&node.stats().ud_drops);
                    return Ok(local.len);
                }
                return Err(FabricError::ReceiveBufferTooSmall {
                    have: recv.local.len,
                    need,
                });
            }
            mrs.load(dst_node, recv.local.lkey.0);
            let (dst_mr, off) = mrs.local(
                dst,
                Sge {
                    len: need,
                    ..recv.local
                },
            )?;
            if grh > 0 {
                // Zero a synthetic GRH; real NICs deposit routing headers.
                dst_mr.write(off, &[0u8; GRH_BYTES])?;
            }
            let (src_mr, _) = mrs.local(src, local)?;
            src_mr.dma_to(src_off, dst_mr, off + grh, local.len)?;
            dst_qp.complete_recv(Completion {
                wr_id: recv.wr_id,
                status: CqStatus::Success,
                opcode: CqOpcode::Recv,
                byte_len: need,
                imm: None,
                src: if is_ud { Some((src, qp.qpn())) } else { None },
                qpn: dst_qpn,
            });
            node.stats().bump(&node.stats().sends);
            Ok(local.len)
        }
        SendOp::Write { local, remote } => {
            mrs.load(node, local.lkey.0);
            mrs.load(dst_node, remote.rkey.0);
            let (src_mr, src_off) = mrs.local(src, local)?;
            let (dst_mr, off) = mrs.remote(dst, remote, local.len, Access::REMOTE_WRITE)?;
            src_mr.dma_to(src_off, dst_mr, off, local.len)?;
            node.stats().bump(&node.stats().writes);
            Ok(local.len)
        }
        SendOp::WriteImm { local, remote, imm } => {
            mrs.load(node, local.lkey.0);
            mrs.load(dst_node, remote.rkey.0);
            let (src_mr, src_off) = mrs.local(src, local)?;
            let (dst_mr, off) = mrs.remote(dst, remote, local.len, Access::REMOTE_WRITE)?;
            src_mr.dma_to(src_off, dst_mr, off, local.len)?;
            // Consume one posted receive to deliver the immediate.
            let recv = dst_qp.pop_recv().ok_or(FabricError::NoReceiveBuffer)?;
            dst_qp.complete_recv(Completion {
                wr_id: recv.wr_id,
                status: CqStatus::Success,
                opcode: CqOpcode::RecvImm,
                byte_len: local.len,
                imm: Some(imm),
                src: None,
                qpn: dst_qpn,
            });
            node.stats().bump(&node.stats().writes);
            Ok(local.len)
        }
        SendOp::Read { local, remote } => {
            mrs.load(dst_node, remote.rkey.0);
            mrs.load(node, local.lkey.0);
            let (src_mr, src_off) = mrs.remote(dst, remote, local.len, Access::REMOTE_READ)?;
            let (loc_mr, loc_off) = mrs.local(src, local)?;
            src_mr.dma_to(src_off, loc_mr, loc_off, local.len)?;
            node.stats().bump(&node.stats().reads);
            Ok(local.len)
        }
        SendOp::FetchAdd { local, remote, add } => {
            mrs.load(dst_node, remote.rkey.0);
            let (dst_mr, off) = mrs.remote(dst, remote, 8, Access::REMOTE_ATOMIC)?;
            let old = dst_mr.fetch_add_u64(off, add)?;
            write_local(mrs, node, local, &old.to_le_bytes())?;
            node.stats().bump(&node.stats().atomics);
            Ok(8)
        }
        SendOp::CmpSwap {
            local,
            remote,
            expect,
            swap,
        } => {
            mrs.load(dst_node, remote.rkey.0);
            let (dst_mr, off) = mrs.remote(dst, remote, 8, Access::REMOTE_ATOMIC)?;
            let old = dst_mr.cmp_swap_u64(off, expect, swap)?;
            write_local(mrs, node, local, &old.to_le_bytes())?;
            node.stats().bump(&node.stats().atomics);
            Ok(8)
        }
    }
}

fn deliver_recv_error(dst_qp: &Qp, recv: &RecvWr) {
    dst_qp.complete_recv(Completion {
        wr_id: recv.wr_id,
        status: CqStatus::LocalProtectionError,
        opcode: CqOpcode::Recv,
        byte_len: 0,
        imm: None,
        src: None,
        qpn: dst_qp.qpn(),
    });
}

fn write_local(mrs: &mut Regions, node: &Node, sge: Sge, data: &[u8]) -> Result<()> {
    mrs.load(node, sge.lkey.0);
    let len = data.len().min(sge.len);
    let (mr, off) = mrs.local(node.id(), Sge { len, ..sge })?;
    mr.write(off, &data[..len])
}
