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
//! destination MR with no per-verb scratch buffer — records
//! connection-cache accesses on both endpoints, and DMAs completions to
//! the relevant CQs. Errors surface as error-status completions and
//! transition the QP to the error state, mirroring verbs behaviour.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use flock_sync::clock::{self, Event, IdleOn, Next};
use flock_sync::AdaptiveBackoff;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cache::qp_state_key;
use crate::chan::recv_step;
use crate::fabric::{FabricInner, Node};
use crate::mr::Access;
use crate::timing::CostModel;
use crate::types::{FabricError, NodeId, QpNum, QpState, Result};
use crate::verbs::{Completion, CqOpcode, CqStatus, RecvWr, SendOp, SendWr, Sge};

/// Size of the global routing header prefixed to UD receive payloads.
pub const GRH_BYTES: usize = 40;

/// Commands accepted by a node's NIC engine.
#[derive(Debug)]
pub(crate) enum NicCmd {
    /// Execute a send-side work request posted on `src_qpn`.
    Post {
        /// The posting queue pair.
        src_qpn: QpNum,
        /// The QP's lease epoch at post time ([`crate::qp::Qp::epoch`]).
        /// The engine drops work whose epoch no longer matches: the QP
        /// was reset (recycled into the pool) after this was posted.
        epoch: u64,
        /// The work request.
        wr: SendWr,
    },
    /// A one-sided verb (READ / FetchAdd / CmpSwap) arriving at the
    /// *responder* node's engine. In virtual time the requester lane
    /// charges only the issue cost (WQE fetch + connection-state
    /// lookup) and forwards the verb here, because the expensive half
    /// of a one-sided op — fetching the payload over PCIe and
    /// generating the response — runs on the responder NIC's
    /// processing units and competes with every other client's verbs
    /// for them and for the responder's connection cache. This is the
    /// serialization that coalesced RPC amortizes away at high fan-in
    /// (paper §2, §8.3.1).
    Respond {
        /// Node that posted the verb (owns the QP, CQ, and local MR).
        req_node: NodeId,
        /// The posting queue pair on `req_node`.
        src_qpn: QpNum,
        /// The responder-side queue pair, whose connection state is
        /// what the responder NIC must have resident.
        dst_qpn: QpNum,
        /// The posting QP's lease epoch at post time.
        epoch: u64,
        /// The work request.
        wr: SendWr,
    },
    /// Stop the engine thread.
    Stop,
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
type Responder = (Arc<Node>, QpNum);

/// One engine lane: a `clock::spawn_stepper` task owned by the fabric —
/// a dedicated thread blocked in its command channel on real threads, a
/// virtual core with no thread under `flock_sim::VirtualLab`. `lane`
/// only perturbs the loss-injection RNG so lanes draw independent
/// streams.
///
/// Each verb occupies the lane for its NIC service time (per the
/// fabric's [`CostModel`]) before executing, which is what serializes a
/// lane's throughput in virtual time: one lane processes at most
/// `1s / nic_service` verbs per virtual second, and QPs sharded across
/// lanes genuinely overlap. The charge is a no-op on real threads,
/// where timing is accounting-only. Because one lane is one task,
/// per-QP FIFO order holds under both executors.
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
        }
    }

    /// An idle NIC lane re-polls quickly (hardware notices doorbells in
    /// well under a microsecond); the tight virtual cap bounds added
    /// detection latency to 2 µs even after long idle stretches.
    pub(crate) fn idler() -> AdaptiveBackoff {
        AdaptiveBackoff::new(std::time::Duration::from_micros(2)).with_virtual_cap(2_000)
    }

    /// Execute the verb whose service time has passed, then take the
    /// next command and charge its service time: `Next::Again` sleeps
    /// it.
    pub(crate) fn step(&mut self) -> Next {
        if let Some((cmd, target)) = self.serving.take() {
            self.execute(cmd, target);
        }
        let cmd = match recv_step(&self.rx, None) {
            Ok(Some(cmd)) => cmd,
            Err(_) => return Next::Done,
            Ok(None) => {
                return Next::Idle(Some(IdleOn {
                    seen: self.rung.epoch(),
                    event: Arc::clone(&self.rung),
                    busy_ns: 0,
                    deadline_ns: u64::MAX,
                }))
            }
        };
        let cost = &self.fabric.config.cost;
        let target = match &cmd {
            NicCmd::Post { src_qpn, wr, .. } => {
                let target = one_sided_target(&self.fabric, &self.node, *src_qpn, wr);
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
            NicCmd::Respond { dst_qpn, wr, .. } => {
                clock::charge(service_ns(cost, &self.node, *dst_qpn, wr));
                None
            }
            NicCmd::Stop => return Next::Done,
        };
        self.serving = Some((cmd, target));
        Next::Again
    }

    fn execute(&mut self, cmd: NicCmd, target: Option<Responder>) {
        match (cmd, target) {
            (NicCmd::Post { src_qpn, epoch, wr }, Some((dst, dst_qpn))) => dst.forward_cmd(
                dst_qpn,
                NicCmd::Respond {
                    req_node: self.node.id(),
                    src_qpn,
                    dst_qpn,
                    epoch,
                    wr,
                },
            ),
            (NicCmd::Post { src_qpn, epoch, wr }, None) => {
                process(&self.fabric, &self.node, src_qpn, epoch, wr, &mut self.rng)
            }
            (
                NicCmd::Respond {
                    req_node,
                    src_qpn,
                    epoch,
                    wr,
                    ..
                },
                _,
            ) => {
                if let Ok(req) = self.fabric.node(req_node) {
                    process(&self.fabric, &req, src_qpn, epoch, wr, &mut self.rng);
                }
            }
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
/// error through the normal path). Threaded engines never forward:
/// timing is accounting-only there, so the extra hop would buy nothing.
fn one_sided_target(
    fabric: &FabricInner,
    node: &Node,
    src_qpn: QpNum,
    wr: &SendWr,
) -> Option<Responder> {
    if !clock::is_virtual()
        || !matches!(
            wr.op,
            SendOp::Read { .. } | SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. }
        )
    {
        return None;
    }
    let qp = node.qp(src_qpn)?;
    let (dst_id, dst_qpn) = qp.remote().or(wr.dst)?;
    let dst = fabric.node(dst_id).ok()?;
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

fn process(
    fabric: &FabricInner,
    node: &Arc<Node>,
    src_qpn: QpNum,
    epoch: u64,
    wr: SendWr,
    rng: &mut SmallRng,
) {
    let Some(qp) = node.qp(src_qpn) else {
        return; // QP destroyed after posting; nothing to complete into.
    };
    if qp.epoch() != epoch {
        // Posted in a previous lease; the QP was reset (recycled into
        // the node's pool) since. Executing would target the *new*
        // lessee's connection, and completing would land in the new
        // lessee's CQ — drop silently, like work on a destroyed QP.
        return;
    }
    if qp.state() == QpState::Error {
        complete_send(node, src_qpn, &wr, CqStatus::WorkRequestFlushed, 0);
        return;
    }
    if qp.state() == QpState::Init {
        // Reset between the epoch check and here, or posted on a QP that
        // was never brought up: nothing valid to execute against.
        return;
    }

    // Touch the source-side connection state in the NIC cache.
    node.cache()
        .lock()
        .access(qp_state_key(node.id().0, src_qpn.0));

    let result = execute(fabric, node, &qp, &wr, rng);
    match result {
        Ok(bytes) => {
            node.stats().verbs.fetch_add(1, Ordering::Relaxed);
            node.stats()
                .bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            if wr.signaled {
                complete_send(node, src_qpn, &wr, CqStatus::Success, bytes);
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
            complete_send(node, src_qpn, &wr, status, 0);
        }
    }
}

fn complete_send(node: &Node, qpn: QpNum, wr: &SendWr, status: CqStatus, bytes: usize) {
    let opcode = match wr.op {
        SendOp::Send { .. } => CqOpcode::Send,
        SendOp::Write { .. } | SendOp::WriteImm { .. } => CqOpcode::Write,
        SendOp::Read { .. } => CqOpcode::Read,
        SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. } => CqOpcode::Atomic,
    };
    if let Some(qp) = node.qp(qpn) {
        qp.send_cq().push(Completion {
            wr_id: wr.wr_id,
            status,
            opcode,
            byte_len: bytes,
            imm: None,
            src: None,
            qpn,
        });
    }
}

/// Execute the data movement for `wr`; returns bytes moved.
fn execute(
    fabric: &FabricInner,
    node: &Arc<Node>,
    qp: &crate::qp::Qp,
    wr: &SendWr,
    rng: &mut SmallRng,
) -> Result<usize> {
    let dst_addr = match qp.remote() {
        Some(peer) => peer,
        None => wr.dst.ok_or(FabricError::MissingDestination)?,
    };
    let (dst_node_id, dst_qpn) = dst_addr;
    let dst_node = fabric.node(dst_node_id)?;
    let dst_qp = dst_node
        .qp(dst_qpn)
        .ok_or(FabricError::QpNotFound(dst_node_id, dst_qpn))?;

    // Touch the destination-side connection state in its NIC cache.
    dst_node
        .cache()
        .lock()
        .access(qp_state_key(dst_node_id.0, dst_qpn.0));

    match wr.op {
        SendOp::Send { local } => {
            let (src_mr, src_off) = resolve_local(node, local)?;
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
                deliver_recv_error(&dst_node, &dst_qp, &recv);
                if is_ud {
                    node.stats().bump(&node.stats().ud_drops);
                    return Ok(local.len);
                }
                return Err(FabricError::ReceiveBufferTooSmall {
                    have: recv.local.len,
                    need,
                });
            }
            let dst_mr = dst_node.mrs().lookup_lkey(recv.local.lkey)?;
            let off = dst_mr.translate(recv.local.addr, need)?;
            if grh > 0 {
                // Zero a synthetic GRH; real NICs deposit routing headers.
                dst_mr.write(off, &[0u8; GRH_BYTES])?;
            }
            src_mr.dma_to(src_off, &dst_mr, off + grh, local.len)?;
            dst_qp.recv_cq().push(Completion {
                wr_id: recv.wr_id,
                status: CqStatus::Success,
                opcode: CqOpcode::Recv,
                byte_len: need,
                imm: None,
                src: if is_ud {
                    Some((node.id(), qp.qpn()))
                } else {
                    None
                },
                qpn: dst_qpn,
            });
            node.stats().bump(&node.stats().sends);
            Ok(local.len)
        }
        SendOp::Write { local, remote } => {
            let (src_mr, src_off) = resolve_local(node, local)?;
            let dst_mr = dst_node
                .mrs()
                .lookup_rkey(remote.rkey, Access::REMOTE_WRITE)?;
            let off = dst_mr.translate(remote.addr, local.len)?;
            src_mr.dma_to(src_off, &dst_mr, off, local.len)?;
            node.stats().bump(&node.stats().writes);
            Ok(local.len)
        }
        SendOp::WriteImm { local, remote, imm } => {
            let (src_mr, src_off) = resolve_local(node, local)?;
            let dst_mr = dst_node
                .mrs()
                .lookup_rkey(remote.rkey, Access::REMOTE_WRITE)?;
            let off = dst_mr.translate(remote.addr, local.len)?;
            src_mr.dma_to(src_off, &dst_mr, off, local.len)?;
            // Consume one posted receive to deliver the immediate.
            let recv = dst_qp.pop_recv().ok_or(FabricError::NoReceiveBuffer)?;
            dst_qp.recv_cq().push(Completion {
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
            let src_mr = dst_node
                .mrs()
                .lookup_rkey(remote.rkey, Access::REMOTE_READ)?;
            let src_off = src_mr.translate(remote.addr, local.len)?;
            let (loc_mr, loc_off) = resolve_local(node, local)?;
            src_mr.dma_to(src_off, &loc_mr, loc_off, local.len)?;
            node.stats().bump(&node.stats().reads);
            Ok(local.len)
        }
        SendOp::FetchAdd { local, remote, add } => {
            let dst_mr = dst_node
                .mrs()
                .lookup_rkey(remote.rkey, Access::REMOTE_ATOMIC)?;
            let off = dst_mr.translate(remote.addr, 8)?;
            let old = dst_mr.fetch_add_u64(off, add)?;
            write_local(node, local, &old.to_le_bytes())?;
            node.stats().bump(&node.stats().atomics);
            Ok(8)
        }
        SendOp::CmpSwap {
            local,
            remote,
            expect,
            swap,
        } => {
            let dst_mr = dst_node
                .mrs()
                .lookup_rkey(remote.rkey, Access::REMOTE_ATOMIC)?;
            let off = dst_mr.translate(remote.addr, 8)?;
            let old = dst_mr.cmp_swap_u64(off, expect, swap)?;
            write_local(node, local, &old.to_le_bytes())?;
            node.stats().bump(&node.stats().atomics);
            Ok(8)
        }
    }
}

fn deliver_recv_error(dst_node: &Node, dst_qp: &crate::qp::Qp, recv: &RecvWr) {
    let _ = dst_node;
    dst_qp.recv_cq().push(Completion {
        wr_id: recv.wr_id,
        status: CqStatus::LocalProtectionError,
        opcode: CqOpcode::Recv,
        byte_len: 0,
        imm: None,
        src: None,
        qpn: dst_qp.qpn(),
    });
}

/// Resolve a local SGE to its region and buffer offset (bounds-checked),
/// without copying anything.
fn resolve_local(
    node: &Node,
    sge: Sge,
) -> Result<(std::sync::Arc<crate::mr::MemoryRegion>, usize)> {
    let mr = node.mrs().lookup_lkey(sge.lkey)?;
    let off = mr.translate(sge.addr, sge.len)?;
    Ok((mr, off))
}

fn write_local(node: &Node, sge: Sge, data: &[u8]) -> Result<()> {
    let mr = node.mrs().lookup_lkey(sge.lkey)?;
    let len = data.len().min(sge.len);
    let off = mr.translate(sge.addr, len)?;
    mr.write(off, &data[..len])
}
