//! Queue pairs.
//!
//! A [`Qp`] validates posted work against its transport's capabilities
//! (paper Table 1) and its connection state, then hands send-side work to
//! the node's NIC engine. Receive-side buffers are queued locally and
//! consumed by inbound two-sided traffic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::chan::DoorbellSender;
use crate::cq::CompletionQueue;
use crate::nic::{NicCmd, Verb};
use crate::types::{FabricError, NodeId, QpNum, QpState, Result, Transport};
use crate::verbs::{Completion, RecvWr, SendOp, SendWr};

/// `Qp::remote` while the QP has no peer.
const NO_PEER: u64 = u64::MAX;

/// A queue pair: a send queue / receive queue pair bound to two CQs.
///
/// What every verb reads is atomic: the state (`state`, a [`QpState`]
/// byte), the connected peer (`remote`, node id and QP number packed in
/// one word) and the lease `epoch`. Only the control plane changes the
/// first two — connect, [`Qp::ready`], [`Qp::reset`] and the move to
/// the error state — and it does so under `transition`, a lock the data
/// path never takes: transitions stay serialized, and a post or a NIC
/// lane pays two loads for what used to be two lock round trips. The
/// peer is stored before the state that makes it usable, so a reader
/// that sees `Rts` sees the peer.
///
/// The CQ bindings sit behind a mutex so a pooled QP can be *rebound* to
/// its next lessee's CQs on reuse (`crates/fabric/src/qpool.rs`); the
/// NIC pushes completions through the binding, under that lock. The
/// `epoch` counter is stamped into every posted work request and bumped
/// by [`Qp::reset`], so an engine lane silently drops work posted in a
/// previous lease instead of executing it against the new connection.
///
/// An inline write ([`Qp::post_inline`]) carries its payload in a
/// buffer the NIC lane hands back to `spent` once it has executed the
/// write; the next [`Qp::inline_buf`] reuses it, so the buffers grow to
/// the QP's in-flight high-water mark and then stop allocating.
#[derive(Debug)]
pub struct Qp {
    node: NodeId,
    qpn: QpNum,
    transport: Transport,
    state: AtomicU8,
    remote: AtomicU64,
    transition: Mutex<()>,
    send_cq: Mutex<Arc<CompletionQueue>>,
    recv_cq: Mutex<Arc<CompletionQueue>>,
    recv_queue: Mutex<VecDeque<RecvWr>>,
    epoch: AtomicU64,
    engine: DoorbellSender<NicCmd>,
    spent: Mutex<Vec<Vec<u8>>>,
}

impl Qp {
    pub(crate) fn new(
        node: NodeId,
        qpn: QpNum,
        transport: Transport,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        engine: DoorbellSender<NicCmd>,
    ) -> Arc<Qp> {
        Arc::new(Qp {
            node,
            qpn,
            transport,
            state: AtomicU8::new(QpState::Init as u8),
            remote: AtomicU64::new(NO_PEER),
            transition: Mutex::new(()),
            send_cq: Mutex::new(send_cq),
            recv_cq: Mutex::new(recv_cq),
            recv_queue: Mutex::new(VecDeque::new()),
            epoch: AtomicU64::new(0),
            engine,
            spent: Mutex::new(Vec::new()),
        })
    }

    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queue pair number.
    pub fn qpn(&self) -> QpNum {
        self.qpn
    }

    /// Transport service type.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        QpState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// The connected peer, if any.
    pub fn remote(&self) -> Option<(NodeId, QpNum)> {
        let peer = self.remote.load(Ordering::Acquire);
        (peer != NO_PEER).then_some((NodeId((peer >> 32) as u32), QpNum(peer as u32)))
    }

    /// Send-side completion queue (current binding).
    pub fn send_cq(&self) -> Arc<CompletionQueue> {
        Arc::clone(&self.send_cq.lock())
    }

    /// Receive-side completion queue (current binding).
    pub fn recv_cq(&self) -> Arc<CompletionQueue> {
        Arc::clone(&self.recv_cq.lock())
    }

    /// Deliver a send-side completion to the current binding.
    pub(crate) fn complete_send(&self, c: Completion) {
        self.send_cq.lock().push(c);
    }

    /// Deliver a receive-side completion to the current binding.
    pub(crate) fn complete_recv(&self, c: Completion) {
        self.recv_cq.lock().push(c);
    }

    /// The QP's lease epoch. Stamped into posted work; bumped by
    /// [`Qp::reset`] so stale work from a previous lease is dropped by
    /// the engine instead of executing against the new connection.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Check `wr` against the transport and the connection: what
    /// [`Qp::post_send`] validates besides the state.
    fn validate(&self, wr: &SendWr) -> Result<()> {
        if !wr.op.supported_on(self.transport) {
            return Err(FabricError::UnsupportedVerb {
                transport: self.transport,
                verb: wr.op.name(),
            });
        }
        let len = wr.op.byte_len();
        if len > self.transport.max_msg_size() {
            return Err(FabricError::PayloadTooLarge {
                len,
                max: self.transport.max_msg_size(),
            });
        }
        if self.transport.connected() {
            if wr.dst.is_some() {
                return Err(FabricError::MissingDestination); // dst must come from the connection
            }
            if self.remote().is_none() {
                return Err(FabricError::NotConnected);
            }
        } else if wr.dst.is_none() {
            return Err(FabricError::MissingDestination);
        }
        Ok(())
    }

    /// The lease epoch to stamp on work about to be validated, and
    /// whether the QP is ready to send. The epoch is loaded first:
    /// [`Qp::reset`] publishes `Init` before it bumps the epoch, so a
    /// post that sees the new epoch sees `Init` or a later lease's
    /// state, and work validated against a lease never carries the
    /// next lease's epoch.
    fn ready_epoch(&self) -> Result<u64> {
        let epoch = self.epoch();
        match self.state() {
            QpState::Rts => Ok(epoch),
            state => Err(FabricError::InvalidState(state)),
        }
    }

    /// Post a send-side work request.
    ///
    /// Validates state, verb support, MTU, and addressing before handing
    /// the request to the NIC engine. Local/remote memory validation
    /// happens asynchronously in the engine and is reported via the CQ.
    pub fn post_send(&self, wr: SendWr) -> Result<()> {
        self.post(wr, None)
    }

    /// Post `wr`, an RDMA write of `payload.len()` bytes, with its
    /// payload inline (verbs `IBV_SEND_INLINE`): the bytes travel in
    /// the work request and the NIC writes them to the remote address
    /// without reading the local SGE, whose key it ignores. The SGE's
    /// length still prices the write, exactly as if it were read. Take
    /// `payload` from [`Qp::inline_buf`]; the NIC hands it back.
    pub fn post_inline(&self, wr: SendWr, payload: Vec<u8>) -> Result<()> {
        match wr.op {
            SendOp::Write { local, .. } if local.len == payload.len() => {
                self.post(wr, Some(payload))
            }
            _ => Err(FabricError::UnsupportedVerb {
                transport: self.transport,
                verb: "inline (a write of the payload's length)",
            }),
        }
    }

    /// A zeroed buffer of `len` bytes for a [`Qp::post_inline`] payload:
    /// a spent one when the NIC has handed one back.
    pub fn inline_buf(&self, len: usize) -> Vec<u8> {
        let spent = self.spent.lock().pop();
        let mut buf = spent.unwrap_or_else(|| Vec::with_capacity(len));
        buf.resize(len, 0);
        buf
    }

    /// Hand back the payload of an inline write the NIC is done with.
    pub(crate) fn recycle_inline(&self, mut payload: Vec<u8>) {
        payload.clear();
        self.spent.lock().push(payload);
    }

    /// Validate `wr` and hand it, with its inline `payload` if any, to
    /// the NIC engine.
    fn post(&self, wr: SendWr, payload: Option<Vec<u8>>) -> Result<()> {
        let epoch = self.ready_epoch()?;
        self.validate(&wr)?;
        self.enqueue(Verb { epoch, wr, payload })
    }

    /// Hand validated work to the NIC engine.
    fn enqueue(&self, verb: Verb) -> Result<()> {
        self.engine
            .send(NicCmd::Post {
                src_qpn: self.qpn,
                verb,
            })
            .map_err(|_| FabricError::Shutdown)
    }

    /// Post a chain of linked send work requests with a single doorbell
    /// (the verbs `ibv_post_send` list form; Flock's leader uses this to
    /// submit the batch's one-sided operations, paper §6).
    ///
    /// Validation is all-or-nothing: if any request in the chain fails
    /// validation, nothing is posted.
    pub fn post_send_many(&self, wrs: &[SendWr]) -> Result<()> {
        let epoch = self.ready_epoch()?;
        for wr in wrs {
            self.validate(wr)?;
        }
        for wr in wrs {
            self.enqueue(Verb {
                epoch,
                wr: *wr,
                payload: None,
            })?;
        }
        Ok(())
    }

    /// Post a receive buffer. Legal in any non-error state.
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        let state = self.state();
        if state == QpState::Error {
            return Err(FabricError::InvalidState(state));
        }
        self.recv_queue.lock().push_back(wr);
        Ok(())
    }

    pub(crate) fn pop_recv(&self) -> Option<RecvWr> {
        self.recv_queue.lock().pop_front()
    }

    /// Move from `Init` to `Rts` under the transition lock, publishing
    /// `peer` first.
    fn bring_up(&self, peer: Option<(NodeId, QpNum)>) -> Result<()> {
        let _transition = self.transition.lock();
        let state = self.state();
        if state != QpState::Init {
            return Err(FabricError::InvalidState(state));
        }
        if let Some((node, qpn)) = peer {
            let packed = u64::from(node.0) << 32 | u64::from(qpn.0);
            self.remote.store(packed, Ordering::Release);
        }
        self.state.store(QpState::Rts as u8, Ordering::Release);
        Ok(())
    }

    pub(crate) fn set_connected(&self, peer: (NodeId, QpNum)) -> Result<()> {
        if !self.transport.connected() {
            return Err(FabricError::UnsupportedVerb {
                transport: self.transport,
                verb: "connect",
            });
        }
        self.bring_up(Some(peer))
    }

    /// Transition an unconnected (UD) QP to ready-to-send.
    pub fn ready(&self) -> Result<()> {
        if self.transport.connected() {
            return Err(FabricError::UnsupportedVerb {
                transport: self.transport,
                verb: "ready (use connect)",
            });
        }
        self.bring_up(None)
    }

    /// Force the QP into the error state (flushing semantics are handled by
    /// the engine as it encounters the state).
    pub(crate) fn set_error(&self) {
        let _transition = self.transition.lock();
        self.state.store(QpState::Error as u8, Ordering::Release);
    }

    /// Reset the QP for reuse (verbs modify-to-RESET): back to `Init`,
    /// peer and posted receives cleared, lease epoch bumped so any work
    /// still queued in the engine from the previous lease is silently
    /// dropped. The QP number and lane pinning are preserved — that is
    /// the whole point of pooling (no NIC state reallocation).
    pub fn reset(&self) {
        let _transition = self.transition.lock();
        // `Init` before the epoch bump: a post racing with reset either
        // loads the old epoch (its work is dropped by the engine's epoch
        // check, whatever state it then sees) or loads the new one and
        // then sees `Init` (rejected outright) or a later lease's state.
        self.state.store(QpState::Init as u8, Ordering::Release);
        self.remote.store(NO_PEER, Ordering::Release);
        self.recv_queue.lock().clear();
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Rebind the QP's completion queues to a new lessee's CQs. Only
    /// meaningful in the `Init` state (freshly created or reset); the
    /// pool calls this on lease before the QP is connected.
    pub(crate) fn rebind_cqs(
        &self,
        send_cq: &Arc<CompletionQueue>,
        recv_cq: &Arc<CompletionQueue>,
    ) {
        *self.send_cq.lock() = Arc::clone(send_cq);
        *self.recv_cq.lock() = Arc::clone(recv_cq);
    }
}
