//! Queue pairs.
//!
//! A [`Qp`] validates posted work against its transport's capabilities
//! (paper Table 1) and its connection state, then hands send-side work to
//! the node's NIC engine. Receive-side buffers are queued locally and
//! consumed by inbound two-sided traffic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::chan::DoorbellSender;
use crate::cq::CompletionQueue;
use crate::nic::NicCmd;
use crate::types::{FabricError, NodeId, QpNum, QpState, Result, Transport};
use crate::verbs::{RecvWr, SendWr};

/// A queue pair: a send queue / receive queue pair bound to two CQs.
///
/// The CQ bindings sit behind a mutex so a pooled QP can be *rebound* to
/// its next lessee's CQs on reuse (`crates/fabric/src/qpool.rs`); the
/// `epoch` counter is stamped into every posted work request and bumped
/// by [`Qp::reset`], so an engine lane silently drops work posted in a
/// previous lease instead of executing it against the new connection.
#[derive(Debug)]
pub struct Qp {
    node: NodeId,
    qpn: QpNum,
    transport: Transport,
    state: Mutex<QpState>,
    remote: Mutex<Option<(NodeId, QpNum)>>,
    send_cq: Mutex<Arc<CompletionQueue>>,
    recv_cq: Mutex<Arc<CompletionQueue>>,
    recv_queue: Mutex<VecDeque<RecvWr>>,
    epoch: AtomicU64,
    engine: DoorbellSender<NicCmd>,
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
            state: Mutex::new(QpState::Init),
            remote: Mutex::new(None),
            send_cq: Mutex::new(send_cq),
            recv_cq: Mutex::new(recv_cq),
            recv_queue: Mutex::new(VecDeque::new()),
            epoch: AtomicU64::new(0),
            engine,
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
        *self.state.lock()
    }

    /// The connected peer, if any.
    pub fn remote(&self) -> Option<(NodeId, QpNum)> {
        *self.remote.lock()
    }

    /// Send-side completion queue (current binding).
    pub fn send_cq(&self) -> Arc<CompletionQueue> {
        Arc::clone(&self.send_cq.lock())
    }

    /// Receive-side completion queue (current binding).
    pub fn recv_cq(&self) -> Arc<CompletionQueue> {
        Arc::clone(&self.recv_cq.lock())
    }

    /// The QP's lease epoch. Stamped into posted work; bumped by
    /// [`Qp::reset`] so stale work from a previous lease is dropped by
    /// the engine instead of executing against the new connection.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Post a send-side work request.
    ///
    /// Validates state, verb support, MTU, and addressing before handing
    /// the request to the NIC engine. Local/remote memory validation
    /// happens asynchronously in the engine and is reported via the CQ.
    pub fn post_send(&self, wr: SendWr) -> Result<()> {
        let state = *self.state.lock();
        if state != QpState::Rts {
            return Err(FabricError::InvalidState(state));
        }
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
            if self.remote.lock().is_none() {
                return Err(FabricError::NotConnected);
            }
        } else if wr.dst.is_none() {
            return Err(FabricError::MissingDestination);
        }
        self.engine
            .send(NicCmd::Post {
                src_qpn: self.qpn,
                epoch: self.epoch.load(Ordering::Acquire),
                wr,
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
        let state = *self.state.lock();
        if state != QpState::Rts {
            return Err(FabricError::InvalidState(state));
        }
        for wr in wrs {
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
                    return Err(FabricError::MissingDestination);
                }
                if self.remote.lock().is_none() {
                    return Err(FabricError::NotConnected);
                }
            } else if wr.dst.is_none() {
                return Err(FabricError::MissingDestination);
            }
        }
        let epoch = self.epoch.load(Ordering::Acquire);
        for wr in wrs {
            self.engine
                .send(NicCmd::Post {
                    src_qpn: self.qpn,
                    epoch,
                    wr: *wr,
                })
                .map_err(|_| FabricError::Shutdown)?;
        }
        Ok(())
    }

    /// Post a receive buffer. Legal in any non-error state.
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        let state = *self.state.lock();
        if state == QpState::Error {
            return Err(FabricError::InvalidState(state));
        }
        self.recv_queue.lock().push_back(wr);
        Ok(())
    }

    pub(crate) fn pop_recv(&self) -> Option<RecvWr> {
        self.recv_queue.lock().pop_front()
    }

    pub(crate) fn set_connected(&self, peer: (NodeId, QpNum)) -> Result<()> {
        if !self.transport.connected() {
            return Err(FabricError::UnsupportedVerb {
                transport: self.transport,
                verb: "connect",
            });
        }
        let mut state = self.state.lock();
        if *state != QpState::Init {
            return Err(FabricError::InvalidState(*state));
        }
        *self.remote.lock() = Some(peer);
        *state = QpState::Rts;
        Ok(())
    }

    /// Transition an unconnected (UD) QP to ready-to-send.
    pub fn ready(&self) -> Result<()> {
        if self.transport.connected() {
            return Err(FabricError::UnsupportedVerb {
                transport: self.transport,
                verb: "ready (use connect)",
            });
        }
        let mut state = self.state.lock();
        if *state != QpState::Init {
            return Err(FabricError::InvalidState(*state));
        }
        *state = QpState::Rts;
        Ok(())
    }

    /// Force the QP into the error state (flushing semantics are handled by
    /// the engine as it encounters the state).
    pub(crate) fn set_error(&self) {
        *self.state.lock() = QpState::Error;
    }

    /// Reset the QP for reuse (verbs modify-to-RESET): back to `Init`,
    /// peer and posted receives cleared, lease epoch bumped so any work
    /// still queued in the engine from the previous lease is silently
    /// dropped. The QP number and lane pinning are preserved — that is
    /// the whole point of pooling (no NIC state reallocation).
    pub fn reset(&self) {
        let mut state = self.state.lock();
        // Bump under the state lock, before the state change is visible:
        // a post_send racing with reset either sees Rts and stamps the
        // old epoch (its work is dropped by the engine's epoch check) or
        // sees Init and is rejected outright.
        self.epoch.fetch_add(1, Ordering::Release);
        *self.remote.lock() = None;
        self.recv_queue.lock().clear();
        *state = QpState::Init;
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
