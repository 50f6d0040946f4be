//! Connection bootstrap: the out-of-band control plane.
//!
//! Real RDMA deployments exchange QP numbers, rkeys and ring addresses over
//! TCP (or RDMA CM) before the first verb is posted. In this in-process
//! reproduction the control plane is a name registry plus a channel-based
//! request/reply handshake — it carries exactly the information a TCP
//! bootstrap would.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{Receiver, TryRecvError};
use flock_fabric::{doorbell, DoorbellSender, Fabric, FabricConfig, Node, NodeId, Qp, QpNum, Rkey};
use flock_sync::clock::Event;
use flock_sync::AdaptiveBackoff;
use parking_lot::Mutex;

use crate::error::{FlockError, Result};

/// Geometry of one ring buffer exposed to the peer.
#[derive(Debug, Clone, Copy)]
pub struct RingInfo {
    /// Remote key of the memory region backing the ring.
    pub rkey: Rkey,
    /// Virtual address of the ring's first byte.
    pub addr: u64,
    /// Ring capacity in bytes.
    pub capacity: usize,
}

impl RingInfo {
    /// The geometry of a ring that fills `mr`.
    pub fn of(mr: &flock_fabric::MemoryRegion) -> RingInfo {
        RingInfo {
            rkey: mr.rkey(),
            addr: mr.addr(),
            capacity: mr.len(),
        }
    }
}

/// A server memory region advertised for one-sided operations
/// (`fl_attach_mreg`, paper Table 2).
#[derive(Debug, Clone, Copy)]
pub struct MemRegionInfo {
    /// Remote key.
    pub rkey: Rkey,
    /// Base virtual address.
    pub addr: u64,
    /// Length in bytes.
    pub len: usize,
}

/// Connection request sent by a client to a listening server.
pub struct ConnectRequest {
    /// The client's node id.
    pub client_node: NodeId,
    /// The client's QPs, one per connection-handle lane.
    pub client_qps: Vec<Arc<Qp>>,
    /// Response rings on the client, one per QP (server writes here).
    pub response_rings: Vec<RingInfo>,
    /// Tenant this connection acts for (gateway topology; 0 is the
    /// default tenant). The server groups senders by tenant for AQP
    /// share caps and per-tenant accounting.
    pub tenant: u32,
    /// Channel for the server's reply.
    pub reply: DoorbellSender<Result<ConnectReply>>,
}

/// Server's reply to a [`ConnectRequest`].
#[derive(Debug, Clone)]
pub struct ConnectReply {
    /// The server's node id.
    pub server_node: NodeId,
    /// The server's QP numbers paired 1:1 with the client's QPs.
    pub server_qps: Vec<QpNum>,
    /// Request rings on the server, one per QP (client writes here).
    pub request_rings: Vec<RingInfo>,
    /// Memory regions advertised for one-sided operations.
    pub memory_regions: Vec<MemRegionInfo>,
    /// Bootstrap credits per QP.
    pub initial_credits: u32,
    /// The sender id the server assigned to this client.
    pub sender_id: u32,
}

/// Request to materialize one additional data lane on an existing
/// connection (lazy QP creation: `fl_connect` came back after a single
/// control QP; the remaining lanes attach on first use).
pub(crate) struct AttachRequest {
    /// The sender id the server assigned at connect time.
    pub sender_id: u32,
    /// The lane index being materialized (dense, `1..n_qps`).
    pub lane: usize,
    /// The client's freshly leased QP for this lane.
    pub client_qp: Arc<Qp>,
    /// Response ring on the client for this lane.
    pub response_ring: RingInfo,
    /// Channel for the server's reply.
    pub reply: DoorbellSender<Result<AttachReply>>,
}

/// Server's reply to an [`AttachRequest`].
#[derive(Debug, Clone)]
pub(crate) struct AttachReply {
    /// Request ring on the server for this lane.
    pub request_ring: RingInfo,
    /// Bootstrap credits for the lane.
    pub initial_credits: u32,
}

/// Request to pair a dedicated one-sided ("mem") QP with a live
/// connection — the conventional FaRM/HERD-style per-thread QP design,
/// used as the one-sided baseline in the crossover experiments. The
/// server leases a passive peer QP and connects the pair; mem QPs carry
/// only one-sided verbs, join no dispatch shard and no QP-scheduler
/// sender, and are released in one batch at detach. That uncoordinated
/// per-client NIC state is exactly what the paper's RPC design
/// amortizes away (§2).
pub(crate) struct AttachMemRequest {
    /// The sender id the server assigned at connect time.
    pub sender_id: u32,
    /// The client's freshly leased per-thread QP.
    pub client_qp: Arc<Qp>,
    /// Channel for the server's reply.
    pub reply: DoorbellSender<Result<()>>,
}

/// A named, exported slice of server memory a client may read with
/// one-sided verbs: `slots` fixed-`stride` records starting at
/// `region.addr`. The lease is self-contained — a client computes the
/// [`flock_fabric::RemoteAddr`] of slot `i` as
/// `region.addr + i * stride` with `region.rkey`, with no further
/// control-plane traffic per read.
#[derive(Debug, Clone)]
pub struct SegmentLease {
    /// Export name chosen by the server (e.g. `"kv-values"`).
    pub name: String,
    /// The backing memory region (rkey, base address, length).
    pub region: MemRegionInfo,
    /// Bytes per slot.
    pub stride: u32,
    /// Number of slots.
    pub slots: u32,
    /// Layout-specific metadata the exporter wants the reader to know
    /// (e.g. the value capacity inside a versioned slot).
    pub meta: u64,
}

/// Request for the server's exported one-sided segments.
pub(crate) struct ExportRequest {
    /// If set, only segments whose name matches exactly are returned.
    pub filter: Option<String>,
    /// Channel for the server's reply.
    pub reply: DoorbellSender<Result<ExportReply>>,
}

/// Server's reply to an [`ExportRequest`].
#[derive(Debug, Clone)]
pub(crate) struct ExportReply {
    /// The matching segment leases, in registration order.
    pub segments: Vec<SegmentLease>,
}

/// Request to gracefully tear a connection down. The server quiesces
/// the departing sender's QPs out of its dispatch shards before
/// replying, so the client can recycle its resources immediately.
pub(crate) struct DetachRequest {
    /// The sender id being detached.
    pub sender_id: u32,
    /// Channel for the server's acknowledgement.
    pub reply: DoorbellSender<Result<()>>,
}

/// A control-plane message carried over a server's listener channel.
///
/// Real deployments multiplex connection setup, lane attach, and
/// teardown over one out-of-band TCP session; this enum is that
/// session's wire format. Requests and replies travel on
/// [`flock_fabric::doorbell`] channels, so a virtual task waiting for
/// either runs no poll before the send ([`reply_channel`],
/// [`await_reply`]).
pub(crate) enum CtrlMsg {
    /// Full connection handshake.
    Connect(ConnectRequest),
    /// Materialize one more data lane on a live connection.
    Attach(AttachRequest),
    /// Pair a dedicated one-sided QP with a live connection.
    AttachMem(AttachMemRequest),
    /// Graceful teardown of a live connection.
    Detach(DetachRequest),
    /// Fetch the server's exported one-sided segment leases.
    Export(ExportRequest),
    /// Sent by the server to itself at shutdown, to wake its accept
    /// loop out of a blocked receive.
    Stop,
}

/// The in-process "datacenter": a fabric plus a server name registry.
pub struct FlockDomain {
    fabric: Fabric,
    listeners: Mutex<HashMap<String, DoorbellSender<CtrlMsg>>>,
}

impl FlockDomain {
    /// Create a domain over a fabric with the given configuration.
    pub fn new(config: FabricConfig) -> FlockDomain {
        FlockDomain {
            fabric: Fabric::new(config),
            listeners: Mutex::new(HashMap::new()),
        }
    }

    /// Create a domain with default fabric configuration.
    pub fn with_defaults() -> FlockDomain {
        FlockDomain::new(FabricConfig::default())
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Attach a new machine to the domain.
    pub fn add_node(&self, name: &str) -> Arc<Node> {
        self.fabric.add_node(name)
    }

    /// Register a listening server under `name`. Returns the receive side
    /// via the provided channel capacity.
    pub(crate) fn register_listener(&self, name: &str, tx: DoorbellSender<CtrlMsg>) {
        self.listeners.lock().insert(name.to_string(), tx);
    }

    /// Remove a listener (server shutdown).
    pub(crate) fn unregister_listener(&self, name: &str) {
        self.listeners.lock().remove(name);
    }

    /// Look up the control channel of the named server. Clients hold on
    /// to this for the lifetime of a connection so later attach/detach
    /// messages skip the registry.
    pub(crate) fn control(&self, name: &str) -> Result<DoorbellSender<CtrlMsg>> {
        self.listeners
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| FlockError::UnknownRemote(name.to_string()))
    }

    /// Send a connection request to the named server and await the reply.
    ///
    /// Public so alternative clients (e.g., the FaRM-style baseline) can
    /// perform the same handshake against a Flock server.
    pub fn dial(&self, name: &str, req: ConnectRequest) -> Result<ConnectReply> {
        let tx = self.control(name)?;
        let (reply_tx, reply) = reply_channel();
        let req = ConnectRequest {
            reply: reply_tx,
            ..req
        };
        tx.send(CtrlMsg::Connect(req))
            .map_err(|_| FlockError::Disconnected)?;
        await_reply(&reply)
    }
}

/// Receiving half of a [`reply_channel`]: the channel and the event its
/// sender notifies.
pub(crate) type ReplyReceiver<T> = (Receiver<Result<T>>, Arc<Event>);

/// A channel for one control-plane reply: the sender goes into the
/// request's `reply` field, the receiver to [`await_reply`].
pub fn reply_channel<T>() -> (DoorbellSender<Result<T>>, ReplyReceiver<T>) {
    let (tx, rx, rung) = doorbell();
    (tx, (rx, rung))
}

/// Await a control-plane reply; `Disconnected` when the reply sender is
/// dropped unanswered.
///
/// The waiter idles through an [`AdaptiveBackoff`] ladder: a connect
/// storm runs hundreds of dialers concurrently, and a fixed fine-grained
/// poll period would multiply the event count by the storm width while a
/// reply is still tens of microseconds of control-QP work away.
pub(crate) fn await_reply<T>((rx, rung): &ReplyReceiver<T>) -> Result<T> {
    let mut idle = AdaptiveBackoff::new().with_virtual_cap(50_000);
    loop {
        let seen = rung.epoch();
        match rx.try_recv() {
            Ok(reply) => return reply,
            Err(TryRecvError::Disconnected) => return Err(FlockError::Disconnected),
            Err(TryRecvError::Empty) => idle.idle_on(rung, seen, 0, u64::MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_remote_is_an_error() {
        let domain = FlockDomain::with_defaults();
        let node = domain.add_node("c");
        let (tx, _rx) = reply_channel();
        let req = ConnectRequest {
            client_node: node.id(),
            client_qps: vec![],
            response_rings: vec![],
            tenant: 0,
            reply: tx,
        };
        assert!(matches!(
            domain.dial("nobody", req),
            Err(FlockError::UnknownRemote(_))
        ));
    }

    #[test]
    fn listener_registry_roundtrip() {
        let domain = FlockDomain::with_defaults();
        let (tx, rx, rung) = doorbell();
        domain.register_listener("srv", tx);
        let node = domain.add_node("c");
        let (dummy_tx, _d) = reply_channel();
        // Dial from another thread; accept inline.
        let handle = {
            let req = ConnectRequest {
                client_node: node.id(),
                client_qps: vec![],
                response_rings: vec![],
                tenant: 0,
                reply: dummy_tx,
            };
            std::thread::spawn({
                let domain: &FlockDomain = &domain;
                // SAFETY-free: scoped by join below; use Arc in real code.
                let tx2 = domain.listeners.lock().get("srv").cloned().unwrap();
                move || {
                    let (reply_tx, (reply_rx, reply_rung)) = reply_channel();
                    let req = ConnectRequest {
                        reply: reply_tx,
                        ..req
                    };
                    tx2.send(CtrlMsg::Connect(req)).unwrap();
                    reply_rung
                        .wait_until(u64::MAX, 1_000, || reply_rx.try_recv().ok())
                        .unwrap()
                }
            })
        };
        let msg = rung.wait_until(u64::MAX, 1_000, || rx.try_recv().ok());
        let Some(CtrlMsg::Connect(req)) = msg else {
            panic!("expected a connect");
        };
        req.reply
            .send(Ok(ConnectReply {
                server_node: NodeId(0),
                server_qps: vec![],
                request_rings: vec![],
                memory_regions: vec![],
                initial_credits: 32,
                sender_id: 7,
            }))
            .unwrap();
        let reply = handle.join().unwrap().unwrap();
        assert_eq!(reply.sender_id, 7);
        domain.unregister_listener("srv");
        assert!(domain.listeners.lock().is_empty());
    }

    /// Dial a listener that drops the connect request — and with it the
    /// reply's only sender — without answering.
    fn dial_a_mute_listener() -> Result<ConnectReply> {
        let domain = FlockDomain::with_defaults();
        let (tx, rx, rung) = doorbell();
        domain.register_listener("mute", tx);
        let listener = flock_sync::clock::spawn("mute-listener", move || {
            drop(rung.wait_until(u64::MAX, 1_000, || rx.try_recv().ok()));
        });
        let (reply, _) = reply_channel();
        let req = ConnectRequest {
            client_node: NodeId(0),
            client_qps: vec![],
            response_rings: vec![],
            tenant: 0,
            reply,
        };
        let dialed = domain.dial("mute", req);
        listener.join().unwrap();
        dialed
    }

    #[test]
    fn a_reply_dropped_unanswered_is_disconnected_on_threads() {
        assert!(matches!(
            dial_a_mute_listener(),
            Err(FlockError::Disconnected)
        ));
    }

    #[test]
    fn a_reply_dropped_unanswered_is_disconnected_in_the_lab() {
        let dialed = flock_sim::vtime::VirtualLab::run(dial_a_mute_listener);
        assert!(matches!(dialed, Err(FlockError::Disconnected)));
    }
}
