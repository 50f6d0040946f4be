//! A UD-datagram RPC baseline in the style of eRPC / FaSST.
//!
//! Everything hardware RC gives Flock for free is done in software here:
//! requests and responses are fragmented to the 4 KB UD MTU and
//! reassembled; loss is recovered by client retransmission timers; the
//! server spends CPU per packet polling its completion queue and
//! recycling the receive buffer — the overhead the paper's Figure 2(b)
//! measures, charged as the model's UD path (`flock-models`) charges it.
//! As in eRPC and FaSST, each client thread owns its endpoint and runs
//! its receive loop inside its own call; the server is one stepper
//! parked on its completion queue.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use flock_core::{FlockError, Result};
use flock_sync::clock::{self, Event, IdleOn, Next, TaskHandle};
use flock_sync::{AdaptiveBackoff, Counter, Stop};

use flock_fabric::{
    Access, CompletionQueue, CostModel, CqOpcode, MemoryRegion, Node, NodeId, Qp, QpNum, RecvWr,
    SendWr, Sge, Transport, WrId, GRH_BYTES,
};

/// A UD address: node and QP number.
type Addr = (NodeId, QpNum);

/// The UD MTU: one packet, header included.
const MTU: usize = 4096;
/// Packet header: kind, rpc id, seq, fragment index/count, length.
const PKT_HDR: usize = 1 + 4 + 8 + 2 + 2 + 4;
/// Maximum payload bytes per UD packet.
const FRAG_PAYLOAD: usize = MTU - PKT_HDR;
/// A receive buffer: one packet behind the GRH the NIC deposits.
const RECV_SLOT: usize = MTU + GRH_BYTES;
/// Receive buffers each endpoint keeps posted.
const RECV_DEPTH: usize = 256;
/// Staging slots of each endpoint: the sends it may have in flight.
const SEND_SLOTS: u64 = 64;

const KIND_REQ: u8 = 1;
const KIND_RESP: u8 = 2;

/// Configuration of a UD RPC client.
#[derive(Debug, Clone)]
pub struct UdRpcConfig {
    /// Client retransmission timeout.
    pub rto: Duration,
    /// Retransmissions before a call gives up with [`FlockError::Timeout`].
    pub max_retries: u32,
}

impl Default for UdRpcConfig {
    fn default() -> Self {
        UdRpcConfig {
            rto: Duration::from_millis(20),
            max_retries: 50,
        }
    }
}

fn encode_pkt(kind: u8, rpc_id: u32, seq: u64, frag: u16, nfrags: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PKT_HDR + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&rpc_id.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&frag.to_le_bytes());
    buf.extend_from_slice(&nfrags.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

struct Pkt {
    kind: u8,
    rpc_id: u32,
    seq: u64,
    frag: u16,
    nfrags: u16,
    payload: Vec<u8>,
}

fn decode_pkt(b: &[u8]) -> Option<Pkt> {
    let len = u32::from_le_bytes(b.get(17..PKT_HDR)?.try_into().ok()?) as usize;
    Some(Pkt {
        kind: b[0],
        rpc_id: u32::from_le_bytes(b[1..5].try_into().ok()?),
        seq: u64::from_le_bytes(b[5..13].try_into().ok()?),
        frag: u16::from_le_bytes(b[13..15].try_into().ok()?),
        nfrags: u16::from_le_bytes(b[15..17].try_into().ok()?),
        payload: b.get(PKT_HDR..PKT_HDR + len)?.to_vec(),
    })
}

/// One UD QP whose sends and receives complete on one CQ, with
/// [`RECV_DEPTH`] posted receive buffers and [`SEND_SLOTS`] staging
/// slots. The NIC reads a staging slot when it executes the send, so a
/// slot is reused only after its send completed: every send is signaled,
/// a QP completes its sends in post order, and a packet waits in the
/// outbox while no slot is free. Dropping it destroys the QP and then
/// deregisters both regions.
struct Endpoint {
    node: Arc<Node>,
    qp: Arc<Qp>,
    cq: Arc<CompletionQueue>,
    /// Notified by every completion the CQ takes.
    event: Arc<Event>,
    recv: Arc<MemoryRegion>,
    staging: Arc<MemoryRegion>,
    outbox: VecDeque<(Addr, Vec<u8>)>,
    /// Sends posted and sends completed. The slots in use are the
    /// difference; the next one is `posted % SEND_SLOTS`.
    posted: u64,
    completed: u64,
    cost: CostModel,
}

impl Endpoint {
    fn new(node: &Arc<Node>) -> Endpoint {
        let event = Arc::new(Event::new());
        let cq = CompletionQueue::with_event(RECV_DEPTH + SEND_SLOTS as usize, Arc::clone(&event));
        let qp = node.create_qp(Transport::Ud, &cq, &cq);
        qp.ready().expect("UD qp to RTS");
        let ep = Endpoint {
            node: Arc::clone(node),
            qp,
            cq,
            event,
            recv: node.register_mr(RECV_DEPTH * RECV_SLOT, Access::LOCAL),
            staging: node.register_mr(SEND_SLOTS as usize * MTU, Access::LOCAL),
            outbox: VecDeque::new(),
            posted: 0,
            completed: 0,
            cost: node.cost().clone(),
        };
        (0..RECV_DEPTH).for_each(|slot| ep.post_recv(slot));
        ep
    }

    fn post_recv(&self, slot: usize) {
        let _ = self.qp.post_recv(RecvWr {
            wr_id: WrId(slot as u64),
            local: Sge {
                lkey: self.recv.lkey(),
                addr: self.recv.addr() + (slot * RECV_SLOT) as u64,
                len: RECV_SLOT,
            },
        });
    }

    /// Queue the packets of one message to `dst`, and post what the free
    /// staging slots allow.
    fn send(&mut self, dst: Addr, kind: u8, rpc_id: u32, seq: u64, data: &[u8]) {
        let nfrags = data.len().div_ceil(FRAG_PAYLOAD).max(1);
        let nfrags = u16::try_from(nfrags).expect("a message fits 65 535 packets");
        // An empty message is one empty packet.
        let chunks = data.chunks(FRAG_PAYLOAD).chain([&[][..]]);
        for (frag, chunk) in (0..nfrags).zip(chunks) {
            let pkt = encode_pkt(kind, rpc_id, seq, frag, nfrags, chunk);
            self.outbox.push_back((dst, pkt));
        }
        self.flush();
    }

    /// Post queued packets while staging slots are free, each charged its
    /// encode and doorbell. A packet the QP refuses is lost, as on the
    /// wire.
    fn flush(&mut self) {
        let free = (SEND_SLOTS - (self.posted - self.completed)) as usize;
        for (dst, pkt) in self.outbox.drain(..free.min(self.outbox.len())) {
            let off = (self.posted % SEND_SLOTS) as usize * MTU;
            self.staging.write(off, &pkt).expect("staging write");
            let local = Sge {
                lkey: self.staging.lkey(),
                addr: self.staging.addr() + off as u64,
                len: pkt.len(),
            };
            let wr = SendWr::send_to(WrId(self.posted), local, dst);
            if self.qp.post_send(wr).is_ok() {
                self.posted += 1;
            }
            clock::charge(self.cost.cpu_codec_ns + self.cost.cpu_doorbell_ns);
        }
    }

    /// The check of a call's wait: drain the CQ, which posts the rest of
    /// the request into freed staging slots, keeps the fragments of reply
    /// `seq` from `server` and drops any packet of an earlier call's.
    /// `Some` once the reply is whole.
    fn reply(&mut self, server: Addr, seq: u64, r: &mut Option<Reassembly>) -> Option<Vec<u8>> {
        while !self.cq.is_empty() {
            match self.poll() {
                Some((src, pkt)) if src == server && pkt.kind == KIND_RESP && pkt.seq == seq => {
                    let whole = r.get_or_insert_with(|| Reassembly::new(pkt.nfrags));
                    if let Some(whole) = whole.add(pkt.frag, pkt.payload) {
                        return Some(whole);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Take one completion off the CQ. A send's frees the staging slots
    /// up to its own for the outbox; a receive's packet is returned with
    /// its sender, its buffer reposted and the CQ poll charged.
    fn poll(&mut self) -> Option<(Addr, Pkt)> {
        let c = self.cq.poll_one()?;
        if c.opcode != CqOpcode::Recv {
            self.completed = c.wr_id.0 + 1;
            self.flush();
            return None;
        }
        clock::charge(self.cost.ud_rx_cpu().0);
        let slot = c.wr_id.0 as usize;
        let len = c.byte_len.saturating_sub(GRH_BYTES);
        let data = self.recv.read_vec(slot * RECV_SLOT + GRH_BYTES, len);
        self.post_recv(slot);
        let pkt = decode_pkt(&data.ok().filter(|_| c.is_ok())?)?;
        Some((c.src?, pkt))
    }
}

impl Drop for Endpoint {
    /// The QP goes first, so the NIC drops a send still queued for it
    /// instead of reading a staging slot that is no longer registered.
    fn drop(&mut self) {
        self.node.destroy_qp(self.qp.qpn());
        self.node.mrs().deregister(self.recv.lkey());
        self.node.mrs().deregister(self.staging.lkey());
    }
}

/// The fragments of one message, by index.
struct Reassembly(Vec<Option<Vec<u8>>>);

impl Reassembly {
    fn new(n: u16) -> Reassembly {
        Reassembly(vec![None; usize::from(n.max(1))])
    }

    /// Keep fragment `idx` unless it is a duplicate or out of range; the
    /// message once every fragment is in.
    fn add(&mut self, idx: u16, data: Vec<u8>) -> Option<Vec<u8>> {
        if let Some(frag @ None) = self.0.get_mut(usize::from(idx)) {
            *frag = Some(data);
        }
        let whole = self.0.iter().all(Option::is_some);
        whole.then(|| self.0.drain(..).flatten().flatten().collect())
    }
}

/// What the server keeps per client endpoint.
#[derive(Default)]
struct Source {
    /// Seq of the last request answered (0: none yet), and its reply.
    seq: u64,
    reply: Vec<u8>,
    /// The newest unanswered request's seq and fragments.
    partial: Option<(u64, Reassembly)>,
}

/// The server's state, owned by its stepper.
struct Serve<F> {
    ep: Endpoint,
    handler: F,
    /// At-most-once state, keyed by the sending endpoint.
    sources: HashMap<Addr, Source>,
    requests: Arc<Counter>,
    stop: Arc<Stop>,
}

impl<F: Fn(u32, &[u8]) -> Vec<u8>> Serve<F> {
    /// Take one completion. A step never waits: a reply with no free
    /// staging slot stays in the outbox until a send completes, which
    /// notifies the event an idle step sleeps on.
    fn step(&mut self) -> Next {
        let seen = self.ep.event.epoch();
        if self.stop.is_set() {
            return Next::Done;
        }
        if self.ep.cq.is_empty() {
            let busy_ns = self.ep.cost.cpu_poll_empty_ns;
            clock::charge(busy_ns);
            return Next::Idle(IdleOn {
                seen,
                busy_ns,
                deadline_ns: u64::MAX,
            });
        }
        if let Some((src, pkt)) = self.ep.poll().filter(|(_, pkt)| pkt.kind == KIND_REQ) {
            self.serve(src, pkt);
        }
        Next::Again
    }

    /// Serve one request packet, charged its session bookkeeping and
    /// decode: run the request once it is whole, once per seq.
    fn serve(&mut self, src: Addr, pkt: Pkt) {
        clock::charge(self.ep.cost.cpu_erpc_session_ns + self.ep.cost.cpu_codec_ns);
        let s = self.sources.entry(src).or_default();
        if pkt.seq <= s.seq {
            // A retransmission of the request answered last gets its
            // reply again; an older request gets nothing.
            if pkt.seq == s.seq && pkt.frag == 0 {
                self.ep.send(src, KIND_RESP, pkt.rpc_id, pkt.seq, &s.reply);
            }
            return;
        }
        let partial = match &mut s.partial {
            Some((seq, _)) if pkt.seq < *seq => return,
            Some((seq, r)) if *seq == pkt.seq => r,
            stale => &mut stale.insert((pkt.seq, Reassembly::new(pkt.nfrags))).1,
        };
        let Some(req) = partial.add(pkt.frag, pkt.payload) else {
            return;
        };
        self.requests.add(1);
        let reply = (self.handler)(pkt.rpc_id, &req);
        self.ep.send(src, KIND_RESP, pkt.rpc_id, pkt.seq, &reply);
        (s.seq, s.reply, s.partial) = (pkt.seq, reply, None);
    }
}

/// The UD RPC server.
pub struct UdRpcServer {
    addr: Addr,
    stop: Arc<Stop>,
    /// The server CQ's event, which its idle stepper sleeps on.
    event: Arc<Event>,
    worker: Option<TaskHandle>,
    /// Requests processed (for CPU-overhead comparisons).
    pub requests: Arc<Counter>,
}

impl UdRpcServer {
    /// The server's UD address, to give to clients out of band.
    pub fn addr(&self) -> (NodeId, QpNum) {
        self.addr
    }

    /// Start serving with `handler`.
    pub fn start(
        node: &Arc<Node>,
        handler: impl Fn(u32, &[u8]) -> Vec<u8> + Send + 'static,
    ) -> UdRpcServer {
        let ep = Endpoint::new(node);
        let (addr, event) = ((node.id(), ep.qp.qpn()), Arc::clone(&ep.event));
        let stop = Arc::new(Stop::new());
        let requests = Arc::new(Counter::default());
        let mut serve = Serve {
            ep,
            handler,
            sources: HashMap::new(),
            requests: Arc::clone(&requests),
            stop: Arc::clone(&stop),
        };
        // A polling core, like a dispatch shard: its idle ladder stays
        // at the 1 µs scale under the lab.
        let idler = AdaptiveBackoff::new().with_virtual_cap(1_000);
        let step = move || serve.step();
        let worker = clock::spawn_stepper("ud-rpc-server", idler, Arc::clone(&event), step);
        UdRpcServer {
            addr,
            stop,
            event,
            worker: Some(worker),
            requests,
        }
    }

    /// Stop the server's stepper.
    pub fn shutdown(&mut self) {
        self.stop.set([&*self.event]);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for UdRpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The UD RPC client: hands each sending thread an endpoint of its own.
pub struct UdRpcClient {
    node: Arc<Node>,
    server: Addr,
    cfg: UdRpcConfig,
    /// Total retransmissions performed (observability for loss tests).
    pub retransmissions: Arc<Counter>,
}

/// A sending thread of a [`UdRpcClient`]: its own endpoint, one call at
/// a time.
pub struct UdThread {
    ep: Endpoint,
    server: Addr,
    cfg: UdRpcConfig,
    retransmissions: Arc<Counter>,
    /// Seq of the next call.
    seq: u64,
}

impl UdRpcClient {
    /// Connect a client on `node` to the server at `server`.
    pub fn connect(node: &Arc<Node>, server: (NodeId, QpNum), cfg: UdRpcConfig) -> UdRpcClient {
        UdRpcClient {
            node: Arc::clone(node),
            server,
            cfg,
            retransmissions: Arc::new(Counter::default()),
        }
    }

    /// Register a sending thread.
    pub fn register_thread(&self) -> UdThread {
        UdThread {
            ep: Endpoint::new(&self.node),
            server: self.server,
            cfg: self.cfg.clone(),
            retransmissions: Arc::clone(&self.retransmissions),
            seq: 1,
        }
    }
}

impl UdThread {
    /// Blocking RPC with retransmission on loss: post the request, wait
    /// on the endpoint's CQ for the reply, and post it again after each
    /// `rto` without one. [`FlockError::Timeout`] once `max_retries`
    /// retransmissions went unanswered.
    pub fn call(&mut self, rpc_id: u32, payload: &[u8]) -> Result<Vec<u8>> {
        let (seq, server) = (self.seq, self.server);
        self.seq += 1;
        let event = Arc::clone(&self.ep.event);
        let mut reply = None;
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 {
                self.retransmissions.add(1);
            }
            self.ep.send(server, KIND_REQ, rpc_id, seq, payload);
            let rto = clock::deadline(self.cfg.rto);
            let got = event.wait_until(rto, 500, || self.ep.reply(server, seq, &mut reply));
            if let Some(resp) = got {
                return Ok(resp);
            }
        }
        Err(FlockError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_codec_roundtrip() {
        let payload = vec![7u8; 100];
        let b = encode_pkt(KIND_REQ, 42, 99, 1, 4, &payload);
        let p = decode_pkt(&b).expect("decodes");
        assert_eq!(p.kind, KIND_REQ);
        assert_eq!(p.rpc_id, 42);
        assert_eq!(p.seq, 99);
        assert_eq!(p.frag, 1);
        assert_eq!(p.nfrags, 4);
        assert_eq!(p.payload, payload);
    }

    #[test]
    fn packet_codec_rejects_truncation() {
        let b = encode_pkt(KIND_RESP, 1, 3, 0, 1, &[1, 2, 3]);
        assert!(decode_pkt(&b[..b.len() - 1]).is_none());
        assert!(decode_pkt(&b[..PKT_HDR - 1]).is_none());
        assert!(decode_pkt(&[]).is_none());
    }

    #[test]
    fn empty_payload_packet() {
        let b = encode_pkt(KIND_REQ, 1, 1, 0, 1, &[]);
        let p = decode_pkt(&b).unwrap();
        assert!(p.payload.is_empty());
    }

    #[test]
    fn reassembly_in_order() {
        let mut r = Reassembly::new(3);
        assert!(r.add(0, vec![1, 2]).is_none());
        assert!(r.add(1, vec![3]).is_none());
        assert_eq!(r.add(2, vec![4, 5]).unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn reassembly_out_of_order_and_duplicates() {
        let mut r = Reassembly::new(3);
        assert!(r.add(2, vec![5]).is_none());
        assert!(r.add(2, vec![9, 9]).is_none()); // duplicate fragment ignored
        assert!(r.add(0, vec![1]).is_none());
        assert!(r.add(7, vec![8]).is_none()); // out-of-range index ignored
        assert_eq!(r.add(1, vec![3]).unwrap(), vec![1, 3, 5]);
    }

    /// Sends still in the outbox and on the NIC's queue when the endpoint
    /// goes are dropped without a panic, and the node gets its QP and
    /// regions back.
    #[test]
    fn an_endpoint_dropped_with_sends_queued_fails_them_quietly() {
        let fabric = flock_fabric::Fabric::with_defaults();
        let node = fabric.add_node("ud-queued");
        let peer = Endpoint::new(&node);
        let before = (node.qp_count(), node.mrs().len());
        let mut ep = Endpoint::new(&node);
        let data = vec![5u8; 2 * SEND_SLOTS as usize * FRAG_PAYLOAD];
        ep.send((node.id(), peer.qp.qpn()), KIND_REQ, 1, 1, &data);
        assert!(!ep.outbox.is_empty(), "every staging slot is in use");
        drop(ep);
        assert_eq!((node.qp_count(), node.mrs().len()), before);
    }

    // Any fragment must fit a 4 KB UD datagram with its header.
    const _: () = assert!(FRAG_PAYLOAD + PKT_HDR <= MTU);

    #[test]
    fn fragment_sizing_matches_mtu() {
        let payload = vec![0u8; FRAG_PAYLOAD];
        let b = encode_pkt(KIND_REQ, 0, 0, 0, 1, &payload);
        assert!(b.len() <= MTU);
    }
}
