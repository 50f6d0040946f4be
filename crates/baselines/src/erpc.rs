//! A UD-datagram RPC baseline in the style of eRPC / FaSST.
//!
//! Everything hardware RC gives Flock for free is done in software here:
//! requests and responses are fragmented to the 4 KB UD MTU and
//! reassembled; loss is recovered by client retransmission timers; the
//! server burns CPU recycling receive buffers and polling the completion
//! queue per packet — the overhead the paper's Figure 2(b) measures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flock_sync::clock::{self, Event, TaskHandle};

use flock_fabric::{
    Access, MemoryRegion, Node, NodeId, QpNum, RecvWr, SendWr, Sge, Transport, WrId, GRH_BYTES,
};
use parking_lot::Mutex;

/// Packet header: kind, rpc id, thread, seq, fragment index/count, length.
const PKT_HDR: usize = 1 + 4 + 4 + 8 + 2 + 2 + 4;
/// Maximum payload bytes per UD packet.
const FRAG_PAYLOAD: usize = 4096 - PKT_HDR;

const KIND_REQ: u8 = 1;
const KIND_RESP: u8 = 2;

/// Configuration for the UD RPC endpoints.
#[derive(Debug, Clone)]
pub struct UdRpcConfig {
    /// Receive buffers kept posted.
    pub recv_depth: usize,
    /// Client retransmission timeout.
    pub rto: Duration,
    /// Maximum retransmissions before reporting failure.
    pub max_retries: u32,
    /// Overall operation timeout.
    pub timeout: Duration,
}

impl Default for UdRpcConfig {
    fn default() -> Self {
        UdRpcConfig {
            recv_depth: 256,
            rto: Duration::from_millis(20),
            max_retries: 50,
            timeout: Duration::from_secs(10),
        }
    }
}

fn encode_pkt(
    kind: u8,
    rpc_id: u32,
    thread: u32,
    seq: u64,
    frag: u16,
    nfrags: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PKT_HDR + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&rpc_id.to_le_bytes());
    buf.extend_from_slice(&thread.to_le_bytes());
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
    thread: u32,
    seq: u64,
    frag: u16,
    nfrags: u16,
    payload: Vec<u8>,
}

fn decode_pkt(b: &[u8]) -> Option<Pkt> {
    if b.len() < PKT_HDR {
        return None;
    }
    let len = u32::from_le_bytes(b[21..25].try_into().ok()?) as usize;
    if b.len() < PKT_HDR + len {
        return None;
    }
    Some(Pkt {
        kind: b[0],
        rpc_id: u32::from_le_bytes(b[1..5].try_into().ok()?),
        thread: u32::from_le_bytes(b[5..9].try_into().ok()?),
        seq: u64::from_le_bytes(b[9..17].try_into().ok()?),
        frag: u16::from_le_bytes(b[17..19].try_into().ok()?),
        nfrags: u16::from_le_bytes(b[19..21].try_into().ok()?),
        payload: b[PKT_HDR..PKT_HDR + len].to_vec(),
    })
}

/// An endpoint: one UD QP plus buffer pool and polling machinery.
struct Endpoint {
    node: Arc<Node>,
    qp: Arc<flock_fabric::Qp>,
    mr: Arc<MemoryRegion>,
    send_mr: Arc<MemoryRegion>,
    send_off: AtomicU64,
    cfg: UdRpcConfig,
}

impl Endpoint {
    fn new(node: &Arc<Node>, cfg: &UdRpcConfig) -> Arc<Endpoint> {
        let cq = node.create_cq(cfg.recv_depth * 2);
        let qp = node.create_qp(Transport::Ud, &cq, &cq);
        qp.ready().expect("UD qp to RTS");
        let slot = 4096 + GRH_BYTES;
        let mr = node.register_mr(cfg.recv_depth * slot, Access::LOCAL);
        let send_mr = node.register_mr(64 * 4096, Access::LOCAL);
        let ep = Arc::new(Endpoint {
            node: Arc::clone(node),
            qp,
            mr,
            send_mr,
            send_off: AtomicU64::new(0),
            cfg: cfg.clone(),
        });
        for i in 0..cfg.recv_depth {
            ep.post_recv_slot(i);
        }
        ep
    }

    fn post_recv_slot(&self, slot: usize) {
        let sz = 4096 + GRH_BYTES;
        let _ = self.qp.post_recv(RecvWr {
            wr_id: WrId(slot as u64),
            local: Sge {
                lkey: self.mr.lkey(),
                addr: self.mr.addr() + (slot * sz) as u64,
                len: sz,
            },
        });
    }

    fn addr(&self) -> (NodeId, QpNum) {
        (self.node.id(), self.qp.qpn())
    }

    /// Stage `bytes` in the send region and post a UD send to `dst`.
    fn send_to(&self, dst: (NodeId, QpNum), bytes: &[u8]) {
        debug_assert!(bytes.len() <= 4096);
        // Rotating staging slots; 64 in flight is far beyond the window.
        let slot = (self.send_off.fetch_add(1, Ordering::Relaxed) % 64) as usize;
        self.send_mr
            .write(slot * 4096, bytes)
            .expect("staging write");
        let _ = self.qp.post_send(
            SendWr::send_to(
                WrId(0),
                Sge {
                    lkey: self.send_mr.lkey(),
                    addr: self.send_mr.addr() + (slot * 4096) as u64,
                    len: bytes.len(),
                },
                dst,
            )
            .unsignaled(),
        );
    }

    /// Poll one inbound packet: `(src, packet)`.
    fn poll(&self) -> Option<(Option<(NodeId, QpNum)>, Pkt)> {
        let c = self.qp.recv_cq().poll_one()?;
        let slot = c.wr_id.0 as usize;
        let sz = 4096 + GRH_BYTES;
        let data = self
            .mr
            .read_vec(slot * sz + GRH_BYTES, c.byte_len.saturating_sub(GRH_BYTES))
            .ok();
        self.post_recv_slot(slot);
        let pkt = data.and_then(|d| decode_pkt(&d))?;
        Some((c.src, pkt))
    }
}

/// Fragment `data` and send each piece.
fn send_fragmented(
    ep: &Endpoint,
    dst: (NodeId, QpNum),
    kind: u8,
    rpc_id: u32,
    thread: u32,
    seq: u64,
) -> impl Fn(&[u8]) + '_ {
    move |data: &[u8]| {
        let nfrags = data.chunks(FRAG_PAYLOAD).count().max(1) as u16;
        if data.is_empty() {
            ep.send_to(dst, &encode_pkt(kind, rpc_id, thread, seq, 0, 1, &[]));
            return;
        }
        for (i, chunk) in data.chunks(FRAG_PAYLOAD).enumerate() {
            ep.send_to(
                dst,
                &encode_pkt(kind, rpc_id, thread, seq, i as u16, nfrags, chunk),
            );
        }
    }
}

struct Reassembly {
    frags: Vec<Option<Vec<u8>>>,
    have: usize,
}

impl Reassembly {
    fn new(n: usize) -> Reassembly {
        Reassembly {
            frags: vec![None; n],
            have: 0,
        }
    }
    fn add(&mut self, idx: usize, data: Vec<u8>) -> Option<Vec<u8>> {
        if idx < self.frags.len() && self.frags[idx].is_none() {
            self.frags[idx] = Some(data);
            self.have += 1;
        }
        if self.have == self.frags.len() {
            Some(self.frags.drain(..).flatten().flatten().collect())
        } else {
            None
        }
    }
}

/// The UD RPC server.
pub struct UdRpcServer {
    ep: Arc<Endpoint>,
    stop: Arc<AtomicBool>,
    worker: Mutex<Option<TaskHandle>>,
    /// Requests processed (for CPU-overhead comparisons).
    pub requests: Arc<AtomicU64>,
}

impl UdRpcServer {
    /// The server's UD address, to give to clients out of band.
    pub fn addr(&self) -> (NodeId, QpNum) {
        self.ep.addr()
    }

    /// Start serving with `handler`.
    pub fn start(
        node: &Arc<Node>,
        cfg: UdRpcConfig,
        handler: impl Fn(u32, &[u8]) -> Vec<u8> + Send + Sync + 'static,
    ) -> UdRpcServer {
        let ep = Endpoint::new(node, &cfg);
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let worker = {
            let ep = Arc::clone(&ep);
            let stop = Arc::clone(&stop);
            let requests = Arc::clone(&requests);
            clock::spawn("ud-rpc-server", move || {
                // Reassembly buffers keyed by (src node, thread, seq).
                let mut partial: HashMap<(u32, u32, u64), Reassembly> = HashMap::new();
                // Response cache for retransmitted requests we already
                // answered (at-most-once execution).
                let mut answered: HashMap<(u32, u32), (u64, Vec<u8>)> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    let Some((src, pkt)) = ep.poll() else {
                        // Empty poll: yield the core (a short virtual
                        // sleep under VirtualLab, an OS yield otherwise).
                        clock::yield_now();
                        continue;
                    };
                    // Progressed: charge per-packet CPU cost so a busy
                    // virtual worker still advances time and yields
                    // the core (no-ops in threaded mode).
                    clock::charge(1_000);
                    clock::flush_charge();
                    let Some(src) = src else { continue };
                    if pkt.kind != KIND_REQ {
                        continue;
                    }
                    let ckey = (src.0 .0, pkt.thread);
                    if let Some((seq, resp)) = answered.get(&ckey) {
                        if *seq == pkt.seq {
                            // Duplicate (retransmitted) request.
                            send_fragmented(&ep, src, KIND_RESP, pkt.rpc_id, pkt.thread, pkt.seq)(
                                resp,
                            );
                            continue;
                        }
                    }
                    let key = (src.0 .0, pkt.thread, pkt.seq);
                    let nfrags = pkt.nfrags.max(1) as usize;
                    let entry = partial
                        .entry(key)
                        .or_insert_with(|| Reassembly::new(nfrags));
                    if let Some(req) = entry.add(pkt.frag as usize, pkt.payload) {
                        partial.remove(&key);
                        requests.fetch_add(1, Ordering::Relaxed);
                        let resp = handler(pkt.rpc_id, &req);
                        send_fragmented(&ep, src, KIND_RESP, pkt.rpc_id, pkt.thread, pkt.seq)(
                            &resp,
                        );
                        answered.insert(ckey, (pkt.seq, resp));
                    }
                }
            })
        };
        UdRpcServer {
            ep,
            stop,
            worker: Mutex::new(Some(worker)),
            requests,
        }
    }

    /// Stop the server thread.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for UdRpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct ClientShared {
    inboxes: Mutex<HashMap<(u32, u64), Vec<u8>>>,
    /// Signalled after every inbox insert.
    delivered: Event,
}

/// The UD RPC client: blocking calls with software retransmission.
pub struct UdRpcClient {
    ep: Arc<Endpoint>,
    server: (NodeId, QpNum),
    shared: Arc<ClientShared>,
    stop: Arc<AtomicBool>,
    worker: Mutex<Option<TaskHandle>>,
    next_thread: AtomicU64,
    /// Total retransmissions performed (observability for loss tests).
    pub retransmissions: Arc<AtomicU64>,
}

/// A per-thread sending context for [`UdRpcClient`].
pub struct UdThread<'a> {
    client: &'a UdRpcClient,
    thread_id: u32,
    seq: std::cell::Cell<u64>,
}

impl UdRpcClient {
    /// Connect a client on `node` to the server at `server`.
    pub fn connect(node: &Arc<Node>, server: (NodeId, QpNum), cfg: UdRpcConfig) -> UdRpcClient {
        let ep = Endpoint::new(node, &cfg);
        let shared = Arc::new(ClientShared {
            inboxes: Mutex::new(HashMap::new()),
            delivered: Event::new(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let ep = Arc::clone(&ep);
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            clock::spawn("ud-rpc-client", move || {
                let mut partial: HashMap<(u32, u64), Reassembly> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    let Some((_src, pkt)) = ep.poll() else {
                        clock::yield_now();
                        continue;
                    };
                    clock::charge(1_000);
                    clock::flush_charge();
                    if pkt.kind != KIND_RESP {
                        continue;
                    }
                    let key = (pkt.thread, pkt.seq);
                    let entry = partial
                        .entry(key)
                        .or_insert_with(|| Reassembly::new(pkt.nfrags.max(1) as usize));
                    if let Some(resp) = entry.add(pkt.frag as usize, pkt.payload) {
                        partial.remove(&key);
                        shared.inboxes.lock().insert(key, resp);
                        shared.delivered.notify_all();
                    }
                }
            })
        };
        UdRpcClient {
            ep,
            server,
            shared,
            stop,
            worker: Mutex::new(Some(worker)),
            next_thread: AtomicU64::new(0),
            retransmissions: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Register a sending thread.
    pub fn register_thread(&self) -> UdThread<'_> {
        UdThread {
            client: self,
            thread_id: self.next_thread.fetch_add(1, Ordering::Relaxed) as u32,
            seq: std::cell::Cell::new(1),
        }
    }

    /// Stop the client thread.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for UdRpcClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl UdThread<'_> {
    /// Blocking RPC with retransmission on loss.
    pub fn call(&self, rpc_id: u32, payload: &[u8]) -> Result<Vec<u8>, &'static str> {
        let c = self.client;
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let key = (self.thread_id, seq);
        let send = || {
            send_fragmented(&c.ep, c.server, KIND_REQ, rpc_id, self.thread_id, seq)(payload);
        };
        send();
        let deadline = clock::deadline(c.ep.cfg.timeout);
        let mut retries = 0;
        loop {
            // Wait out one retransmission timeout (or what is left of
            // the call's deadline), then resend.
            let rto = clock::deadline(c.ep.cfg.rto).min(deadline);
            let got = c
                .shared
                .delivered
                .wait_until(rto, 500, || c.shared.inboxes.lock().remove(&key));
            if let Some(resp) = got {
                return Ok(resp);
            }
            if clock::expired(deadline) {
                return Err("rpc timed out");
            }
            retries += 1;
            if retries > c.ep.cfg.max_retries {
                return Err("too many retransmissions");
            }
            c.retransmissions.fetch_add(1, Ordering::Relaxed);
            send();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_codec_roundtrip() {
        let payload = vec![7u8; 100];
        let b = encode_pkt(KIND_REQ, 42, 3, 99, 1, 4, &payload);
        let p = decode_pkt(&b).expect("decodes");
        assert_eq!(p.kind, KIND_REQ);
        assert_eq!(p.rpc_id, 42);
        assert_eq!(p.thread, 3);
        assert_eq!(p.seq, 99);
        assert_eq!(p.frag, 1);
        assert_eq!(p.nfrags, 4);
        assert_eq!(p.payload, payload);
    }

    #[test]
    fn packet_codec_rejects_truncation() {
        let b = encode_pkt(KIND_RESP, 1, 2, 3, 0, 1, &[1, 2, 3]);
        assert!(decode_pkt(&b[..b.len() - 1]).is_none());
        assert!(decode_pkt(&b[..PKT_HDR - 1]).is_none());
        assert!(decode_pkt(&[]).is_none());
    }

    #[test]
    fn empty_payload_packet() {
        let b = encode_pkt(KIND_REQ, 1, 0, 1, 0, 1, &[]);
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

    // Any fragment must fit a 4 KB UD datagram with its header.
    const _: () = assert!(FRAG_PAYLOAD + PKT_HDR <= 4096);

    #[test]
    fn fragment_sizing_matches_mtu() {
        let payload = vec![0u8; FRAG_PAYLOAD];
        let b = encode_pkt(KIND_REQ, 0, 0, 0, 0, 1, &payload);
        assert!(b.len() <= 4096);
    }
}
