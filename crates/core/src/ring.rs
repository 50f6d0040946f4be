//! Request/response ring buffers (paper §4.1).
//!
//! Each QP owns a pair of logical ring buffers: a *request ring* on the
//! server written by the client, and a *response ring* on the client
//! written by the server. Messages are written with RDMA writes and
//! detected by polling host memory — no receive buffers, no receive-side
//! CQ work.
//!
//! Positions are monotonically increasing byte offsets; the physical
//! position is `offset % capacity`. Messages occupy contiguous 64-byte
//! aligned spans. When a message would straddle the end of the ring, the
//! producer emits a *wrap record* — a zero-entry message whose `total_len`
//! covers the remainder of the ring — and continues at position 0.
//!
//! Flow control: the producer tracks the consumer's `Head` from values
//! piggybacked on response messages (the consumer only advances `Head`
//! after zeroing consumed bytes, so the producer can safely overwrite
//! anything before it). The producer never issues an RDMA read on the hot
//! path.
//!
//! [`Link`] is that protocol for one lane, both directions, over a real
//! QP: the client's lanes, the server's lanes and the lock-share
//! baseline's lanes are all `Link`s.
//!
//! Concurrency discipline: a ring endpoint is **single-owner** — exactly
//! one thread at a time drives a `RingProducer` or `RingConsumer` (a
//! `Link` holds its producer behind a lock of its own, and polls under
//! the ring region's lock), and producer/consumer
//! never share host memory words except through the canary protocol
//! validated by `poll_into`. The only atomics here are the consumed heads
//! a `Link` hands between its halves; they come from [`flock_sync`], so
//! they stay visible to the loom model checker (see DESIGN.md).

use std::sync::Arc;
use std::time::Duration;

use flock_fabric::{
    Access, MemoryRegion, Node, Pages, Qp, QpNum, RecvWr, RemoteAddr, SendWr, Sge, WrId,
};
use flock_sync::atomic::{AtomicU64, Ordering};
use flock_sync::clock::{self, Event};
use flock_sync::Stop;
use parking_lot::Mutex;

use crate::domain::RingInfo;
use crate::error::{FlockError, Result};
use crate::msg::{self, EntryRef, MsgHeader, HDR_SIZE, TRAILER_SIZE};

/// Ring alignment: all records are multiples of this, guaranteeing a wrap
/// record always has room for header + trailer.
pub(crate) const RING_ALIGN: usize = 64;

/// Flag marking a wrap record (skip to the start of the ring).
pub const FLAG_WRAP: u16 = 1 << 3;

/// Round `len` up to the ring alignment.
pub const fn align_up(len: usize) -> usize {
    (len + RING_ALIGN - 1) & !(RING_ALIGN - 1)
}

/// Static geometry of a ring within a memory region.
#[derive(Debug, Clone, Copy)]
pub struct RingLayout {
    /// Byte offset of the ring within its memory region.
    pub base: usize,
    /// Ring capacity in bytes (multiple of [`RING_ALIGN`]).
    pub capacity: usize,
}

impl RingLayout {
    /// Create a layout; `capacity` must be a nonzero multiple of 64.
    pub fn new(base: usize, capacity: usize) -> RingLayout {
        assert!(capacity > 0 && capacity.is_multiple_of(RING_ALIGN));
        RingLayout { base, capacity }
    }

    /// Physical byte offset (within the region) for a monotone position.
    pub(crate) fn offset_of(&self, pos: u64) -> usize {
        self.base + (pos % self.capacity as u64) as usize
    }
}

/// A reservation returned by [`RingProducer::reserve`].
#[derive(Debug, Clone, Copy)]
pub struct Reservation {
    /// If present, a wrap record `(region_offset, len)` must be written
    /// before the message.
    pub wrap: Option<(usize, usize)>,
    /// Region offset at which to write the message.
    pub offset: usize,
    /// The aligned span the message occupies in the ring.
    pub aligned_len: usize,
}

/// Producer half: tracks the write position and the cached consumer head.
#[derive(Debug)]
pub struct RingProducer {
    layout: RingLayout,
    tail: u64,
    cached_head: u64,
}

impl RingProducer {
    /// Create a producer at position zero.
    pub fn new(layout: RingLayout) -> RingProducer {
        RingProducer {
            layout,
            tail: 0,
            cached_head: 0,
        }
    }

    /// The ring layout.
    pub fn layout(&self) -> RingLayout {
        self.layout
    }

    /// Current monotone tail position.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Bytes currently free from the producer's (conservative) view.
    pub(crate) fn free_space(&self) -> usize {
        self.layout.capacity - (self.tail - self.cached_head) as usize
    }

    /// Fold in a piggybacked consumer head (monotone max).
    pub fn update_head(&mut self, head: u64) {
        if head > self.cached_head {
            self.cached_head = head;
        }
    }

    /// Reserve space for a message of `len` encoded bytes.
    ///
    /// On success the caller must write the wrap record (if any) and the
    /// message at the returned offsets, then the reservation is already
    /// committed (tail advanced).
    pub fn reserve(&mut self, len: usize) -> Result<Reservation> {
        let aligned = align_up(len);
        if aligned * 2 > self.layout.capacity {
            return Err(FlockError::MessageTooLarge {
                need: aligned,
                capacity: self.layout.capacity,
            });
        }
        let pos = (self.tail % self.layout.capacity as u64) as usize;
        let rem = self.layout.capacity - pos;
        let (wrap, needed) = if rem < aligned {
            (Some((self.layout.base + pos, rem)), rem + aligned)
        } else {
            (None, aligned)
        };
        if self.free_space() < needed {
            return Err(FlockError::RingFull {
                need: needed,
                free: self.free_space(),
            });
        }
        if let Some((_, wrap_len)) = wrap {
            self.tail += wrap_len as u64;
        }
        let offset = self.layout.offset_of(self.tail);
        self.tail += aligned as u64;
        Ok(Reservation {
            wrap,
            offset,
            aligned_len: aligned,
        })
    }

    /// Write a wrap record covering all of `buf`, in place. `buf.len()`
    /// is the record length; interior bytes are zeroed.
    pub fn write_wrap_record(buf: &mut [u8], canary: u64) {
        let len = buf.len();
        debug_assert!(len >= HDR_SIZE + TRAILER_SIZE);
        buf.fill(0);
        buf[0..4].copy_from_slice(&(len as u32).to_le_bytes());
        // count = 0 (bytes 4..6 already zero)
        buf[6..8].copy_from_slice(&FLAG_WRAP.to_le_bytes());
        buf[8..16].copy_from_slice(&canary.to_le_bytes());
        buf[len - 8..len].copy_from_slice(&canary.to_le_bytes());
    }
}

/// Decode a view over message bytes a poll returned (always succeeds:
/// validated at extraction time).
pub fn view(msg: &[u8]) -> msg::MsgView<'_> {
    msg::decode(msg)
        .expect("validated at poll time")
        .expect("validated at poll time")
}

/// Consumer half: polls the local memory region for complete messages.
#[derive(Debug)]
pub struct RingConsumer {
    layout: RingLayout,
    head: u64,
}

impl RingConsumer {
    /// Create a consumer at position zero.
    pub fn new(layout: RingLayout) -> RingConsumer {
        RingConsumer { layout, head: 0 }
    }

    /// Current monotone head position (piggybacked to the producer).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Poll for the next complete message in `mr` and copy it into
    /// `buf`, replacing what was there — the one copy out of the ring, so
    /// the slot can be zeroed and reused at once. A poller that is done
    /// with a message before its next poll passes the same buffer every
    /// time and never allocates; read it with [`view`].
    ///
    /// Returns `Ok(false)` when no complete message is available; `buf`
    /// is left empty then, and on an error. On success the consumed span
    /// is zeroed and `head` advances.
    pub fn poll_into(&mut self, mr: &MemoryRegion, buf: &mut Vec<u8>) -> Result<bool> {
        mr.with_pages(|ring| self.poll_pages(ring, buf))
    }

    /// [`RingConsumer::poll_into`] on the pages of a region, under the
    /// caller's one lock of them: probe, copy and consume, and the same
    /// again past a wrap record.
    fn poll_pages(&mut self, ring: &mut Pages, buf: &mut Vec<u8>) -> Result<bool> {
        let polled = self.copy_out(ring, buf);
        if !matches!(polled, Ok(true)) {
            buf.clear();
        }
        polled
    }

    fn copy_out(&mut self, ring: &mut Pages, buf: &mut Vec<u8>) -> Result<bool> {
        loop {
            let pos = self.layout.offset_of(self.head);
            // Fast probe: total_len first word.
            let mut word = [0u8; 4];
            ring.read(pos, &mut word)?;
            let total = u32::from_le_bytes(word) as usize;
            if total == 0 {
                return Ok(false);
            }
            if total < HDR_SIZE + TRAILER_SIZE || total > self.layout.capacity {
                return Err(FlockError::CorruptMessage("ring record length"));
            }
            buf.clear();
            ring.append_to(pos, total, buf)?;
            // Wrap record: validated by canary, then skipped.
            let flags = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes"));
            if flags & FLAG_WRAP != 0 {
                let canary = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
                let trailer =
                    u64::from_le_bytes(buf[total - 8..total].try_into().expect("8 bytes"));
                if trailer != canary || canary == 0 {
                    return Ok(false); // still landing
                }
                ring.consume(pos, total)?;
                self.head += total as u64;
                continue; // look at the start of the ring
            }
            if msg::decode(buf)?.is_none() {
                return Ok(false); // canary not landed yet
            }
            // The whole aligned span, so a record that ends a page hands
            // the page back.
            let span = align_up(total);
            ring.consume(pos, span)?;
            self.head += span as u64;
            return Ok(true);
        }
    }

    /// Whether [`RingConsumer::poll_into`] would find a complete message
    /// in the pages of its region now. Consumes nothing.
    #[cfg(debug_assertions)]
    fn would_poll(&self, ring: &Pages) -> bool {
        let start = self.layout.offset_of(0);
        let end = start + self.layout.capacity;
        let mut pos = self.layout.offset_of(self.head);
        let mut record = Vec::new();
        loop {
            let mut word = [0u8; 4];
            let total = match ring.read(pos, &mut word) {
                Ok(()) => u32::from_le_bytes(word) as usize,
                Err(_) => return false,
            };
            record.clear();
            // Nothing there, still landing, or corrupt: nothing to poll.
            if ring
                .append_to(pos, total.min(end - pos), &mut record)
                .is_err()
            {
                return false;
            }
            let Ok(Some(record)) = msg::decode(&record) else {
                return false;
            };
            let wrap = record.header.flags & FLAG_WRAP != 0;
            if !wrap || pos == start {
                return !wrap;
            }
            pos = start; // a landed wrap record: look at the start of the ring
        }
    }
}

/// Every Nth message write of a link is signaled (selective signaling,
/// paper §7); the others complete silently unless they fail.
const SIGNAL_EVERY: u64 = 64;

/// Work-request ids of a link's own posts ([`Link::owns`]): the wrap
/// record, the message write and the credit-renewal immediate.
const WR_WRAP: WrId = WrId(0);
const WR_MESSAGE: WrId = WrId(u64::MAX);
const WR_CREDIT: WrId = WrId(u64::MAX - 1);

/// Canary of a link's first message is this plus one; the high bytes
/// keep every canary nonzero and unlike a torn prefix of itself.
const CANARY_BASE: u64 = 0x5EED_0000_0000_0000;

/// The send half's single-owner state, behind [`Link`]'s send lock.
#[derive(Debug)]
struct LinkTx {
    prod: RingProducer,
    /// Messages sent; also the canary sequence (unique per QP).
    sent: u64,
}

/// One lane's end of the ring protocol (paper §4.1–4.3), both directions:
/// the *send half* writes canary-framed messages into the peer's ring
/// with one RDMA write each, the *receive half* polls the local ring the
/// peer writes into. Each message piggybacks this end's consumed head, so
/// neither side ever reads the other's memory to find free space.
///
/// The client lane, the server lane and the lock-share baseline's lane
/// are all this type; what differs is who calls it. Invariants:
///
/// * **Canaries** are nonzero and unique per link, in send order.
/// * **Heads are monotone**: the published own head only grows (the
///   consumer zeroes a span before advancing past it), and a stale
///   piggybacked peer head is ignored.
/// * **Nothing is written on `RingFull`** (or `MessageTooLarge`): no
///   payload, no work request, no tail or canary advance.
/// * The link **never waits and never charges virtual time**: a full
///   ring is the caller's policy (a task that may wait retries through
///   [`send_while_full`], a dispatch shard defers), and so is the host
///   cost of a send (doorbell + memcpy of the returned length, plus
///   codec per entry on the client) or a poll.
///
/// Any number of threads may send and one may poll at the same time:
/// sends serialize on an internal lock (held across the post, which never
/// blocks), polls on the ring region's lock (the one every poll takes
/// anyway to read and zero the ring), and the two heads cross between the
/// halves as atomics.
#[derive(Debug)]
pub struct Link {
    qp: Arc<Qp>,
    tx: Mutex<LinkTx>,
    /// The peer's ring this end writes into.
    remote: RingInfo,
    /// A registered send buffer the size of the peer's ring, named by
    /// every write's local SGE and never written: a write's payload
    /// travels inline ([`Qp::post_inline`]), and an unwritten region
    /// holds no memory. Kept for its registration and its charges,
    /// which every timeline includes (DESIGN.md §5j).
    staging: Arc<MemoryRegion>,
    /// The peer's consumed head of `remote`, from its messages.
    peer_head: AtomicU64,
    /// The ring the peer writes into.
    ring_mr: Arc<MemoryRegion>,
    /// Geometry of `ring_mr`.
    rx: RingLayout,
    /// Consumed head of `ring_mr`: the consumer's position, read and
    /// advanced by each poll under the region's lock.
    own_head: AtomicU64,
    /// `own_head` as last piggybacked on a message.
    sent_head: AtomicU64,
}

impl Link {
    /// A link over `qp` (connected by the first send), receiving in
    /// `ring_mr` — the peer learns its geometry as [`RingInfo::of`] it —
    /// and sending into `remote`. Acquires the staging region from
    /// `node`'s MR cache.
    pub fn new(node: &Node, qp: Arc<Qp>, ring_mr: Arc<MemoryRegion>, remote: RingInfo) -> Link {
        Link {
            qp,
            tx: Mutex::new(LinkTx {
                prod: RingProducer::new(RingLayout::new(0, remote.capacity)),
                sent: 0,
            }),
            remote,
            staging: node.acquire_mr(remote.capacity, Access::LOCAL),
            peer_head: AtomicU64::new(0),
            rx: RingLayout::new(0, ring_mr.len()),
            ring_mr,
            own_head: AtomicU64::new(0),
            sent_head: AtomicU64::new(0),
        }
    }

    /// Return the QP to `node`'s pool and both regions to its MR cache.
    /// The caller guarantees nobody uses the link afterwards.
    pub(crate) fn release(&self, node: &Node) {
        node.release_qp(&self.qp);
        node.release_mr(&self.ring_mr);
        node.release_mr(&self.staging);
    }

    /// The link's queue pair.
    pub fn qp(&self) -> &Arc<Qp> {
        &self.qp
    }

    /// The queue pair's number.
    pub(crate) fn qpn(&self) -> QpNum {
        self.qp.qpn()
    }

    /// Geometry of the local ring, for the peer's [`Link::new`].
    pub(crate) fn ring_info(&self) -> RingInfo {
        RingInfo::of(&self.ring_mr)
    }

    /// Make `event` the local ring's doorbell: the NIC notifies it after
    /// every write into the ring ([`MemoryRegion::set_doorbell`]), so the
    /// task that polls the ring can idle on it.
    pub(crate) fn set_doorbell(&self, event: &Arc<Event>) {
        self.ring_mr.set_doorbell(Some(Arc::clone(event)));
    }

    /// Capacity of the peer's ring in bytes.
    pub(crate) fn remote_capacity(&self) -> usize {
        self.remote.capacity
    }

    /// Bytes of the local ring consumed since the head last went out on
    /// a message: how far the peer's view of its free space lags.
    pub(crate) fn head_debt(&self) -> u64 {
        let consumed = self.own_head.load(Ordering::Relaxed);
        consumed.saturating_sub(self.sent_head.load(Ordering::Relaxed))
    }

    /// Whether a completion with `wr_id` belongs to one of this type's
    /// own posts rather than to a one-sided operation sharing the QP.
    pub(crate) fn owns(wr_id: WrId) -> bool {
        [WR_WRAP, WR_MESSAGE, WR_CREDIT].contains(&wr_id)
    }

    /// The two ends of a write of `len` bytes at ring offset `off`.
    fn ends(&self, off: usize, len: usize) -> (Sge, RemoteAddr) {
        let local = Sge {
            lkey: self.staging.lkey(),
            addr: self.staging.addr() + off as u64,
            len,
        };
        let remote = RemoteAddr {
            rkey: self.remote.rkey,
            addr: self.remote.addr + off as u64,
        };
        (local, remote)
    }

    /// Send `entries` as one message with `flags` and `aux`: reserve ring
    /// space against the freshest peer head, send a wrap record first if
    /// the message would straddle the ring end, encode straight into an
    /// inline payload, and post one RDMA write. Returns the encoded
    /// length. Allocation-free in steady state (`alloc_count.rs`).
    pub fn try_send<'a, I>(&self, flags: u16, aux: u64, entries: I) -> Result<usize>
    where
        I: Iterator<Item = EntryRef<'a>> + Clone,
    {
        let need = msg::encoded_size(entries.clone().map(|e| e.data.len()));
        let mut tx = self.tx.lock();
        tx.prod.update_head(self.peer_head.load(Ordering::Acquire));
        let res = tx.prod.reserve(need)?;
        tx.sent += 1;
        let header = MsgHeader {
            total_len: 0,
            count: 0,
            flags,
            canary: CANARY_BASE + tx.sent,
            head: self.own_head.load(Ordering::Acquire),
            aux,
        };
        if let Some((woff, wlen)) = res.wrap {
            let mut record = self.qp.inline_buf(wlen);
            RingProducer::write_wrap_record(&mut record, header.canary);
            let (local, remote) = self.ends(woff, wlen);
            let wr = SendWr::write(WR_WRAP, local, remote).unsignaled();
            self.qp.post_inline(wr, record)?;
        }
        let mut payload = self.qp.inline_buf(need);
        msg::encode_iter(&mut payload, &header, entries)?;
        let (local, remote) = self.ends(res.offset, need);
        let mut wr = SendWr::write(WR_MESSAGE, local, remote);
        if !(tx.sent - 1).is_multiple_of(SIGNAL_EVERY) {
            wr = wr.unsignaled();
        }
        self.qp.post_inline(wr, payload)?;
        self.sent_head.fetch_max(header.head, Ordering::Relaxed);
        Ok(need)
    }

    /// Poll the local ring for the next complete message into `buf`
    /// ([`RingConsumer::poll_into`]; read it with [`view`]), publish the
    /// consumed head for the next send to piggyback, and fold in the head
    /// the message carries. Allocation-free in steady state
    /// (`alloc_count.rs`).
    pub fn poll_into(&self, buf: &mut Vec<u8>) -> Result<bool> {
        let polled = self.ring_mr.with_pages(|ring| {
            let mut rx = self.consumer();
            let polled = rx.poll_pages(ring, buf);
            // After a miss too: the poll may have consumed a wrap record.
            self.own_head.store(rx.head, Ordering::Release);
            polled
        });
        if matches!(polled, Ok(true)) {
            // `MsgHeader::head`, third word of the validated header.
            let head = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
            self.peer_head.fetch_max(head, Ordering::AcqRel);
        }
        polled
    }

    /// Whether a complete message is waiting in the local ring (debug
    /// oracles; consumes nothing).
    #[cfg(debug_assertions)]
    pub(crate) fn holds_message(&self) -> bool {
        self.ring_mr
            .with_pages(|ring| self.consumer().would_poll(ring))
    }

    /// The receive half's consumer where the last poll left it. Polls
    /// read it under the ring region's lock, which orders them.
    fn consumer(&self) -> RingConsumer {
        RingConsumer {
            layout: self.rx,
            head: self.own_head.load(Ordering::Relaxed),
        }
    }

    /// Ask the peer for more credits (paper §7): a zero-length RDMA
    /// write-with-immediate carrying the `median` coalescing degree since
    /// the last renewal. It consumes one receive the peer posted with
    /// [`Link::post_credit_recv`] and no ring space.
    pub fn post_credit_request(&self, median: u16) -> Result<()> {
        let (local, remote) = self.ends(0, 0);
        let imm = msg::pack_credit_imm(median);
        self.qp
            .post_send(SendWr::write_imm(WR_CREDIT, local, remote, imm).unsignaled())?;
        Ok(())
    }

    /// Post one receive slot for the peer's [`Link::post_credit_request`].
    pub(crate) fn post_credit_recv(&self) -> Result<()> {
        self.qp.post_recv(RecvWr {
            wr_id: WrId(0),
            local: Sge {
                lkey: self.ring_mr.lkey(),
                addr: self.ring_mr.addr(),
                len: 0,
            },
        })?;
        Ok(())
    }
}

/// Run `send` — one [`Link::try_send`] and whatever its caller does on
/// success — again and again while the peer's ring is full, yielding in
/// between: the retry policy of a task that may wait for ring space.
/// Gives up with `Disconnected` once `stop` is set and with `Timeout`
/// once `timeout` has passed since the call.
pub(crate) fn send_while_full<T>(
    stop: &Stop,
    timeout: Duration,
    mut send: impl FnMut() -> Result<T>,
) -> Result<T> {
    let deadline = clock::deadline(timeout);
    loop {
        match send() {
            Err(FlockError::RingFull { .. }) => {
                if stop.is_set() {
                    return Err(FlockError::Disconnected);
                }
                if clock::expired(deadline) {
                    return Err(FlockError::Timeout);
                }
                clock::yield_now();
            }
            done => return done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{encode, EntryMeta, EntryRef};
    use flock_fabric::{Access, MrTable};

    fn layout(cap: usize) -> RingLayout {
        RingLayout::new(0, cap)
    }

    fn mk_msg(buf: &mut [u8], canary: u64, payload: &[u8]) -> usize {
        encode(
            buf,
            &MsgHeader {
                total_len: 0,
                count: 0,
                flags: 0,
                canary,
                head: 0,
                aux: 0,
            },
            &[EntryRef {
                meta: EntryMeta {
                    len: payload.len() as u32,
                    thread_id: 1,
                    seq: 1,
                    rpc_id: 1,
                },
                data: payload,
            }],
        )
        .unwrap()
    }

    /// Write a wrap record of `len` bytes at region offset `off`.
    fn write_wrap(mr: &MemoryRegion, off: usize, len: usize, canary: u64) {
        let mut record = vec![0u8; len];
        RingProducer::write_wrap_record(&mut record, canary);
        mr.write(off, &record).unwrap();
    }

    /// Write a message "remotely" (plain memcpy stands in for RDMA write).
    fn deliver(mr: &MemoryRegion, prod: &mut RingProducer, canary: u64, payload: &[u8]) {
        let mut staging = vec![0u8; 4096];
        let n = mk_msg(&mut staging, canary, payload);
        let res = prod.reserve(n).unwrap();
        if let Some((woff, wlen)) = res.wrap {
            write_wrap(mr, woff, wlen, canary);
        }
        mr.write(res.offset, &staging[..n]).unwrap();
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
        assert_eq!(align_up(64), 64);
        assert_eq!(align_up(65), 128);
    }

    #[test]
    fn produce_consume_roundtrip() {
        let t = MrTable::new();
        let mr = t.register(4096, Access::REMOTE_ALL);
        let mut prod = RingProducer::new(layout(4096));
        let mut cons = RingConsumer::new(layout(4096));

        deliver(&mr, &mut prod, 0xAA, b"first");
        deliver(&mr, &mut prod, 0xBB, b"second");

        let mut buf = Vec::new();
        assert!(cons.poll_into(&mr, &mut buf).unwrap(), "first message");
        assert_eq!(view(&buf).to_entries()[0].1, b"first");
        assert!(cons.poll_into(&mr, &mut buf).unwrap(), "second message");
        assert_eq!(view(&buf).to_entries()[0].1, b"second");
        assert!(!cons.poll_into(&mr, &mut buf).unwrap());
        assert!(buf.is_empty());
    }

    #[test]
    fn consumed_region_is_zeroed() {
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        let mut prod = RingProducer::new(layout(1024));
        let mut cons = RingConsumer::new(layout(1024));
        deliver(&mr, &mut prod, 0xCC, b"zeroing");
        assert!(cons.poll_into(&mr, &mut Vec::new()).unwrap());
        // The slot must read as empty again.
        assert_eq!(mr.read_u64(0).unwrap() as u32, 0);
    }

    #[test]
    fn wraparound_via_wrap_record() {
        let t = MrTable::new();
        let cap = 512;
        let mr = t.register(cap, Access::REMOTE_ALL);
        let mut prod = RingProducer::new(layout(cap));
        let mut cons = RingConsumer::new(layout(cap));

        // Fill most of the ring, consume it, then force a wrap.
        let mut buf = Vec::new();
        for i in 0..3 {
            deliver(&mr, &mut prod, i + 1, &[i as u8; 100]);
            assert!(cons.poll_into(&mr, &mut buf).unwrap());
            assert_eq!(view(&buf).to_entries()[0].1[0], i as u8);
            prod.update_head(cons.head());
        }
        // tail is now at 3*192=576 mod 512 = 64; write a 200-byte payload
        // message (aligned 256). rem = 448 >= 256: no wrap yet. Keep going
        // until a wrap actually happens.
        let mut wrapped = false;
        for i in 0..10u8 {
            let payload = vec![0x40 + i; 150];
            let mut staging = vec![0u8; 1024];
            let n = mk_msg(&mut staging, 100 + i as u64, &payload);
            let res = prod.reserve(n).unwrap();
            if let Some((woff, wlen)) = res.wrap {
                write_wrap(&mr, woff, wlen, 0x77);
                wrapped = true;
            }
            mr.write(res.offset, &staging[..n]).unwrap();
            assert!(
                cons.poll_into(&mr, &mut buf).unwrap(),
                "message after maybe-wrap"
            );
            assert_eq!(view(&buf).to_entries()[0].1, payload.as_slice());
            prod.update_head(cons.head());
        }
        assert!(wrapped, "test did not exercise the wrap path");
    }

    #[test]
    fn ring_full_is_reported() {
        let t = MrTable::new();
        let cap = 256;
        let _mr = t.register(cap, Access::REMOTE_ALL);
        let mut prod = RingProducer::new(layout(cap));
        // Two 64-byte records fit (128 bytes total), then free space for a
        // third depends on head never advancing.
        assert!(prod.reserve(40).is_ok());
        assert!(prod.reserve(40).is_ok());
        assert!(prod.reserve(40).is_ok());
        assert!(prod.reserve(40).is_ok());
        let e = prod.reserve(40).unwrap_err();
        assert!(matches!(e, FlockError::RingFull { .. }));
    }

    #[test]
    fn head_update_frees_space() {
        let mut prod = RingProducer::new(layout(256));
        for _ in 0..4 {
            prod.reserve(40).unwrap();
        }
        assert!(prod.reserve(40).is_err());
        prod.update_head(64);
        assert!(prod.reserve(40).is_ok());
        // Stale head values are ignored.
        prod.update_head(0);
        assert_eq!(prod.free_space(), 0);
    }

    #[test]
    fn oversized_message_rejected() {
        let mut prod = RingProducer::new(layout(256));
        assert!(matches!(
            prod.reserve(200),
            Err(FlockError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn partial_message_not_consumed() {
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        let mut cons = RingConsumer::new(layout(1024));
        // Write a message whose trailer hasn't landed.
        let mut staging = vec![0u8; 256];
        let n = mk_msg(&mut staging, 0x99, b"payload");
        staging[n - 8..n].fill(0);
        mr.write(0, &staging[..n]).unwrap();
        let mut buf = Vec::new();
        assert!(!cons.poll_into(&mr, &mut buf).unwrap());
        assert_eq!(cons.head(), 0);
        // Trailer lands; now it is consumed.
        mr.write(n - 8, &0x99u64.to_le_bytes()).unwrap();
        assert!(cons.poll_into(&mr, &mut buf).unwrap());
    }

    /// Two links over a connected QP pair on two nodes of `fabric`, each
    /// receiving in a ring of `cap` bytes.
    fn link_pair(fabric: &flock_fabric::Fabric, cap: usize) -> [Link; 2] {
        let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
        let (acq, bcq) = (a.create_cq(64), b.create_cq(64));
        let aqp = a.create_qp(flock_fabric::Transport::Rc, &acq, &acq);
        let bqp = b.create_qp(flock_fabric::Transport::Rc, &bcq, &bcq);
        fabric.connect(&aqp, &bqp).unwrap();
        let aring = a.register_mr(cap, Access::REMOTE_WRITE);
        let bring = b.register_mr(cap, Access::REMOTE_WRITE);
        let (ainfo, binfo) = (RingInfo::of(&aring), RingInfo::of(&bring));
        [
            Link::new(&a, aqp, aring, binfo),
            Link::new(&b, bqp, bring, ainfo),
        ]
    }

    #[test]
    fn a_link_never_writes_its_staging_region() {
        flock_sim::VirtualLab::run(|| {
            let fabric = flock_fabric::Fabric::with_defaults();
            let cap = 4096;
            let links = link_pair(&fabric, cap);
            // 100-byte entries make 192-byte records, which do not tile
            // the ring: every lap ends in a wrap record.
            let data = [7u8; 100];
            let entry = EntryRef {
                meta: EntryMeta {
                    len: data.len() as u32,
                    thread_id: 1,
                    seq: 1,
                    rpc_id: 1,
                },
                data: &data,
            };
            let sends = 3 * cap / 192 + 4;
            let mut buf = Vec::new();
            for i in 0..2 * sends {
                let (from, to) = (&links[i % 2], &links[1 - i % 2]);
                from.try_send(0, 0, std::iter::once(entry)).unwrap();
                while !to.poll_into(&mut buf).unwrap() {
                    clock::yield_now();
                }
                assert_eq!(view(&buf).to_entries()[0].1, data);
            }
            for link in &links {
                let tail = link.tx.lock().prod.tail();
                assert!(tail > (sends * 192) as u64 && tail >= 3 * cap as u64);
                assert!(!link.staging.committed(), "the staging region was written");
                assert_eq!(link.staging.read_vec(0, cap).unwrap(), vec![0u8; cap]);
            }
        });
    }

    #[test]
    fn corrupt_length_is_an_error() {
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        let mut cons = RingConsumer::new(layout(1024));
        mr.write(0, &20u32.to_le_bytes()).unwrap(); // below minimum
        assert!(cons.poll_into(&mr, &mut Vec::new()).is_err());
    }
}
