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
//! Concurrency discipline: a ring endpoint is **single-owner** — exactly
//! one thread drives a `RingProducer` or `RingConsumer` (cross-thread
//! submission is serialized upstream by the TCQ, [`crate::tcq`]), and
//! producer/consumer never share host memory words except through the
//! canary protocol validated by `poll`. There are therefore no atomics
//! here; any future shared-state access must go through [`crate::sync`]
//! so it stays visible to the loom model checker (see DESIGN.md).

use bytes::Bytes;
use flock_fabric::MemoryRegion;

use crate::error::{FlockError, Result};
use crate::msg::{self, MsgHeader, HDR_SIZE, TRAILER_SIZE};

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

    /// Build the bytes of a wrap record of `len` bytes with `canary`.
    ///
    /// Allocates; hot paths should prefer [`RingProducer::write_wrap_record`]
    /// into an existing scratch buffer.
    pub fn wrap_record(len: usize, canary: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        Self::write_wrap_record(&mut buf, canary);
        buf
    }

    /// Write a wrap record covering all of `buf` (allocation-free
    /// counterpart of [`RingProducer::wrap_record`]). `buf.len()` is the
    /// record length; interior bytes are zeroed.
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

/// A message pulled out of a ring by [`RingConsumer::poll`]: an owned
/// copy of the encoded bytes in a shared, refcounted buffer.
#[derive(Debug)]
pub struct OwnedMsg {
    buf: Bytes,
}

impl OwnedMsg {
    /// Decode a view over the owned bytes.
    pub fn view(&self) -> msg::MsgView<'_> {
        view(&self.buf)
    }

    /// The header without re-decoding entries.
    pub fn header(&self) -> MsgHeader {
        self.view().header
    }

    /// The shared encoded bytes (cheap to clone/slice).
    pub fn bytes(&self) -> &Bytes {
        &self.buf
    }

    /// Take the shared encoded bytes.
    pub fn into_bytes(self) -> Bytes {
        self.buf
    }

    /// Raw encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the message carries no bytes (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
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
    pub(crate) fn poll_into(&mut self, mr: &MemoryRegion, buf: &mut Vec<u8>) -> Result<bool> {
        let polled = self.copy_out(mr, buf);
        if !matches!(polled, Ok(true)) {
            buf.clear();
        }
        polled
    }

    fn copy_out(&mut self, mr: &MemoryRegion, buf: &mut Vec<u8>) -> Result<bool> {
        loop {
            let pos = self.layout.offset_of(self.head);
            // Fast probe: total_len first word.
            let mut word = [0u8; 4];
            mr.read(pos, &mut word)?;
            let total = u32::from_le_bytes(word) as usize;
            if total == 0 {
                return Ok(false);
            }
            if total < HDR_SIZE + TRAILER_SIZE || total > self.layout.capacity {
                return Err(FlockError::CorruptMessage("ring record length"));
            }
            buf.resize(total, 0);
            mr.read(pos, buf)?;
            // Wrap record: validated by canary, then skipped.
            let flags = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes"));
            if flags & FLAG_WRAP != 0 {
                let canary = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
                let trailer =
                    u64::from_le_bytes(buf[total - 8..total].try_into().expect("8 bytes"));
                if trailer != canary || canary == 0 {
                    return Ok(false); // still landing
                }
                mr.with_write(|m| m[pos..pos + total].fill(0));
                self.head += total as u64;
                continue; // look at the start of the ring
            }
            if msg::decode(buf)?.is_none() {
                return Ok(false); // canary not landed yet
            }
            mr.with_write(|m| m[pos..pos + total].fill(0));
            self.head += align_up(total) as u64;
            return Ok(true);
        }
    }

    /// [`RingConsumer::poll_into`] a fresh buffer the message then owns,
    /// for a consumer that keeps messages or hands their bytes on.
    pub fn poll(&mut self, mr: &MemoryRegion) -> Result<Option<OwnedMsg>> {
        let mut buf = Vec::new();
        let polled = self.poll_into(mr, &mut buf)?;
        // `Bytes::from(Vec)` takes ownership without copying.
        Ok(polled.then(|| OwnedMsg {
            buf: Bytes::from(buf),
        }))
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

    /// Write a message "remotely" (plain memcpy stands in for RDMA write).
    fn deliver(mr: &MemoryRegion, prod: &mut RingProducer, canary: u64, payload: &[u8]) {
        let mut staging = vec![0u8; 4096];
        let n = mk_msg(&mut staging, canary, payload);
        let res = prod.reserve(n).unwrap();
        if let Some((woff, wlen)) = res.wrap {
            let rec = RingProducer::wrap_record(wlen, canary);
            mr.write(woff, &rec).unwrap();
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

        let m1 = cons.poll(&mr).unwrap().expect("first message");
        assert_eq!(m1.view().to_entries()[0].1, b"first");
        let m2 = cons.poll(&mr).unwrap().expect("second message");
        assert_eq!(m2.view().to_entries()[0].1, b"second");
        assert!(cons.poll(&mr).unwrap().is_none());
    }

    #[test]
    fn consumed_region_is_zeroed() {
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        let mut prod = RingProducer::new(layout(1024));
        let mut cons = RingConsumer::new(layout(1024));
        deliver(&mr, &mut prod, 0xCC, b"zeroing");
        let _ = cons.poll(&mr).unwrap().unwrap();
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
        for i in 0..3 {
            deliver(&mr, &mut prod, i + 1, &[i as u8; 100]);
            let m = cons.poll(&mr).unwrap().unwrap();
            assert_eq!(m.view().to_entries()[0].1[0], i as u8);
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
                let rec = RingProducer::wrap_record(wlen, 0x77);
                mr.write(woff, &rec).unwrap();
                wrapped = true;
            }
            mr.write(res.offset, &staging[..n]).unwrap();
            let m = cons.poll(&mr).unwrap().expect("message after maybe-wrap");
            assert_eq!(m.view().to_entries()[0].1, payload.as_slice());
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
        assert!(cons.poll(&mr).unwrap().is_none());
        assert_eq!(cons.head(), 0);
        // Trailer lands; now it is consumed.
        mr.write(n - 8, &0x99u64.to_le_bytes()).unwrap();
        assert!(cons.poll(&mr).unwrap().is_some());
    }

    #[test]
    fn corrupt_length_is_an_error() {
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        let mut cons = RingConsumer::new(layout(1024));
        mr.write(0, &20u32.to_le_bytes()).unwrap(); // below minimum
        assert!(cons.poll(&mr).is_err());
    }
}
