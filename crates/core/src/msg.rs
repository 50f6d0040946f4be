//! The coalesced message layout (paper §4.1, Figure 5).
//!
//! A message carries one or more RPC requests (or responses) and has four
//! parts:
//!
//! ```text
//! ┌────────┬───────┬───────┬───────┬───────┬─────┬────────┐
//! │ Header │ Meta₁ │ Data₁ │ … │ Metaₙ │ Dataₙ │ Canary │
//! └────────┴───────┴───────┴───────┴───────┴─────┴────────┘
//! ```
//!
//! * **Header** — total length, entry count, flags, the expected canary,
//!   and two piggyback words: the sender's ring `Head` (so the peer can
//!   reclaim space without RDMA reads) and an auxiliary word used for
//!   credit requests/grants and the reported coalescing degree.
//! * **Metadata** — per entry: data length, thread id, sequence id, RPC id.
//!   The sequence id is a thread-local monotone counter letting a thread
//!   match an outstanding request to its response.
//! * **Canary** — a 64-bit value repeated from the header at the very end
//!   of the message. Because RDMA writes land in increasing address order,
//!   a matching trailer canary means the whole message has arrived.
//!
//! All integers are little-endian. The codec is pure (no I/O), so the
//! threaded runtime and the discrete-event models share it.

use crate::error::{FlockError, Result};

/// Header size in bytes.
pub const HDR_SIZE: usize = 32;
/// Per-entry metadata size in bytes.
pub const META_SIZE: usize = 24;
/// Trailing canary size in bytes.
pub const TRAILER_SIZE: usize = 8;

/// Flag: `aux` carries a credit grant (server→client). A grant of zero
/// credits deactivates the lane and carries the drain epoch in the upper
/// half of `aux` ([`pack_aux`]`(0, epoch)`).
pub(crate) const FLAG_CREDIT_GRANT: u16 = 1 << 1;
/// Flag: the zero-entry marker a client posts as its last message on a
/// deactivated lane (client→server), the drain epoch of the zero grant it
/// answers in the upper half of `aux`: nothing follows on this lane until
/// the server grants credits again (see [`crate::credit::LaneGate`]).
pub const FLAG_DRAINED: u16 = 1 << 2;

/// The top bit of a request's `rpc_id`: a posted request, which the
/// server handles and does not answer
/// ([`crate::client::FlThread::post_rpc`]). Its sender learns it landed
/// from the completion of the RDMA write that carried it into the
/// server's request ring. No handler id has the bit
/// ([`crate::server::FlockServer::reg_handler`] refuses one).
pub const RPC_POSTED: u32 = 1 << 31;

/// Whether a request's `rpc_id` marks it posted ([`RPC_POSTED`]).
pub(crate) fn is_posted(rpc_id: u32) -> bool {
    rpc_id & RPC_POSTED != 0
}

/// Per-entry metadata (one RPC request or response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Length of the entry's data in bytes.
    pub len: u32,
    /// Sending thread's id; responses are routed back by this.
    pub thread_id: u32,
    /// Thread-local sequence number matching requests to responses.
    pub seq: u64,
    /// RPC handler id (requests; [`RPC_POSTED`] marks a posted one) or
    /// status code (responses).
    pub rpc_id: u32,
}

/// Decoded message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// Total message length in bytes including header and trailer.
    pub total_len: u32,
    /// Number of entries.
    pub count: u16,
    /// Flag bits (`FLAG_*`).
    pub flags: u16,
    /// The canary expected at the end of the message.
    pub canary: u64,
    /// Piggybacked ring `Head` of the sender's inbound ring.
    pub head: u64,
    /// Auxiliary word (credits requested/granted, coalescing degree).
    pub aux: u64,
}

/// Compute the encoded size of a message with the given entry data lengths.
pub fn encoded_size(data_lens: impl IntoIterator<Item = usize>) -> usize {
    HDR_SIZE + data_lens.into_iter().map(entry_size).sum::<usize>() + TRAILER_SIZE
}

/// The bytes one entry of `data_len` payload bytes adds to a message.
pub fn entry_size(data_len: usize) -> usize {
    META_SIZE + data_len
}

/// An entry to encode: metadata plus a borrowed payload.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    /// Entry metadata; `meta.len` must equal `data.len()`.
    pub meta: EntryMeta,
    /// Payload bytes.
    pub data: &'a [u8],
}

/// Encode a message into `buf`, returning the number of bytes written.
///
/// `buf` must be at least [`encoded_size`] of the entries. The header's
/// `total_len` and `count` fields are computed; `flags`, `canary`, `head`
/// and `aux` are taken from `header`.
pub fn encode(buf: &mut [u8], header: &MsgHeader, entries: &[EntryRef<'_>]) -> Result<usize> {
    encode_iter(buf, header, entries.iter().copied())
}

/// [`encode`] over any cloneable entry iterator.
///
/// Hot-path flushes encode straight from their scratch structures
/// (`(EntryMeta, Bytes)` pairs mapped to [`EntryRef`]s on the fly), so
/// no intermediate `Vec<EntryRef>` is materialized per message. The
/// iterator is walked twice (sizing pass, then write pass), hence
/// `Clone`.
pub(crate) fn encode_iter<'a, I>(buf: &mut [u8], header: &MsgHeader, entries: I) -> Result<usize>
where
    I: Iterator<Item = EntryRef<'a>> + Clone,
{
    let total = encoded_size(entries.clone().map(|e| e.data.len()));
    if buf.len() < total {
        return Err(FlockError::MessageTooLarge {
            need: total,
            capacity: buf.len(),
        });
    }
    debug_assert!(
        header.canary != 0,
        "canary 0 is reserved for empty/in-flight slots (see decode)"
    );

    let mut off = HDR_SIZE;
    let mut count: u16 = 0;
    for e in entries {
        debug_assert_eq!(e.meta.len as usize, e.data.len());
        buf[off..off + 4].copy_from_slice(&e.meta.len.to_le_bytes());
        buf[off + 4..off + 8].copy_from_slice(&e.meta.thread_id.to_le_bytes());
        buf[off + 8..off + 16].copy_from_slice(&e.meta.seq.to_le_bytes());
        buf[off + 16..off + 20].copy_from_slice(&e.meta.rpc_id.to_le_bytes());
        buf[off + 20..off + 24].copy_from_slice(&0u32.to_le_bytes());
        off += META_SIZE;
        buf[off..off + e.data.len()].copy_from_slice(e.data);
        off += e.data.len();
        count += 1;
    }

    buf[0..4].copy_from_slice(&(total as u32).to_le_bytes());
    buf[4..6].copy_from_slice(&count.to_le_bytes());
    buf[6..8].copy_from_slice(&header.flags.to_le_bytes());
    buf[8..16].copy_from_slice(&header.canary.to_le_bytes());
    buf[16..24].copy_from_slice(&header.head.to_le_bytes());
    buf[24..32].copy_from_slice(&header.aux.to_le_bytes());

    buf[off..off + 8].copy_from_slice(&header.canary.to_le_bytes());
    off += 8;
    debug_assert_eq!(off, total);
    Ok(total)
}

/// Peek at the `total_len` field of a (possibly partial) message at the
/// start of `buf`. Returns `None` if fewer than 4 bytes are present or the
/// field is zero (ring slot empty).
pub(crate) fn peek_total_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    if len == 0 {
        None
    } else {
        Some(len)
    }
}

/// A decoded message borrowing the underlying buffer.
#[derive(Debug)]
pub struct MsgView<'a> {
    /// The header.
    pub header: MsgHeader,
    body: &'a [u8],
}

impl<'a> MsgView<'a> {
    /// Iterate over the entries.
    pub fn entries(&self) -> EntryIter<'a> {
        EntryIter {
            body: self.body,
            remaining: self.header.count,
            off: 0,
        }
    }

    /// Collect all entries (convenience).
    pub fn to_entries(&self) -> Vec<(EntryMeta, &'a [u8])> {
        self.entries().collect()
    }
}

/// Iterator over `(EntryMeta, data)` pairs of a [`MsgView`].
#[derive(Debug)]
pub struct EntryIter<'a> {
    body: &'a [u8],
    remaining: u16,
    off: usize,
}

impl<'a> Iterator for EntryIter<'a> {
    type Item = (EntryMeta, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let b = self.body;
        let off = self.off;
        let len = u32::from_le_bytes(b[off..off + 4].try_into().ok()?) as usize;
        let meta = EntryMeta {
            len: len as u32,
            thread_id: u32::from_le_bytes(b[off + 4..off + 8].try_into().ok()?),
            seq: u64::from_le_bytes(b[off + 8..off + 16].try_into().ok()?),
            rpc_id: u32::from_le_bytes(b[off + 16..off + 20].try_into().ok()?),
        };
        let data = &b[off + META_SIZE..off + META_SIZE + len];
        self.off = off + META_SIZE + len;
        self.remaining -= 1;
        Some((meta, data))
    }
}

/// Decode and validate a complete message at the start of `buf`.
///
/// Checks: length fields are structurally consistent and the trailer
/// canary matches the header canary (write-completeness, §4.1). Returns
/// `Ok(None)` if the slot is empty (`total_len == 0`) or the trailer has
/// not yet arrived — callers poll again. Returns an error only for
/// structurally impossible contents.
pub fn decode(buf: &[u8]) -> Result<Option<MsgView<'_>>> {
    let Some(total) = peek_total_len(buf) else {
        return Ok(None);
    };
    if total < HDR_SIZE + TRAILER_SIZE {
        return Err(FlockError::CorruptMessage("length below minimum"));
    }
    if total > buf.len() {
        return Err(FlockError::CorruptMessage("length exceeds buffer"));
    }
    let count = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"));
    let flags = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes"));
    let canary = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let head = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    let aux = u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes"));

    if canary == 0 {
        // Canaries are always nonzero (encode rejects zero), so a zero
        // canary means the header has not fully landed: the trailer slot
        // is also still zero and would spuriously "match". Without this
        // check, polling a partially-landed header reaches the structural
        // validation below and reports a hard error for an in-flight
        // write. Mirrors the wrap-record check in `ring::RingConsumer`.
        return Ok(None);
    }

    let trailer = u64::from_le_bytes(
        buf[total - TRAILER_SIZE..total]
            .try_into()
            .expect("8 bytes"),
    );
    if trailer != canary {
        // Message still in flight: the canary has not landed yet.
        return Ok(None);
    }

    // Structural validation of entry lengths.
    let body = &buf[HDR_SIZE..total - TRAILER_SIZE];
    let mut off = 0usize;
    for _ in 0..count {
        if off + META_SIZE > body.len() {
            return Err(FlockError::CorruptMessage("metadata overruns body"));
        }
        let len = u32::from_le_bytes(body[off..off + 4].try_into().expect("4 bytes")) as usize;
        off += META_SIZE + len;
        if off > body.len() {
            return Err(FlockError::CorruptMessage("entry data overruns body"));
        }
    }
    if off != body.len() {
        return Err(FlockError::CorruptMessage("trailing garbage in body"));
    }

    Ok(Some(MsgView {
        header: MsgHeader {
            total_len: total as u32,
            count,
            flags,
            canary,
            head,
            aux,
        },
        body,
    }))
}

/// Pack a credit count and a 16-bit companion into the header `aux`
/// word. The companion is the drain epoch of a zero grant and of the
/// [`FLAG_DRAINED`] marker that answers it, zero otherwise.
pub(crate) fn pack_aux(credits: u32, upper: u16) -> u64 {
    (credits as u64) | ((upper as u64) << 32)
}

/// Unpack [`pack_aux`].
pub(crate) fn unpack_aux(aux: u64) -> (u32, u16) {
    (aux as u32, (aux >> 32) as u16)
}

/// Pack the immediate word of a credit-renewal write-with-imm (paper §7):
/// the sender's median coalescing degree since its last renewal. The
/// receiver knows the lane from the QP the immediate arrived on.
pub(crate) fn pack_credit_imm(median_degree: u16) -> u32 {
    median_degree as u32
}

/// Unpack [`pack_credit_imm`].
pub(crate) fn unpack_credit_imm(imm: u32) -> u16 {
    imm as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(len: usize, thread: u32, seq: u64, rpc: u32) -> EntryMeta {
        EntryMeta {
            len: len as u32,
            thread_id: thread,
            seq,
            rpc_id: rpc,
        }
    }

    fn header(canary: u64) -> MsgHeader {
        MsgHeader {
            total_len: 0,
            count: 0,
            flags: FLAG_CREDIT_GRANT,
            canary,
            head: 777,
            aux: pack_aux(32, 3),
        }
    }

    #[test]
    fn roundtrip_single_entry() {
        let mut buf = vec![0u8; 256];
        let data = b"hello rpc";
        let n = encode(
            &mut buf,
            &header(0xDEAD),
            &[EntryRef {
                meta: meta(data.len(), 4, 99, 12),
                data,
            }],
        )
        .unwrap();
        assert_eq!(n, encoded_size([data.len()]));
        let view = decode(&buf).unwrap().expect("complete message");
        assert_eq!(view.header.count, 1);
        assert_eq!(view.header.canary, 0xDEAD);
        assert_eq!(view.header.head, 777);
        assert_eq!(unpack_aux(view.header.aux), (32, 3));
        let entries = view.to_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, meta(data.len(), 4, 99, 12));
        assert_eq!(entries[0].1, data);
    }

    #[test]
    fn roundtrip_coalesced_entries() {
        let mut buf = vec![0u8; 1024];
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8; 10 + i]).collect();
        let entries: Vec<EntryRef<'_>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| EntryRef {
                meta: meta(p.len(), i as u32, i as u64 * 10, 1),
                data: p,
            })
            .collect();
        let n = encode(&mut buf, &header(42), &entries).unwrap();
        assert_eq!(n, encoded_size(payloads.iter().map(|p| p.len())));
        let view = decode(&buf).unwrap().unwrap();
        assert_eq!(view.header.count, 5);
        for (i, (m, d)) in view.entries().enumerate() {
            assert_eq!(m.thread_id, i as u32);
            assert_eq!(d, payloads[i].as_slice());
        }
    }

    #[test]
    fn empty_slot_decodes_to_none() {
        let buf = vec![0u8; 64];
        assert!(decode(&buf).unwrap().is_none());
        assert_eq!(peek_total_len(&buf), None);
    }

    #[test]
    fn partial_write_is_invisible_until_canary_lands() {
        let mut buf = vec![0u8; 256];
        let data = [7u8; 16];
        encode(
            &mut buf,
            &header(0xFEED_BEEF),
            &[EntryRef {
                meta: meta(16, 0, 0, 0),
                data: &data,
            }],
        )
        .unwrap();
        // Simulate the trailer not having arrived (RDMA writes land in
        // increasing address order): clobber the last 8 bytes.
        let total = peek_total_len(&buf).unwrap();
        buf[total - 8..total].copy_from_slice(&[0u8; 8]);
        assert!(decode(&buf).unwrap().is_none());
    }

    #[test]
    fn zero_entry_message_is_valid() {
        // Used for pure control traffic (credit grant piggyback).
        let mut buf = vec![0u8; 64];
        let n = encode(&mut buf, &header(5), &[]).unwrap();
        assert_eq!(n, HDR_SIZE + TRAILER_SIZE);
        let view = decode(&buf).unwrap().unwrap();
        assert_eq!(view.header.count, 0);
        assert_eq!(view.to_entries().len(), 0);
    }

    #[test]
    fn corrupt_count_is_detected() {
        let mut buf = vec![0u8; 256];
        let data = [1u8; 8];
        encode(
            &mut buf,
            &header(1),
            &[EntryRef {
                meta: meta(8, 0, 0, 0),
                data: &data,
            }],
        )
        .unwrap();
        // Inflate the count field: metadata would overrun the body.
        buf[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(decode(&buf), Err(FlockError::CorruptMessage(_))));
    }

    #[test]
    fn corrupt_entry_len_is_detected() {
        let mut buf = vec![0u8; 256];
        let data = [1u8; 8];
        encode(
            &mut buf,
            &header(1),
            &[EntryRef {
                meta: meta(8, 0, 0, 0),
                data: &data,
            }],
        )
        .unwrap();
        // Corrupt the entry length so that data overruns the body.
        buf[HDR_SIZE..HDR_SIZE + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn length_below_minimum_rejected() {
        let mut buf = vec![0u8; 64];
        buf[0..4].copy_from_slice(&8u32.to_le_bytes());
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn length_beyond_buffer_rejected() {
        let mut buf = vec![0u8; 64];
        buf[0..4].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn aux_packing_roundtrip() {
        let aux = pack_aux(u32::MAX, 1234);
        assert_eq!(unpack_aux(aux), (u32::MAX, 1234));
        assert_eq!(unpack_aux(pack_aux(0, 0)), (0, 0));
    }

    #[test]
    fn encode_iter_matches_slice_encode() {
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        let data = b"same bytes";
        let e = [EntryRef {
            meta: meta(data.len(), 1, 2, 3),
            data,
        }];
        let na = encode(&mut a, &header(7), &e).unwrap();
        let nb = encode_iter(&mut b, &header(7), e.iter().copied()).unwrap();
        assert_eq!(na, nb);
        assert_eq!(a[..na], b[..nb]);
    }

    #[test]
    fn encode_rejects_undersized_buffer() {
        let mut buf = vec![0u8; 16];
        let r = encode(&mut buf, &header(1), &[]);
        assert!(matches!(r, Err(FlockError::MessageTooLarge { .. })));
    }
}
