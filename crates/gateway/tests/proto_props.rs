//! Protocol-codec property battery (ISSUE 9 satellite 1).
//!
//! For every wire handler the gateway speaks (memcached-text):
//!
//! * encode → decode round-trips arbitrary keys/values, and pipelined
//!   frame sequences, with `consumed` exactly covering the input;
//! * decoding is chunking-independent: any split of the byte stream
//!   yields the same frames;
//! * arbitrary byte soup never panics the decoder and never over-reads
//!   (`consumed <= buf.len()`);
//! * targeted malformed inputs produce errors, not hangs or panics.

use flock_gateway::proto::{
    Decoded, MemcachedText, ProtoError, Request, WireProtocol, MAX_KEY_LEN, MAX_LINE_LEN,
    MAX_VALUE_LEN,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Owned mirror of [`Request`] for comparing across buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OwnedReq {
    Get(Vec<u8>),
    Set(Vec<u8>, Vec<u8>),
    Ping,
}

impl OwnedReq {
    fn of(req: &Request<'_>) -> OwnedReq {
        match req {
            Request::Get { key } => OwnedReq::Get(key.to_vec()),
            Request::Set { key, value } => OwnedReq::Set(key.to_vec(), value.to_vec()),
            Request::Ping => OwnedReq::Ping,
        }
    }

    fn borrow(&self) -> Request<'_> {
        match self {
            OwnedReq::Get(k) => Request::Get { key: k },
            OwnedReq::Set(k, v) => Request::Set { key: k, value: v },
            OwnedReq::Ping => Request::Ping,
        }
    }
}

/// Map raw generator bytes to a valid key (non-empty, bounded, no
/// whitespace/control bytes).
fn to_key(raw: &[u8]) -> Vec<u8> {
    raw.iter().map(|b| b'a' + (b % 26)).collect()
}

/// Build one request from generator output.
fn to_req(op: u8, key_raw: &[u8], value: &[u8]) -> OwnedReq {
    match op % 3 {
        0 => OwnedReq::Get(to_key(key_raw)),
        1 => OwnedReq::Set(to_key(key_raw), value.to_vec()),
        _ => OwnedReq::Ping,
    }
}

/// Decode every complete frame in `buf`, asserting the decoder's
/// no-over-read contract at each step.
fn decode_all(proto: &dyn WireProtocol, buf: &[u8]) -> Result<Vec<OwnedReq>, ProtoError> {
    let mut at = 0usize;
    let mut out = Vec::new();
    loop {
        match proto.decode(&buf[at..])? {
            Decoded::Frame { req, consumed } => {
                assert!(consumed > 0, "a frame must consume bytes");
                assert!(consumed <= buf.len() - at, "decoder over-read");
                out.push(OwnedReq::of(&req));
                at += consumed;
            }
            Decoded::NeedMore => {
                assert_eq!(at, buf.len(), "NeedMore with a full frame buffered");
                return Ok(out);
            }
        }
        if at == buf.len() {
            return Ok(out);
        }
    }
}

/// Feed `buf` in chunks, accumulating undecoded bytes exactly like the
/// edge session does, and collect the decoded frames.
fn decode_chunked(
    proto: &dyn WireProtocol,
    buf: &[u8],
    chunks: &[usize],
) -> Result<Vec<OwnedReq>, ProtoError> {
    let mut pending: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    let mut fed = 0usize;
    let mut chunk_idx = 0usize;
    while fed < buf.len() {
        let step = 1 + chunks.get(chunk_idx).copied().unwrap_or(0) % 7;
        chunk_idx += 1;
        let end = (fed + step).min(buf.len());
        pending.extend_from_slice(&buf[fed..end]);
        fed = end;
        while let Decoded::Frame { req, consumed } = proto.decode(&pending)? {
            assert!(consumed <= pending.len(), "decoder over-read");
            out.push(OwnedReq::of(&req));
            pending.drain(..consumed);
            if pending.is_empty() {
                break;
            }
        }
    }
    assert!(pending.is_empty(), "complete stream left undecoded bytes");
    Ok(out)
}

fn protocols() -> [&'static dyn WireProtocol; 1] {
    [&MemcachedText]
}

proptest! {
    #[test]
    fn roundtrip_single_frame(
        op in 0u8..3,
        key_raw in vec(any::<u8>(), 1..64),
        value in vec(any::<u8>(), 0..256),
    ) {
        let req = to_req(op, &key_raw, &value);
        for proto in protocols() {
            let mut wire = Vec::new();
            proto.encode_request(&req.borrow(), &mut wire);
            match proto.decode(&wire) {
                Ok(Decoded::Frame { req: got, consumed }) => {
                    prop_assert_eq!(&OwnedReq::of(&got), &req, "{}", proto.name());
                    prop_assert_eq!(consumed, wire.len(), "{}", proto.name());
                }
                other => panic!("{}: expected frame, got {other:?}", proto.name()),
            }
        }
    }

    #[test]
    fn roundtrip_pipelined_stream(
        ops in vec((0u8..3, vec(any::<u8>(), 1..24), vec(any::<u8>(), 0..48)), 1..12),
        chunks in vec(0usize..7, 1..64),
    ) {
        let reqs: Vec<OwnedReq> =
            ops.iter().map(|(op, k, v)| to_req(*op, k, v)).collect();
        for proto in protocols() {
            let mut wire = Vec::new();
            for r in &reqs {
                proto.encode_request(&r.borrow(), &mut wire);
            }
            // One-shot decode sees every frame.
            let oneshot = decode_all(proto, &wire).expect("valid stream");
            prop_assert_eq!(&oneshot, &reqs, "{}", proto.name());
            // Chunked decode (arbitrary splits) sees the same frames.
            let chunked = decode_chunked(proto, &wire, &chunks).expect("valid stream");
            prop_assert_eq!(&chunked, &reqs, "{}", proto.name());
        }
    }

    #[test]
    fn every_prefix_is_needmore_never_a_lie(
        op in 0u8..3,
        key_raw in vec(any::<u8>(), 1..16),
        value in vec(any::<u8>(), 0..32),
        cut in any::<usize>(),
    ) {
        // Any strict prefix of a single valid frame must yield NeedMore
        // (the frame is incomplete), never a frame and never an error.
        let req = to_req(op, &key_raw, &value);
        for proto in protocols() {
            let mut wire = Vec::new();
            proto.encode_request(&req.borrow(), &mut wire);
            let cut = cut % wire.len(); // strict prefix
            match proto.decode(&wire[..cut]) {
                Ok(Decoded::NeedMore) => {}
                other => panic!(
                    "{}: prefix {cut}/{} gave {other:?}",
                    proto.name(),
                    wire.len()
                ),
            }
        }
    }

    #[test]
    fn byte_soup_never_panics_or_overreads(raw in vec(any::<u8>(), 0..600)) {
        for proto in protocols() {
            match proto.decode(&raw) {
                Ok(Decoded::Frame { consumed, .. }) => {
                    prop_assert!(consumed <= raw.len(), "{} over-read", proto.name());
                }
                Ok(Decoded::NeedMore) | Err(_) => {}
            }
        }
    }

    #[test]
    fn textish_soup_never_panics(
        raw in vec(0u8..128, 0..300),
    ) {
        // ASCII-biased soup exercises the text parsers' token paths
        // (random high bytes bail too early to reach them).
        for proto in protocols() {
            match proto.decode(&raw) {
                Ok(Decoded::Frame { consumed, .. }) => {
                    prop_assert!(consumed <= raw.len());
                }
                Ok(Decoded::NeedMore) | Err(_) => {}
            }
        }
    }
}

#[test]
fn memcached_malformed_inputs_error() {
    let p = MemcachedText;
    let cases: &[&[u8]] = &[
        b"gut key\r\n",                      // unknown command
        b"get\r\n",                          // missing key
        b"get a b\r\n",                      // multi-key
        b"set k 0 0 abc\r\n",                // non-numeric length
        b"set k 0 0\r\n",                    // missing length
        b"set k 0 0 3 junk\r\n",             // trailing tokens
        b"set k 0 0 99999999999\r\n",        // overflowing length
        b"set k 0 0 3\r\nabcXY",             // data not CRLF-terminated
        b"ping now\r\n",                     // ping with arguments
        b"\r\n",                             // empty command line
    ];
    for c in cases {
        assert!(p.decode(c).is_err(), "{:?} must be rejected", String::from_utf8_lossy(c));
    }
    // Oversized value length fails fast, before the data arrives.
    let huge = format!("set k 0 0 {}\r\n", MAX_VALUE_LEN + 1);
    assert_eq!(p.decode(huge.as_bytes()), Err(ProtoError::ValueTooLong));
    // Oversized key.
    let mut long_key = b"get ".to_vec();
    long_key.extend(std::iter::repeat_n(b'k', MAX_KEY_LEN + 1));
    long_key.extend_from_slice(b"\r\n");
    assert_eq!(p.decode(&long_key), Err(ProtoError::KeyTooLong));
    // Unterminated line beyond the line bound.
    let no_eol = vec![b'g'; MAX_LINE_LEN + 8];
    assert_eq!(p.decode(&no_eol), Err(ProtoError::LineTooLong));
}

#[test]
fn memcached_value_may_contain_crlf() {
    // Length-prefixed framing must not get confused by CRLF inside the
    // value bytes.
    let p = MemcachedText;
    let wire = b"set k 0 0 6\r\nab\r\ncd\r\n";
    match p.decode(wire) {
        Ok(Decoded::Frame { req: Request::Set { key, value }, consumed }) => {
            assert_eq!(key, b"k");
            assert_eq!(value, b"ab\r\ncd");
            assert_eq!(consumed, wire.len());
        }
        other => panic!("{other:?}"),
    }
}
