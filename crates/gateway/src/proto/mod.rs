//! Pluggable wire protocols for the gateway's edge.
//!
//! An edge session owns one [`WireProtocol`] implementation and feeds it
//! raw bytes as they arrive from the client socket. Decoding is
//! *incremental*: [`WireProtocol::decode`] looks at the buffered prefix
//! and either yields one complete frame (plus how many bytes it
//! consumed), asks for more bytes, or rejects the stream as malformed.
//!
//! Decoder contract (enforced by the proptest battery in
//! `tests/proto_props.rs`):
//!
//! * **Never panics** on arbitrary input — no indexing, no `unwrap`,
//!   no integer overflow on attacker-controlled lengths.
//! * **Never over-reads** — the reported `consumed` is at most the
//!   buffered length, and a frame is only reported once every one of
//!   its bytes is buffered.
//! * **Bounded buffering** — inputs that cannot possibly become a valid
//!   frame (oversized keys/values/lines) fail fast with
//!   [`ProtoError`] instead of forcing the edge to buffer forever.
//! * **Deterministic** — the same bytes always decode to the same
//!   frames regardless of how they were chunked across `decode` calls.

pub mod memcached;
pub mod ping;
pub mod resp;

pub use memcached::MemcachedText;
pub use ping::PingProto;
pub use resp::Resp;

/// Maximum key length accepted by any gateway protocol (memcached's
/// classic 250-byte limit).
pub const MAX_KEY_LEN: usize = 250;

/// Maximum value length accepted by any gateway protocol. Bounded well
/// below the Flock ring capacity so one SET always fits in a request
/// message.
pub const MAX_VALUE_LEN: usize = 8 * 1024;

/// Maximum length of a protocol text line (command + key + integers).
pub const MAX_LINE_LEN: usize = 512;

/// Append the decimal representation of `n` without allocating. The
/// encoders run inside the edge pump (a hot path whose allocations the
/// `tenant` suite's `allocs` counts), where a per-response `to_string`
/// would churn the allocator.
pub(crate) fn push_decimal(out: &mut Vec<u8>, n: usize) {
    let mut buf = [0u8; 20]; // enough for u64::MAX
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// One decoded request frame, borrowing from the session's receive
/// buffer (the decoder never copies key/value bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Read a key.
    Get {
        /// The key bytes.
        key: &'a [u8],
    },
    /// Write a key.
    Set {
        /// The key bytes.
        key: &'a [u8],
        /// The value bytes.
        value: &'a [u8],
    },
    /// Liveness probe.
    Ping,
}

/// Outcome of one incremental decode attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete frame occupying the first `consumed` buffered bytes.
    Frame {
        /// The decoded request.
        req: Request<'a>,
        /// Bytes of the buffer this frame consumed (`<= buf.len()`).
        consumed: usize,
    },
    /// The buffered prefix is a valid but incomplete frame.
    NeedMore,
}

/// Why a byte stream was rejected. The edge reports the error to the
/// client and drops the session — a malformed stream has no recoverable
/// framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The bytes violate the protocol grammar.
    Malformed(&'static str),
    /// A key exceeded [`MAX_KEY_LEN`].
    KeyTooLong,
    /// A value exceeded [`MAX_VALUE_LEN`].
    ValueTooLong,
    /// A text line exceeded [`MAX_LINE_LEN`] without terminating.
    LineTooLong,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Malformed(why) => write!(f, "malformed request: {why}"),
            ProtoError::KeyTooLong => write!(f, "key exceeds {MAX_KEY_LEN} bytes"),
            ProtoError::ValueTooLong => write!(f, "value exceeds {MAX_VALUE_LEN} bytes"),
            ProtoError::LineTooLong => write!(f, "line exceeds {MAX_LINE_LEN} bytes"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One response frame, borrowing the backend's reply bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response<'a> {
    /// GET result: the echoed key and the value, if the key exists.
    Value {
        /// The key the client asked for (memcached echoes it back).
        key: &'a [u8],
        /// The stored value, or `None` on a miss.
        value: Option<&'a [u8]>,
    },
    /// SET acknowledged.
    Stored,
    /// PING acknowledged.
    Pong,
    /// Protocol-level error report.
    Error(&'static str),
}

/// A wire protocol the gateway can speak on its edge.
pub trait WireProtocol: Send + Sync {
    /// Short protocol name (metrics, logs, bench output).
    fn name(&self) -> &'static str;

    /// Try to decode one frame from the buffered prefix `buf`.
    fn decode<'a>(&self, buf: &'a [u8]) -> Result<Decoded<'a>, ProtoError>;

    /// Encode a request (the client half — tests and load generators).
    fn encode_request(&self, req: &Request<'_>, out: &mut Vec<u8>);

    /// Encode a response frame into `out` (appends; never clears).
    fn encode_response(&self, resp: &Response<'_>, out: &mut Vec<u8>);
}

/// Find the first CRLF in `buf`, returning the index of the `\r`.
/// Enforces [`MAX_LINE_LEN`]: a longer prefix with no terminator is a
/// [`ProtoError::LineTooLong`], not an invitation to buffer forever.
pub(crate) fn find_crlf(buf: &[u8]) -> Result<Option<usize>, ProtoError> {
    let window = &buf[..buf.len().min(MAX_LINE_LEN + 2)];
    match window.windows(2).position(|w| w == b"\r\n") {
        Some(i) if i <= MAX_LINE_LEN => Ok(Some(i)),
        Some(_) => Err(ProtoError::LineTooLong),
        None if buf.len() > MAX_LINE_LEN => Err(ProtoError::LineTooLong),
        None => Ok(None),
    }
}

/// Parse an ASCII decimal `usize` with an overflow guard (wire bytes
/// must never panic the decoder).
pub(crate) fn parse_usize(tok: &[u8]) -> Result<usize, ProtoError> {
    if tok.is_empty() || tok.len() > 10 {
        return Err(ProtoError::Malformed("bad integer"));
    }
    let mut n: usize = 0;
    for &b in tok {
        if !b.is_ascii_digit() {
            return Err(ProtoError::Malformed("bad integer"));
        }
        n = n * 10 + (b - b'0') as usize;
    }
    Ok(n)
}

/// Validate a key token: non-empty, bounded, no whitespace or control
/// bytes (they would corrupt text-protocol framing on the way back).
pub(crate) fn check_key(key: &[u8]) -> Result<(), ProtoError> {
    if key.is_empty() {
        return Err(ProtoError::Malformed("empty key"));
    }
    if key.len() > MAX_KEY_LEN {
        return Err(ProtoError::KeyTooLong);
    }
    if key.iter().any(|&b| b <= b' ' || b == 0x7f) {
        return Err(ProtoError::Malformed("key contains whitespace or control bytes"));
    }
    Ok(())
}
