//! Edge sessions: the per-client decode/dispatch pump.
//!
//! One [`EdgeSession`] stands for one client socket. The owning edge
//! thread feeds it raw bytes as they arrive; [`EdgeSession::pump`]
//! decodes complete frames, dispatches each as a Flock RPC on the
//! tenant's shared backend connection, and appends the encoded
//! responses to the caller's output buffer.
//!
//! This is the gateway's hot path (the `tenant` suite's `allocs` counts
//! its allocations): the session reuses its receive buffer and SET-payload
//! scratch across calls, so steady-state pumping allocates only when a
//! buffer must grow past its high-water mark.

use std::sync::Arc;

use bytes::Bytes;
use flock_core::client::FlThread;
use flock_core::error::FlockError;

use crate::proto::{Decoded, ProtoError, Request, Response, WireProtocol};
use crate::rpc::{key_hash, RPC_GET, RPC_PING, RPC_SET, TAG_HIT};
use crate::tenant::SessionId;

/// Why a session died. Protocol errors are the client's fault (the
/// error frame is already encoded into the output buffer); RPC errors
/// mean the backend connection failed.
#[derive(Debug)]
pub enum EdgeError {
    /// The client sent bytes that violate its wire protocol.
    Proto(ProtoError),
    /// The backend RPC failed (connection tear-down, timeout).
    Rpc(FlockError),
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::Proto(e) => write!(f, "protocol error: {e}"),
            EdgeError::Rpc(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for EdgeError {}

/// One client session on the gateway edge.
pub struct EdgeSession {
    session: SessionId,
    tenant: u32,
    proto: Arc<dyn WireProtocol>,
    /// The session's lane into the tenant's shared Flock connection.
    thread: FlThread,
    /// Undecoded input, compacted after every pump.
    inbuf: Vec<u8>,
    /// SET-payload assembly scratch (key hash + value), reused.
    scratch: Vec<u8>,
    frames: u64,
}

impl EdgeSession {
    pub(crate) fn new(
        session: SessionId,
        tenant: u32,
        proto: Arc<dyn WireProtocol>,
        thread: FlThread,
    ) -> EdgeSession {
        EdgeSession {
            session,
            tenant,
            proto,
            thread,
            inbuf: Vec::new(),
            scratch: Vec::new(),
            frames: 0,
        }
    }

    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.session
    }

    /// The tenant this session acts for.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The protocol this session speaks.
    pub fn protocol(&self) -> &str {
        self.proto.name()
    }

    /// Frames dispatched over this session's lifetime.
    pub fn frames_dispatched(&self) -> u64 {
        self.frames
    }

    /// Bytes buffered awaiting a complete frame.
    pub fn buffered(&self) -> usize {
        self.inbuf.len()
    }

    /// Feed `input` bytes into the session: decode every complete
    /// frame, dispatch each to the backend, and append the encoded
    /// responses to `out`. Returns the number of frames dispatched.
    ///
    /// On a protocol error the error frame is appended to `out` (so the
    /// caller can flush it to the client before closing) and the
    /// session is dead — framing cannot be recovered mid-stream.
    pub fn pump(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, EdgeError> {
        self.inbuf.extend_from_slice(input);
        let mut consumed = 0usize;
        let mut dispatched = 0usize;
        let result = loop {
            match self.proto.decode(&self.inbuf[consumed..]) {
                Ok(Decoded::NeedMore) => break Ok(dispatched),
                Ok(Decoded::Frame { req, consumed: n }) => {
                    debug_assert!(n <= self.inbuf.len() - consumed, "decoder over-read");
                    // Dispatch wants `&mut self.scratch` while `req`
                    // borrows `self.inbuf`; split the call by hashing
                    // the borrow away first.
                    let reply = match req {
                        Request::Get { key } => {
                            let hash = key_hash(key);
                            let reply = self
                                .thread
                                .call(RPC_GET, &hash.to_le_bytes())
                                .map_err(EdgeError::Rpc)?;
                            let resp = decode_get(&reply);
                            let resp = match resp {
                                Response::Value { value, .. } => Response::Value { key, value },
                                other => other,
                            };
                            self.proto.encode_response(&resp, out);
                            None
                        }
                        Request::Set { key, value } => {
                            self.scratch.clear();
                            self.scratch.extend_from_slice(&key_hash(key).to_le_bytes());
                            self.scratch.extend_from_slice(value);
                            Some(RPC_SET)
                        }
                        Request::Ping => Some(RPC_PING),
                    };
                    if let Some(rpc_id) = reply {
                        let payload: &[u8] = if rpc_id == RPC_SET { &self.scratch } else { b"ping" };
                        let reply = self
                            .thread
                            .call(rpc_id, payload)
                            .map_err(EdgeError::Rpc)?;
                        let resp = if reply.first() == Some(&TAG_HIT) {
                            if rpc_id == RPC_SET {
                                Response::Stored
                            } else {
                                Response::Pong
                            }
                        } else {
                            Response::Error("backend rejected request")
                        };
                        self.proto.encode_response(&resp, out);
                    }
                    consumed += n;
                    dispatched += 1;
                    self.frames += 1;
                }
                Err(e) => {
                    self.proto.encode_response(&Response::Error("malformed request"), out);
                    break Err(EdgeError::Proto(e));
                }
            }
        };
        // Compact: drop the decoded prefix, keep the partial tail.
        if consumed > 0 {
            self.inbuf.drain(..consumed);
        }
        result
    }
}

/// Interpret a GET reply: `[TAG_HIT, value...]` or `[TAG_MISS]`.
fn decode_get(reply: &Bytes) -> Response<'_> {
    match reply.first() {
        Some(&TAG_HIT) => Response::Value {
            key: &[],
            value: Some(&reply[1..]),
        },
        _ => Response::Value {
            key: &[],
            value: None,
        },
    }
}
