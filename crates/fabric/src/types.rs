//! Identifier newtypes, the map they key, and the fabric error type.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a node (machine) attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A queue pair number, unique within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpNum(pub u32);

/// A caller-chosen work-request identifier, echoed in completions
/// (`wr_id` in the verbs API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WrId(pub u64);

/// Local protection key naming a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lkey(pub u32);

/// Remote access key naming a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rkey(pub u32);

/// A hash map over integer keys a hot path looks up — the fabric's node
/// ids, QP numbers and connection-cache keys on a verb's way through the
/// NIC, FlockTX's row index. Hashed with one multiply instead of SipHash:
/// the keys are the system's own counters and ids, so nothing needs
/// SipHash's flooding resistance, and no map of these is iterated where
/// order matters.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// [`KeyMap`]'s hasher: Fibonacci hashing of integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // A product's high bits mix all of the key, its low bits only the
        // key's low bits; the table indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// RDMA transport service types (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Reliable connection: all verbs, 2 GB MTU, hardware retransmission.
    Rc,
    /// Unreliable connection: send/recv and write only, no ACKs.
    Uc,
    /// Unreliable datagram: send/recv only, 4 KB MTU, one-to-many.
    Ud,
}

impl Transport {
    /// Maximum message size for this transport (paper Table 1).
    pub const fn max_msg_size(self) -> usize {
        match self {
            Transport::Rc | Transport::Uc => 2 << 30, // 2 GB
            Transport::Ud => 4 << 10,                 // 4 KB
        }
    }

    /// Whether one-sided reads are supported.
    pub const fn supports_read(self) -> bool {
        matches!(self, Transport::Rc)
    }

    /// Whether one-sided writes are supported.
    pub const fn supports_write(self) -> bool {
        matches!(self, Transport::Rc | Transport::Uc)
    }

    /// Whether remote atomics are supported.
    pub const fn supports_atomic(self) -> bool {
        matches!(self, Transport::Rc)
    }

    /// Whether two-sided send/recv is supported (all transports).
    pub(crate) const fn supports_send_recv(self) -> bool {
        true
    }

    /// Whether the hardware guarantees reliable, ordered delivery.
    pub const fn reliable(self) -> bool {
        matches!(self, Transport::Rc)
    }

    /// Whether this is a connected (one-to-one) transport.
    pub const fn connected(self) -> bool {
        matches!(self, Transport::Rc | Transport::Uc)
    }
}

/// Queue pair state machine, following the verbs model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum QpState {
    /// Freshly created; only `post_recv` is legal.
    Init,
    /// Ready to receive.
    Rtr,
    /// Ready to send (fully operational).
    Rts,
    /// Error: all posted and future work completes with a flush error.
    Error,
}

impl QpState {
    /// The state a [`QpState`]`as u8` names.
    pub(crate) const fn from_u8(bits: u8) -> QpState {
        match bits {
            0 => QpState::Init,
            1 => QpState::Rtr,
            2 => QpState::Rts,
            _ => QpState::Error,
        }
    }
}

/// Errors surfaced by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The node is not registered with the fabric.
    NodeNotFound(NodeId),
    /// The queue pair does not exist on the target node.
    QpNotFound(NodeId, QpNum),
    /// The QP is in the wrong state for the requested operation.
    InvalidState(QpState),
    /// The transport does not support the requested verb.
    UnsupportedVerb {
        /// Transport of the posting QP.
        transport: Transport,
        /// Human-readable verb name.
        verb: &'static str,
    },
    /// Payload exceeds the transport MTU.
    PayloadTooLarge {
        /// Requested length in bytes.
        len: usize,
        /// Maximum allowed by the transport.
        max: usize,
    },
    /// Remote key does not name a registered region.
    BadRkey(Rkey),
    /// Local key does not name a registered region.
    BadLkey(Lkey),
    /// Address range falls outside the region, or the region lacks the
    /// required access rights.
    AccessViolation {
        /// Offending start address.
        addr: u64,
        /// Length of the access.
        len: usize,
    },
    /// Remote atomic target address is not 8-byte aligned.
    Misaligned(u64),
    /// A two-sided send arrived but the receiver had no posted buffer
    /// (receiver-not-ready).
    NoReceiveBuffer,
    /// The posted receive buffer is smaller than the inbound payload.
    ReceiveBufferTooSmall {
        /// Posted buffer capacity.
        have: usize,
        /// Inbound payload length.
        need: usize,
    },
    /// A connected QP has no remote peer established.
    NotConnected,
    /// UD send is missing destination addressing.
    MissingDestination,
    /// The fabric (NIC engine) has shut down.
    Shutdown,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::NodeNotFound(n) => write!(f, "node {n:?} not found"),
            FabricError::QpNotFound(n, q) => write!(f, "qp {q:?} not found on node {n:?}"),
            FabricError::InvalidState(s) => write!(f, "queue pair in invalid state {s:?}"),
            FabricError::UnsupportedVerb { transport, verb } => {
                write!(f, "{verb} not supported on {transport:?}")
            }
            FabricError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds transport max {max}")
            }
            FabricError::BadRkey(k) => write!(f, "invalid rkey {k:?}"),
            FabricError::BadLkey(k) => write!(f, "invalid lkey {k:?}"),
            FabricError::AccessViolation { addr, len } => {
                write!(f, "access violation at {addr:#x} len {len}")
            }
            FabricError::Misaligned(a) => write!(f, "atomic target {a:#x} not 8-byte aligned"),
            FabricError::NoReceiveBuffer => write!(f, "receiver not ready: no posted buffer"),
            FabricError::ReceiveBufferTooSmall { have, need } => {
                write!(
                    f,
                    "posted receive buffer too small: have {have}, need {need}"
                )
            }
            FabricError::NotConnected => write!(f, "queue pair is not connected"),
            FabricError::MissingDestination => write!(f, "UD send requires a destination"),
            FabricError::Shutdown => write!(f, "fabric has shut down"),
        }
    }
}

impl std::error::Error for FabricError {}

/// Convenient result alias for fabric operations.
pub type Result<T> = std::result::Result<T, FabricError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_capability_matrix() {
        // Paper Table 1: RC supports everything; UC lacks read/atomic;
        // UD lacks all one-sided verbs and has a 4 KB MTU.
        assert!(Transport::Rc.supports_read());
        assert!(Transport::Rc.supports_write());
        assert!(Transport::Rc.supports_atomic());
        assert!(Transport::Rc.supports_send_recv());
        assert!(Transport::Rc.reliable());
        assert_eq!(Transport::Rc.max_msg_size(), 2 << 30);

        assert!(!Transport::Uc.supports_read());
        assert!(Transport::Uc.supports_write());
        assert!(!Transport::Uc.supports_atomic());
        assert!(Transport::Uc.supports_send_recv());
        assert!(!Transport::Uc.reliable());
        assert_eq!(Transport::Uc.max_msg_size(), 2 << 30);

        assert!(!Transport::Ud.supports_read());
        assert!(!Transport::Ud.supports_write());
        assert!(!Transport::Ud.supports_atomic());
        assert!(Transport::Ud.supports_send_recv());
        assert!(!Transport::Ud.reliable());
        assert_eq!(Transport::Ud.max_msg_size(), 4096);
    }

    #[test]
    fn connectedness() {
        assert!(Transport::Rc.connected());
        assert!(Transport::Uc.connected());
        assert!(!Transport::Ud.connected());
    }

    #[test]
    fn key_hashes_spread_keys_that_differ_only_in_their_high_half() {
        use std::hash::BuildHasher;
        // Connection-cache keys: node id above, QP number below.
        let low_bits = |key: u64| BuildHasherDefault::<KeyHasher>::default().hash_one(key) & 0xFFFF;
        let buckets: std::collections::BTreeSet<u64> =
            (0..64u64).map(|node| low_bits(node << 32 | 7)).collect();
        assert_eq!(buckets.len(), 64);
    }

    #[test]
    fn errors_display() {
        let e = FabricError::PayloadTooLarge {
            len: 9000,
            max: 4096,
        };
        assert!(e.to_string().contains("9000"));
        let e = FabricError::AccessViolation { addr: 0x10, len: 4 };
        assert!(e.to_string().contains("0x10"));
    }
}
