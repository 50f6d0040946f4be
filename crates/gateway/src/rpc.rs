//! The gateway↔backend RPC contract.
//!
//! Edge sessions translate decoded wire frames into Flock RPCs against
//! the kv backend. Keys travel as 64-bit FNV-1a hashes — the kvstore is
//! keyed by `u64`, and the cache-tier contract tolerates hash aliasing
//! (two colliding keys share a slot, exactly like a sharded cache whose
//! slot index is a key hash).
//!
//! Payload layouts (little-endian):
//!
//! * `RPC_GET`:  request `key_hash: u64`; response `[TAG_MISS]` or
//!   `[TAG_HIT, value...]`.
//! * `RPC_SET`:  request `key_hash: u64, value...`; response
//!   `[TAG_HIT]`.
//! * `RPC_PING`: request empty; response `[TAG_HIT]`.

/// RPC id of the GET handler.
pub const RPC_GET: u32 = 16;
/// RPC id of the SET handler.
pub(crate) const RPC_SET: u32 = 17;
/// RPC id of the PING handler.
pub(crate) const RPC_PING: u32 = 18;

/// First response byte: the key was found / the op succeeded.
pub(crate) const TAG_HIT: u8 = 1;
/// First response byte: the key does not exist.
pub(crate) const TAG_MISS: u8 = 0;

/// FNV-1a over the key bytes — the stable key-space mapping both the
/// edge and any future warm-up loader must share.
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(key_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(key_hash(b"foobar"), 0x85944171f73967e8);
    }
}
