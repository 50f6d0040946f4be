//! The kv backend: GET/SET/PING handlers over `flock-kvstore`,
//! registered on a [`FlockServer`]'s dispatch path.

use std::sync::Arc;

use flock_core::server::FlockServer;
use flock_kvstore::KvStore;

use crate::rpc::{RPC_GET, RPC_PING, RPC_SET, TAG_HIT, TAG_MISS};

/// Register the gateway's kv RPC handlers on `server`, backed by `kv`.
///
/// The handlers run on the server's dispatch shards, so per-tenant
/// issued/completed accounting (PR: tenant scheduler) covers them with
/// no extra wiring.
pub fn register_kv_backend(server: &FlockServer, kv: Arc<KvStore>) {
    let kv_get = Arc::clone(&kv);
    server.reg_handler(RPC_GET, move |req| {
        let Some(key) = read_key(req) else {
            return vec![TAG_MISS];
        };
        match kv_get.get(key) {
            Some(value) => {
                let mut out = Vec::with_capacity(1 + value.len());
                out.push(TAG_HIT);
                out.extend_from_slice(&value);
                out
            }
            None => vec![TAG_MISS],
        }
    });
    server.reg_handler(RPC_SET, move |req| {
        let Some(key) = read_key(req) else {
            return vec![TAG_MISS];
        };
        kv.put(key, &req[8..]);
        vec![TAG_HIT]
    });
    server.reg_handler(RPC_PING, |_req| vec![TAG_HIT]);
}

/// The leading key hash, or `None` for truncated requests (a handler
/// must not panic on a short payload).
pub(crate) fn read_key(req: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(req.get(..8)?.try_into().ok()?))
}
