//! The FlockTX server: owns its primary partition, backup copies of two
//! other partitions, and the version-word table exposed for one-sided
//! validation.

use std::collections::HashMap;
use std::sync::Arc;

use flock_core::server::FlockServer;
use flock_fabric::MemoryRegion;
use flock_kvstore::{KvConfig, KvStore};
use parking_lot::Mutex;

use crate::protocol::{KeyRead, TxnResp, TxnRpc, RPC_ABORT, RPC_COMMIT, RPC_EXECUTE, RPC_LOG};

/// Number of words in the exported stripe-lock table.
pub(crate) const TXN_STRIPES: usize = 64;

/// Export name of the stripe-lock table.
const STRIPE_SEGMENT: &str = "txn-stripes";

/// Attach and export the pessimistic stripe-lock table: [`TXN_STRIPES`]
/// zero-initialized words clients CAS with
/// [`crate::coordinator::StripeLocks`] (the ALock commit path). Returns
/// the advertised region index clients address their verbs at.
pub fn export_stripe_locks(server: &FlockServer) -> flock_core::Result<usize> {
    let idx = server.attach_mreg(TXN_STRIPES * 8);
    server.export_segment(STRIPE_SEGMENT, idx, 8, TXN_STRIPES as u32, 0)?;
    Ok(idx)
}

/// Per-server FlockTX state.
///
/// The server's primary data lives in a local [`KvStore`]; every entry's
/// version word is mirrored into `version_mr` — the memory region the
/// server attached for clients' one-sided validation reads (paper Fig. 13
/// validation phase).
pub struct TxnServer {
    /// This server's index among all servers.
    pub server_id: usize,
    kv: KvStore,
    /// Backup copies of partitions this server replicates.
    backups: Mutex<HashMap<u64, Vec<u8>>>,
    version_mr: Arc<MemoryRegion>,
    slots: Mutex<SlotTable>,
}

struct SlotTable {
    by_key: HashMap<u64, u64>,
    next: u64,
    capacity: u64,
}

impl TxnServer {
    /// Create the server state. `version_mr` must be the region the
    /// enclosing [`FlockServer`] advertised at index 0.
    pub fn new(server_id: usize, version_mr: Arc<MemoryRegion>) -> Arc<TxnServer> {
        let capacity = (version_mr.len() / 8) as u64;
        Arc::new(TxnServer {
            server_id,
            kv: KvStore::new(KvConfig {
                partitions: 1,
                stripes: 64,
            }),
            backups: Mutex::new(HashMap::new()),
            version_mr,
            slots: Mutex::new(SlotTable {
                by_key: HashMap::new(),
                next: 0,
                capacity,
            }),
        })
    }

    /// Load a key directly (bootstrap; no locking, no replication).
    pub fn load(&self, key: u64, value: &[u8]) {
        self.kv.put(key, value);
        self.mirror_word(key);
    }

    /// Direct read (tests and verification).
    pub fn peek(&self, key: u64) -> Option<Vec<u8>> {
        self.kv.get(key).map(|(v, _)| v)
    }

    /// Direct read of a backup copy (tests and verification).
    pub fn peek_backup(&self, key: u64) -> Option<Vec<u8>> {
        self.backups.lock().get(&key).cloned()
    }

    /// The byte offset of `key`'s version word in the advertised region.
    #[cfg(test)]
    fn slot_of(&self, key: u64) -> Option<u64> {
        self.slots.lock().by_key.get(&key).copied()
    }

    fn slot_for(&self, key: u64) -> u64 {
        let mut slots = self.slots.lock();
        if let Some(&s) = slots.by_key.get(&key) {
            return s;
        }
        assert!(
            slots.next < slots.capacity,
            "version table exhausted; size the region for the key count"
        );
        let s = slots.next * 8;
        slots.next += 1;
        slots.by_key.insert(key, s);
        s
    }

    /// Mirror the current version word of `key` into the validation MR.
    fn mirror_word(&self, key: u64) {
        if let Some(word) = self.kv.version_word(key) {
            let slot = self.slot_for(key);
            self.version_mr
                .write_u64(slot as usize, word)
                .expect("slot within region");
        }
    }

    /// Handle one FlockTX request (the registered RPC handler body).
    pub fn handle(&self, rpc: &TxnRpc) -> TxnResp {
        match rpc {
            TxnRpc::Execute { reads, writes, .. } => {
                // Lock the write set first; abort on any conflict.
                let mut locked = Vec::with_capacity(writes.len());
                let mut ok = true;
                for &k in writes {
                    if self.kv.try_lock(k) {
                        self.mirror_word(k);
                        locked.push(k);
                    } else {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    for &k in &locked {
                        self.kv.unlock(k);
                        self.mirror_word(k);
                    }
                    return TxnResp::Execute {
                        ok: false,
                        reads: Vec::new(),
                        writes: Vec::new(),
                    };
                }
                let read_set = reads.iter().map(|&k| self.key_read(k)).collect();
                let write_set = writes.iter().map(|&k| self.key_read(k)).collect();
                TxnResp::Execute {
                    ok: true,
                    reads: read_set,
                    writes: write_set,
                }
            }
            TxnRpc::Log { writes, .. } => {
                // Replicas apply to their backup copy; ordering follows
                // the primary (paper §8.5.1 phase 3).
                let mut backups = self.backups.lock();
                for (k, v) in writes {
                    backups.insert(*k, v.clone());
                }
                TxnResp::Ack
            }
            TxnRpc::Commit { writes, .. } => {
                for (k, v) in writes {
                    self.kv.update_and_unlock(*k, v);
                    self.mirror_word(*k);
                }
                TxnResp::Ack
            }
            TxnRpc::Abort { writes, .. } => {
                for &k in writes {
                    self.kv.unlock(k);
                    self.mirror_word(k);
                }
                TxnResp::Ack
            }
        }
    }

    fn key_read(&self, key: u64) -> KeyRead {
        match self.kv.get(key) {
            Some((value, word)) => KeyRead {
                key,
                value: Some(value),
                word,
                slot: self.slot_for(key),
            },
            None => KeyRead {
                key,
                value: None,
                word: 0,
                slot: u64::MAX,
            },
        }
    }

    /// Register the four FlockTX RPC handlers on a [`FlockServer`].
    pub fn register(self: &Arc<Self>, server: &FlockServer) {
        for id in [RPC_EXECUTE, RPC_LOG, RPC_COMMIT, RPC_ABORT] {
            let state = Arc::clone(self);
            server.reg_handler(id, move |req| {
                let Some(rpc) = TxnRpc::decode(req) else {
                    return TxnResp::Ack.encode(); // unreachable with our client
                };
                state.handle(&rpc).encode()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_fabric::{Access, MrTable};

    fn server() -> Arc<TxnServer> {
        let t = MrTable::new();
        let mr = t.register(8 * 1024, Access::REMOTE_ALL);
        TxnServer::new(0, mr)
    }

    #[test]
    fn execute_locks_and_reads() {
        let s = server();
        s.load(1, b"a");
        s.load(2, b"b");
        let resp = s.handle(&TxnRpc::Execute {
            txn_id: 1,
            reads: vec![1],
            writes: vec![2],
        });
        let TxnResp::Execute { ok, reads, writes } = resp else {
            panic!("wrong variant")
        };
        assert!(ok);
        assert_eq!(reads[0].value.as_deref(), Some(b"a".as_slice()));
        assert_eq!(writes[0].value.as_deref(), Some(b"b".as_slice()));
        // Key 2 is now locked: a second execute conflicts.
        let resp = s.handle(&TxnRpc::Execute {
            txn_id: 2,
            reads: vec![],
            writes: vec![2],
        });
        assert!(matches!(resp, TxnResp::Execute { ok: false, .. }));
    }

    #[test]
    fn commit_installs_and_unlocks() {
        let s = server();
        s.load(5, b"old");
        let TxnResp::Execute { ok, .. } = s.handle(&TxnRpc::Execute {
            txn_id: 1,
            reads: vec![],
            writes: vec![5],
        }) else {
            panic!()
        };
        assert!(ok);
        s.handle(&TxnRpc::Commit {
            txn_id: 1,
            writes: vec![(5, b"new".to_vec())],
        });
        assert_eq!(s.peek(5).unwrap(), b"new");
        // Lock released: lockable again.
        let TxnResp::Execute { ok, .. } = s.handle(&TxnRpc::Execute {
            txn_id: 2,
            reads: vec![],
            writes: vec![5],
        }) else {
            panic!()
        };
        assert!(ok);
    }

    #[test]
    fn abort_unlocks_without_change() {
        let s = server();
        s.load(7, b"keep");
        s.handle(&TxnRpc::Execute {
            txn_id: 1,
            reads: vec![],
            writes: vec![7],
        });
        s.handle(&TxnRpc::Abort {
            txn_id: 1,
            writes: vec![7],
        });
        assert_eq!(s.peek(7).unwrap(), b"keep");
        let TxnResp::Execute { ok, .. } = s.handle(&TxnRpc::Execute {
            txn_id: 2,
            reads: vec![],
            writes: vec![7],
        }) else {
            panic!()
        };
        assert!(ok);
    }

    #[test]
    fn log_applies_to_backup() {
        let s = server();
        s.handle(&TxnRpc::Log {
            txn_id: 3,
            writes: vec![(9, b"backup".to_vec())],
        });
        assert_eq!(s.peek_backup(9).unwrap(), b"backup");
        assert!(s.peek(9).is_none(), "log must not touch the primary");
    }

    #[test]
    fn version_words_are_mirrored_for_validation() {
        let s = server();
        s.load(11, b"x");
        let slot = s.slot_of(11).unwrap() as usize;
        let word_before = s.version_mr.read_u64(slot).unwrap();
        assert_ne!(word_before, 0);
        // Locking flips the mirrored word (validation would fail).
        s.handle(&TxnRpc::Execute {
            txn_id: 1,
            reads: vec![],
            writes: vec![11],
        });
        let word_locked = s.version_mr.read_u64(slot).unwrap();
        assert_ne!(word_locked, word_before);
        // Commit bumps the version.
        s.handle(&TxnRpc::Commit {
            txn_id: 1,
            writes: vec![(11, b"y".to_vec())],
        });
        let word_after = s.version_mr.read_u64(slot).unwrap();
        assert_ne!(word_after, word_before);
        assert_eq!(word_after & flock_kvstore::LOCK_BIT, 0);
    }

    #[test]
    fn partial_lock_failure_releases_acquired_locks() {
        let s = server();
        s.load(1, b"a");
        s.load(2, b"b");
        // Lock 2 via txn A.
        s.handle(&TxnRpc::Execute {
            txn_id: 1,
            reads: vec![],
            writes: vec![2],
        });
        // Txn B wants 1 and 2: fails on 2, must release 1.
        let resp = s.handle(&TxnRpc::Execute {
            txn_id: 2,
            reads: vec![],
            writes: vec![1, 2],
        });
        assert!(matches!(resp, TxnResp::Execute { ok: false, .. }));
        // 1 must be lockable again.
        let TxnResp::Execute { ok, .. } = s.handle(&TxnRpc::Execute {
            txn_id: 3,
            reads: vec![],
            writes: vec![1],
        }) else {
            panic!()
        };
        assert!(ok);
    }
}
