//! The FlockTX server: owns its primary partition, backup copies of two
//! other partitions, and the version-word table exposed for one-sided
//! validation.

use std::hash::BuildHasherDefault;
use std::sync::Arc;

use flock_core::onesided::LOCK_BIT;
use flock_core::server::FlockServer;
use flock_fabric::types::KeyHasher;
use flock_fabric::MemoryRegion;
use flock_sync::Counter;

use crate::protocol::{KeyRead, TxnResp, TxnRpc, RPC_ABORT, RPC_COMMIT, RPC_EXECUTE, RPC_LOG};

/// A partition's rows, hashed with one multiply: keys come from the
/// cluster's own loaders and coordinators.
type Table = flock_kvstore::Table<BuildHasherDefault<KeyHasher>>;

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
/// The primary partition is one row table: a key's row holds its value
/// and its slot, the index of its version word in `version_mr` — the
/// memory region the server attached for clients' one-sided validation
/// reads (paper Fig. 13 validation phase). The word lives there and
/// nowhere else. A key gets its slot at its first [`TxnServer::load`], in
/// load order. Every operation on a key takes its row's stripe lock once
/// and reads or changes the word with one access to the region under
/// it, so a held lock is never seen as unlocked: there is no second copy
/// to fall behind. Lock order: stripe, then the region's buffer. Backups
/// live in a second table of the same layout, their slots unused.
pub struct TxnServer {
    /// This server's index among all servers.
    pub server_id: usize,
    primary: Table,
    /// Backup copies of partitions this server replicates.
    backups: Table,
    version_mr: Arc<MemoryRegion>,
    /// The next unassigned slot.
    next_slot: Counter,
    /// Slots `version_mr` holds.
    slots: u32,
}

impl TxnServer {
    /// Create the server state. `version_mr` must be the region the
    /// enclosing [`FlockServer`] advertised at index 0.
    pub fn new(server_id: usize, version_mr: Arc<MemoryRegion>) -> Arc<TxnServer> {
        let slots = u32::try_from(version_mr.len() / 8).unwrap_or(u32::MAX);
        Arc::new(TxnServer {
            server_id,
            primary: Table::new(),
            backups: Table::new(),
            version_mr,
            next_slot: Counter::default(),
            slots,
        })
    }

    /// Load a key directly (bootstrap; no locking, no replication). A
    /// reload bumps the version and keeps the lock bit.
    pub fn load(&self, key: u64, value: &[u8]) {
        let mut s = self.primary.stripe(key);
        if let Some(slot) = s.set(key, value) {
            self.update_word(slot, |w| ((w & !LOCK_BIT) + 1) | (w & LOCK_BIT));
            return;
        }
        let slot = u32::try_from(self.next_slot.add(1))
            .ok()
            .filter(|&slot| slot < self.slots)
            .expect("version table exhausted; size the region for the key count");
        s.insert(key, slot, value);
        self.update_word(slot, |_| 1);
    }

    /// Direct read (tests and verification).
    pub fn peek(&self, key: u64) -> Option<Vec<u8>> {
        let s = self.primary.stripe(key);
        s.get(key).map(|(_, value)| value.to_vec())
    }

    /// Direct read of a backup copy (tests and verification).
    pub fn peek_backup(&self, key: u64) -> Option<Vec<u8>> {
        let s = self.backups.stripe(key);
        s.get(key).map(|(_, value)| value.to_vec())
    }

    /// The byte offset of `key`'s version word in the advertised region.
    #[cfg(test)]
    fn slot_of(&self, key: u64) -> Option<u64> {
        let s = self.primary.stripe(key);
        s.get(key).map(|(slot, _)| slot_offset(slot))
    }

    /// Replace `slot`'s word `w` with `f(w)` in one access to the
    /// region ([`MemoryRegion::update_u64`]); returns `w`. The caller
    /// holds the key's stripe.
    fn update_word(&self, slot: u32, f: impl FnOnce(u64) -> u64) -> u64 {
        let at = slot_offset(slot) as usize;
        self.version_mr
            .update_u64(at, f)
            .expect("a slot's word lies in the region")
    }

    /// OCC: lock `key` for writing and read it, in one visit to its
    /// stripe; `None` if it is absent or locked.
    fn lock_and_read(&self, key: u64) -> Option<KeyRead> {
        let s = self.primary.stripe(key);
        let (slot, value) = s.get(key)?;
        let word = self.update_word(slot, |w| w | LOCK_BIT);
        (word & LOCK_BIT == 0).then(|| KeyRead {
            key,
            value: Some(value.to_vec()),
            word: word | LOCK_BIT,
            slot: slot_offset(slot),
        })
    }

    /// OCC: release `key`'s lock, version unchanged (abort).
    fn unlock(&self, key: u64) {
        let s = self.primary.stripe(key);
        if let Some((slot, _)) = s.get(key) {
            self.update_word(slot, |w| w & !LOCK_BIT);
        }
    }

    /// OCC: install `value`, bump the version, release the lock (commit).
    fn commit(&self, key: u64, value: &[u8]) {
        let mut s = self.primary.stripe(key);
        if let Some(slot) = s.set(key, value) {
            self.update_word(slot, |w| ((w & !LOCK_BIT) + 1) & !LOCK_BIT);
        }
    }

    /// Handle one FlockTX request (the registered RPC handler body).
    pub fn handle(&self, rpc: &TxnRpc) -> TxnResp {
        match rpc {
            TxnRpc::Execute { reads, writes, .. } => {
                // Lock and read the write set first; abort on any conflict.
                let mut write_set: Vec<KeyRead> = Vec::with_capacity(writes.len());
                for &k in writes {
                    let Some(read) = self.lock_and_read(k) else {
                        for read in &write_set {
                            self.unlock(read.key);
                        }
                        return TxnResp::Execute {
                            ok: false,
                            reads: Vec::new(),
                            writes: Vec::new(),
                        };
                    };
                    write_set.push(read);
                }
                TxnResp::Execute {
                    ok: true,
                    reads: reads.iter().map(|&k| self.key_read(k)).collect(),
                    writes: write_set,
                }
            }
            TxnRpc::Log { writes, .. } => {
                // Replicas apply to their backup copy; ordering follows
                // the primary (paper §8.5.1 phase 3).
                for (k, v) in writes {
                    let mut s = self.backups.stripe(*k);
                    if s.set(*k, v).is_none() {
                        s.insert(*k, u32::MAX, v);
                    }
                }
                TxnResp::Ack
            }
            TxnRpc::Commit { writes, .. } => {
                for (k, v) in writes {
                    self.commit(*k, v);
                }
                TxnResp::Ack
            }
            TxnRpc::Abort { writes, .. } => {
                for &k in writes {
                    self.unlock(k);
                }
                TxnResp::Ack
            }
        }
    }

    fn key_read(&self, key: u64) -> KeyRead {
        let s = self.primary.stripe(key);
        match s.get(key) {
            Some((slot, value)) => KeyRead {
                key,
                value: Some(value.to_vec()),
                word: self
                    .version_mr
                    .read_u64(slot_offset(slot) as usize)
                    .expect("slot within region"),
                slot: slot_offset(slot),
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

/// The byte offset of `slot`'s word in the validation region.
fn slot_offset(slot: u32) -> u64 {
    u64::from(slot) * 8
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
        assert_eq!(word_after & LOCK_BIT, 0);
    }

    /// Handlers on four OS threads lock, check and commit one key: while
    /// a handler holds the lock, the region must say so. A word re-read
    /// after the stripe lock is dropped and written later can land after
    /// another handler's lock and publish "unlocked" under it, and then
    /// a concurrent transaction's one-sided validation would pass.
    #[test]
    fn a_held_lock_is_never_mirrored_unlocked() {
        const ROUNDS: usize = 200_000;
        let s = server();
        s.load(1, b"v");
        let slot = s.slot_of(1).unwrap() as usize;
        let violations: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut violations = 0;
                        for txn_id in 0..ROUNDS as u64 {
                            let TxnResp::Execute { ok: true, .. } = s.handle(&TxnRpc::Execute {
                                txn_id,
                                reads: vec![],
                                writes: vec![1],
                            }) else {
                                continue;
                            };
                            std::thread::yield_now();
                            if s.version_mr.read_u64(slot).unwrap() & LOCK_BIT == 0 {
                                violations += 1;
                            }
                            s.handle(&TxnRpc::Commit {
                                txn_id,
                                writes: vec![(1, vec![t])],
                            });
                        }
                        violations
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(violations, 0, "a held lock was published unlocked");
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
