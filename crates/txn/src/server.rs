//! The FlockTX server: owns its primary partition, backup copies of two
//! other partitions, and the version-word table exposed for one-sided
//! validation.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use flock_core::onesided::LOCK_BIT;
use flock_core::server::FlockServer;
use flock_fabric::types::KeyHasher;
use flock_fabric::MemoryRegion;
use flock_sync::Counter;
use parking_lot::Mutex;

use crate::protocol::{
    KeyRead, LogWrite, Notices, TxnResp, TxnRpc, RPC_ABORT, RPC_COMMIT, RPC_EXECUTE, RPC_LOG,
};

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
/// live in a second table of the same layout, their slots unused; a
/// backup row holds the version of the write that set it before its
/// value. A `Log`'s writes wait as the pending record of their
/// coordinator's transaction until a notice decides it: committed, they
/// are applied; aborted, dropped.
pub struct TxnServer {
    /// This server's index among all servers.
    pub server_id: usize,
    primary: Table,
    /// Backup copies of partitions this server replicates.
    backups: Table,
    pending: Mutex<Pending>,
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
            pending: Mutex::default(),
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

    /// Load a backup copy directly (bootstrap, beside the primary's
    /// [`TxnServer::load`]): older than every logged write.
    pub fn load_backup(&self, key: u64, value: &[u8]) {
        self.apply(&LogWrite {
            key,
            version: 0,
            value: value.to_vec(),
        });
    }

    /// Direct read (tests and verification).
    pub fn peek(&self, key: u64) -> Option<Vec<u8>> {
        let s = self.primary.stripe(key);
        s.get(key).map(|(_, value)| value.to_vec())
    }

    /// Direct read of a backup copy (tests and verification).
    pub fn peek_backup(&self, key: u64) -> Option<Vec<u8>> {
        let s = self.backups.stripe(key);
        s.get(key).map(|(_, row)| backup_row(row).1.to_vec())
    }

    /// The newest write of `key` a pending record holds (tests and
    /// verification).
    pub fn peek_pending(&self, key: u64) -> Option<Vec<u8>> {
        let pending = self.pending.lock();
        let writes = pending.records.values().flatten();
        let writes = writes.filter(|w| w.key == key);
        writes.max_by_key(|w| w.version).map(|w| w.value.clone())
    }

    /// Transactions whose `Log` this server holds undecided.
    pub fn pending(&self) -> usize {
        self.pending.lock().records.len()
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
                let failed = |write_set: &[KeyRead]| {
                    for read in write_set {
                        self.unlock(read.key);
                    }
                    TxnResp::Execute {
                        ok: false,
                        reads: Vec::new(),
                        writes: Vec::new(),
                    }
                };
                // Lock and read the write set first; abort on any conflict.
                let mut write_set: Vec<KeyRead> = Vec::with_capacity(writes.len());
                for &k in writes {
                    let Some(read) = self.lock_and_read(k) else {
                        return failed(&write_set);
                    };
                    write_set.push(read);
                }
                // Then the read set, twice (a double collect): if no word
                // is locked or moved between the two reads, every value
                // read was current at the instant the second read began,
                // with the write set locked. That instant serializes a
                // transaction that runs on this server alone.
                let read_set: Vec<KeyRead> = reads.iter().map(|&k| self.key_read(k)).collect();
                let moved = read_set
                    .iter()
                    .filter(|kr| kr.slot != u64::MAX)
                    .any(|kr| kr.word & LOCK_BIT != 0 || self.word_at(kr.slot) != kr.word);
                if moved {
                    return failed(&write_set);
                }
                TxnResp::Execute {
                    ok: true,
                    reads: read_set,
                    writes: write_set,
                }
            }
            TxnRpc::Log {
                txn_id,
                writes,
                notices,
            } => {
                self.decide(notices);
                let mut pending = self.pending.lock();
                let mut record = pending.spare.pop().unwrap_or_default();
                record.clone_from(writes);
                let replaced = pending.records.insert((notices.coord, *txn_id), record);
                pending.spare.extend(replaced);
                TxnResp::Ack
            }
            TxnRpc::Commit {
                writes, notices, ..
            } => {
                self.decide(notices);
                for (k, v) in writes {
                    self.commit(*k, v);
                }
                TxnResp::Ack
            }
            TxnRpc::Abort {
                writes, notices, ..
            } => {
                self.decide(notices);
                for &k in writes {
                    self.unlock(k);
                }
                TxnResp::Ack
            }
        }
    }

    /// Apply the pending records of the transactions `notices` says
    /// committed, and drop those of the ones it says aborted (paper
    /// §8.5.1: a backup applies a record once the commit is decided). A
    /// notice names no record when the transaction's Log never reached
    /// this server.
    fn decide(&self, notices: &Notices) {
        for d in &notices.decided {
            let record = (notices.coord, d.txn_id);
            let Some(writes) = self.pending.lock().records.remove(&record) else {
                continue;
            };
            if d.commit {
                writes.iter().for_each(|w| self.apply(w));
            }
            self.pending.lock().spare.push(writes);
        }
    }

    /// Apply one write to the backup copy in the primary's version
    /// order: two writers' records of one key can be decided on two
    /// lanes in either order, and the older must not overwrite the
    /// newer. An equal version replaces the copy.
    fn apply(&self, w: &LogWrite) {
        let mut s = self.backups.stripe(w.key);
        let held = s.get(w.key).map(|(_, row)| backup_row(row).0);
        if held.is_some_and(|v| v > w.version) {
            return;
        }
        s.put(w.key, u32::MAX, &[&w.version.to_le_bytes(), &w.value]);
    }

    /// The version word at byte offset `slot` of the validation region.
    fn word_at(&self, slot: u64) -> u64 {
        self.version_mr
            .read_u64(slot as usize)
            .expect("slot within region")
    }

    fn key_read(&self, key: u64) -> KeyRead {
        let s = self.primary.stripe(key);
        match s.get(key) {
            Some((slot, value)) => KeyRead {
                key,
                value: Some(value.to_vec()),
                word: self.word_at(slot_offset(slot)),
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

    /// Register the four FlockTX RPC handlers on a [`FlockServer`]. The
    /// client posts its Logs and Commits, and the server drops a posted
    /// request's output, so those two handlers encode nothing.
    pub fn register(self: &Arc<Self>, server: &FlockServer) {
        for id in [RPC_EXECUTE, RPC_LOG, RPC_COMMIT, RPC_ABORT] {
            let state = Arc::clone(self);
            let answered = !matches!(id, RPC_LOG | RPC_COMMIT);
            server.reg_handler(id, move |req| {
                let Some(rpc) = TxnRpc::decode(req) else {
                    return TxnResp::Ack.encode(); // unreachable with our client
                };
                let resp = state.handle(&rpc);
                if answered {
                    resp.encode()
                } else {
                    Vec::new()
                }
            });
        }
    }
}

/// A backup's logged writes of undecided transactions.
#[derive(Default)]
struct Pending {
    /// By (coordinator, txn id).
    records: HashMap<(u64, u64), Vec<LogWrite>>,
    /// Decided records, kept for their buffers: the next Log is copied
    /// into one.
    spare: Vec<Vec<LogWrite>>,
}

/// The byte offset of `slot`'s word in the validation region.
fn slot_offset(slot: u32) -> u64 {
    u64::from(slot) * 8
}

/// A backup row's version and value: the row holds the version's eight
/// little-endian bytes, then the value.
fn backup_row(row: &[u8]) -> (u64, &[u8]) {
    let (version, value) = row.split_at(8);
    let version = u64::from_le_bytes(version.try_into().expect("eight bytes"));
    (version, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Decision;
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
            notices: Notices::default(),
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
            notices: Notices::default(),
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

    /// Coordinator `coord`'s Log of `key` as transaction `version`.
    fn log(coord: u64, key: u64, version: u64, value: &[u8]) -> TxnRpc {
        TxnRpc::Log {
            txn_id: version,
            writes: vec![LogWrite {
                key,
                version,
                value: value.to_vec(),
            }],
            notices: Notices {
                coord,
                decided: Vec::new(),
            },
        }
    }

    /// A fence of coordinator `coord` (an Abort naming no key) carrying
    /// its decision on `txn_id`.
    fn decide(s: &TxnServer, coord: u64, txn_id: u64, commit: bool) {
        s.handle(&TxnRpc::Abort {
            txn_id: 0,
            writes: Vec::new(),
            notices: Notices {
                coord,
                decided: vec![Decision { txn_id, commit }],
            },
        });
    }

    /// A Log is held as a pending record until its transaction is
    /// decided: committed, it reaches the backup copy; aborted, it is
    /// dropped. It never touches the primary.
    #[test]
    fn log_applies_to_backup() {
        let s = server();
        s.handle(&log(1, 9, 2, b"backup"));
        assert_eq!(s.peek_backup(9), None);
        assert_eq!(s.peek_pending(9).unwrap(), b"backup");
        decide(&s, 1, 2, true);
        assert_eq!(s.peek_backup(9).unwrap(), b"backup");
        assert_eq!(s.pending(), 0);
        s.handle(&log(1, 9, 3, b"aborted"));
        decide(&s, 1, 3, false);
        assert_eq!(s.peek_backup(9).unwrap(), b"backup");
        assert_eq!(s.pending(), 0);
        assert!(s.peek(9).is_none(), "log must not touch the primary");
    }

    /// Records are keyed by coordinator and transaction: two
    /// coordinators count their ids apart, so one id can name a
    /// transaction of each, and deciding one leaves the other pending.
    #[test]
    fn a_decision_names_its_coordinators_record() {
        let s = server();
        s.handle(&log(1, 9, 2, b"first"));
        s.handle(&log(2, 9, 2, b"second"));
        decide(&s, 2, 2, false);
        assert_eq!(s.pending(), 1);
        decide(&s, 1, 2, true);
        assert_eq!(s.peek_backup(9).unwrap(), b"first");
    }

    /// Records of one key applied out of order leave the newest
    /// version's value; an equal version replaces the copy, and a
    /// bootstrap copy is older than every logged write.
    #[test]
    fn an_older_log_leaves_the_backup_copy() {
        let s = server();
        s.load_backup(9, b"loaded");
        let apply = |version, value: &[u8]| {
            s.handle(&log(1, 9, version, value));
            decide(&s, 1, version, true);
        };
        apply(3, b"three");
        apply(2, b"two");
        assert_eq!(s.peek_backup(9).unwrap(), b"three");
        apply(3, b"again");
        assert_eq!(s.peek_backup(9).unwrap(), b"again");
        apply(4, b"a value longer than a row holds inline");
        apply(1, b"one");
        assert_eq!(
            s.peek_backup(9).unwrap(),
            b"a value longer than a row holds inline"
        );
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
            notices: Notices::default(),
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
                                notices: Notices::default(),
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
