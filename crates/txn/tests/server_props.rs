//! Property test of the FlockTX server's row table against a `BTreeMap`
//! reference model.
//!
//! Random sequences of `load`, `Execute` (reads and writes), `Log`,
//! `Commit` and `Abort` run on a [`TxnServer`] and on the model. After
//! every step the two agree on every response (values, words, slots,
//! `ok`), on `peek` and `peek_backup` of every key, and on every slot of
//! the validation region: an assigned slot holds its key's word, an
//! unassigned one is still zero. Values change length at random, so
//! spans are overwritten in place and moved; key 7 is never loaded, so
//! every read of it is the absent-key answer (slot `u64::MAX`).

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use flock_core::onesided::LOCK_BIT;
use flock_fabric::{Access, MrTable};
use flock_txn::protocol::KeyRead;
use flock_txn::{TxnResp, TxnRpc, TxnServer};

/// Keys the generator draws from; the last one is never loaded.
const KEYS: u64 = 8;

/// The reference model: a key's `(value, word, slot)`, the backups, and
/// the next slot to hand out.
#[derive(Default)]
struct Model {
    primary: BTreeMap<u64, (Vec<u8>, u64, u64)>,
    backups: BTreeMap<u64, Vec<u8>>,
    next_slot: u64,
}

impl Model {
    fn load(&mut self, key: u64, value: &[u8]) {
        match self.primary.get_mut(&key) {
            Some((v, word, _)) => {
                *v = value.to_vec();
                *word = ((*word & !LOCK_BIT) + 1) | (*word & LOCK_BIT);
            }
            None => {
                self.primary
                    .insert(key, (value.to_vec(), 1, self.next_slot * 8));
                self.next_slot += 1;
            }
        }
    }

    fn key_read(&self, key: u64) -> KeyRead {
        match self.primary.get(&key) {
            Some((v, word, slot)) => KeyRead {
                key,
                value: Some(v.clone()),
                word: *word,
                slot: *slot,
            },
            None => KeyRead {
                key,
                value: None,
                word: 0,
                slot: u64::MAX,
            },
        }
    }

    fn handle(&mut self, rpc: &TxnRpc) -> TxnResp {
        match rpc {
            TxnRpc::Execute { reads, writes, .. } => {
                for (n, k) in writes.iter().enumerate() {
                    match self.primary.get_mut(k) {
                        Some((_, word, _)) if *word & LOCK_BIT == 0 => *word |= LOCK_BIT,
                        _ => {
                            for k in &writes[..n] {
                                self.primary.get_mut(k).unwrap().1 &= !LOCK_BIT;
                            }
                            return TxnResp::Execute {
                                ok: false,
                                reads: vec![],
                                writes: vec![],
                            };
                        }
                    }
                }
                TxnResp::Execute {
                    ok: true,
                    reads: reads.iter().map(|&k| self.key_read(k)).collect(),
                    writes: writes.iter().map(|&k| self.key_read(k)).collect(),
                }
            }
            TxnRpc::Log { writes, .. } => {
                for (k, v) in writes {
                    self.backups.insert(*k, v.clone());
                }
                TxnResp::Ack
            }
            TxnRpc::Commit { writes, .. } => {
                for (k, v) in writes {
                    if let Some((value, word, _)) = self.primary.get_mut(k) {
                        *value = v.clone();
                        *word = ((*word & !LOCK_BIT) + 1) & !LOCK_BIT;
                    }
                }
                TxnResp::Ack
            }
            TxnRpc::Abort { writes, .. } => {
                for k in writes {
                    if let Some((_, word, _)) = self.primary.get_mut(k) {
                        *word &= !LOCK_BIT;
                    }
                }
                TxnResp::Ack
            }
        }
    }
}

/// One generated step: `(kind, keys, more keys, value length)`.
type Step = (u8, Vec<u64>, Vec<u64>, usize);

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..5, vec(0..KEYS, 1..4), vec(0..KEYS, 0..3), 0usize..20)
}

/// A value of `len` bytes that says which step and key wrote it.
fn value(step: usize, key: u64, len: usize) -> Vec<u8> {
    vec![(step as u8) ^ ((key as u8) << 5); len]
}

proptest! {
    #[test]
    fn the_row_table_matches_a_reference_model(steps in vec(step_strategy(), 1..48)) {
        let mr = MrTable::new().register(8 * 16, Access::REMOTE_ALL);
        let server = TxnServer::new(0, std::sync::Arc::clone(&mr));
        let mut model = Model::default();
        // Every case grows a value on commit, moving its span.
        let prefix: [Step; 3] = [
            (0, vec![0], vec![], 1),
            (1, vec![0], vec![7], 0),
            (3, vec![0], vec![], 16),
        ];
        for (n, (kind, keys, more, len)) in prefix.into_iter().chain(steps).enumerate() {
            let writes_of = |keys: &[u64]| -> Vec<(u64, Vec<u8>)> {
                keys.iter().map(|&k| (k, value(n, k, len + k as usize))).collect()
            };
            let rpc = match kind {
                0 => {
                    for &k in &keys {
                        let k = k % (KEYS - 1);
                        let v = value(n, k, len);
                        server.load(k, &v);
                        model.load(k, &v);
                    }
                    None
                }
                1 => Some(TxnRpc::Execute { txn_id: n as u64, reads: more, writes: keys }),
                2 => Some(TxnRpc::Log { txn_id: n as u64, writes: writes_of(&keys) }),
                3 => Some(TxnRpc::Commit { txn_id: n as u64, writes: writes_of(&keys) }),
                _ => Some(TxnRpc::Abort { txn_id: n as u64, writes: keys }),
            };
            if let Some(rpc) = rpc {
                prop_assert_eq!(server.handle(&rpc), model.handle(&rpc), "step {} {:?}", n, rpc);
            }
            for k in 0..KEYS {
                let primary = model.primary.get(&k).map(|e| e.0.clone());
                prop_assert_eq!(server.peek(k), primary, "peek {}", k);
                let backup = model.backups.get(&k).cloned();
                prop_assert_eq!(server.peek_backup(k), backup, "backup {}", k);
            }
            let mut words = [0u64; 16];
            for (_, word, slot) in model.primary.values() {
                words[*slot as usize / 8] = *word;
            }
            for (i, &word) in words.iter().enumerate() {
                prop_assert_eq!(mr.read_u64(i * 8).unwrap(), word, "slot {} after step {}", i, n);
            }
        }
    }
}
