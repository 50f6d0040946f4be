//! Wire protocol of FlockTX: request/response types and a compact manual
//! binary codec (the messages travel as Flock RPC payloads).

/// RPC id of the execution phase.
pub const RPC_EXECUTE: u32 = 10;
/// RPC id of the logging phase (to replicas).
pub const RPC_LOG: u32 = 11;
/// RPC id of the commit phase.
pub const RPC_COMMIT: u32 = 12;
/// RPC id of the abort path.
pub const RPC_ABORT: u32 = 13;

/// Which server is primary for `key` among `n` servers.
pub fn key_partition(key: u64, n: usize) -> usize {
    let mut x = key;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % n as u64) as usize
}

/// The two replicas of partition `p` among `n` servers (3-way
/// replication: primary plus two backups).
pub fn replicas_of(p: usize, n: usize) -> [usize; 2] {
    [(p + 1) % n, (p + 2) % n]
}

/// A FlockTX request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRpc {
    /// Execution phase: read `reads`, lock-and-read `writes`.
    Execute {
        /// Transaction id (for diagnostics).
        txn_id: u64,
        /// Read-set keys owned by this server.
        reads: Vec<u64>,
        /// Write-set keys owned by this server (locked on success).
        writes: Vec<u64>,
    },
    /// Logging phase: hold updates to this replica's backup copy as the
    /// pending record of `(notices.coord, txn_id)`, applied once a
    /// notice says the transaction committed.
    Log {
        /// Transaction id.
        txn_id: u64,
        /// New values, each with its version.
        writes: Vec<LogWrite>,
        /// The sender's decisions on its earlier transactions.
        notices: Notices,
    },
    /// Commit phase: install values, bump versions, unlock.
    Commit {
        /// Transaction id.
        txn_id: u64,
        /// New values.
        writes: Vec<(u64, Vec<u8>)>,
        /// The sender's decisions on its transactions, this one's too.
        notices: Notices,
    },
    /// Abort: unlock the write set without changes.
    Abort {
        /// Transaction id.
        txn_id: u64,
        /// Keys to unlock.
        writes: Vec<u64>,
        /// The sender's decisions on its transactions, this one's too.
        notices: Notices,
    },
}

/// A coordinator's decisions on transactions whose `Log` the receiving
/// server holds as pending records, riding one of its requests. An
/// `Execute` carries none: its shape is fixed by its users.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Notices {
    /// The coordinator, as this server knows it: the connection's
    /// sender id above the coordinator's thread id. Its transaction ids
    /// are its own count, so a pending record is keyed by both.
    pub coord: u64,
    /// Decided transactions.
    pub decided: Vec<Decision>,
}

/// One decided transaction of a [`Notices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Its id.
    pub txn_id: u64,
    /// Committed: apply its pending record; aborted: drop it.
    pub commit: bool,
}

/// One write of a `Log`: a key's new value and the version its
/// primary's Commit gives it, one past the version Execute locked. A
/// backup keeps the version beside its copy and applies no write older
/// than it, so records decided out of order leave the newest value.
#[derive(Debug, PartialEq, Eq)]
pub struct LogWrite {
    /// The key.
    pub key: u64,
    /// The version the write commits at.
    pub version: u64,
    /// The new value.
    pub value: Vec<u8>,
}

impl Clone for LogWrite {
    fn clone(&self) -> LogWrite {
        LogWrite {
            key: self.key,
            version: self.version,
            value: self.value.clone(),
        }
    }

    /// Into `value`'s own buffer: a backup copies each Log into a
    /// record it recycles.
    fn clone_from(&mut self, source: &LogWrite) {
        self.key = source.key;
        self.version = source.version;
        self.value.clone_from(&source.value);
    }
}

/// Per-key result of the execution phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRead {
    /// The key.
    pub key: u64,
    /// Value at execution time (`None` if absent).
    pub value: Option<Vec<u8>>,
    /// Version/lock word at execution time.
    pub word: u64,
    /// Byte offset of the key's version word in the server's advertised
    /// memory region (for one-sided validation); `u64::MAX` if absent.
    pub slot: u64,
}

/// A FlockTX response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnResp {
    /// Execution result.
    Execute {
        /// Whether every write-set key was locked.
        ok: bool,
        /// Read-set snapshots (with validation slots).
        reads: Vec<KeyRead>,
        /// Write-set snapshots (locked; no validation needed).
        writes: Vec<KeyRead>,
    },
    /// Acknowledgement for log/commit/abort.
    Ack,
}

// ---- Codec -------------------------------------------------------------
//
// Layout: 1-byte tag, then fields in order; integers little-endian;
// vectors as u32 count + elements; byte strings as u32 len + bytes;
// Option<Vec<u8>> as 1-byte presence + bytes.

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}
fn put_keys(buf: &mut Vec<u8>, keys: &[u64]) {
    put_u32(buf, keys.len() as u32);
    for &k in keys {
        put_u64(buf, k);
    }
}
/// The items' count, then each item as `put` writes it; the count is
/// written last, so the items can come from several groups without
/// being gathered first.
fn put_each<T>(
    buf: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    put: impl Fn(&mut Vec<u8>, T),
) {
    let at = buf.len();
    put_u32(buf, 0);
    let mut n = 0u32;
    for item in items {
        put(buf, item);
        n += 1;
    }
    buf[at..at + 4].copy_from_slice(&n.to_le_bytes());
}

// A request's wire bytes are appended to `buf` straight from borrowed
// keys and values: the coordinator encodes each phase's message from its
// transaction's groups, and `TxnRpc::encode` is these with owned fields.

/// Append an `Execute` request.
pub(crate) fn put_execute(buf: &mut Vec<u8>, txn_id: u64, reads: &[u64], writes: &[u64]) {
    buf.push(0);
    put_u64(buf, txn_id);
    put_keys(buf, reads);
    put_keys(buf, writes);
}

/// Append a `Log`, `Commit` or `Abort`'s notices, after the rest of it:
/// the coordinator, then its decisions.
pub(crate) fn put_notices(
    buf: &mut Vec<u8>,
    coord: u64,
    decided: impl IntoIterator<Item = Decision>,
) {
    put_u64(buf, coord);
    put_each(buf, decided, |buf, d| {
        put_u64(buf, d.txn_id);
        buf.push(d.commit as u8);
    });
}

/// Append a `Log` request carrying `writes`, each as its key, version
/// and value; its notices follow ([`put_notices`]).
pub(crate) fn put_log<'a>(
    buf: &mut Vec<u8>,
    txn_id: u64,
    writes: impl IntoIterator<Item = &'a LogWrite>,
) {
    buf.push(1);
    put_u64(buf, txn_id);
    put_each(buf, writes, |buf, w| {
        put_u64(buf, w.key);
        put_u64(buf, w.version);
        put_bytes(buf, &w.value);
    });
}

/// Append a `Commit` request carrying `writes`, each as its key and
/// value; its notices follow.
pub(crate) fn put_commit<'a>(
    buf: &mut Vec<u8>,
    txn_id: u64,
    writes: impl IntoIterator<Item = (u64, &'a [u8])>,
) {
    buf.push(2);
    put_u64(buf, txn_id);
    put_each(buf, writes, |buf, (k, v)| {
        put_u64(buf, k);
        put_bytes(buf, v);
    });
}

/// Append an `Abort` request unlocking `writes`; its notices follow.
pub(crate) fn put_abort(buf: &mut Vec<u8>, txn_id: u64, writes: &[u64]) {
    buf.push(3);
    put_u64(buf, txn_id);
    put_keys(buf, writes);
}

struct Reader<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.off)?;
        self.off += 1;
        Some(v)
    }
    fn u32(&mut self) -> Option<u32> {
        let v = u32::from_le_bytes(self.b.get(self.off..self.off + 4)?.try_into().ok()?);
        self.off += 4;
        Some(v)
    }
    fn u64(&mut self) -> Option<u64> {
        let v = u64::from_le_bytes(self.b.get(self.off..self.off + 8)?.try_into().ok()?);
        self.off += 8;
        Some(v)
    }
    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        let v = self.b.get(self.off..self.off + n)?.to_vec();
        self.off += n;
        Some(v)
    }
    fn keys(&mut self) -> Option<Vec<u64>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.u64()).collect()
    }
    fn kvs(&mut self) -> Option<Vec<(u64, Vec<u8>)>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| Some((self.u64()?, self.bytes()?))).collect()
    }
    fn notices(&mut self) -> Option<Notices> {
        let coord = self.u64()?;
        let n = self.u32()? as usize;
        let decided = (0..n)
            .map(|_| {
                Some(Decision {
                    txn_id: self.u64()?,
                    commit: self.u8()? != 0,
                })
            })
            .collect::<Option<_>>()?;
        Some(Notices { coord, decided })
    }
    fn log_writes(&mut self) -> Option<Vec<LogWrite>> {
        let n = self.u32()? as usize;
        (0..n)
            .map(|_| {
                Some(LogWrite {
                    key: self.u64()?,
                    version: self.u64()?,
                    value: self.bytes()?,
                })
            })
            .collect()
    }
}

impl TxnRpc {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            TxnRpc::Execute {
                txn_id,
                reads,
                writes,
            } => put_execute(&mut buf, *txn_id, reads, writes),
            TxnRpc::Log {
                txn_id,
                writes,
                notices,
            } => {
                put_log(&mut buf, *txn_id, writes);
                put_notices(&mut buf, notices.coord, notices.decided.iter().copied());
            }
            TxnRpc::Commit {
                txn_id,
                writes,
                notices,
            } => {
                let writes = writes.iter().map(|(k, v)| (*k, v.as_slice()));
                put_commit(&mut buf, *txn_id, writes);
                put_notices(&mut buf, notices.coord, notices.decided.iter().copied());
            }
            TxnRpc::Abort {
                txn_id,
                writes,
                notices,
            } => {
                put_abort(&mut buf, *txn_id, writes);
                put_notices(&mut buf, notices.coord, notices.decided.iter().copied());
            }
        }
        buf
    }

    /// Deserialize; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<TxnRpc> {
        let mut r = Reader { b, off: 0 };
        let rpc = match r.u8()? {
            0 => TxnRpc::Execute {
                txn_id: r.u64()?,
                reads: r.keys()?,
                writes: r.keys()?,
            },
            1 => TxnRpc::Log {
                txn_id: r.u64()?,
                writes: r.log_writes()?,
                notices: r.notices()?,
            },
            2 => TxnRpc::Commit {
                txn_id: r.u64()?,
                writes: r.kvs()?,
                notices: r.notices()?,
            },
            3 => TxnRpc::Abort {
                txn_id: r.u64()?,
                writes: r.keys()?,
                notices: r.notices()?,
            },
            _ => return None,
        };
        (r.off == b.len()).then_some(rpc)
    }
}

impl TxnResp {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            TxnResp::Execute { ok, reads, writes } => {
                buf.push(0);
                buf.push(*ok as u8);
                for set in [reads, writes] {
                    put_u32(&mut buf, set.len() as u32);
                    for kr in set {
                        put_u64(&mut buf, kr.key);
                        match &kr.value {
                            Some(v) => {
                                buf.push(1);
                                put_bytes(&mut buf, v);
                            }
                            None => buf.push(0),
                        }
                        put_u64(&mut buf, kr.word);
                        put_u64(&mut buf, kr.slot);
                    }
                }
            }
            TxnResp::Ack => buf.push(1),
        }
        buf
    }

    /// Deserialize; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<TxnResp> {
        let mut r = Reader { b, off: 0 };
        let resp = match r.u8()? {
            0 => {
                let ok = r.u8()? != 0;
                let mut sets = Vec::with_capacity(2);
                for _ in 0..2 {
                    let n = r.u32()? as usize;
                    let mut set = Vec::with_capacity(n);
                    for _ in 0..n {
                        let key = r.u64()?;
                        let value = match r.u8()? {
                            1 => Some(r.bytes()?),
                            _ => None,
                        };
                        set.push(KeyRead {
                            key,
                            value,
                            word: r.u64()?,
                            slot: r.u64()?,
                        });
                    }
                    sets.push(set);
                }
                let writes = sets.pop()?;
                let reads = sets.pop()?;
                TxnResp::Execute { ok, reads, writes }
            }
            1 => TxnResp::Ack,
            _ => return None,
        };
        (r.off == b.len()).then_some(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_is_total_and_balanced() {
        let n = 3;
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            counts[key_partition(key, n)] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn replicas_are_distinct_from_primary() {
        for n in [3, 5] {
            for p in 0..n {
                let [r1, r2] = replicas_of(p, n);
                assert_ne!(r1, p);
                assert_ne!(r2, p);
                assert_ne!(r1, r2);
            }
        }
    }

    fn notices(coord: u64, decided: &[(u64, bool)]) -> Notices {
        let decided = decided
            .iter()
            .map(|&(txn_id, commit)| Decision { txn_id, commit })
            .collect();
        Notices { coord, decided }
    }

    #[test]
    fn rpc_roundtrip_all_variants() {
        let cases = vec![
            TxnRpc::Execute {
                txn_id: 7,
                reads: vec![1, 2, 3],
                writes: vec![9],
            },
            TxnRpc::Log {
                txn_id: 8,
                writes: vec![
                    LogWrite {
                        key: 1,
                        version: 3,
                        value: b"aa".to_vec(),
                    },
                    LogWrite {
                        key: 2,
                        version: 1 << 40,
                        value: vec![],
                    },
                ],
                notices: Notices::default(),
            },
            TxnRpc::Commit {
                txn_id: 9,
                writes: vec![(5, b"value".to_vec())],
                notices: notices(1 << 32 | 2, &[(8, true), (6, false)]),
            },
            TxnRpc::Abort {
                txn_id: 10,
                writes: vec![5, 6],
                notices: notices(u64::MAX, &[(9, true)]),
            },
        ];
        for rpc in cases {
            let enc = rpc.encode();
            assert_eq!(TxnRpc::decode(&enc), Some(rpc));
        }
    }

    #[test]
    fn resp_roundtrip() {
        let resp = TxnResp::Execute {
            ok: true,
            reads: vec![
                KeyRead {
                    key: 1,
                    value: Some(b"v1".to_vec()),
                    word: 42,
                    slot: 16,
                },
                KeyRead {
                    key: 2,
                    value: None,
                    word: 0,
                    slot: u64::MAX,
                },
            ],
            writes: vec![KeyRead {
                key: 3,
                value: Some(vec![9; 100]),
                word: 7,
                slot: 24,
            }],
        };
        let enc = resp.encode();
        assert_eq!(TxnResp::decode(&enc), Some(resp));
        let ack = TxnResp::Ack;
        assert_eq!(TxnResp::decode(&ack.encode()), Some(TxnResp::Ack));
    }

    /// The layout byte for byte: a tag, the id, then each list as a
    /// `u32` count and its items, a value as a `u32` length and its bytes
    /// (a `Log`'s write carries its version between key and value), and
    /// after a `Log`, `Commit` or `Abort` its notices: the coordinator,
    /// then each decision as its id and a commit byte.
    #[test]
    fn requests_keep_their_wire_bytes() {
        let le = |v: u64, n: usize| v.to_le_bytes()[..n].to_vec();
        let head = |tag: u8, txn_id: u64| vec![vec![tag], le(txn_id, 8)];
        let kvs = vec![(1, b"aa".to_vec()), (2, vec![])];
        let kv_bytes = vec![
            le(2, 4),
            le(1, 8),
            le(2, 4),
            b"aa".to_vec(),
            le(2, 8),
            le(0, 4),
        ];
        let cases = [
            (
                TxnRpc::Execute {
                    txn_id: 7,
                    reads: vec![1],
                    writes: vec![9, 5],
                },
                [
                    head(0, 7),
                    vec![le(1, 4), le(1, 8), le(2, 4), le(9, 8), le(5, 8)],
                    vec![],
                ],
            ),
            (
                TxnRpc::Log {
                    txn_id: 8,
                    writes: vec![
                        LogWrite {
                            key: 1,
                            version: 3,
                            value: b"aa".to_vec(),
                        },
                        LogWrite {
                            key: 2,
                            version: 9,
                            value: vec![],
                        },
                    ],
                    notices: notices(4, &[]),
                },
                [
                    head(1, 8),
                    vec![
                        le(2, 4),
                        le(1, 8),
                        le(3, 8),
                        le(2, 4),
                        b"aa".to_vec(),
                        le(2, 8),
                        le(9, 8),
                        le(0, 4),
                    ],
                    vec![le(4, 8), le(0, 4)],
                ],
            ),
            (
                TxnRpc::Commit {
                    txn_id: 9,
                    writes: kvs,
                    notices: notices(5, &[(8, true)]),
                },
                [
                    head(2, 9),
                    kv_bytes,
                    vec![le(5, 8), le(1, 4), le(8, 8), vec![1]],
                ],
            ),
            (
                TxnRpc::Abort {
                    txn_id: 10,
                    writes: vec![5],
                    notices: notices(6, &[(9, false), (7, true)]),
                },
                [
                    head(3, 10),
                    vec![le(1, 4), le(5, 8)],
                    vec![le(6, 8), le(2, 4), le(9, 8), vec![0], le(7, 8), vec![1]],
                ],
            ),
        ];
        for (rpc, parts) in cases {
            assert_eq!(rpc.encode(), parts.concat().concat(), "{rpc:?}");
        }
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert_eq!(TxnRpc::decode(&[]), None);
        assert_eq!(TxnRpc::decode(&[99]), None);
        assert_eq!(TxnRpc::decode(&[0, 1, 2]), None);
        // Trailing garbage.
        let mut enc = TxnRpc::Abort {
            txn_id: 1,
            writes: vec![],
            notices: Notices::default(),
        }
        .encode();
        enc.push(0);
        assert_eq!(TxnRpc::decode(&enc), None);
        assert_eq!(TxnResp::decode(&[7]), None);
    }
}
