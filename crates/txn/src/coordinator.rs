//! The FlockTX coordinator: drives a transaction through execution,
//! one-sided validation, logging, and commit (paper §8.5.1, Figure 13).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use flock_core::alock::{ALock, RemoteLockWord, DEFAULT_COHORT_CAP};
use flock_core::client::FlThread;
use flock_core::ConnectionHandle;
use flock_core::{FlockError, Result};

use crate::protocol::{key_partition, replicas_of, KeyRead, TxnResp, TxnRpc};
use crate::server::TXN_STRIPES;

/// The client-side half of the pessimistic commit path: one [`ALock`]
/// cohort per `(server, stripe)` over the server's exported stripe-lock
/// table (`crate::server::export_stripe_locks`).
///
/// Threads sharing one `StripeLocks` form one cohort: the first thread
/// CASes the remote word, subsequent waiters take local handoffs, so N
/// contending local transactions cost ~1 remote atomic instead of N —
/// the asymmetry the ALock exists for. Distinct processes must use
/// distinct `cookie`s so their releases cannot be confused.
pub struct StripeLocks {
    region_idx: usize,
    cookie: u64,
    locks: Vec<Vec<ALock>>, // [server][stripe]
}

impl StripeLocks {
    /// Build the cohort table for `n_servers` servers whose stripe-lock
    /// region is advertised at `region_idx`. `cookie` must be nonzero
    /// and unique per cohort.
    pub fn new(n_servers: usize, region_idx: usize, cookie: u64) -> Arc<StripeLocks> {
        assert!(cookie != 0, "cookie 0 is the unlocked word");
        let locks = (0..n_servers)
            .map(|_| {
                (0..TXN_STRIPES)
                    .map(|_| ALock::new(DEFAULT_COHORT_CAP))
                    .collect()
            })
            .collect();
        Arc::new(StripeLocks {
            region_idx,
            cookie,
            locks,
        })
    }

    /// The `(server, stripe)` pair covering `key`.
    fn locate(&self, key: u64, n_servers: usize) -> (usize, usize) {
        let server = key_partition(key, n_servers);
        let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        (server, (x % TXN_STRIPES as u64) as usize)
    }

    /// Total remote CAS acquisitions across all stripes.
    pub fn remote_acquires(&self) -> u64 {
        self.locks
            .iter()
            .flatten()
            .map(|l| l.remote_acquires())
            .sum()
    }

    /// Total local (in-cohort) handoffs across all stripes.
    pub fn local_handoffs(&self) -> u64 {
        self.locks
            .iter()
            .flatten()
            .map(|l| l.local_handoffs())
            .sum()
    }
}

/// Result of a transaction attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed; carries the values read during execution (read set and
    /// pre-images of the write set).
    Committed(HashMap<u64, Option<Vec<u8>>>),
    /// Aborted due to a lock conflict or failed validation; retry if
    /// desired.
    Aborted,
}

/// A per-application-thread transaction coordinator holding one
/// [`FlThread`] per server connection.
pub struct TxnClient {
    threads: Vec<FlThread>,
    txn_seq: std::cell::Cell<u64>,
}

impl TxnClient {
    /// Register this thread with every server handle (ordered by server
    /// index).
    pub fn new(handles: &[Arc<ConnectionHandle>]) -> TxnClient {
        TxnClient {
            threads: handles.iter().map(|h| h.register_thread()).collect(),
            txn_seq: std::cell::Cell::new(1),
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.threads.len()
    }

    /// Run one transaction: read `reads`, then atomically replace the
    /// values of `writes` with the output of `compute` (which receives the
    /// execution-time values of both sets).
    ///
    /// Returns [`TxnOutcome::Aborted`] on lock conflicts or validation
    /// failure; the caller retries.
    pub fn run<F>(&self, reads: &[u64], writes: &[u64], compute: F) -> Result<TxnOutcome>
    where
        F: FnOnce(&HashMap<u64, Option<Vec<u8>>>) -> HashMap<u64, Vec<u8>>,
    {
        let n = self.threads.len();
        let txn_id = self.txn_seq.get();
        self.txn_seq.set(txn_id + 1);

        // ---- Phase 1: Execution -------------------------------------
        // Group keys by primary and send all Execute RPCs before waiting
        // (the coordinator pipelines across servers).
        let mut groups: BTreeMap<usize, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for &k in reads {
            groups.entry(key_partition(k, n)).or_default().0.push(k);
        }
        for &k in writes {
            groups.entry(key_partition(k, n)).or_default().1.push(k);
        }
        let mut pending: Vec<(usize, u64)> = Vec::with_capacity(groups.len());
        for (&server, (r, w)) in &groups {
            let rpc = TxnRpc::Execute {
                txn_id,
                reads: r.clone(),
                writes: w.clone(),
            };
            let seq = self.threads[server].send_rpc(rpc.rpc_id(), &rpc.encode())?;
            pending.push((server, seq));
        }
        let mut all_reads: Vec<(usize, KeyRead)> = Vec::new();
        let mut values: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
        let mut locked_servers: Vec<usize> = Vec::new();
        let mut exec_ok = true;
        for (server, seq) in pending {
            let resp = self.threads[server].recv_res(seq)?;
            let resp = TxnResp::decode(&resp).ok_or(FlockError::CorruptMessage("txn response"))?;
            let TxnResp::Execute { ok, reads, writes } = resp else {
                return Err(FlockError::CorruptMessage("expected execute response"));
            };
            if !ok {
                exec_ok = false;
                continue;
            }
            if !groups[&server].1.is_empty() {
                locked_servers.push(server);
            }
            for kr in &reads {
                values.insert(kr.key, kr.value.clone());
            }
            for kr in &writes {
                values.insert(kr.key, kr.value.clone());
            }
            all_reads.extend(reads.into_iter().map(|kr| (server, kr)));
        }
        if !exec_ok {
            self.abort(txn_id, &groups, &locked_servers)?;
            return Ok(TxnOutcome::Aborted);
        }

        // ---- Phase 2: Validation (one-sided reads) -------------------
        // Verify every read-set version word via fl_read of the server's
        // advertised version table (region 0).
        for (server, kr) in &all_reads {
            if kr.slot == u64::MAX {
                continue; // key absent at execution: nothing to validate
            }
            let raw = self.threads[*server].read(0, kr.slot, 8)?;
            let word = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes"));
            let locked = word & flock_kvstore::LOCK_BIT != 0;
            if locked || word != kr.word {
                self.abort(txn_id, &groups, &locked_servers)?;
                return Ok(TxnOutcome::Aborted);
            }
        }

        // ---- Compute -------------------------------------------------
        let new_values = compute(&values);
        debug_assert!(writes.iter().all(|k| new_values.contains_key(k)));

        // ---- Phase 3: Logging to replicas ----------------------------
        let mut log_pending: Vec<(usize, u64)> = Vec::new();
        for (&server, (_, w)) in &groups {
            if w.is_empty() {
                continue;
            }
            let writes_kv: Vec<(u64, Vec<u8>)> = w
                .iter()
                .map(|&k| (k, new_values.get(&k).cloned().unwrap_or_default()))
                .collect();
            for replica in replicas_of(server, n) {
                let rpc = TxnRpc::Log {
                    txn_id,
                    writes: writes_kv.clone(),
                };
                let seq = self.threads[replica].send_rpc(rpc.rpc_id(), &rpc.encode())?;
                log_pending.push((replica, seq));
            }
        }
        for (replica, seq) in log_pending {
            let resp = self.threads[replica].recv_res(seq)?;
            if TxnResp::decode(&resp) != Some(TxnResp::Ack) {
                return Err(FlockError::CorruptMessage("log ack"));
            }
        }

        // ---- Phase 4: Commit on primaries ----------------------------
        let mut commit_pending: Vec<(usize, u64)> = Vec::new();
        for (&server, (_, w)) in &groups {
            if w.is_empty() {
                continue;
            }
            let writes_kv: Vec<(u64, Vec<u8>)> = w
                .iter()
                .map(|&k| (k, new_values.get(&k).cloned().unwrap_or_default()))
                .collect();
            let rpc = TxnRpc::Commit {
                txn_id,
                writes: writes_kv,
            };
            let seq = self.threads[server].send_rpc(rpc.rpc_id(), &rpc.encode())?;
            commit_pending.push((server, seq));
        }
        for (server, seq) in commit_pending {
            let resp = self.threads[server].recv_res(seq)?;
            if TxnResp::decode(&resp) != Some(TxnResp::Ack) {
                return Err(FlockError::CorruptMessage("commit ack"));
            }
        }
        Ok(TxnOutcome::Committed(values))
    }

    /// [`TxnClient::run`] under pessimistic stripe locks: acquire the
    /// ALock of every `(server, stripe)` the transaction touches — in
    /// global sorted order, so concurrent locked transactions cannot
    /// deadlock — then run the ordinary four-phase protocol and release.
    ///
    /// When every contending client goes through the same stripe table,
    /// conflicting transactions serialize *before* execution: no
    /// execute-phase lock conflicts, no validation failures, zero
    /// aborts — at the price of one remote CAS per stripe, amortized
    /// across the local cohort by the ALock's handoffs. This is the
    /// alternative commit path for write-hot keys where OCC retry burn
    /// exceeds the lock verbs.
    pub fn run_locked<F>(
        &self,
        locks: &StripeLocks,
        reads: &[u64],
        writes: &[u64],
        compute: F,
    ) -> Result<TxnOutcome>
    where
        F: FnOnce(&HashMap<u64, Option<Vec<u8>>>) -> HashMap<u64, Vec<u8>>,
    {
        let n = self.threads.len();
        let mut stripes: Vec<(usize, usize)> = reads
            .iter()
            .chain(writes)
            .map(|&k| locks.locate(k, n))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();

        let mut held = Vec::with_capacity(stripes.len());
        for &(server, stripe) in &stripes {
            let word = RemoteLockWord::new(
                &self.threads[server],
                locks.region_idx,
                (stripe * 8) as u64,
                locks.cookie,
            );
            match locks.locks[server][stripe].acquire(&word) {
                Ok(ticket) => held.push((server, stripe, ticket)),
                Err(e) => {
                    self.release_stripes(locks, held);
                    return Err(e);
                }
            }
        }
        let outcome = self.run(reads, writes, compute);
        self.release_stripes(locks, held);
        outcome
    }

    fn release_stripes(
        &self,
        locks: &StripeLocks,
        held: Vec<(usize, usize, flock_core::alock::Ticket)>,
    ) {
        // Reverse acquisition order; a failed remote release only loses
        // fairness (the word stays taken for this cohort), never safety.
        for (server, stripe, ticket) in held.into_iter().rev() {
            let word = RemoteLockWord::new(
                &self.threads[server],
                locks.region_idx,
                (stripe * 8) as u64,
                locks.cookie,
            );
            let _ = locks.locks[server][stripe].release(&word, ticket);
        }
    }

    /// Release locks on every server whose execute succeeded.
    fn abort(
        &self,
        txn_id: u64,
        groups: &BTreeMap<usize, (Vec<u64>, Vec<u64>)>,
        locked_servers: &[usize],
    ) -> Result<()> {
        let mut pending = Vec::new();
        for &server in locked_servers {
            let w = &groups[&server].1;
            let rpc = TxnRpc::Abort {
                txn_id,
                writes: w.clone(),
            };
            let seq = self.threads[server].send_rpc(rpc.rpc_id(), &rpc.encode())?;
            pending.push((server, seq));
        }
        for (server, seq) in pending {
            let _ = self.threads[server].recv_res(seq)?;
        }
        Ok(())
    }
}
