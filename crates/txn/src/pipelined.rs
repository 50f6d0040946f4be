//! A coroutine-style pipelined coordinator (paper §8.5.2: "we also use
//! coroutines to hide the network latency as FaSST").
//!
//! One OS thread drives `width` concurrent transactions as explicit state
//! machines, polling responses ([`FlThread::try_recv_res`]) and one-sided
//! validation reads ([`FlThread::try_mem`]) instead of blocking — so the
//! round trips of many transactions overlap on the same thread, exactly
//! like the paper's 19 submitting coroutines.

use std::collections::{BTreeMap, HashMap};

use flock_core::client::{FlThread, MemToken};
use flock_core::ConnectionHandle;
use flock_core::{FlockError, Result};
use flock_kvstore::LOCK_BIT;

use crate::protocol::{key_partition, replicas_of, KeyRead, TxnResp, TxnRpc};
use crate::workloads::TxnSpec;

/// Drives the workload: produces specs and computes write values.
pub trait TxnLogic {
    /// The next transaction to run.
    fn next(&mut self) -> TxnSpec;
    /// Compute the new write-set values from the execution-time values.
    fn compute(
        &mut self,
        spec: &TxnSpec,
        values: &HashMap<u64, Option<Vec<u8>>>,
    ) -> HashMap<u64, Vec<u8>>;
}

/// Outcome counters for a pipelined run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (retried automatically).
    pub aborts: u64,
}

enum Phase {
    Execute,
    Validate,
    Log,
    Commit,
    CommitDone,
    Aborting,
    AbortDone,
}

enum Wait {
    Rpc {
        server: usize,
        seq: u64,
    },
    Read {
        server: usize,
        token: MemToken,
        key: u64,
        expect: u64,
    },
}

struct Slot {
    spec: TxnSpec,
    phase: Phase,
    txn_id: u64,
    pending: Vec<Wait>,
    failed: bool,
    values: HashMap<u64, Option<Vec<u8>>>,
    reads: Vec<(usize, KeyRead)>,
    locked_servers: Vec<usize>,
}

/// The pipelined coordinator: one per OS thread.
pub struct PipelinedTxnClient {
    threads: Vec<FlThread>,
    next_txn_id: u64,
}

impl PipelinedTxnClient {
    /// Register this thread with every server handle (ordered by server
    /// index).
    pub fn new(handles: &[std::sync::Arc<ConnectionHandle>]) -> PipelinedTxnClient {
        PipelinedTxnClient {
            threads: handles.iter().map(|h| h.register_thread()).collect(),
            next_txn_id: 1,
        }
    }

    /// Run transactions `width` at a time until `target_commits` commit.
    ///
    /// Once the target is reached no slot starts another transaction,
    /// and the run returns when every transaction already in flight has
    /// finished its commit or abort — so `commits` may exceed the target
    /// by up to `width - 1`, and on return no lock is held and no RPC of
    /// this client is still on its way.
    pub fn run(
        &mut self,
        logic: &mut dyn TxnLogic,
        width: usize,
        target_commits: u64,
    ) -> Result<PipelineStats> {
        assert!(width >= 1);
        let n = self.threads.len();
        let mut stats = PipelineStats::default();
        let mut slots: Vec<Option<Slot>> = Vec::with_capacity(width);
        for _ in 0..width {
            slots.push(Some(self.start(logic)?));
        }
        while slots.iter().any(Option::is_some) {
            let mut progressed = false;
            for entry in slots.iter_mut() {
                let Some(slot) = entry else { continue };
                if self.poll_slot(slot)? {
                    progressed = true;
                    if self.advance(slot, logic, &mut stats, n)? {
                        *entry = if stats.commits < target_commits {
                            Some(self.start(logic)?)
                        } else {
                            None
                        };
                    }
                }
            }
            if !progressed {
                flock_sync::clock::yield_now();
            }
        }
        Ok(stats)
    }

    fn start(&mut self, logic: &mut dyn TxnLogic) -> Result<Slot> {
        let spec = logic.next();
        let txn_id = self.next_txn_id;
        self.next_txn_id += 1;
        let mut slot = Slot {
            spec,
            phase: Phase::Execute,
            txn_id,
            pending: Vec::new(),
            failed: false,
            values: HashMap::new(),
            reads: Vec::new(),
            locked_servers: Vec::new(),
        };
        self.send_execute(&mut slot)?;
        Ok(slot)
    }

    fn groups(&self, spec: &TxnSpec) -> BTreeMap<usize, (Vec<u64>, Vec<u64>)> {
        let n = self.threads.len();
        let mut groups: BTreeMap<usize, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for &k in &spec.reads {
            groups.entry(key_partition(k, n)).or_default().0.push(k);
        }
        for &k in &spec.writes {
            groups.entry(key_partition(k, n)).or_default().1.push(k);
        }
        groups
    }

    fn send_execute(&self, slot: &mut Slot) -> Result<()> {
        slot.pending.clear();
        for (server, (reads, writes)) in self.groups(&slot.spec) {
            let rpc = TxnRpc::Execute {
                txn_id: slot.txn_id,
                reads,
                writes,
            };
            let seq = self.threads[server].send_rpc(rpc.rpc_id(), &rpc.encode())?;
            slot.pending.push(Wait::Rpc { server, seq });
        }
        Ok(())
    }

    /// Poll a slot's outstanding operations; returns true when the phase
    /// has fully completed.
    fn poll_slot(&self, slot: &mut Slot) -> Result<bool> {
        let mut still = Vec::new();
        let waits = std::mem::take(&mut slot.pending);
        for wait in waits {
            match wait {
                Wait::Rpc { server, seq } => match self.threads[server].try_recv_res(seq) {
                    Some(bytes) => {
                        self.absorb_rpc(slot, server, &bytes)?;
                    }
                    None => still.push(Wait::Rpc { server, seq }),
                },
                Wait::Read {
                    server,
                    token,
                    key,
                    expect,
                } => match self.threads[server].try_mem(token) {
                    Some(result) => {
                        let raw = result?;
                        let word = u64::from_le_bytes(
                            raw[..8]
                                .try_into()
                                .map_err(|_| FlockError::CorruptMessage("validation read size"))?,
                        );
                        if word != expect || word & LOCK_BIT != 0 {
                            slot.failed = true;
                        }
                    }
                    None => still.push(Wait::Read {
                        server,
                        token,
                        key,
                        expect,
                    }),
                },
            }
        }
        slot.pending = still;
        Ok(slot.pending.is_empty())
    }

    fn absorb_rpc(&self, slot: &mut Slot, server: usize, bytes: &[u8]) -> Result<()> {
        let resp = TxnResp::decode(bytes).ok_or(FlockError::CorruptMessage("txn response"))?;
        match (&slot.phase, resp) {
            (Phase::Execute, TxnResp::Execute { ok, reads, writes }) => {
                if !ok {
                    slot.failed = true;
                    return Ok(());
                }
                if !self.groups(&slot.spec)[&server].1.is_empty() {
                    slot.locked_servers.push(server);
                }
                for kr in &reads {
                    slot.values.insert(kr.key, kr.value.clone());
                }
                for kr in &writes {
                    slot.values.insert(kr.key, kr.value.clone());
                }
                slot.reads.extend(reads.into_iter().map(|kr| (server, kr)));
            }
            (_, TxnResp::Ack) => {}
            _ => return Err(FlockError::CorruptMessage("unexpected txn response")),
        }
        Ok(())
    }

    /// The current phase finished: move the state machine forward.
    /// Returns whether the transaction is over (committed or aborted,
    /// counted in `stats`): the slot is free.
    fn advance(
        &mut self,
        slot: &mut Slot,
        logic: &mut dyn TxnLogic,
        stats: &mut PipelineStats,
        n: usize,
    ) -> Result<bool> {
        loop {
            match slot.phase {
                Phase::Execute => {
                    if slot.failed {
                        slot.phase = Phase::Aborting;
                        continue;
                    }
                    if slot.reads.is_empty() {
                        slot.phase = Phase::Log;
                        continue;
                    }
                    // One-sided validation: async reads of the version
                    // words recorded at execution.
                    slot.phase = Phase::Validate;
                    let reads = std::mem::take(&mut slot.reads);
                    for (server, kr) in &reads {
                        if kr.slot == u64::MAX {
                            continue;
                        }
                        let token = self.threads[*server].read_async(0, kr.slot, 8)?;
                        slot.pending.push(Wait::Read {
                            server: *server,
                            token,
                            key: kr.key,
                            expect: kr.word,
                        });
                    }
                    slot.reads = reads;
                    if slot.pending.is_empty() {
                        continue; // nothing to validate (all keys absent)
                    }
                    return Ok(false);
                }
                Phase::Validate => {
                    slot.phase = if slot.failed {
                        Phase::Aborting
                    } else {
                        Phase::Log
                    };
                    continue;
                }
                Phase::Log => {
                    let new_values = logic.compute(&slot.spec, &slot.values);
                    let mut sent = false;
                    for (server, (_, writes)) in self.groups(&slot.spec) {
                        if writes.is_empty() {
                            continue;
                        }
                        let kvs: Vec<(u64, Vec<u8>)> = writes
                            .iter()
                            .map(|&k| (k, new_values.get(&k).cloned().unwrap_or_default()))
                            .collect();
                        for replica in replicas_of(server, n) {
                            let rpc = TxnRpc::Log {
                                txn_id: slot.txn_id,
                                writes: kvs.clone(),
                            };
                            let seq =
                                self.threads[replica].send_rpc(rpc.rpc_id(), &rpc.encode())?;
                            slot.pending.push(Wait::Rpc {
                                server: replica,
                                seq,
                            });
                            sent = true;
                        }
                    }
                    slot.values
                        .extend(new_values.into_iter().map(|(k, v)| (k, Some(v))));
                    if !sent {
                        // Read-only transaction: done.
                        stats.commits += 1;
                        return Ok(true);
                    }
                    slot.phase = Phase::Commit;
                    return Ok(false);
                }
                Phase::Commit => {
                    // The log ACKs just drained; send commits if we have
                    // not yet, otherwise we're done.
                    let mut sent = false;
                    for (server, (_, writes)) in self.groups(&slot.spec) {
                        if writes.is_empty() {
                            continue;
                        }
                        let kvs: Vec<(u64, Vec<u8>)> = writes
                            .iter()
                            .map(|&k| {
                                (
                                    k,
                                    slot.values
                                        .get(&k)
                                        .and_then(|v| v.clone())
                                        .unwrap_or_default(),
                                )
                            })
                            .collect();
                        let rpc = TxnRpc::Commit {
                            txn_id: slot.txn_id,
                            writes: kvs,
                        };
                        let seq = self.threads[server].send_rpc(rpc.rpc_id(), &rpc.encode())?;
                        slot.pending.push(Wait::Rpc { server, seq });
                        sent = true;
                    }
                    debug_assert!(sent, "commit phase implies a write set");
                    if sent {
                        slot.phase = Phase::CommitDone;
                    }
                    return Ok(false);
                }
                Phase::CommitDone => {
                    stats.commits += 1;
                    return Ok(true);
                }
                Phase::Aborting => {
                    if slot.locked_servers.is_empty() {
                        stats.aborts += 1;
                        return Ok(true);
                    }
                    let locked = std::mem::take(&mut slot.locked_servers);
                    for server in locked {
                        let writes = self.groups(&slot.spec)[&server].1.clone();
                        let rpc = TxnRpc::Abort {
                            txn_id: slot.txn_id,
                            writes,
                        };
                        let seq = self.threads[server].send_rpc(rpc.rpc_id(), &rpc.encode())?;
                        slot.pending.push(Wait::Rpc { server, seq });
                    }
                    slot.phase = Phase::AbortDone;
                    return Ok(false);
                }
                Phase::AbortDone => {
                    stats.aborts += 1;
                    return Ok(true);
                }
            }
        }
    }
}
