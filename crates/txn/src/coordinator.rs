//! The FlockTX coordinator: drives a transaction through execution,
//! one-sided validation, logging, and commit (paper §8.5.1, Figure 13).
//!
//! The protocol is written once, as the per-transaction state machine
//! [`Txn`]: `advance` issues a phase's RPCs or validation reads, the
//! `outstanding` list says what is awaited, `receive` absorbs the
//! replies. Two drivers differ only in how they wait: [`TxnClient::run`]
//! blocks on each outstanding operation in issue order, and
//! [`TxnClient::run_pipelined`] polls `width` machines from one thread
//! (paper §8.5.2: "we also use coroutines to hide the network latency as
//! FaSST").

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use flock_core::alock::{ALock, RemoteLockWord, DEFAULT_COHORT_CAP};
use flock_core::client::{FlThread, MemToken};
use flock_core::{Bytes, ConnectionHandle, FlockError, Result};
use flock_kvstore::LOCK_BIT;

use crate::protocol::{key_partition, replicas_of, TxnResp, TxnRpc};
use crate::server::TXN_STRIPES;
use crate::workloads::TxnSpec;

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

/// Values by key; `None` for a key absent at execution.
type Values = HashMap<u64, Option<Vec<u8>>>;

/// Result of a transaction attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed; carries the values read during execution (read set and
    /// pre-images of the write set).
    Committed(Values),
    /// Aborted due to a lock conflict or failed validation; retry if
    /// desired.
    Aborted,
}

/// Drives [`TxnClient::run_pipelined`]: produces specs and computes write
/// values.
pub trait TxnLogic {
    /// The next transaction to run.
    fn next(&mut self) -> TxnSpec;
    /// Compute the new write-set values from the execution-time values.
    fn compute(&mut self, spec: &TxnSpec, values: &Values) -> HashMap<u64, Vec<u8>>;
}

/// Outcome counters for a pipelined run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
}

/// One server's share of a transaction.
#[derive(Default)]
struct Group {
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// The server holds this transaction's write locks: its Execute
    /// answered `ok` and it has been sent neither Commit nor Abort.
    locked: bool,
    /// New values of `writes`, from the Log phase until Commit takes them.
    new_values: Vec<(u64, Vec<u8>)>,
}

/// The phase whose operations are in flight.
#[derive(Clone, Copy)]
enum Phase {
    Begin,
    Execute,
    Validate,
    Log,
    Commit,
    Abort,
}

/// An operation a transaction has issued and not yet received.
struct Wait {
    server: usize,
    op: Op,
}

enum Op {
    /// The RPC with this sequence number.
    Rpc(u64),
    /// A one-sided read of a version word that read `expect` at execution.
    Read { token: MemToken, expect: u64 },
}

impl Wait {
    /// Block until the operation completes.
    fn block(&self, threads: &[FlThread]) -> Result<Bytes> {
        let thread = &threads[self.server];
        match self.op {
            Op::Rpc(seq) => thread.recv_res(seq),
            Op::Read { token, .. } => thread.wait_mem(token).map(Bytes::from),
        }
    }

    /// Its result, if it has completed.
    fn poll(&self, threads: &[FlThread]) -> Option<Result<Bytes>> {
        let thread = &threads[self.server];
        match self.op {
            Op::Rpc(seq) => thread.try_recv_res(seq).map(Ok),
            Op::Read { token, .. } => thread.try_mem(token).map(|r| r.map(Bytes::from)),
        }
    }
}

/// One transaction's walk through the four phases.
///
/// A driver alternates [`Txn::advance`] and [`Txn::receive`] until
/// `advance` returns the outcome. A lock conflict or failed validation
/// (`conflict`) and the first error of a send, a reply or a read
/// (`error`) both end in the Abort phase once everything outstanding has
/// been received, so a finished transaction holds no lock it knows of and
/// leaves no RPC on its way.
struct Txn {
    id: u64,
    /// By primary, in server order: the order every phase sends in.
    groups: BTreeMap<usize, Group>,
    phase: Phase,
    outstanding: Vec<Wait>,
    values: Values,
    /// `(server, slot, word)` of every read-set key present at execution.
    read_set: Vec<(usize, u64, u64)>,
    conflict: bool,
    error: Option<FlockError>,
}

/// Send `rpc` to `server` and note that its reply is awaited.
fn issue_rpc(
    threads: &[FlThread],
    server: usize,
    rpc: &TxnRpc,
    outstanding: &mut Vec<Wait>,
) -> Result<()> {
    let seq = threads[server].send_rpc(rpc.rpc_id(), &rpc.encode())?;
    outstanding.push(Wait {
        server,
        op: Op::Rpc(seq),
    });
    Ok(())
}

impl Txn {
    fn new(id: u64, n_servers: usize, reads: &[u64], writes: &[u64]) -> Txn {
        let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
        for &k in reads {
            groups
                .entry(key_partition(k, n_servers))
                .or_default()
                .reads
                .push(k);
        }
        for &k in writes {
            groups
                .entry(key_partition(k, n_servers))
                .or_default()
                .writes
                .push(k);
        }
        Txn {
            id,
            groups,
            phase: Phase::Begin,
            outstanding: Vec::new(),
            values: HashMap::new(),
            read_set: Vec::new(),
            conflict: false,
            error: None,
        }
    }

    /// Take every outstanding operation `fetch` has a result for; returns
    /// whether none is left.
    fn receive(&mut self, fetch: impl Fn(&Wait) -> Option<Result<Bytes>>) -> bool {
        for wait in std::mem::take(&mut self.outstanding) {
            match fetch(&wait) {
                Some(reply) => {
                    if let Err(e) = reply.and_then(|bytes| self.absorb(&wait, &bytes)) {
                        self.error.get_or_insert(e);
                    }
                }
                None => self.outstanding.push(wait),
            }
        }
        self.outstanding.is_empty()
    }

    fn absorb(&mut self, wait: &Wait, bytes: &[u8]) -> Result<()> {
        if let Op::Read { expect, .. } = wait.op {
            let word = u64::from_le_bytes(
                bytes
                    .try_into()
                    .map_err(|_| FlockError::CorruptMessage("validation read size"))?,
            );
            if word != expect || word & LOCK_BIT != 0 {
                self.conflict = true;
            }
            return Ok(());
        }
        match (self.phase, TxnResp::decode(bytes)) {
            (Phase::Execute, Some(TxnResp::Execute { ok, reads, writes })) => {
                if !ok {
                    self.conflict = true;
                    return Ok(());
                }
                let group = self.groups.get_mut(&wait.server).expect("sent to a group");
                group.locked = !group.writes.is_empty();
                // A key absent at execution has nothing to validate.
                self.read_set.extend(
                    reads
                        .iter()
                        .filter(|kr| kr.slot != u64::MAX)
                        .map(|kr| (wait.server, kr.slot, kr.word)),
                );
                self.values
                    .extend(reads.into_iter().chain(writes).map(|kr| (kr.key, kr.value)));
                Ok(())
            }
            (Phase::Log | Phase::Commit | Phase::Abort, Some(TxnResp::Ack)) => Ok(()),
            _ => Err(FlockError::CorruptMessage("unexpected txn response")),
        }
    }

    /// With nothing outstanding, issue the next phase's operations;
    /// returns the outcome once there is no next phase. `compute` runs
    /// once, after validation, on the execution-time values. An error
    /// while sending leaves the rest of that phase unsent.
    fn advance(
        &mut self,
        threads: &[FlThread],
        compute: &mut dyn FnMut(&Values) -> HashMap<u64, Vec<u8>>,
    ) -> Option<Result<TxnOutcome>> {
        while self.outstanding.is_empty() {
            let failed = self.conflict || self.error.is_some();
            let sent = match (self.phase, failed) {
                (Phase::Abort, _) | (Phase::Commit, false) => {
                    return Some(match self.error.take() {
                        Some(e) => Err(e),
                        None if self.conflict => Ok(TxnOutcome::Aborted),
                        None => Ok(TxnOutcome::Committed(std::mem::take(&mut self.values))),
                    });
                }
                // After a failed Commit phase too: a send error may have
                // left a primary locked.
                (_, true) => self.abort(threads),
                (Phase::Begin, _) => self.execute(threads),
                (Phase::Execute, _) => self.validate(threads),
                (Phase::Validate, _) => self.log(threads, compute(&self.values)),
                (Phase::Log, _) => self.commit(threads),
            };
            if let Err(e) = sent {
                self.error.get_or_insert(e);
            }
        }
        None
    }

    /// Phase 1: every primary reads its share and locks its write keys.
    fn execute(&mut self, threads: &[FlThread]) -> Result<()> {
        self.phase = Phase::Execute;
        for (&server, g) in &self.groups {
            let rpc = TxnRpc::Execute {
                txn_id: self.id,
                reads: g.reads.clone(),
                writes: g.writes.clone(),
            };
            issue_rpc(threads, server, &rpc, &mut self.outstanding)?;
        }
        Ok(())
    }

    /// Phase 2: one-sided reads of the version words recorded at
    /// execution (region 0 is the server's version table), all issued
    /// before any is awaited.
    fn validate(&mut self, threads: &[FlThread]) -> Result<()> {
        self.phase = Phase::Validate;
        for &(server, slot, expect) in &self.read_set {
            let token = threads[server].read_async(0, slot, 8)?;
            self.outstanding.push(Wait {
                server,
                op: Op::Read { token, expect },
            });
        }
        Ok(())
    }

    /// Phase 3: the new values go to both replicas of every written
    /// partition.
    fn log(&mut self, threads: &[FlThread], new_values: HashMap<u64, Vec<u8>>) -> Result<()> {
        self.phase = Phase::Log;
        for (&server, g) in &mut self.groups {
            if g.writes.is_empty() {
                continue;
            }
            debug_assert!(g.writes.iter().all(|k| new_values.contains_key(k)));
            g.new_values = g
                .writes
                .iter()
                .map(|&k| (k, new_values.get(&k).cloned().unwrap_or_default()))
                .collect();
            let rpc = TxnRpc::Log {
                txn_id: self.id,
                writes: g.new_values.clone(),
            };
            for replica in replicas_of(server, threads.len()) {
                issue_rpc(threads, replica, &rpc, &mut self.outstanding)?;
            }
        }
        Ok(())
    }

    /// Phase 4: primaries install the new values and unlock.
    fn commit(&mut self, threads: &[FlThread]) -> Result<()> {
        self.phase = Phase::Commit;
        for (&server, g) in &mut self.groups {
            if g.writes.is_empty() {
                continue;
            }
            let rpc = TxnRpc::Commit {
                txn_id: self.id,
                writes: std::mem::take(&mut g.new_values),
            };
            issue_rpc(threads, server, &rpc, &mut self.outstanding)?;
            g.locked = false;
        }
        Ok(())
    }

    /// Unlock every server known to hold this transaction's locks; a
    /// failed send does not keep the others from being tried.
    fn abort(&mut self, threads: &[FlThread]) -> Result<()> {
        self.phase = Phase::Abort;
        let mut first_error = Ok(());
        for (&server, g) in &mut self.groups {
            if !std::mem::take(&mut g.locked) {
                continue;
            }
            let rpc = TxnRpc::Abort {
                txn_id: self.id,
                writes: g.writes.clone(),
            };
            let sent = issue_rpc(threads, server, &rpc, &mut self.outstanding);
            first_error = first_error.and(sent);
        }
        first_error
    }
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

    /// A machine for the next transaction id, nothing sent yet.
    fn begin(&self, reads: &[u64], writes: &[u64]) -> Txn {
        let id = self.txn_seq.get();
        self.txn_seq.set(id + 1);
        Txn::new(id, self.threads.len(), reads, writes)
    }

    /// Run one transaction: read `reads`, then atomically replace the
    /// values of `writes` with the output of `compute` (which receives the
    /// execution-time values of both sets).
    ///
    /// Returns [`TxnOutcome::Aborted`] on lock conflicts or validation
    /// failure; the caller retries. An error is returned only after every
    /// reply has been received and every lock the transaction is known to
    /// hold has been released.
    pub fn run<F>(&self, reads: &[u64], writes: &[u64], compute: F) -> Result<TxnOutcome>
    where
        F: FnOnce(&HashMap<u64, Option<Vec<u8>>>) -> HashMap<u64, Vec<u8>>,
    {
        let mut compute = Some(compute);
        let mut compute = |values: &Values| (compute.take().expect("computes once"))(values);
        let mut txn = self.begin(reads, writes);
        loop {
            if let Some(outcome) = txn.advance(&self.threads, &mut compute) {
                return outcome;
            }
            // In issue order, each wait on its `Event`: no polling.
            txn.receive(|wait| Some(wait.block(&self.threads)));
        }
    }

    /// Run `logic`'s transactions `width` at a time from this one thread,
    /// polling instead of blocking so their round trips overlap, until
    /// `target_commits` commit; aborted attempts are counted and not
    /// retried (`logic` decides what comes next).
    ///
    /// Once the target is reached, or a transaction returns an error, no
    /// slot starts another, and the run returns when every transaction
    /// already in flight has finished its commit or abort — so `commits`
    /// may exceed the target by up to `width - 1`, and on return no lock
    /// is held and no RPC of this client is still on its way. The first
    /// error is the result.
    pub fn run_pipelined(
        &self,
        logic: &mut dyn TxnLogic,
        width: usize,
        target_commits: u64,
    ) -> Result<PipelineStats> {
        assert!(width >= 1);
        let mut stats = PipelineStats::default();
        let mut first_error = None;
        let start = |logic: &mut dyn TxnLogic| {
            let spec = logic.next();
            let txn = self.begin(&spec.reads, &spec.writes);
            (spec, txn)
        };
        let mut slots: Vec<_> = (0..width).map(|_| Some(start(logic))).collect();
        while slots.iter().any(Option::is_some) {
            let mut progressed = false;
            for entry in &mut slots {
                let Some((spec, txn)) = entry else { continue };
                if !txn.receive(|wait| wait.poll(&self.threads)) {
                    continue;
                }
                progressed = true;
                let mut compute = |values: &Values| logic.compute(spec, values);
                let Some(outcome) = txn.advance(&self.threads, &mut compute) else {
                    continue;
                };
                match outcome {
                    Ok(TxnOutcome::Committed(_)) => stats.commits += 1,
                    Ok(TxnOutcome::Aborted) => stats.aborts += 1,
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
                let more = first_error.is_none() && stats.commits < target_commits;
                *entry = more.then(|| start(logic));
            }
            if !progressed {
                flock_sync::clock::yield_now();
            }
        }
        first_error.map_or(Ok(stats), Err)
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
}
