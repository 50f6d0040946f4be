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
//! FaSST"). A transaction posts its `Log`s ([`FlThread::post_rpc`])
//! right behind its validation reads and reports its commit once every
//! read matched, every Log has landed in its backup's request ring and
//! every `Commit`, posted too, is sent. A backup holds a Log as a
//! pending record until a notice of the transaction's decision, riding
//! the coordinator's next Log, Commit or Abort to it, applies or drops
//! it. A server handles a lane in ring order, and a thread with a
//! request not yet received stays on its lane (§5.2), so a Log's
//! landing stays untaken until its notice, or an Execute whose answer
//! proves the Log handled, has followed it there; and a posted Commit or
//! notice counts as applied once the next request after it on its lane
//! is answered: the client's next Execute to that server, or
//! [`TxnClient::settle`]'s fence. Until then its landing trails, at most
//! `width` Commits per server.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use flock_core::alock::{ALock, RemoteLockWord, DEFAULT_COHORT_CAP};
use flock_core::client::{FlThread, MemToken};
use flock_core::onesided::LOCK_BIT;
use flock_core::{Bytes, ConnectionHandle, FlockError, Result};

use crate::protocol::{
    key_partition, put_abort, put_commit, put_execute, put_log, put_notices, replicas_of, Decision,
    LogWrite, TxnResp, RPC_ABORT, RPC_COMMIT, RPC_EXECUTE, RPC_LOG,
};
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
    /// answered `ok` and it has been sent no Abort (past its commit
    /// point a transaction aborts nothing).
    locked: bool,
    /// `writes` once Execute locked them, each with the version its
    /// Commit gives it; their new values from the validation phase on.
    new_values: Vec<LogWrite>,
}

/// The phase whose operations are in flight.
#[derive(Clone, Copy)]
enum Phase {
    Begin,
    Execute,
    /// Validation reads and Logs.
    Validate,
    Commit,
    Abort,
}

/// An operation a transaction has issued and not yet received.
struct Wait {
    server: usize,
    op: Op,
}

enum Op {
    /// The Execute RPC with this sequence number.
    Execute(u64),
    /// The Abort RPC with this sequence number: its reply is an `Ack`.
    Ack(u64),
    /// The posted Commit with this sequence number: its reply is empty,
    /// once the request has landed in the server's request ring.
    Landed(u64),
    /// The posted Log with this sequence number: seen once it has
    /// landed, and its landing left untaken (`Txn::logged`).
    Logged(u64),
    /// A one-sided read of a version word that read `expect` at execution.
    Read { token: MemToken, expect: u64 },
}

impl Wait {
    /// Block until the operation completes: its reply, none for a Log.
    fn block(&self, threads: &[FlThread]) -> Result<Option<Bytes>> {
        let thread = &threads[self.server];
        match self.op {
            Op::Execute(seq) | Op::Ack(seq) | Op::Landed(seq) => thread.recv_res(seq).map(Some),
            Op::Logged(seq) => thread.wait_landed(seq).map(|()| None),
            Op::Read { token, .. } => thread.wait_mem(token).map(|r| Some(Bytes::from(r))),
        }
    }

    /// Its result, if it has completed (or its handle has stopped).
    fn poll(&self, threads: &[FlThread]) -> Option<Result<Option<Bytes>>> {
        let thread = &threads[self.server];
        match self.op {
            Op::Execute(seq) | Op::Ack(seq) | Op::Landed(seq) => {
                thread.try_recv_res(seq).map(|r| r.map(Some))
            }
            Op::Logged(seq) => thread.try_landed(seq).map(|r| r.map(|()| None)),
            Op::Read { token, .. } => thread
                .try_mem(token)
                .map(|r| r.map(|r| Some(Bytes::from(r)))),
        }
    }
}

/// A decided transaction's Log on `server`, landed, and the decision no
/// request has carried there yet. Its landing stays untaken until a
/// request follows the Log on its lane: one carrying the decision, or an
/// Execute, whose answer proves the Log handled.
struct Notice {
    server: usize,
    landing: Option<u64>,
    decision: Decision,
}

/// The reply of an Abort.
fn expect_ack(bytes: &[u8]) -> Result<()> {
    match TxnResp::decode(bytes) {
        Some(TxnResp::Ack) => Ok(()),
        _ => Err(FlockError::CorruptMessage("unexpected txn response")),
    }
}

/// One transaction's walk through its phases.
///
/// A driver alternates [`Txn::advance`] and [`Txn::receive`] until
/// `advance` returns the outcome. A lock conflict or failed validation
/// (`conflict`) and the first error of a send, a reply or a read
/// (`error`) before the commit point both end in the Abort phase once
/// everything outstanding has been received, so a failed transaction
/// holds no lock it knows of and leaves no RPC on its way; its landed
/// Logs leave with a notice to drop them. A committed one returns at
/// its commit point, with its Commits' landings still `outstanding`:
/// `run` and `run_pipelined` move those to the client's trailing list
/// ([`TxnClient::settle`]).
struct Txn {
    id: u64,
    /// By primary, in server order: the order every phase sends in.
    groups: BTreeMap<usize, Group>,
    phase: Phase,
    outstanding: Vec<Wait>,
    values: Values,
    /// `(server, slot, word)` of every read-set key present at execution.
    read_set: Vec<(usize, u64, u64)>,
    /// `(server, seq)` of every Log seen landed, its landing untaken.
    logged: Vec<(usize, u64)>,
    conflict: bool,
    error: Option<FlockError>,
}

/// The new values `server` backs up, in primary order: those of every
/// written partition `replicas_of` puts on it, once each (on one server
/// `replicas_of` names that server twice).
fn backed_up_by(
    groups: &BTreeMap<usize, Group>,
    server: usize,
    n_servers: usize,
) -> impl Iterator<Item = &LogWrite> + Clone {
    groups
        .iter()
        .filter(move |&(&p, _)| replicas_of(p, n_servers).contains(&server))
        .flat_map(|(_, g)| &g.new_values)
}

impl Txn {
    /// A key in both sets is a write: Execute reads it under its lock,
    /// so there is no version word left to validate (the word it read
    /// carries this transaction's own lock bit).
    fn new(id: u64, n_servers: usize, reads: &[u64], writes: &[u64]) -> Txn {
        let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
        for &k in reads.iter().filter(|k| !writes.contains(k)) {
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
            logged: Vec::new(),
            conflict: false,
            error: None,
        }
    }

    /// Take every outstanding operation `fetch` has a result for; returns
    /// whether none is left.
    fn receive(&mut self, fetch: impl Fn(&Wait) -> Option<Result<Option<Bytes>>>) -> bool {
        for wait in std::mem::take(&mut self.outstanding) {
            match fetch(&wait) {
                Some(reply) => {
                    let absorbed = reply
                        .and_then(|bytes| self.absorb(&wait, bytes.as_deref().unwrap_or_default()));
                    if let Err(e) = absorbed {
                        self.error.get_or_insert(e);
                    }
                }
                None => self.outstanding.push(wait),
            }
        }
        self.outstanding.is_empty()
    }

    fn absorb(&mut self, wait: &Wait, bytes: &[u8]) -> Result<()> {
        match wait.op {
            Op::Logged(seq) => {
                self.logged.push((wait.server, seq));
                Ok(())
            }
            Op::Read { expect, .. } => {
                let word = u64::from_le_bytes(
                    bytes
                        .try_into()
                        .map_err(|_| FlockError::CorruptMessage("validation read size"))?,
                );
                if word != expect || word & LOCK_BIT != 0 {
                    self.conflict = true;
                }
                Ok(())
            }
            Op::Ack(_) => expect_ack(bytes),
            Op::Landed(_) => Ok(()),
            Op::Execute(_) => {
                let Some(TxnResp::Execute { ok, reads, writes }) = TxnResp::decode(bytes) else {
                    return Err(FlockError::CorruptMessage("unexpected txn response"));
                };
                if !ok {
                    self.conflict = true;
                    return Ok(());
                }
                let group = self.groups.get_mut(&wait.server).expect("sent to a group");
                group.locked = !group.writes.is_empty();
                // Commit bumps each locked word's version by one.
                group.new_values = writes
                    .iter()
                    .map(|kr| LogWrite {
                        key: kr.key,
                        version: (kr.word & !LOCK_BIT) + 1,
                        value: Vec::new(),
                    })
                    .collect();
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
        }
    }

    /// With nothing outstanding, issue the next phase's operations;
    /// returns the outcome once there is no next phase. `compute` runs
    /// once, after every Execute locked and read its share, on the
    /// execution-time values. An error while sending leaves the rest of
    /// that phase unsent.
    ///
    /// The commit point is the last Commit posted: every validation read
    /// matched and every Log has landed in its backup's request ring, so
    /// the outcome is returned then, with the Commits' landings left
    /// outstanding — `Committed`, or the first error of a Commit send.
    /// Each primary keeps the keys locked until it applies its Commit, so
    /// no reader sees their old values as valid.
    fn advance(
        &mut self,
        client: &TxnClient,
        compute: &mut dyn FnMut(&Values) -> HashMap<u64, Vec<u8>>,
    ) -> Option<Result<TxnOutcome>> {
        while self.outstanding.is_empty() {
            let failed = self.conflict || self.error.is_some();
            let sent = match (self.phase, failed) {
                (Phase::Abort, _) => {
                    return Some(match self.error.take() {
                        Some(e) => Err(e),
                        None => Ok(TxnOutcome::Aborted),
                    });
                }
                (Phase::Commit, _) => unreachable!("a transaction ends at its commit point"),
                (_, true) => self.abort(client),
                (Phase::Begin, _) => self.execute(client),
                (Phase::Execute, _) => self.validate(client, compute(&self.values)),
                (Phase::Validate, _) => self.commit(client),
            };
            if matches!(self.phase, Phase::Commit) {
                let values = std::mem::take(&mut self.values);
                return Some(sent.map(|()| TxnOutcome::Committed(values)));
            }
            if let Err(e) = sent {
                self.error.get_or_insert(e);
            }
        }
        None
    }

    /// Phase 1: every primary reads its share and locks its write keys.
    /// Each Execute goes out on its thread's lane behind the trailing
    /// Commits and the Logs with a decision due on its server, whose
    /// untaken landings keep the thread there. Once it is sent, the
    /// Logs' landings are taken: the Execute, outstanding, keeps the
    /// thread there until its answer proves them handled, and a decision
    /// may then reach them on any lane. It takes the Commits' landings
    /// over, so its answer proves them applied. Landings of servers it
    /// does not send to stay where they are.
    fn execute(&mut self, client: &TxnClient) -> Result<()> {
        self.phase = Phase::Execute;
        let mut trailing = client.trailing.borrow_mut();
        // Landings ahead of the Executes: `run` blocks in list order, so
        // a failed landing is the error it reports.
        let mut landings = 0;
        for (&server, g) in &self.groups {
            let wait = client.send(server, RPC_EXECUTE, |buf| {
                put_execute(buf, self.id, &g.reads, &g.writes)
            })?;
            self.outstanding.push(wait);
            let mut notices = client.notices.borrow_mut();
            let logged = notices.iter_mut().filter(|n| n.server == server);
            for seq in logged.filter_map(|n| n.landing.take()) {
                // Seen landed: the receive only takes it.
                let _ = client.threads[server].try_recv_res(seq);
            }
            for landing in trailing.extract_if(.., |w| w.server == server) {
                self.outstanding.insert(landings, landing);
                landings += 1;
            }
        }
        Ok(())
    }

    /// Phase 2: validation and logging at once. First the one-sided
    /// reads of the version words recorded at execution (region 0 is the
    /// server's version table), then one posted `Log` per replica server,
    /// all issued before any is awaited: a Log's writes are held as a
    /// pending record until a notice decides the transaction, so posting
    /// one before validation passes changes no backup copy.
    ///
    /// A transaction on one server reads no word: its Execute re-read
    /// every read-set word after reading them all and found none moved
    /// or locked while its write keys were locked, so that server's
    /// Execute is its serialization point.
    ///
    /// A Log carries every partition its server backs up, in server
    /// order, each write with its version, so the backup applies two
    /// writers' records in version order whichever it is told of first.
    /// New values that miss a write-set key are an error, raised before
    /// anything is sent. Each value moves into its primary's group: a
    /// write set that reaches this phase names a key once (Execute fails
    /// a second lock of it).
    fn validate(
        &mut self,
        client: &TxnClient,
        mut new_values: HashMap<u64, Vec<u8>>,
    ) -> Result<()> {
        self.phase = Phase::Validate;
        let mut write_set = self.groups.values().flat_map(|g| &g.writes);
        if write_set.any(|k| !new_values.contains_key(k)) {
            return Err(FlockError::InvalidArgument(
                "compute returned no value for a write-set key",
            ));
        }
        for w in self.groups.values_mut().flat_map(|g| &mut g.new_values) {
            w.value = new_values.remove(&w.key).unwrap_or_default();
        }
        if self.groups.len() > 1 {
            for &(server, slot, expect) in &self.read_set {
                let token = client.threads[server].read_async(0, slot, 8)?;
                self.outstanding.push(Wait {
                    server,
                    op: Op::Read { token, expect },
                });
            }
        }
        let n = client.threads.len();
        for server in 0..n {
            let writes = backed_up_by(&self.groups, server, n);
            if writes.clone().next().is_none() {
                continue;
            }
            let wait = client.send(server, RPC_LOG, |buf| put_log(buf, self.id, writes))?;
            self.outstanding.push(wait);
        }
        Ok(())
    }

    /// Hand the landed Logs to the client with this transaction's
    /// decision, for the next request to each of their servers to carry.
    fn decide(&mut self, client: &TxnClient, commit: bool) {
        let decision = Decision {
            txn_id: self.id,
            commit,
        };
        let logged = self.logged.drain(..);
        let mut notices = client.notices.borrow_mut();
        notices.extend(logged.map(|(server, seq)| Notice {
            server,
            landing: Some(seq),
            decision,
        }));
    }

    /// Phase 3: primaries install the new values and unlock, one posted
    /// Commit each. Every read matched and every Log has landed, so the
    /// transaction is decided, and each Commit carries the decision to
    /// its primary if that server backs up another written partition: a
    /// failed send does not keep the other Commits from being posted and
    /// is never turned into an Abort. Its primary keeps the keys locked
    /// (until a lease frees them, ROADMAP item 16) and the first such
    /// error is the result.
    fn commit(&mut self, client: &TxnClient) -> Result<()> {
        self.phase = Phase::Commit;
        self.decide(client, true);
        let mut first_error = Ok(());
        for (&server, g) in &self.groups {
            if g.writes.is_empty() {
                continue;
            }
            let writes = g.new_values.iter().map(|w| (w.key, w.value.as_slice()));
            let sent = client.send(server, RPC_COMMIT, |buf| put_commit(buf, self.id, writes));
            first_error = first_error.and(sent.map(|wait| self.outstanding.push(wait)));
        }
        first_error
    }

    /// Unlock every server known to hold this transaction's locks; a
    /// failed send does not keep the others from being tried. Its landed
    /// Logs are to be dropped: an Abort carries that to its primary, the
    /// next request to each other backup does.
    fn abort(&mut self, client: &TxnClient) -> Result<()> {
        self.phase = Phase::Abort;
        self.decide(client, false);
        let mut first_error = Ok(());
        for (&server, g) in &mut self.groups {
            if !std::mem::take(&mut g.locked) {
                continue;
            }
            let sent = client.send(server, RPC_ABORT, |buf| put_abort(buf, self.id, &g.writes));
            first_error = first_error.and(sent.map(|wait| self.outstanding.push(wait)));
        }
        first_error
    }
}

/// A per-application-thread transaction coordinator holding one
/// [`FlThread`] per server connection.
///
/// A committed transaction's Commit landings trail it until an answer
/// on their lane proves them applied: the client's next Execute to
/// their server takes them, [`TxnClient::settle`] fences and takes the
/// rest, and dropping the client settles. A decided transaction's
/// notices wait for the client's next Log, Commit or Abort to their
/// server, or for `settle`'s fence.
pub struct TxnClient {
    threads: Vec<FlThread>,
    /// This coordinator as each server knows it (`Notices::coord`).
    coords: Vec<u64>,
    txn_seq: Cell<u64>,
    /// Posted Commits no answer has proven applied yet, at most `width`
    /// per server (one per concurrent transaction that executed there).
    trailing: RefCell<Vec<Wait>>,
    /// Decisions no request has carried to their backup yet, at most
    /// `width` per server: the next Log, Commit or Abort to it takes
    /// all of its own.
    notices: RefCell<Vec<Notice>>,
    /// The request being sent, encoded here before `send_rpc` copies it.
    wire: RefCell<Vec<u8>>,
}

impl TxnClient {
    /// Register this thread with every server handle (ordered by server
    /// index).
    pub fn new(handles: &[Arc<ConnectionHandle>]) -> TxnClient {
        let threads: Vec<FlThread> = handles.iter().map(|h| h.register_thread()).collect();
        let coords = handles
            .iter()
            .zip(&threads)
            .map(|(h, t)| u64::from(h.sender_id()) << 32 | u64::from(t.id()))
            .collect();
        TxnClient {
            threads,
            coords,
            txn_seq: Cell::new(1),
            trailing: RefCell::default(),
            notices: RefCell::default(),
            wire: RefCell::default(),
        }
    }

    /// A machine for the next transaction id, nothing sent yet.
    fn begin(&self, reads: &[u64], writes: &[u64]) -> Txn {
        let id = self.txn_seq.get();
        self.txn_seq.set(id + 1);
        Txn::new(id, self.threads.len(), reads, writes)
    }

    /// Keep a finished transaction's outstanding Commit landings.
    fn trail(&self, txn: &mut Txn) {
        self.trailing.borrow_mut().append(&mut txn.outstanding);
    }

    /// Send `server` the request `encode` writes; the wait for its reply,
    /// or for a Log or Commit, which are posted, for its landing in the
    /// server's request ring. A Log, Commit or Abort carries every
    /// decision due to `server`: it goes out on their Logs' lane, behind
    /// them, so their landings are taken once it is sent.
    fn send(&self, server: usize, rpc_id: u32, encode: impl FnOnce(&mut Vec<u8>)) -> Result<Wait> {
        let mut wire = self.wire.borrow_mut();
        wire.clear();
        encode(&mut wire);
        let thread = &self.threads[server];
        if rpc_id == RPC_EXECUTE {
            let op = Op::Execute(thread.send_rpc(rpc_id, &wire)?);
            return Ok(Wait { server, op });
        }
        let mut notices = self.notices.borrow_mut();
        let due = notices.iter().filter(|n| n.server == server);
        put_notices(&mut wire, self.coords[server], due.map(|n| n.decision));
        let op = match rpc_id {
            RPC_LOG => Op::Logged(thread.post_rpc(rpc_id, &wire)?),
            RPC_COMMIT => Op::Landed(thread.post_rpc(rpc_id, &wire)?),
            _ => Op::Ack(thread.send_rpc(rpc_id, &wire)?),
        };
        let carried = notices.extract_if(.., |n| n.server == server);
        for seq in carried.filter_map(|n| n.landing) {
            // Seen landed: the receive only takes it.
            let _ = thread.try_recv_res(seq);
        }
        Ok(Wait { server, op })
    }

    /// The Commits posted to `server` that no answer has proven applied
    /// yet.
    pub fn trailing(&self, server: usize) -> usize {
        self.trailing
            .borrow()
            .iter()
            .filter(|w| w.server == server)
            .count()
    }

    /// Prove every trailing Commit and every decision applied: send each
    /// server that has a Commit trailing or a decision due a fence, an
    /// Abort naming no key that carries the decisions, which goes out on
    /// their lane (the untaken landings keep the thread there), and then
    /// take the landings and the fences' acks. Afterwards every primary
    /// has installed its values and unlocked, every backup has applied
    /// or dropped this client's pending records, and nothing of this
    /// client is on its way; the first error is the result.
    pub fn settle(&self) -> Result<()> {
        let mut trailing = self.trailing.borrow_mut();
        let mut first_error = Ok(());
        for server in 0..self.threads.len() {
            let due = self.notices.borrow().iter().any(|n| n.server == server);
            if due || trailing.iter().any(|w| w.server == server) {
                let fence = self.send(server, RPC_ABORT, |buf| put_abort(buf, 0, &[]));
                first_error = first_error.and(fence.map(|wait| trailing.push(wait)));
            }
        }
        for wait in trailing.drain(..) {
            let answered = wait.block(&self.threads).and_then(|bytes| match wait.op {
                Op::Ack(_) => expect_ack(bytes.as_deref().unwrap_or_default()),
                _ => Ok(()),
            });
            first_error = first_error.and(answered);
        }
        first_error
    }

    /// Run one transaction: read `reads`, then atomically replace the
    /// values of `writes` with the output of `compute` (which receives the
    /// execution-time values of both sets).
    ///
    /// `compute` runs once every primary has locked and read its share,
    /// before validation, so its values may be discarded by an abort.
    /// Returns [`TxnOutcome::Committed`] at the commit point: every
    /// validation read matched, every `Log` has landed in its backup's
    /// request ring — the NIC's acknowledgement of the write that
    /// carried it; the backup holds it as a pending record until the
    /// decision follows it on that lane — and every primary's `Commit`
    /// is posted. A Commit counts as applied once the next answered
    /// request on its lane is: a later call's Execute to its server
    /// takes its landing, or [`TxnClient::settle`]'s fence does, and a
    /// failed landing is that call's error. Until a primary applies its
    /// Commit the keys stay locked, so a reader aborts rather than see
    /// an old value as valid; until `settle` a backup may not have
    /// applied the new values.
    ///
    /// Returns [`TxnOutcome::Aborted`] on lock conflicts or validation
    /// failure; the caller retries. An error before the commit point — a
    /// failed send, reply or read, or `compute` leaving out a key of
    /// `writes` ([`FlockError::InvalidArgument`]) — is returned only
    /// after every reply has been received and every lock the
    /// transaction is known to hold has been released. After it, a
    /// Commit that cannot be sent is the error: the other Commits are
    /// posted, and that primary keeps its keys locked.
    pub fn run<F>(&self, reads: &[u64], writes: &[u64], compute: F) -> Result<TxnOutcome>
    where
        F: FnOnce(&HashMap<u64, Option<Vec<u8>>>) -> HashMap<u64, Vec<u8>>,
    {
        let mut compute = Some(compute);
        let mut compute = |values: &Values| (compute.take().expect("computes once"))(values);
        let mut txn = self.begin(reads, writes);
        loop {
            if let Some(outcome) = txn.advance(self, &mut compute) {
                self.trail(&mut txn);
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
    /// A slot's transaction ends at its commit point, as in
    /// [`TxnClient::run`], and its Commit landings trail until a later
    /// transaction executes on their server. Once the target is reached,
    /// or a transaction returns an error, no slot starts another, and the
    /// run settles and returns when every transaction already in flight
    /// has finished its commit or abort — so `commits` may exceed the
    /// target by up to `width - 1`, and on return no lock is held and no
    /// RPC of this client is still on its way. The first error is the
    /// result; a stopped connection handle is one
    /// ([`FlockError::Disconnected`]), so the run ends with it.
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
                let Some(outcome) = txn.advance(self, &mut compute) else {
                    continue;
                };
                self.trail(txn);
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
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the slots wait on the replies of several requests, with no one Event to park on"
                )]
                flock_sync::clock::yield_now();
            }
        }
        let settled = self.settle();
        first_error.map_or(settled.map(|()| stats), Err)
    }

    /// [`TxnClient::run`] under pessimistic stripe locks: acquire the
    /// ALock of every `(server, stripe)` the transaction touches — in
    /// global sorted order, so concurrent locked transactions cannot
    /// deadlock — then run the ordinary four-phase protocol, settle its
    /// Commits and release.
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
        // Settled before the stripes go: the next holder finds the
        // Commits applied, not the keys still locked.
        let outcome = self.run(reads, writes, compute);
        let settled = self.settle();
        self.release_stripes(locks, held);
        outcome.and_then(|outcome| settled.map(|()| outcome))
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

impl Drop for TxnClient {
    fn drop(&mut self) {
        let _ = self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every set of written partitions, on 1, 2, 3 and 5 servers: a
    /// server gets at most one message, carrying exactly the written
    /// partitions `replicas_of` puts on it, each once and in primary
    /// order. A group with nothing written adds nothing.
    #[test]
    fn the_log_phase_sends_one_message_per_replica_server() {
        for n in [1, 2, 3, 5] {
            for mask in 1u32..1 << n {
                let written: Vec<usize> = (0..n).filter(|p| mask & 1 << p != 0).collect();
                let groups: BTreeMap<usize, Group> = (0..n)
                    .map(|p| {
                        let mut g = Group::default();
                        if written.contains(&p) {
                            g.writes = vec![p as u64];
                            g.new_values = vec![LogWrite {
                                key: p as u64,
                                version: 1,
                                value: Vec::new(),
                            }];
                        }
                        (p, g)
                    })
                    .collect();
                let messages: Vec<(usize, Vec<u64>)> = (0..n)
                    .map(|server| {
                        let writes = backed_up_by(&groups, server, n);
                        (server, writes.map(|w| w.key).collect::<Vec<_>>())
                    })
                    .filter(|(_, keys)| !keys.is_empty())
                    .collect();
                let mut backed_up = vec![Vec::new(); n];
                for &p in &written {
                    for server in replicas_of(p, n) {
                        backed_up[server].push(p as u64);
                    }
                }
                let expected: Vec<(usize, Vec<u64>)> = backed_up
                    .into_iter()
                    .enumerate()
                    .filter(|(_, keys)| !keys.is_empty())
                    .map(|(server, mut keys)| {
                        keys.dedup();
                        (server, keys)
                    })
                    .collect();
                assert_eq!(messages, expected, "{n} servers, written {written:?}");
            }
        }
    }
}
