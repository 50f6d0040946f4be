//! The transaction model: FlockTX / FaSST coordinators as event-driven
//! state machines over the network pipeline, executing *real* lock/version
//! logic against per-server key-value stores so that aborts emerge from
//! genuine conflicts.
//!
//! Each (client, thread, coroutine) triple owns one [`TxnSlot`] running a
//! closed loop of transactions through the phases of paper Fig. 13.
//! FlockTX validates read sets with one-sided reads; the FaSST model
//! validates with RPCs (UD has no one-sided verbs).

use std::collections::{BTreeMap, HashMap};

use flock_kvstore::{KvConfig, KvStore, LOCK_BIT};
use flock_sim::{Ns, Sim};
use flock_txn::protocol::{key_partition, replicas_of};
use flock_txn::workloads::{Smallbank, Tatp, TxnSpec};

use crate::net::{transmit, NetMsg};
use crate::world::{Req, ReqId, ReqKind, SystemKind, TxnPhase, World};

/// Which benchmark drives the transaction mix.
#[derive(Debug, Clone)]
pub enum TxnWorkload {
    /// TATP (read-intensive).
    Tatp(Tatp),
    /// Smallbank (write-intensive).
    Smallbank(Smallbank),
}

/// Shared transaction-engine state: the per-server stores and lock table.
pub struct TxnEngine {
    /// Primary store per server.
    pub stores: Vec<KvStore>,
    /// Lock ownership: `(server, key) → slot` (prevents foreign unlocks).
    /// Looked up by key only, never iterated.
    pub lock_owners: HashMap<(usize, u64), usize>,
    /// The workload generator.
    pub workload: TxnWorkload,
    /// Validate with RPCs instead of one-sided reads (FaSST mode).
    pub validate_via_rpc: bool,
}

impl TxnEngine {
    /// Build an engine with `n_servers` stores, preloaded from the
    /// workload's load set.
    pub fn new(n_servers: usize, workload: TxnWorkload, validate_via_rpc: bool) -> TxnEngine {
        let stores: Vec<KvStore> = (0..n_servers)
            .map(|_| {
                KvStore::new(KvConfig {
                    partitions: 1,
                    stripes: 64,
                })
            })
            .collect();
        let load = |k, v: &[u8]| stores[key_partition(k, n_servers)].put(k, v);
        match &workload {
            TxnWorkload::Tatp(t) => t.load_keys().for_each(|(k, v)| load(k, &v)),
            TxnWorkload::Smallbank(s) => s.load_keys().for_each(|(k, v)| load(k, &v)),
        }
        TxnEngine {
            stores,
            lock_owners: HashMap::new(),
            workload,
            validate_via_rpc,
        }
    }
}

/// Coordinator-side phase of a transaction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordPhase {
    /// Waiting for execute responses.
    Execute,
    /// Waiting for validation results.
    Validate,
    /// Waiting for replica ACKs.
    Log,
    /// Waiting for commit ACKs.
    Commit,
    /// Waiting for abort ACKs.
    Aborting,
}

/// One coroutine's transaction state.
#[derive(Debug)]
pub struct TxnSlot {
    /// Originating client.
    pub client: usize,
    /// Originating thread.
    pub thread: usize,
    /// Active transaction key sets.
    pub spec: TxnSpec,
    /// Start timestamp (for latency).
    pub started: Ns,
    /// Coordinator phase.
    pub phase: CoordPhase,
    /// Responses outstanding in the current phase.
    pub pending: usize,
    /// A conflict or validation failure happened.
    pub failed: bool,
    /// Read-set version words captured at execution.
    pub read_words: Vec<(usize, u64, u64)>,
    /// Servers where this slot holds write locks.
    pub locked_servers: Vec<usize>,
}

/// Create slots (`coroutines` per thread) and start every transaction.
pub(crate) fn start_all(w: &mut World, sim: &mut Sim<World>, coroutines: usize) {
    let n_clients = w.clients.len();
    for client in 0..n_clients {
        let n_threads = w.clients[client].threads.len();
        for thread in 0..n_threads {
            for _ in 0..coroutines {
                let slot = w.txns.len();
                w.txns.push(TxnSlot {
                    client,
                    thread,
                    spec: TxnSpec {
                        reads: vec![],
                        writes: vec![],
                        kind: "",
                    },
                    started: Ns::ZERO,
                    phase: CoordPhase::Execute,
                    pending: 0,
                    failed: false,
                    read_words: Vec::new(),
                    locked_servers: Vec::new(),
                });
                start_txn(w, sim, slot);
            }
        }
        if w.system == SystemKind::Flock && w.thread_sched {
            sim.after(Ns::from_micros(100), move |w: &mut World, sim| {
                crate::client::thread_sched_tick(w, sim, client);
            });
        }
    }
}

/// Begin a fresh transaction on `slot`.
pub(crate) fn start_txn(w: &mut World, sim: &mut Sim<World>, slot: usize) {
    let now = sim.now();
    let (client, thread) = (w.txns[slot].client, w.txns[slot].thread);
    let workload = w.txn_engine.as_ref().expect("txn engine").workload.clone();
    let spec = {
        let rng = &mut w.clients[client].threads[thread].rng;
        match &workload {
            TxnWorkload::Tatp(t) => t.next(rng),
            TxnWorkload::Smallbank(s) => s.next(rng),
        }
    };
    let n_servers = w.servers.len();
    let groups = group_keys(&spec, n_servers);
    {
        let s = &mut w.txns[slot];
        s.spec = spec;
        s.started = now;
        s.phase = CoordPhase::Execute;
        s.pending = groups.len();
        s.failed = false;
        s.read_words.clear();
        s.locked_servers.clear();
    }
    for (server, (reads, writes)) in groups {
        let n_keys = reads.len() + writes.len();
        issue_txn_rpc(
            w,
            sim,
            slot,
            server,
            TxnPhase::Execute,
            32 + 24 * n_keys,
            16 + 48 * n_keys,
        );
    }
}

/// Split a spec's keys by owning server. Callers issue one RPC per group
/// in iteration order, so the map is ordered by server index: the
/// timeline must not depend on a hasher's per-process seed.
fn group_keys(spec: &TxnSpec, n: usize) -> BTreeMap<usize, (Vec<u64>, Vec<u64>)> {
    let mut groups: BTreeMap<usize, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for &k in &spec.reads {
        groups.entry(key_partition(k, n)).or_default().0.push(k);
    }
    for &k in &spec.writes {
        groups.entry(key_partition(k, n)).or_default().1.push(k);
    }
    groups
}

/// Issue one transaction-phase RPC through the active transport.
fn issue_txn_rpc(
    w: &mut World,
    sim: &mut Sim<World>,
    slot: usize,
    server: usize,
    phase: TxnPhase,
    size: usize,
    resp_size: usize,
) {
    let (client, thread) = (w.txns[slot].client, w.txns[slot].thread);
    let id = w.alloc_req(Req {
        issued: sim.now(),
        client,
        thread,
        server,
        size,
        resp_size,
        kind: ReqKind::Txn(phase),
        key: 0,
        txn: Some(slot),
    });
    crate::client::submit(w, sim, id);
}

/// Issue a one-sided validation read of `key`'s version word.
fn issue_validation_read(
    w: &mut World,
    sim: &mut Sim<World>,
    slot: usize,
    server: usize,
    key: u64,
) {
    let (client, thread) = (w.txns[slot].client, w.txns[slot].thread);
    let lane = w.clients[client].threads[thread].assigned_qp[server];
    let qp_key = w.clients[client].qps[server][lane].global_id;
    let id = w.alloc_req(Req {
        issued: sim.now(),
        client,
        thread,
        server,
        size: 8,
        resp_size: 8,
        kind: ReqKind::Read,
        key,
        txn: Some(slot),
    });
    transmit(
        w,
        sim,
        Some(qp_key),
        8,
        NetMsg::ReadReq {
            client,
            server,
            qp_key,
            req: id,
        },
    );
}

/// Nominal server CPU cost of a txn-phase request.
pub(crate) fn phase_cost(w: &World, phase: TxnPhase, id: ReqId) -> Ns {
    let slot = w.reqs[id].txn.expect("txn request");
    let server = w.reqs[id].server;
    let n = w.servers.len();
    let s = &w.txns[slot];
    let n_keys = match phase {
        TxnPhase::Execute => s
            .spec
            .reads
            .iter()
            .chain(s.spec.writes.iter())
            .filter(|&&k| key_partition(k, n) == server)
            .count(),
        TxnPhase::Validate => s
            .read_words
            .iter()
            .filter(|(sv, _, _)| *sv == server)
            .count(),
        TxnPhase::Log | TxnPhase::Commit | TxnPhase::Abort => s
            .spec
            .writes
            .iter()
            .filter(|&&k| key_partition(k, n) == server || phase == TxnPhase::Log)
            .count(),
    };
    crate::server::txn_phase_nominal(w, phase, n_keys.max(1))
}

/// Apply the server-side effects of a txn-phase request (real locks and
/// version words; paper §8.5.1).
pub(crate) fn serve_phase(w: &mut World, phase: TxnPhase, id: ReqId) {
    let slot = w.reqs[id].txn.expect("txn request");
    let server = w.reqs[id].server;
    let n = w.servers.len();
    let mut engine = w.txn_engine.take().expect("txn engine");
    {
        let s = &mut w.txns[slot];
        let store = &engine.stores[server];
        match phase {
            TxnPhase::Execute => {
                let writes: Vec<u64> = s
                    .spec
                    .writes
                    .iter()
                    .copied()
                    .filter(|&k| key_partition(k, n) == server)
                    .collect();
                let reads: Vec<u64> = s
                    .spec
                    .reads
                    .iter()
                    .copied()
                    .filter(|&k| key_partition(k, n) == server)
                    .collect();
                let mut acquired = Vec::new();
                let mut ok = true;
                for &k in &writes {
                    if store.try_lock(k) {
                        engine.lock_owners.insert((server, k), slot);
                        acquired.push(k);
                    } else {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    for k in acquired {
                        store.unlock(k);
                        engine.lock_owners.remove(&(server, k));
                    }
                    s.failed = true;
                } else {
                    if !writes.is_empty() {
                        s.locked_servers.push(server);
                    }
                    for &k in &reads {
                        let word = store.version_word(k).unwrap_or(0);
                        s.read_words.push((server, k, word));
                    }
                }
            }
            TxnPhase::Validate => {
                // FaSST-style RPC validation: check this server's read set.
                for (sv, k, word) in s.read_words.iter() {
                    if *sv != server {
                        continue;
                    }
                    match store.version_word(*k) {
                        Some(now_word) if now_word == *word && now_word & LOCK_BIT == 0 => {}
                        _ => s.failed = true,
                    }
                }
            }
            TxnPhase::Log => {
                // Replica append: modelled cost only (values are not
                // needed for the timing experiments).
            }
            TxnPhase::Commit => {
                for &k in s
                    .spec
                    .writes
                    .iter()
                    .filter(|&&k| key_partition(k, n) == server)
                {
                    if engine.lock_owners.get(&(server, k)) == Some(&slot) {
                        store.update_and_unlock(k, &(slot as u64).to_le_bytes());
                        engine.lock_owners.remove(&(server, k));
                    }
                }
            }
            TxnPhase::Abort => {
                for &k in s
                    .spec
                    .writes
                    .iter()
                    .filter(|&&k| key_partition(k, n) == server)
                {
                    if engine.lock_owners.get(&(server, k)) == Some(&slot) {
                        store.unlock(k);
                        engine.lock_owners.remove(&(server, k));
                    }
                }
            }
        }
    }
    w.txn_engine = Some(engine);
}

/// A phase response (or validation read) completed at the coordinator.
pub(crate) fn on_phase_done(w: &mut World, sim: &mut Sim<World>, id: ReqId) {
    let slot = w.reqs[id].txn.expect("txn request");
    // One-sided validation comparison happens at the coordinator.
    if w.reqs[id].kind == ReqKind::Read {
        let key = w.reqs[id].key;
        let server = w.reqs[id].server;
        let engine = w.txn_engine.as_ref().expect("txn engine");
        let expect = w.txns[slot]
            .read_words
            .iter()
            .find(|(sv, k, _)| *sv == server && *k == key)
            .map(|(_, _, word)| *word);
        let current = engine.stores[server].version_word(key);
        let ok = matches!((expect, current), (Some(e), Some(c)) if e == c && c & LOCK_BIT == 0);
        if !ok {
            w.txns[slot].failed = true;
        }
    }
    w.release_req(id);

    w.txns[slot].pending -= 1;
    if w.txns[slot].pending > 0 {
        return;
    }
    let phase = w.txns[slot].phase;
    let failed = w.txns[slot].failed;
    match phase {
        CoordPhase::Execute => {
            if failed {
                start_abort(w, sim, slot);
            } else if w.txns[slot].read_words.is_empty() {
                start_log(w, sim, slot);
            } else {
                start_validate(w, sim, slot);
            }
        }
        CoordPhase::Validate => {
            if failed {
                start_abort(w, sim, slot);
            } else {
                start_log(w, sim, slot);
            }
        }
        CoordPhase::Log => start_commit(w, sim, slot),
        CoordPhase::Commit => finish(w, sim, slot, true),
        CoordPhase::Aborting => finish(w, sim, slot, false),
    }
}

fn start_validate(w: &mut World, sim: &mut Sim<World>, slot: usize) {
    let validate_via_rpc = w.txn_engine.as_ref().expect("engine").validate_via_rpc;
    w.txns[slot].phase = CoordPhase::Validate;
    if validate_via_rpc {
        let servers: Vec<usize> = {
            let mut v: Vec<usize> = w.txns[slot].read_words.iter().map(|(s, _, _)| *s).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        w.txns[slot].pending = servers.len();
        for server in servers {
            issue_txn_rpc(w, sim, slot, server, TxnPhase::Validate, 32, 16);
        }
    } else {
        let reads: Vec<(usize, u64)> = w.txns[slot]
            .read_words
            .iter()
            .map(|(s, k, _)| (*s, *k))
            .collect();
        w.txns[slot].pending = reads.len();
        for (server, key) in reads {
            issue_validation_read(w, sim, slot, server, key);
        }
    }
}

fn start_log(w: &mut World, sim: &mut Sim<World>, slot: usize) {
    let n = w.servers.len();
    let write_groups: Vec<(usize, usize)> = {
        let groups = group_keys(&w.txns[slot].spec, n);
        groups
            .into_iter()
            .filter(|(_, (_, wr))| !wr.is_empty())
            .map(|(s, (_, wr))| (s, wr.len()))
            .collect()
    };
    if write_groups.is_empty() {
        // Read-only transaction: validated, done.
        finish(w, sim, slot, true);
        return;
    }
    w.txns[slot].phase = CoordPhase::Log;
    w.txns[slot].pending = write_groups.len() * 2;
    for (primary, n_keys) in write_groups {
        for replica in replicas_of(primary, n) {
            issue_txn_rpc(w, sim, slot, replica, TxnPhase::Log, 24 + 40 * n_keys, 16);
        }
    }
}

fn start_commit(w: &mut World, sim: &mut Sim<World>, slot: usize) {
    let n = w.servers.len();
    let write_groups: Vec<(usize, usize)> = {
        let groups = group_keys(&w.txns[slot].spec, n);
        groups
            .into_iter()
            .filter(|(_, (_, wr))| !wr.is_empty())
            .map(|(s, (_, wr))| (s, wr.len()))
            .collect()
    };
    w.txns[slot].phase = CoordPhase::Commit;
    w.txns[slot].pending = write_groups.len();
    for (primary, n_keys) in write_groups {
        issue_txn_rpc(
            w,
            sim,
            slot,
            primary,
            TxnPhase::Commit,
            24 + 40 * n_keys,
            16,
        );
    }
}

fn start_abort(w: &mut World, sim: &mut Sim<World>, slot: usize) {
    let locked: Vec<usize> = w.txns[slot].locked_servers.clone();
    if locked.is_empty() {
        finish(w, sim, slot, false);
        return;
    }
    w.txns[slot].phase = CoordPhase::Aborting;
    w.txns[slot].pending = locked.len();
    for server in locked {
        issue_txn_rpc(w, sim, slot, server, TxnPhase::Abort, 24, 16);
    }
}

fn finish(w: &mut World, sim: &mut Sim<World>, slot: usize, committed: bool) {
    let now = sim.now();
    if w.txns[slot].started >= w.warmup {
        if committed {
            w.stats.commits += 1;
            w.stats.completed.record(1);
            w.stats
                .latency
                .record((now - w.txns[slot].started).as_nanos());
        } else {
            w.stats.aborts += 1;
        }
    }
    start_txn(w, sim, slot);
}
