//! Client-side model: closed-loop thread generators, the TCQ leader/flush
//! pipeline (coalescing emerges from queueing at the lane), the FaRM-style
//! lock-serialized lane, the UD submit path, credit handling, and the
//! sender-side thread scheduler driving the real Algorithm 1.

use flock_core::msg;
use flock_core::sched::thread::{assign_threads, ThreadLoadStats};
use flock_sim::{Ns, Sim};

use crate::net::{transmit, NetMsg};
use crate::world::{AppLogic, LaneState, Req, ReqId, ReqKind, SystemKind, World};

/// Kick off the closed loop for every thread (call once at t=0).
pub(crate) fn start_all_threads(w: &mut World, sim: &mut Sim<World>) {
    let n_clients = w.clients.len();
    for client in 0..n_clients {
        let n_threads = w.clients[client].threads.len();
        for thread in 0..n_threads {
            for _ in 0..w.outstanding {
                issue_one(w, sim, client, thread);
            }
        }
        if w.system == SystemKind::Flock && w.thread_sched && !w.clients[client].threads.is_empty()
        {
            let interval = Ns::from_micros(500);
            sim.after(interval, move |w: &mut World, sim| {
                thread_sched_tick(w, sim, client);
            });
        }
    }
}

/// Issue one new request from `thread` (closed loop).
pub(crate) fn issue_one(w: &mut World, sim: &mut Sim<World>, client: usize, thread: usize) {
    let now = sim.now();
    // Draw the workload op.
    let (kind, size, resp_size, key) = match &w.app {
        AppLogic::Echo => {
            let size = w.clients[client].threads[thread].req_size;
            (ReqKind::Echo, size, size, 0u64)
        }
        AppLogic::Hydra(app) => {
            let keyspace = app.keyspace();
            let t = &mut w.clients[client].threads[thread];
            let key = t.rng.below(keyspace);
            if t.rng.chance(0.9) {
                (ReqKind::Get, 16, 8, key)
            } else {
                // Scan of range 64; the server replies with an 8 B count.
                (ReqKind::Scan, 16, 8, key)
            }
        }
        AppLogic::Txn => unreachable!("txn experiments start via coord::start_all"),
    };
    let req = Req {
        issued: now,
        client,
        thread,
        server: 0,
        size,
        resp_size,
        kind,
        key,
        txn: None,
    };
    let t = &mut w.clients[client].threads[thread];
    t.inflight += 1;
    t.bytes += size as u64;
    t.reqs += 1;
    t.sizes.record(size as u32);
    let id = w.alloc_req(req);
    enqueue_submit(w, sim, client, thread, id);
}

/// Queue a request on the thread's submit pipeline: the (single-threaded)
/// application thread hands requests to the transport one at a time, so a
/// thread that just led a flush cannot coalesce with itself.
pub(crate) fn enqueue_submit(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    thread: usize,
    id: ReqId,
) {
    let now = sim.now();
    let t = &mut w.clients[client].threads[thread];
    t.submit_queue.push_back(id);
    if !t.submitting {
        t.submitting = true;
        let at = t.next_free.max(now);
        sim.at(at, move |w: &mut World, sim| {
            thread_submit_next(w, sim, client, thread);
        });
    }
}

/// Pop and submit the thread's next request; reschedule while more wait.
fn thread_submit_next(w: &mut World, sim: &mut Sim<World>, client: usize, thread: usize) {
    let now = sim.now();
    let Some(id) = w.clients[client].threads[thread].submit_queue.pop_front() else {
        w.clients[client].threads[thread].submitting = false;
        return;
    };
    let join_cost = Ns(w.cost.cpu_sync_ns) + w.cost.memcpy_time(w.reqs[id].size);
    {
        let t = &mut w.clients[client].threads[thread];
        t.next_free = now + join_cost;
    }
    submit(w, sim, id); // may extend next_free if the thread leads
    let t = &mut w.clients[client].threads[thread];
    if t.submit_queue.is_empty() {
        t.submitting = false;
    } else {
        let at = t.next_free.max(now);
        sim.at(at, move |w: &mut World, sim| {
            thread_submit_next(w, sim, client, thread);
        });
    }
}

/// Route a request into the system-specific send path.
pub(crate) fn submit(w: &mut World, sim: &mut Sim<World>, id: ReqId) {
    let req = w.reqs[id].clone();
    match w.system {
        SystemKind::Flock | SystemKind::LockShare => {
            let lane = w.clients[req.client].threads[req.thread].assigned_qp[req.server];
            submit_lane(w, sim, req.client, req.server, lane, id);
        }
        SystemKind::UdRpc => {
            // Client CPU to post the send: a latency adder (client cores
            // are not the bottleneck in these experiments).
            let delay = Ns(w.cost.cpu_doorbell_ns + w.cost.cpu_codec_ns);
            let (client, server) = (req.client, req.server);
            sim.after(delay, move |w: &mut World, sim| {
                transmit(
                    w,
                    sim,
                    None,
                    w.reqs[id].size + 32,
                    NetMsg::UdReq {
                        client,
                        server,
                        req: id,
                    },
                );
            });
        }
    }
}

/// Enqueue on a QP lane; start a leader if the lane is idle.
pub(crate) fn submit_lane(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    server: usize,
    lane: usize,
    id: ReqId,
) {
    let now = sim.now();
    let qp = &mut w.clients[client].qps[server][lane];
    qp.pending.push_back(id);
    if qp.state == LaneState::Idle {
        qp.state = LaneState::Busy;
        // This thread becomes the leader: its CPU is occupied for the
        // whole flush (collect, copy, doorbell), so it cannot pipeline
        // its own next request into this batch.
        let thread = w.reqs[id].thread;
        let flush_cpu =
            Ns(w.cost.cpu_doorbell_ns + w.cost.cpu_codec_ns) + w.cost.memcpy_time(w.reqs[id].size);
        let prep = lane_prep_time(w, client, server, lane);
        let t = &mut w.clients[client].threads[thread];
        t.next_free = t.next_free.max(now + prep + flush_cpu);
        sim.after(prep, move |w: &mut World, sim| {
            lane_flush(w, sim, client, server, lane);
        });
    }
}

/// Time between a leader taking over and draining the batch: TCQ enqueue +
/// header setup for Flock; lock acquisition for the FaRM-style baseline.
fn lane_prep_time(w: &World, client: usize, server: usize, lane: usize) -> Ns {
    let qp = &w.clients[client].qps[server][lane];
    match w.system {
        SystemKind::Flock => Ns(w.cost.cpu_sync_ns + w.cost.cpu_codec_ns),
        SystemKind::LockShare => {
            // Lock handoff: contended transfer when someone queued behind.
            let contended = qp.pending.len() > 1;
            Ns(if contended {
                w.cost.cpu_lock_contended_ns
            } else {
                w.cost.cpu_sync_ns
            } + w.cost.cpu_codec_ns)
        }
        SystemKind::UdRpc => unreachable!("UD path has no lanes"),
    }
}

/// The leader drains a batch, settles credits, and sends one message.
pub(crate) fn lane_flush(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    server: usize,
    lane: usize,
) {
    let now = sim.now();
    let batch_limit = w.batch_limit;
    let warmup = w.warmup;

    // Credit gate.
    let (send_renewal, degree_report) = {
        let qp = &mut w.clients[client].qps[server][lane];
        if qp.pending.is_empty() {
            qp.state = LaneState::Idle;
            return;
        }
        if qp.active && qp.credits.credits() == 0 {
            if !qp.credits.renewal_in_flight() {
                qp.credits.mark_requested();
                let degree = qp.degrees.median().clamp(1, u16::MAX as u32) as u16;
                qp.degrees.clear();
                qp.state = LaneState::WaitCredits;
                (true, degree)
            } else {
                qp.state = LaneState::WaitCredits;
                (false, 0)
            }
        } else {
            (false, 0)
        }
    };
    if w.clients[client].qps[server][lane].state == LaneState::WaitCredits {
        if send_renewal {
            transmit(
                w,
                sim,
                Some(w.clients[client].qps[server][lane].global_id),
                32,
                NetMsg::Renewal {
                    client,
                    server,
                    lane,
                    degree: degree_report,
                },
            );
        }
        return; // resumed by `on_grant`
    }

    // Drain the batch.
    let k_max = {
        let qp = &w.clients[client].qps[server][lane];
        let avail = if qp.active {
            qp.credits.credits() as usize
        } else {
            usize::MAX // drain mode (deactivated QP finishing its work)
        };
        qp.pending.len().min(batch_limit).min(avail.max(1))
    };
    // The leader provides a bounded buffer budget "as per their requested
    // payload" (paper §4.2): large payloads crowd small ones out of the
    // batch, which is exactly the head-of-line blocking Algorithm 1
    // avoids by separating size classes.
    const BATCH_BYTE_BUDGET: usize = 2048;
    let (batch, msg_bytes, renewal): (Vec<ReqId>, usize, Option<u16>) = {
        let mut k = 0;
        let mut bytes = 0usize;
        while k < k_max {
            let id = w.clients[client].qps[server][lane].pending[k];
            let sz = w.reqs[id].size;
            if k > 0 && bytes + sz > BATCH_BYTE_BUDGET {
                break;
            }
            bytes += sz;
            k += 1;
        }
        let qp = &mut w.clients[client].qps[server][lane];
        let batch: Vec<ReqId> = qp.pending.drain(..k).collect();
        if qp.active {
            qp.credits.try_consume(k as u32);
        }
        qp.degrees.record(k as u32);
        qp.messages += 1;
        qp.requests += k as u64;
        let renewal = if qp.active && qp.credits.should_request_renewal() {
            qp.credits.mark_requested();
            let d = qp.degrees.median().clamp(1, u16::MAX as u32) as u16;
            qp.degrees.clear();
            Some(d)
        } else {
            None
        };
        (batch, 0usize, renewal)
    };
    let _ = msg_bytes;
    if now >= warmup {
        w.stats.degree.record(batch.len() as u64);
    }

    // Per-batch CPU: copy each payload + one doorbell for the message.
    let mut cpu = Ns(w.cost.cpu_doorbell_ns);
    let mut sizes = Vec::with_capacity(batch.len());
    for &id in &batch {
        cpu += w.cost.memcpy_time(w.reqs[id].size);
        sizes.push(w.reqs[id].size);
    }
    let bytes = msg::encoded_size(sizes);

    if let Some(degree) = renewal {
        transmit(
            w,
            sim,
            Some(w.clients[client].qps[server][lane].global_id),
            32,
            NetMsg::Renewal {
                client,
                server,
                lane,
                degree,
            },
        );
    }

    sim.after(cpu, move |w: &mut World, sim| {
        let key = w.clients[client].qps[server][lane].global_id;
        transmit(
            w,
            sim,
            Some(key),
            bytes,
            NetMsg::Request {
                client,
                server,
                lane,
                reqs: batch,
            },
        );
        // Hand leadership to the next batch, or go idle.
        let qp = &mut w.clients[client].qps[server][lane];
        if qp.pending.is_empty() {
            qp.state = LaneState::Idle;
        } else {
            let prep = lane_prep_time(w, client, server, lane);
            sim.after(prep, move |w: &mut World, sim| {
                lane_flush(w, sim, client, server, lane);
            });
        }
    });
}

/// A coalesced response message arrived at the client.
pub(crate) fn on_response_message(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    _server: usize,
    _lane: usize,
    reqs: Vec<ReqId>,
) {
    let _ = client;
    // The response dispatcher relays entries to threads after its next
    // poll sweep; per-entry relay cost is small (it never touches the
    // RDMA stack).
    let sweep = Ns(w.cost.cpu_dispatcher_poll_ns);
    let per_entry = Ns(w.cost.cpu_ring_poll_ns);
    for (i, id) in reqs.into_iter().enumerate() {
        sim.after(
            sweep + per_entry * (i as u64 + 1),
            move |w: &mut World, sim| {
                complete_request(w, sim, id);
            },
        );
    }
}

/// A UD response packet arrived at the client.
pub(crate) fn on_ud_response(w: &mut World, sim: &mut Sim<World>, _client: usize, req: ReqId) {
    // Client pays the UD receive path per packet.
    let delay = w.cost.ud_rx_cpu();
    sim.after(delay, move |w: &mut World, sim| {
        complete_request(w, sim, req);
    });
}

/// A one-sided read finished (raw read or txn validation).
pub(crate) fn on_read_complete(w: &mut World, sim: &mut Sim<World>, _client: usize, req: ReqId) {
    if w.reqs[req].txn.is_some() {
        crate::coord::on_phase_done(w, sim, req);
        return;
    }
    // Raw read driver: record and immediately reissue (closed loop).
    let now = sim.now();
    w.record_completion(req, now);
    let r = w.reqs[req].clone();
    w.reqs[req].issued = now;
    let (client, server, key) = (r.client, r.server, r.key);
    transmit(
        w,
        sim,
        Some(key),
        r.size,
        NetMsg::ReadReq {
            client,
            server,
            qp_key: key,
            req,
        },
    );
}

/// A request completed end-to-end: record and refill the window.
pub(crate) fn complete_request(w: &mut World, sim: &mut Sim<World>, id: ReqId) {
    if w.reqs[id].txn.is_some() {
        crate::coord::on_phase_done(w, sim, id);
        return;
    }
    let now = sim.now();
    w.record_completion(id, now);
    let (client, thread) = (w.reqs[id].client, w.reqs[id].thread);
    w.release_req(id);
    let migrating = {
        let t = &mut w.clients[client].threads[thread];
        t.inflight -= 1;
        t.assigned_qp != t.target_qp
    };
    if migrating {
        // Migration safety (paper §5.2): stop issuing, drain the old QP,
        // then adopt the new assignment and resume the parked window.
        let t = &mut w.clients[client].threads[thread];
        t.parked += 1;
        if t.inflight == 0 {
            t.assigned_qp = t.target_qp.clone();
            let n = std::mem::take(&mut t.parked);
            for _ in 0..n {
                issue_one(w, sim, client, thread);
            }
        }
    } else {
        issue_one(w, sim, client, thread);
    }
}

/// A credit grant / decline / activation notice arrived.
pub(crate) fn on_grant(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    server: usize,
    lane: usize,
    grant: Option<u32>,
) {
    let resume = {
        let qp = &mut w.clients[client].qps[server][lane];
        match grant {
            Some(n) if n > 0 => {
                if qp.active {
                    qp.credits.grant(n);
                } else {
                    qp.credits.reactivate(n);
                    qp.active = true;
                }
            }
            _ => {
                qp.credits.decline();
                qp.active = false;
            }
        }
        qp.state == LaneState::WaitCredits && !qp.pending.is_empty()
    };
    if resume {
        w.clients[client].qps[server][lane].state = LaneState::Busy;
        let prep = lane_prep_time(w, client, server, lane);
        sim.after(prep, move |w: &mut World, sim| {
            lane_flush(w, sim, client, server, lane);
        });
    } else if w.clients[client].qps[server][lane].state == LaneState::WaitCredits {
        w.clients[client].qps[server][lane].state = LaneState::Idle;
    }
}

/// Periodic sender-side thread scheduling (real Algorithm 1).
pub(crate) fn thread_sched_tick(w: &mut World, sim: &mut Sim<World>, client: usize) {
    let n_servers = w.servers.len();
    for server in 0..n_servers {
        let n_lanes = w.clients[client].qps[server].len();
        let n_threads = w.clients[client].threads.len();
        let active: Vec<usize> = w.clients[client].qps[server]
            .iter()
            .enumerate()
            .filter(|(_, q)| q.active)
            .map(|(i, _)| i)
            .collect();
        // Reactive scheduling (paper §5.2): with every lane active and
        // enough lanes for a 1:1 mapping, the initial assignment stands.
        if active.len() == n_lanes && n_threads <= n_lanes {
            continue;
        }
        let active = if active.is_empty() { vec![0] } else { active };
        let stats: Vec<ThreadLoadStats> = w.clients[client]
            .threads
            .iter_mut()
            .enumerate()
            .map(|(i, t)| ThreadLoadStats {
                thread_id: i as u32,
                median_req_size: t.sizes.median(),
                requests: t.reqs,
                bytes: t.bytes,
            })
            .collect();
        for (tid, rank) in assign_threads(&stats, active.len()) {
            w.clients[client].threads[tid as usize].target_qp[server] = active[rank];
        }
    }
    for t in w.clients[client].threads.iter_mut() {
        t.reqs = 0;
        t.bytes = 0;
    }
    let interval = Ns::from_micros(500);
    sim.after(interval, move |w: &mut World, sim| {
        thread_sched_tick(w, sim, client);
    });
}
