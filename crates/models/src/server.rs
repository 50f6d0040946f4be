//! Server-side model: request dispatch over the core pool, application
//! service (echo / index / transactions), response coalescing, and the QP
//! scheduler actor running the real Flock scheduling code.

use flock_core::msg;
use flock_core::sched::qp::SenderQp;
use flock_sim::{Ns, Sim};

use crate::net::{transmit, NetMsg};
use crate::world::{AppLogic, ReqId, ReqKind, TxnPhase, World};

/// A coalesced request message landed in a server ring. Requests queue
/// per lane; a dispatcher sweep drains everything pending for the lane and
/// coalesces the responses into one message (paper §4.3) — under load this
/// produces response convoys, which in turn seed client-side coalescing.
pub(crate) fn on_request_message(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    server: usize,
    lane: usize,
    reqs: Vec<ReqId>,
) {
    let qp = &mut w.clients[client].qps[server][lane];
    qp.srv_pending.extend(reqs);
    if !qp.srv_busy {
        qp.srv_busy = true;
        server_lane_sweep(w, sim, client, server, lane);
    }
}

/// One dispatcher visit to a lane: drain its ring, execute, respond.
fn server_lane_sweep(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    server: usize,
    lane: usize,
) {
    // Only Flock's dispatcher coalesces responses across a lane's backlog
    // (paper §4.3); the FaRM-style baselines — and Flock with coalescing
    // disabled (Figure 10 ablation) — answer message by message.
    let max_sweep = if w.system == crate::world::SystemKind::Flock && w.batch_limit > 1 {
        64
    } else {
        1
    };
    let now = sim.now();
    let reqs: Vec<ReqId> = {
        let qp = &mut w.clients[client].qps[server][lane];
        let k = qp.srv_pending.len().min(max_sweep);
        qp.srv_pending.drain(..k).collect()
    };
    if reqs.is_empty() {
        w.clients[client].qps[server][lane].srv_busy = false;
        return;
    }
    // Core service: detect the message(s), then per request decode + app
    // execution + response staging; one doorbell posts the coalesced
    // response. A seeded jitter term models service-time variance.
    let mut svc = Ns(w.cost.cpu_ring_sweep_ns)
        + w.cost.ring_detect_cpu()
        + Ns(w.cost.cpu_doorbell_ns + w.cost.cpu_codec_ns);
    for &id in &reqs {
        svc += Ns(w.cost.cpu_codec_ns)
            + app_cost(w, id)
            + w.cost.memcpy_time(w.reqs[id].size)
            + w.cost.memcpy_time(w.reqs[id].resp_size);
    }
    svc += Ns(w.rng.exp(0.15 * svc.as_nanos() as f64) as u64);
    let (_, end) = w.servers[server].cores.admit(now, svc);
    sim.at(end, move |w: &mut World, sim| {
        // Execute application effects at processing time.
        for &id in &reqs {
            serve_request(w, id);
        }
        let bytes = msg::encoded_size(reqs.iter().map(|&id| w.reqs[id].resp_size));
        let key = w.clients[client].qps[server][lane].global_id;
        transmit(
            w,
            sim,
            Some(key),
            bytes,
            NetMsg::Response {
                client,
                server,
                lane,
                reqs,
            },
        );
        server_lane_sweep(w, sim, client, server, lane);
    });
}

/// A UD request packet arrived (eRPC/FaSST server path).
pub(crate) fn on_ud_request(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    server: usize,
    req: ReqId,
) {
    let now = sim.now();
    // Per-packet server CPU: CQ poll + recv-buffer recycle + session
    // bookkeeping + decode + app + response post.
    let mut svc = w.cost.ud_rx_cpu()
        + Ns(w.cost.cpu_erpc_session_ns + 2 * w.cost.cpu_codec_ns + w.cost.cpu_doorbell_ns)
        + app_cost(w, req)
        + w.cost.memcpy_time(w.reqs[req].resp_size);
    svc += Ns(w.rng.exp(0.15 * svc.as_nanos() as f64) as u64);
    let (_, end) = w.servers[server].cores.admit(now, svc);
    sim.at(end, move |w: &mut World, sim| {
        serve_request(w, req);
        let bytes = w.reqs[req].resp_size + 32;
        transmit(
            w,
            sim,
            None,
            bytes,
            NetMsg::UdResp {
                client,
                server,
                req,
            },
        );
    });
}

/// Nominal application cost of a request (charged to the core pool).
fn app_cost(w: &World, id: ReqId) -> Ns {
    match w.reqs[id].kind {
        ReqKind::Echo => Ns(w.handler_ns),
        ReqKind::Get => match &w.app {
            AppLogic::Hydra(app) => app.get_cost(),
            _ => Ns(w.handler_ns),
        },
        ReqKind::Scan => match &w.app {
            AppLogic::Hydra(app) => app.scan_cost(),
            _ => Ns(w.handler_ns),
        },
        ReqKind::Txn(phase) => crate::coord::phase_cost(w, phase, id),
        ReqKind::Read => Ns::ZERO, // one-sided: no CPU (never reaches here)
    }
}

/// Execute application effects for one request at processing time.
fn serve_request(w: &mut World, id: ReqId) {
    match w.reqs[id].kind {
        ReqKind::Echo => {}
        ReqKind::Get | ReqKind::Scan => {
            // Run the real index (results drive nothing downstream in the
            // paper's workload — the server replies with an 8 B count —
            // but the real data structure keeps the model honest).
            let key = w.reqs[id].key;
            let is_scan = w.reqs[id].kind == ReqKind::Scan;
            if let AppLogic::Hydra(app) = &mut w.app {
                app.execute(key, is_scan);
            }
        }
        ReqKind::Txn(phase) => crate::coord::serve_phase(w, phase, id),
        ReqKind::Read => {}
    }
}

/// A credit renewal arrived at the QP scheduler.
pub(crate) fn on_renewal(
    w: &mut World,
    sim: &mut Sim<World>,
    client: usize,
    server: usize,
    lane: usize,
    degree: u16,
) {
    let now = sim.now();
    // The dedicated scheduler thread polls the RCQ and grants: a CQE
    // poll, a utilization bump, and one posted write back.
    let svc = Ns(220);
    let (_, end) = w.servers[server].sched_cpu.admit(now, svc);
    sim.at(end, move |w: &mut World, sim| {
        let decision = w.servers[server].qp_sched.on_credit_request(
            SenderQp {
                sender: client as u32,
                qp: lane,
            },
            degree,
        );
        transmit(
            w,
            sim,
            Some(w.clients[client].qps[server][lane].global_id),
            32,
            NetMsg::Grant {
                client,
                server,
                lane,
                grant: decision,
            },
        );
    });
}

/// Periodic QP redistribution (real Flock scheduler code); proactively
/// notifies clients of activations/deactivations like the runtime does.
pub(crate) fn qp_sched_tick(w: &mut World, sim: &mut Sim<World>, server: usize, interval: Ns) {
    let changes = w.servers[server].qp_sched.redistribute();
    let grant_size = w.servers[server].qp_sched.config().grant_size;
    for (sq, now_active) in changes {
        let client = sq.sender as usize;
        let lane = sq.qp;
        if client >= w.clients.len() || lane >= w.clients[client].qps[server].len() {
            continue;
        }
        let grant = if now_active { Some(grant_size) } else { None };
        transmit(
            w,
            sim,
            Some(w.clients[client].qps[server][lane].global_id),
            32,
            NetMsg::Grant {
                client,
                server,
                lane,
                grant,
            },
        );
    }
    sim.after(interval, move |w: &mut World, sim| {
        qp_sched_tick(w, sim, server, interval);
    });
}

/// What a phase RPC costs on the server (used by the per-request cost
/// accounting in this module).
pub(crate) fn txn_phase_nominal(w: &World, phase: TxnPhase, n_keys: usize) -> Ns {
    let per_key = match phase {
        TxnPhase::Execute => 220, // hash lookup + lock CAS + copy out
        TxnPhase::Validate => 80, // word read
        TxnPhase::Log => 140,     // backup insert
        TxnPhase::Commit => 180,  // install + unlock
        TxnPhase::Abort => 90,    // unlock
    };
    Ns(w.handler_ns / 2 + per_key * n_keys as u64)
}
