//! `echo_fanin` — the paper's core path and nothing else.
//!
//! Closed loop: 8 client nodes × 8 threads share 2 QPs per node, window
//! 8, 32 B echo, server with 4 dispatch shards and 4 NIC lanes. TCQ
//! join → leader flush → doorbell → lane → ring → dispatch shard →
//! response does all the work; `kvstore`/`gateway`/`txn`/`onesided` do
//! none, and 16 QPs ≪ MAX_AQP so the QP scheduler never redistributes.
//! An optimisation of any of those bypassed layers must leave this
//! workload's numbers where they are.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::{collect_spans, drop_domain, record_stack_counters, ClientLog, Gate, LabOutcome, Logs};
use crate::adapter::{
    clock, fl_connect, handle_counters, splitmix64, FabricConfig, FlockDomain, FlockServer,
    HandleConfig, ServerConfig, SimRng,
};
use crate::{stats, trace};

const NODES: usize = 8;
const THREADS_PER_NODE: usize = 8;
const QPS_PER_NODE: usize = 2;
const WINDOW: usize = 8;
const PAYLOAD: usize = 32;
/// Bursts of `WINDOW` RPCs per thread; the first tenth is warm-up.
const BURSTS: usize = 160;
const WARM_BURSTS: usize = BURSTS / 10;
const RPC_ECHO: u32 = 1;

/// Request id: global thread index and operation index, as they ride in
/// the first 8 payload bytes.
fn req_id(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[..8].try_into().expect("payload >= 8 bytes"))
}

pub fn run(seed: u64) -> LabOutcome {
    let mut fab = FabricConfig::default();
    fab.nic_lanes = 4;
    let domain = Arc::new(FlockDomain::new(fab));
    let server_node = domain.add_node("echo-srv");
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = 4;
    let server = FlockServer::listen(&domain, &server_node, "echo", scfg);
    server.reg_handler(RPC_ECHO, |req| {
        if !trace::on() {
            return req.to_vec();
        }
        let entry = clock::now_ns();
        let reply = req.to_vec();
        trace::span("app.handler", "op", req_id(req), entry, clock::now_ns());
        reply
    });

    let gate = Gate::default();
    let ready = Arc::new(AtomicUsize::new(0));
    let logs = Logs::default();
    // (requests, messages) per handle, read before the handle closes.
    let sent = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
    let mut client_nodes = Vec::with_capacity(NODES);
    let mut node_tasks = Vec::with_capacity(NODES);
    let mut root = SimRng::new(seed);
    for c in 0..NODES {
        let node = domain.add_node(&format!("echo-c{c}"));
        client_nodes.push(Arc::clone(&node));
        let domain = Arc::clone(&domain);
        let (gate, ready, logs, sent) = (
            gate.clone(),
            Arc::clone(&ready),
            Arc::clone(&logs),
            Arc::clone(&sent),
        );
        let mut rng = root.fork(c as u64);
        node_tasks.push(clock::spawn(&format!("echo-node-{c}"), move || {
            let mut cfg = HandleConfig::default();
            cfg.n_qps = QPS_PER_NODE;
            // Steady-state data plane: every lane up before the window.
            cfg.eager_qps = true;
            let t0 = clock::now_ns();
            let handle = fl_connect(&domain, &node, "echo", cfg).expect("connect");
            trace::span("core.api.connect", "", c as u64, t0, clock::now_ns());
            let threads: Vec<_> = (0..THREADS_PER_NODE)
                .map(|_| handle.register_thread())
                .collect();
            ready.fetch_add(1, Ordering::Release);
            gate.wait();
            let mut workers = Vec::with_capacity(threads.len());
            for (i, t) in threads.into_iter().enumerate() {
                let logs = Arc::clone(&logs);
                let tid = (c * THREADS_PER_NODE + i) as u32;
                // The seed sets each thread's start phase and payload
                // filler: the arrival pattern is the input here.
                let stagger_ns = rng.below(2_000);
                let filler = splitmix64(seed ^ u64::from(tid)).to_le_bytes();
                workers.push(clock::spawn(&format!("echo-w-{tid}"), move || {
                    clock::sleep_ns(stagger_ns);
                    let mut log = ClientLog::with_capacity((BURSTS - WARM_BURSTS) * WINDOW);
                    let mut payload = [0u8; PAYLOAD];
                    payload[8..16].copy_from_slice(&filler);
                    // (seq, issue ns, request id) of the burst in flight.
                    let mut window = [(0u64, 0u64, 0u64); WINDOW];
                    for burst in 0..BURSTS {
                        for (k, slot) in window.iter_mut().enumerate() {
                            let op = (burst * WINDOW + k) as u32;
                            payload[..4].copy_from_slice(&tid.to_le_bytes());
                            payload[4..8].copy_from_slice(&op.to_le_bytes());
                            let id = req_id(&payload);
                            let issue = clock::now_ns();
                            let seq = t.send_rpc(RPC_ECHO, &payload).expect("send");
                            trace::span("core.client.send_call", "op", id, issue, clock::now_ns());
                            *slot = (seq, issue, id);
                        }
                        for &(seq, issue, id) in &window {
                            let reply = t.recv_res(seq);
                            let done = clock::now_ns();
                            let ok = reply.is_ok_and(|r| {
                                r.len() == PAYLOAD && req_id(&r) == id && r[8..16] == filler
                            });
                            let measured = burst >= WARM_BURSTS;
                            if measured {
                                trace::span("op", "", id, issue, done);
                            }
                            log.record(measured, ok, issue, done);
                        }
                    }
                    logs.lock().expect("client task panicked").push(log);
                }));
            }
            for w in workers {
                let _ = w.join();
            }
            let (req, msg) = handle_counters(&handle);
            let mut s = sent.lock().expect("client task panicked");
            s.0 += req;
            s.1 += msg;
            drop(s);
            drop(handle); // joins the handle's dispatcher + scheduler
        }));
    }
    while ready.load(Ordering::Acquire) < NODES {
        clock::sleep_ns(10_000);
    }
    gate.open();
    for h in node_tasks {
        let _ = h.join();
    }
    let mut out = LabOutcome::from_logs(&logs);

    let (sent_req, sent_msg) = *sent.lock().expect("client task panicked");
    out.layer.insert(
        "core.client.degree",
        stats::ratio(sent_req as f64, sent_msg as f64),
    );
    record_stack_counters(
        &mut out,
        &[&server],
        std::slice::from_ref(&server_node),
        &client_nodes,
        NODES * QPS_PER_NODE,
    );

    server.shutdown(&domain);
    drop(server);
    drop(client_nodes);
    drop(server_node);
    drop_domain(domain);

    collect_spans(&mut out);
    if trace::on() {
        stage_breakdown(&mut out);
    }
    out
}

/// Split each measured operation at the three points the benchmark can
/// see from outside — `send_rpc` return, handler entry, handler exit —
/// and assert the four stage means add up to the mean latency.
fn stage_breakdown(out: &mut LabOutcome) {
    let LabOutcome {
        spans, layer: l, ..
    } = out;
    let mut handler: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut send_end: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter() {
        match s.name {
            "app.handler" => {
                handler.insert(s.req, (s.start, s.end));
            }
            "core.client.send_call" => {
                send_end.insert(s.req, s.end);
            }
            _ => {}
        }
    }
    let (mut send, mut req, mut hand, mut resp, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for op in spans.iter().filter(|s| s.name == "op") {
        let sent = send_end[&op.req];
        let (entry, exit) = handler[&op.req];
        send.push(sent - op.start);
        req.push(entry - sent);
        hand.push(exit - entry);
        resp.push(op.end - exit);
        total.push(op.end - op.start);
    }
    let stage_sum =
        stats::mean(&send) + stats::mean(&req) + stats::mean(&hand) + stats::mean(&resp);
    assert!(
        (stage_sum - stats::mean(&total)).abs() <= 1.0,
        "trace invariant (b): stage means sum to {stage_sum} ns, mean latency is {} ns",
        stats::mean(&total)
    );
    l.insert("core.client.send_call_sim_ns", stats::p50(&mut send));
    l.insert("core.req_transit_sim_ns", stats::p50(&mut req));
    l.insert("app.handler_sim_ns", stats::p50(&mut hand));
    l.insert("core.resp_transit_sim_ns", stats::p50(&mut resp));
}
