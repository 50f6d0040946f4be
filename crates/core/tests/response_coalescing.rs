//! Server-side response coalescing (paper §4.3, DESIGN.md §5a.3): the
//! dispatcher defers a lane's doorbell while the lane's request ring
//! still has a message ready. Deterministic, under `VirtualLab`.
//!
//! * a backlog of single-entry messages is answered with fewer response
//!   writes than requests, every sequence exactly once, across ring wraps;
//! * a lone `call()` costs what it cost before the change;
//! * `close()` with responses still deferred settles them first;
//! * a backlogged lane delays its neighbour by at most one two-message
//!   visit.

use std::sync::Arc;
use std::time::Duration;

use flock_core::client::{ConnectionHandle, HandleConfig};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{Bytes, FlockDomain, FlockError, Result};
use flock_fabric::FabricConfig;
use flock_sim::vtime::VirtualLab;
use flock_sync::clock;

const RPC_ECHO: u32 = 1;

/// A domain whose handlers take `handler_ns` of virtual CPU each, and a
/// one-worker echo server on it with `ring` bytes of request ring.
fn echo_server(handler_ns: u64, ring: usize) -> (Arc<FlockDomain>, FlockServer) {
    let mut fab = FabricConfig::default();
    fab.cost.app_handler_ns = handler_ns;
    let domain = Arc::new(FlockDomain::new(fab));
    let node = domain.add_node("rc-srv");
    let mut scfg = ServerConfig::default();
    scfg.dispatch_threads = 1;
    scfg.ring_capacity = ring;
    let server = FlockServer::listen(&domain, &node, "rc", scfg);
    server.reg_handler(RPC_ECHO, |req| req.to_vec());
    (domain, server)
}

/// One eager lane, `ring` bytes of response ring.
fn connect(domain: &FlockDomain, name: &str, ring: usize) -> ConnectionHandle {
    let mut cfg = HandleConfig::default();
    cfg.n_qps = 1;
    cfg.eager_qps = true;
    cfg.ring_capacity = ring;
    let node = domain.add_node(name);
    let handle = ConnectionHandle::connect(domain, &node, "rc", cfg).expect("connect");
    // Apply the control-plane cost connect charged to this task now, so
    // it is not added to the first wait of the test body.
    clock::yield_now();
    handle
}

/// Request `i`'s payload: its index, then filler of a length that varies
/// so messages do not tile the rings evenly.
fn payload(i: usize) -> Vec<u8> {
    let mut p = (i as u64).to_le_bytes().to_vec();
    p.resize(8 + (i * 7) % 40, i as u8);
    p
}

fn stats(server: &FlockServer) -> (u64, u64, u64, u64) {
    let s = server.stats();
    (
        s.messages.get(),
        s.requests.get(),
        s.response_messages.get(),
        s.responses.get(),
    )
}

#[test]
fn backlog_is_answered_with_fewer_writes_across_ring_wraps() {
    VirtualLab::run(|| {
        // 5 µs handlers against ~0.5 µs sends: requests queue in the
        // ring ahead of the dispatcher. 2 KiB rings hold sixteen of these
        // messages, so 64 of them wrap both rings several times and the
        // sender lives off the head the coalesced responses carry.
        const K: usize = 64;
        let (domain, server) = echo_server(5_000, 2048);
        let mut handle = connect(&domain, "rc-cli", 2048);
        let t = handle.register_thread();

        let seqs: Vec<u64> = (0..K)
            .map(|i| t.send_rpc(RPC_ECHO, &payload(i)).expect("send"))
            .collect();
        for (i, &seq) in seqs.iter().enumerate() {
            assert_eq!(
                &t.recv_res(seq).expect("recv")[..],
                &payload(i)[..],
                "seq {seq}"
            );
        }
        // A received seq is no longer in flight. Exactly once: a second
        // reply to any of them trips the client dispatcher's check in
        // debug builds (its task's panic fails the lab), and the server
        // counts one response per request below.
        for &seq in &seqs {
            let again = t.try_recv_res(seq);
            let taken = matches!(again, Some(Err(FlockError::InvalidArgument(_))));
            assert!(taken, "seq {seq}: {again:?}");
        }

        let (messages, requests, response_messages, responses) = stats(&server);
        // One thread, so every request is its own single-entry message.
        assert_eq!((messages, requests), (K as u64, K as u64));
        assert_eq!(responses, K as u64);
        assert!(
            response_messages < K as u64 / 2,
            "{K} queued requests took {response_messages} response writes"
        );

        handle.close().expect("close");
        server.shutdown(&domain);
    });
}

/// Virtual round trips of four lone `call()`s 20 µs apart on the default
/// cost model, measured on the parent commit (2dd2bcd, one response
/// write per request message) with this same test body. They differ
/// because each call meets the pollers' idle ladders at another phase.
const PARENT_LONE_CALL_NS: [u64; 4] = [2_478, 3_478, 3_478, 1_978];

#[test]
fn lone_call_round_trip_is_unchanged() {
    VirtualLab::run(|| {
        let (domain, server) = echo_server(FabricConfig::default().cost.app_handler_ns, 1 << 16);
        let mut handle = connect(&domain, "rc-cli", 1 << 16);
        let t = handle.register_thread();
        t.call(RPC_ECHO, b"warm").expect("warm-up call");
        let rtts = PARENT_LONE_CALL_NS.map(|_| {
            clock::sleep_ns(20_000);
            let t0 = clock::now_ns();
            t.call(RPC_ECHO, b"lone").expect("call");
            clock::now_ns() - t0
        });
        assert_eq!(rtts, PARENT_LONE_CALL_NS);
        // Nothing to coalesce: one response write per request.
        let (_, requests, response_messages, responses) = stats(&server);
        assert_eq!((requests, response_messages, responses), (5, 5, 5));
        handle.close().expect("close");
        server.shutdown(&domain);
    });
}

#[test]
fn close_settles_deferred_responses() {
    VirtualLab::run(|| {
        const K: usize = 12;
        let (domain, server) = echo_server(5_000, 1 << 16);
        let mut handle = connect(&domain, "rc-cli", 1 << 16);
        let t = handle.register_thread();
        let seqs: Vec<u64> = (0..K)
            .map(|i| t.send_rpc(RPC_ECHO, &payload(i)).expect("send"))
            .collect();

        // Wait until the dispatcher holds responses back: handled more
        // than it has written, with the backlog still there.
        let deadline = clock::deadline(Duration::from_millis(1));
        loop {
            let (_, requests, _, responses) = stats(&server);
            if requests >= 3 && requests > responses {
                break;
            }
            assert!(!clock::expired(deadline), "the dispatcher never deferred");
            clock::sleep_ns(100);
        }

        let t0 = clock::now_ns();
        handle.close().expect("close while responses are deferred");
        // Far inside the detach deadline (`ServerConfig::timeout`, 10 s):
        // quiescence costs one settle, not a timeout.
        assert!(
            clock::now_ns() - t0 < 100_000,
            "close took {} ns",
            clock::now_ns() - t0
        );

        // Everything the server took out of the ring was answered, once.
        let (_, requests, _, responses) = stats(&server);
        assert_eq!(responses, requests);
        assert!((3..=K as u64).contains(&requests));
        // What reached the client before its dispatcher stopped is intact;
        // the rest reads as disconnected, not as still on its way (here
        // the server writes nothing before the close, so every seq reads
        // disconnected). Either way the seq is then no longer in flight.
        let gone = |r: &Option<Result<Bytes>>| matches!(r, Some(Err(FlockError::Disconnected)));
        let taken =
            |r: &Option<Result<Bytes>>| matches!(r, Some(Err(FlockError::InvalidArgument(_))));
        for (i, &seq) in seqs.iter().enumerate() {
            match t.try_recv_res(seq) {
                Some(Ok(r)) => assert_eq!(&r[..], &payload(i)[..], "seq {seq}"),
                r => assert!(gone(&r), "seq {seq}: {r:?}"),
            }
            let again = t.try_recv_res(seq);
            assert!(taken(&again), "seq {seq} answered twice: {again:?}");
        }
        server.shutdown(&domain);
    });
}

#[test]
fn backlogged_lane_delays_its_neighbour_by_one_visit() {
    VirtualLab::run(|| {
        const HANDLER_NS: u64 = 2_000;
        const BACKLOG: usize = 16;
        let (domain, server) = echo_server(HANDLER_NS, 1 << 16);
        // Two connections, one lane each, both on the single worker.
        let mut busy = connect(&domain, "rc-busy", 1 << 16);
        let mut lone = connect(&domain, "rc-lone", 1 << 16);
        let tb = busy.register_thread();
        let tl = lone.register_thread();

        tl.call(RPC_ECHO, b"warm").expect("warm-up call");
        clock::sleep_ns(20_000);
        let t0 = clock::now_ns();
        tl.call(RPC_ECHO, b"idle").expect("call on an idle server");
        let idle_rtt = clock::now_ns() - t0;

        let seqs: Vec<u64> = (0..BACKLOG)
            .map(|i| tb.send_rpc(RPC_ECHO, &payload(i)).expect("send"))
            .collect();
        // Call once the backlog has landed and the dispatcher is into it.
        while stats(&server).0 < 2 + 2 {
            clock::sleep_ns(100);
        }
        let (before, ..) = stats(&server);
        let t0 = clock::now_ns();
        tl.call(RPC_ECHO, b"lone").expect("call beside a backlog");
        let busy_rtt = clock::now_ns() - t0;
        let (after, ..) = stats(&server);

        // The lone request waited for at most one two-message visit to
        // the other lane (plus one 500 ns step of the waiter's poll grid)...
        let cost = FabricConfig::default().cost;
        let visit = 2 * (cost.cpu_ring_poll_ns + cost.cpu_codec_ns + HANDLER_NS);
        assert!(
            busy_rtt <= idle_rtt + visit + 1_000,
            "lone call took {busy_rtt} ns beside a backlog, {idle_rtt} ns idle, visit {visit} ns"
        );
        // ...although it went in with most of the backlog unhandled and
        // came back before the dispatcher was through with it.
        assert!(before <= 2 + 4, "{before} messages handled before the call");
        assert!(
            after < (2 + 1 + BACKLOG) as u64,
            "the lone call waited out the backlog"
        );

        for (i, &seq) in seqs.iter().enumerate() {
            assert_eq!(&tb.recv_res(seq).expect("recv")[..], &payload(i)[..]);
        }
        busy.close().expect("close");
        lone.close().expect("close");
        server.shutdown(&domain);
    });
}
