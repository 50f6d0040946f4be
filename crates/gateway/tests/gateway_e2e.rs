//! End-to-end gateway tests: edge sessions speaking all three wire
//! protocols against a kvstore-backed Flock server, with per-tenant
//! accounting visible in the server's fairness snapshot.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flock_core::client::HandleConfig;
use flock_core::sched::tenant::FairnessSnapshot;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::FlockDomain;
use flock_gateway::proto::{MemcachedText, PingProto, Resp};
use flock_gateway::{register_kv_backend, EdgeError, Gateway, GatewayConfig};
use flock_kvstore::{KvConfig, KvStore};

fn kv_server(domain: &FlockDomain, name: &str) -> (FlockServer, Arc<KvStore>) {
    let node = domain.add_node(&format!("node-{name}"));
    let server = FlockServer::listen(domain, &node, name, ServerConfig::default());
    let kv = Arc::new(KvStore::new(KvConfig::default()));
    register_kv_backend(&server, Arc::clone(&kv));
    (server, kv)
}

/// The server's fairness snapshot once `tenant` has `completed`
/// responses on it. A dispatch shard counts a response after the flush
/// that carries it, so on real threads the caller can hold the reply a
/// moment before the count shows.
fn snapshot_after(server: &FlockServer, tenant: u32, completed: u64) -> FairnessSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = server.fairness_snapshot();
        let counted = snap.tenant(tenant).map_or(0, |row| row.completed);
        if counted >= completed || Instant::now() > deadline {
            return snap;
        }
        std::thread::yield_now();
    }
}

fn gateway(domain: &Arc<FlockDomain>, name: &str) -> Gateway {
    let gw_node = domain.add_node(&format!("gw-{name}"));
    let mut cfg = GatewayConfig::default();
    cfg.handle = HandleConfig {
        n_qps: 2,
        mem_threads: 8,
        ..HandleConfig::default()
    };
    Gateway::new(Arc::clone(domain), gw_node, name, cfg)
}

#[test]
fn three_protocols_share_one_store() {
    let domain = Arc::new(FlockDomain::with_defaults());
    let (server, kv) = kv_server(&domain, "kv1");
    let gw = gateway(&domain, "kv1");

    let mut mc = gw.open_session(1, Arc::new(MemcachedText)).unwrap();
    let mut rs = gw.open_session(2, Arc::new(Resp)).unwrap();
    let mut pg = gw.open_session(3, Arc::new(PingProto)).unwrap();

    let mut out = Vec::new();
    // Memcached tenant writes...
    assert_eq!(mc.pump(b"set foo 0 0 3\r\nbar\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"STORED\r\n");
    out.clear();
    assert_eq!(mc.pump(b"get foo\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"VALUE foo 0 3\r\nbar\r\nEND\r\n");
    out.clear();
    assert_eq!(mc.pump(b"get nope\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"END\r\n");
    out.clear();
    assert_eq!(mc.pump(b"ping\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"PONG\r\n");
    out.clear();

    // ...and the RESP tenant reads them through the same store.
    assert_eq!(rs.pump(b"*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"$3\r\nbar\r\n");
    out.clear();
    assert_eq!(
        rs.pump(b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n", &mut out)
            .unwrap(),
        1
    );
    assert_eq!(out, b"+OK\r\n");
    out.clear();
    assert_eq!(rs.pump(b"*1\r\n$4\r\nPING\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"+PONG\r\n");
    out.clear();

    // Ping tenant.
    assert_eq!(pg.pump(b"PING\r\nPING\r\n", &mut out).unwrap(), 2);
    assert_eq!(out, b"PONG\r\nPONG\r\n");
    out.clear();

    // The store holds both keys (hashed), written through two protocols.
    assert_eq!(kv.len(), 2);

    // Per-tenant accounting reached the backend scheduler: three tenant
    // rows, each with completed requests matching its traffic.
    let snap = snapshot_after(&server, 3, 2);
    let t1 = snap.tenant(1).expect("memcached tenant row");
    let t2 = snap.tenant(2).expect("resp tenant row");
    let t3 = snap.tenant(3).expect("ping tenant row");
    assert_eq!(t1.completed, 4);
    assert_eq!(t2.completed, 3);
    assert_eq!(t3.completed, 2);
    assert!(t1.senders == 1 && t2.senders == 1 && t3.senders == 1);

    gw.close_session(&mc);
    gw.close_session(&rs);
    gw.close_session(&pg);
    assert!(gw.registry().is_empty());
    gw.close().unwrap();
    server.shutdown(&domain);
}

#[test]
fn sessions_of_one_tenant_share_one_connection() {
    let domain = Arc::new(FlockDomain::with_defaults());
    let (server, _kv) = kv_server(&domain, "kv2");
    let gw = gateway(&domain, "kv2");

    let mut sessions: Vec<_> = (0..4)
        .map(|_| gw.open_session(7, Arc::new(MemcachedText)).unwrap())
        .collect();
    assert_eq!(gw.connected_tenants(), vec![7], "one shared connection");
    assert_eq!(gw.registry().sessions_of(7), 4);

    let mut out = Vec::new();
    for (i, s) in sessions.iter_mut().enumerate() {
        out.clear();
        let wire = format!("set key{i} 0 0 2\r\nv{i}\r\n");
        assert_eq!(s.pump(wire.as_bytes(), &mut out).unwrap(), 1);
        assert_eq!(out, b"STORED\r\n");
    }
    let snap = snapshot_after(&server, 7, 4);
    let row = snap.tenant(7).expect("tenant row");
    assert_eq!(row.senders, 1, "4 sessions share 1 sender");
    assert_eq!(row.completed, 4);

    for s in &sessions {
        gw.close_session(s);
    }
    gw.close().unwrap();
    server.shutdown(&domain);
}

#[test]
fn split_frames_reassemble_across_pumps() {
    let domain = Arc::new(FlockDomain::with_defaults());
    let (server, _kv) = kv_server(&domain, "kv3");
    let gw = gateway(&domain, "kv3");
    let mut s = gw.open_session(1, Arc::new(MemcachedText)).unwrap();

    let mut out = Vec::new();
    assert_eq!(s.pump(b"set foo 0 0 3\r\nb", &mut out).unwrap(), 0);
    assert!(out.is_empty());
    assert!(s.buffered() > 0);
    assert_eq!(s.pump(b"ar\r\nget fo", &mut out).unwrap(), 1);
    assert_eq!(out, b"STORED\r\n");
    out.clear();
    assert_eq!(s.pump(b"o\r\n", &mut out).unwrap(), 1);
    assert_eq!(out, b"VALUE foo 0 3\r\nbar\r\nEND\r\n");
    assert_eq!(s.frames_dispatched(), 2);
    assert_eq!(s.buffered(), 0);

    gw.close_session(&s);
    gw.close().unwrap();
    server.shutdown(&domain);
}

#[test]
fn malformed_stream_reports_error_and_dies() {
    let domain = Arc::new(FlockDomain::with_defaults());
    let (server, _kv) = kv_server(&domain, "kv4");
    let gw = gateway(&domain, "kv4");
    let mut s = gw.open_session(1, Arc::new(Resp)).unwrap();

    let mut out = Vec::new();
    let err = s.pump(b"not resp at all\r\n", &mut out).unwrap_err();
    assert!(matches!(err, EdgeError::Proto(_)), "{err}");
    assert!(
        out.starts_with(b"-ERR"),
        "client gets an error frame before the close: {:?}",
        String::from_utf8_lossy(&out)
    );

    gw.close_session(&s);
    gw.close().unwrap();
    server.shutdown(&domain);
}

/// Two tenants, two memcached-text sessions each, every session on its
/// own virtual task against a server whose active-QP budget is below
/// the QP count. The lab elides the polls of un-notified waits; the
/// reference run executes them all (and panics on a change nobody
/// announced): same replies at the same instants, same final clock,
/// every elided poll one of the reference's handovers.
#[test]
fn tenant_sessions_match_the_reference_run() {
    use flock_sim::vtime::VirtualLab;
    use flock_sync::clock;

    const TENANTS: [u32; 2] = [3, 9];
    const OPS: usize = 12;
    let ((replied_at, completed), report) = VirtualLab::run_against_reference(|| {
        let domain = Arc::new(FlockDomain::with_defaults());
        let node = domain.add_node("node-kv-ref");
        let mut scfg = ServerConfig::default();
        scfg.sched.max_aqp = 2;
        let server = FlockServer::listen(&domain, &node, "kv-ref", scfg);
        register_kv_backend(&server, Arc::new(KvStore::new(KvConfig::default())));
        let gw = Arc::new(gateway(&domain, "kv-ref"));

        let tasks: Vec<_> = (0..2 * TENANTS.len())
            .map(|i| {
                let tenant = TENANTS[i % TENANTS.len()];
                let mut session = gw.open_session(tenant, Arc::new(MemcachedText)).unwrap();
                let gw = Arc::clone(&gw);
                let replied_at = Arc::new(parking_lot::Mutex::new(Vec::new()));
                let times = Arc::clone(&replied_at);
                let task = clock::spawn(&format!("session-{i}"), move || {
                    let mut out = Vec::new();
                    for k in 0..OPS {
                        out.clear();
                        let (wire, want) = if k % 3 == 0 {
                            (
                                format!("set s{i}k{k} 0 0 2\r\nv{k}\r\n"),
                                "STORED\r\n".to_string(),
                            )
                        } else {
                            let set = k - k % 3;
                            (
                                format!("get s{i}k{set}\r\n"),
                                format!("VALUE s{i}k{set} 0 2\r\nv{set}\r\nEND\r\n"),
                            )
                        };
                        assert_eq!(session.pump(wire.as_bytes(), &mut out).unwrap(), 1);
                        assert_eq!(out, want.as_bytes(), "session {i} op {k}");
                        times.lock().push(clock::now_ns());
                    }
                    gw.close_session(&session);
                });
                (task, replied_at)
            })
            .collect();
        let replied_at: Vec<Vec<u64>> = tasks
            .into_iter()
            .map(|(task, times)| {
                task.join().unwrap();
                let times = times.lock().clone();
                times
            })
            .collect();
        let snap = server.fairness_snapshot();
        let completed = TENANTS.map(|t| snap.tenant(t).expect("tenant row").completed);
        gw.close().unwrap();
        server.shutdown(&domain);
        (replied_at, completed)
    });
    assert!(replied_at.iter().all(|t| t.len() == OPS));
    assert_eq!(completed, [2 * OPS as u64; 2]);
    assert!(report.elided_polls > report.handovers / 4, "{report:?}");
}
