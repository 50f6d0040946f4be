//! End-to-end tests of the threaded fabric: every verb on every transport
//! it supports, error paths, and NIC cache accounting.

use std::time::Duration;

use flock_fabric::{
    Access, CqStatus, Fabric, FabricConfig, FabricError, QpState, RecvWr, RemoteAddr, Rkey, SendWr,
    Sge, Transport, WrId, GRH_BYTES,
};

const TIMEOUT: Duration = Duration::from_secs(5);

/// Builds a two-node fabric with one connected QP pair of the given
/// transport and 4 KiB MRs on both sides.
struct Pair {
    fabric: Fabric,
    client: std::sync::Arc<flock_fabric::Node>,
    server: std::sync::Arc<flock_fabric::Node>,
    cmr: std::sync::Arc<flock_fabric::MemoryRegion>,
    smr: std::sync::Arc<flock_fabric::MemoryRegion>,
    ccq: std::sync::Arc<flock_fabric::CompletionQueue>,
    scq: std::sync::Arc<flock_fabric::CompletionQueue>,
    cqp: std::sync::Arc<flock_fabric::Qp>,
    sqp: std::sync::Arc<flock_fabric::Qp>,
}

fn pair(transport: Transport) -> Pair {
    let fabric = Fabric::with_defaults();
    let client = fabric.add_node("client");
    let server = fabric.add_node("server");
    let cmr = client.register_mr(4096, Access::REMOTE_ALL);
    let smr = server.register_mr(4096, Access::REMOTE_ALL);
    let ccq = client.create_cq(64);
    let scq = server.create_cq(64);
    let cqp = client.create_qp(transport, &ccq, &ccq);
    let sqp = server.create_qp(transport, &scq, &scq);
    if transport.connected() {
        fabric.connect(&cqp, &sqp).unwrap();
    } else {
        cqp.ready().unwrap();
        sqp.ready().unwrap();
    }
    Pair {
        fabric,
        client,
        server,
        cmr,
        smr,
        ccq,
        scq,
        cqp,
        sqp,
    }
}

#[test]
fn rc_write_moves_bytes() {
    let p = pair(Transport::Rc);
    p.cmr.write(0, b"flock").unwrap();
    p.cqp
        .post_send(SendWr::write(
            WrId(1),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 5,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr() + 100,
            },
        ))
        .unwrap();
    let c = p.ccq.wait_one(TIMEOUT).unwrap();
    assert!(c.is_ok());
    assert_eq!(p.smr.read_vec(100, 5).unwrap(), b"flock");
    // One-sided: the server CPU saw nothing.
    assert!(p.scq.is_empty());
}

#[test]
fn rc_read_fetches_bytes() {
    let p = pair(Transport::Rc);
    p.smr.write(200, b"remote-data").unwrap();
    p.cqp
        .post_send(SendWr::read(
            WrId(2),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr() + 50,
                len: 11,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr() + 200,
            },
        ))
        .unwrap();
    let c = p.ccq.wait_one(TIMEOUT).unwrap();
    assert!(c.is_ok());
    assert_eq!(p.cmr.read_vec(50, 11).unwrap(), b"remote-data");
}

#[test]
fn rc_fetch_add_and_cmp_swap() {
    let p = pair(Transport::Rc);
    p.smr.write_u64(8, 100).unwrap();
    p.cqp
        .post_send(SendWr::fetch_add(
            WrId(3),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 8,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr() + 8,
            },
            5,
        ))
        .unwrap();
    assert!(p.ccq.wait_one(TIMEOUT).unwrap().is_ok());
    assert_eq!(p.cmr.read_u64(0).unwrap(), 100); // old value returned
    assert_eq!(p.smr.read_u64(8).unwrap(), 105);

    p.cqp
        .post_send(SendWr::cmp_swap(
            WrId(4),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 8,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr() + 8,
            },
            105,
            42,
        ))
        .unwrap();
    assert!(p.ccq.wait_one(TIMEOUT).unwrap().is_ok());
    assert_eq!(p.smr.read_u64(8).unwrap(), 42);
}

#[test]
fn rc_send_recv_roundtrip() {
    let p = pair(Transport::Rc);
    p.sqp
        .post_recv(RecvWr {
            wr_id: WrId(100),
            local: Sge {
                lkey: p.smr.lkey(),
                addr: p.smr.addr(),
                len: 64,
            },
        })
        .unwrap();
    p.cmr.write(0, b"two-sided").unwrap();
    p.cqp
        .post_send(SendWr::send(
            WrId(5),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 9,
            },
        ))
        .unwrap();
    let send_c = p.ccq.wait_one(TIMEOUT).unwrap();
    assert!(send_c.is_ok());
    let recv_c = p.scq.wait_one(TIMEOUT).unwrap();
    assert!(recv_c.is_ok());
    assert_eq!(recv_c.wr_id, WrId(100));
    assert_eq!(recv_c.byte_len, 9);
    assert_eq!(p.smr.read_vec(0, 9).unwrap(), b"two-sided");
}

#[test]
fn rc_send_without_recv_is_rnr_error() {
    let p = pair(Transport::Rc);
    p.cqp
        .post_send(SendWr::send(
            WrId(6),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 4,
            },
        ))
        .unwrap();
    let c = p.ccq.wait_one(TIMEOUT).unwrap();
    assert_eq!(c.status, flock_fabric::CqStatus::RnrRetryExceeded);
    assert_eq!(p.cqp.state(), QpState::Error);
    // Further posts are rejected at the API.
    assert!(matches!(
        p.cqp.post_send(SendWr::send(
            WrId(7),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 4,
            },
        )),
        Err(FabricError::InvalidState(QpState::Error))
    ));
}

#[test]
fn write_imm_delivers_immediate() {
    let p = pair(Transport::Rc);
    p.sqp
        .post_recv(RecvWr {
            wr_id: WrId(200),
            local: Sge {
                lkey: p.smr.lkey(),
                addr: p.smr.addr(),
                len: 0,
            },
        })
        .unwrap();
    p.cmr.write(0, b"imm-payload").unwrap();
    p.cqp
        .post_send(SendWr::write_imm(
            WrId(8),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 11,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr() + 500,
            },
            0xABCD,
        ))
        .unwrap();
    assert!(p.ccq.wait_one(TIMEOUT).unwrap().is_ok());
    let recv = p.scq.wait_one(TIMEOUT).unwrap();
    assert!(recv.is_ok());
    assert_eq!(recv.imm, Some(0xABCD));
    assert_eq!(recv.opcode, flock_fabric::CqOpcode::RecvImm);
    assert_eq!(p.smr.read_vec(500, 11).unwrap(), b"imm-payload");
}

#[test]
fn remote_access_violation_errors_the_qp() {
    let fabric = Fabric::with_defaults();
    let client = fabric.add_node("c");
    let server = fabric.add_node("s");
    let cmr = client.register_mr(64, Access::LOCAL);
    // Server region lacks REMOTE_WRITE.
    let smr = server.register_mr(64, Access::REMOTE_READ);
    let ccq = client.create_cq(8);
    let scq = server.create_cq(8);
    let cqp = client.create_qp(Transport::Rc, &ccq, &ccq);
    let sqp = server.create_qp(Transport::Rc, &scq, &scq);
    fabric.connect(&cqp, &sqp).unwrap();
    cqp.post_send(SendWr::write(
        WrId(9),
        Sge {
            lkey: cmr.lkey(),
            addr: cmr.addr(),
            len: 8,
        },
        RemoteAddr {
            rkey: smr.rkey(),
            addr: smr.addr(),
        },
    ))
    .unwrap();
    let c = ccq.wait_one(TIMEOUT).unwrap();
    assert_eq!(c.status, flock_fabric::CqStatus::RemoteAccessError);
    assert_eq!(cqp.state(), QpState::Error);
}

#[test]
fn ud_send_includes_grh_and_src() {
    let p = pair(Transport::Ud);
    p.sqp
        .post_recv(RecvWr {
            wr_id: WrId(300),
            local: Sge {
                lkey: p.smr.lkey(),
                addr: p.smr.addr(),
                len: 128,
            },
        })
        .unwrap();
    p.cmr.write(0, b"datagram").unwrap();
    p.cqp
        .post_send(SendWr::send_to(
            WrId(10),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 8,
            },
            (p.server.id(), p.sqp.qpn()),
        ))
        .unwrap();
    let recv = p.scq.wait_one(TIMEOUT).unwrap();
    assert!(recv.is_ok());
    assert_eq!(recv.byte_len, 8 + GRH_BYTES);
    assert_eq!(recv.src, Some((p.client.id(), p.cqp.qpn())));
    assert_eq!(p.smr.read_vec(GRH_BYTES, 8).unwrap(), b"datagram");
}

#[test]
fn ud_without_recv_buffer_drops_silently() {
    let p = pair(Transport::Ud);
    p.cqp
        .post_send(SendWr::send_to(
            WrId(11),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 8,
            },
            (p.server.id(), p.sqp.qpn()),
        ))
        .unwrap();
    // Sender still completes successfully — UD gives no delivery guarantee.
    let c = p.ccq.wait_one(TIMEOUT).unwrap();
    assert!(c.is_ok());
    assert!(p.scq.wait_one(Duration::from_millis(50)).is_none());
    assert_eq!(
        p.client
            .stats()
            .ud_drops
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn ud_rejects_oversized_and_one_sided() {
    let p = pair(Transport::Ud);
    let big = Sge {
        lkey: p.cmr.lkey(),
        addr: p.cmr.addr(),
        len: 5000,
    };
    assert!(matches!(
        p.cqp
            .post_send(SendWr::send_to(WrId(12), big, (p.server.id(), p.sqp.qpn()))),
        Err(FabricError::PayloadTooLarge { .. })
    ));
    assert!(matches!(
        p.cqp.post_send(SendWr::read(
            WrId(13),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 8,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr(),
            },
        )),
        Err(FabricError::UnsupportedVerb { .. })
    ));
}

#[test]
fn ud_loss_injection_drops_packets() {
    let mut config = FabricConfig::default();
    config.ud_drop_probability = 1.0;
    let fabric = Fabric::new(config);
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let amr = a.register_mr(64, Access::LOCAL);
    let bmr = b.register_mr(128, Access::LOCAL);
    let acq = a.create_cq(8);
    let bcq = b.create_cq(8);
    let aqp = a.create_qp(Transport::Ud, &acq, &acq);
    let bqp = b.create_qp(Transport::Ud, &bcq, &bcq);
    aqp.ready().unwrap();
    bqp.ready().unwrap();
    bqp.post_recv(RecvWr {
        wr_id: WrId(1),
        local: Sge {
            lkey: bmr.lkey(),
            addr: bmr.addr(),
            len: 128,
        },
    })
    .unwrap();
    aqp.post_send(SendWr::send_to(
        WrId(2),
        Sge {
            lkey: amr.lkey(),
            addr: amr.addr(),
            len: 8,
        },
        (b.id(), bqp.qpn()),
    ))
    .unwrap();
    assert!(acq.wait_one(TIMEOUT).unwrap().is_ok());
    assert!(bcq.wait_one(Duration::from_millis(50)).is_none());
}

#[test]
fn uc_supports_write_but_not_read() {
    let p = pair(Transport::Uc);
    p.cmr.write(0, b"uc").unwrap();
    p.cqp
        .post_send(SendWr::write(
            WrId(14),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 2,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr(),
            },
        ))
        .unwrap();
    assert!(p.ccq.wait_one(TIMEOUT).unwrap().is_ok());
    assert_eq!(p.smr.read_vec(0, 2).unwrap(), b"uc");
    assert!(matches!(
        p.cqp.post_send(SendWr::read(
            WrId(15),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 2,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr(),
            },
        )),
        Err(FabricError::UnsupportedVerb { .. })
    ));
}

#[test]
fn unsignaled_sends_complete_silently() {
    let p = pair(Transport::Rc);
    for i in 0..3 {
        p.cqp
            .post_send(
                SendWr::write(
                    WrId(i),
                    Sge {
                        lkey: p.cmr.lkey(),
                        addr: p.cmr.addr(),
                        len: 4,
                    },
                    RemoteAddr {
                        rkey: p.smr.rkey(),
                        addr: p.smr.addr(),
                    },
                )
                .unsignaled(),
            )
            .unwrap();
    }
    // Fourth, signaled write acts as the fence.
    p.cqp
        .post_send(SendWr::write(
            WrId(99),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 4,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr(),
            },
        ))
        .unwrap();
    let c = p.ccq.wait_one(TIMEOUT).unwrap();
    assert_eq!(c.wr_id, WrId(99));
    assert!(p.ccq.is_empty());
}

#[test]
fn nic_cache_records_connection_accesses() {
    let p = pair(Transport::Rc);
    p.cqp
        .post_send(SendWr::write(
            WrId(16),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 4,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr(),
            },
        ))
        .unwrap();
    assert!(p.ccq.wait_one(TIMEOUT).unwrap().is_ok());
    let client_cache = p.client.cache().lock();
    let server_cache = p.server.cache().lock();
    assert!(client_cache.hits() + client_cache.misses() >= 1);
    assert!(server_cache.hits() + server_cache.misses() >= 1);
}

#[test]
fn posts_after_shutdown_fail() {
    let p = pair(Transport::Rc);
    p.fabric.shutdown();
    let r = p.cqp.post_send(SendWr::write(
        WrId(17),
        Sge {
            lkey: p.cmr.lkey(),
            addr: p.cmr.addr(),
            len: 4,
        },
        RemoteAddr {
            rkey: p.smr.rkey(),
            addr: p.smr.addr(),
        },
    ));
    assert!(matches!(r, Err(FabricError::Shutdown)));
}

#[test]
fn connect_rejects_mismatched_transports() {
    let fabric = Fabric::with_defaults();
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let cq = a.create_cq(4);
    let cq2 = b.create_cq(4);
    let qa = a.create_qp(Transport::Rc, &cq, &cq);
    let qb = b.create_qp(Transport::Uc, &cq2, &cq2);
    assert!(fabric.connect(&qa, &qb).is_err());
}

#[test]
fn many_nodes_many_qps() {
    let fabric = Fabric::with_defaults();
    let server = fabric.add_node("server");
    let scq = server.create_cq(1024);
    let smr = server.register_mr(1 << 16, Access::REMOTE_ALL);
    let mut clients = Vec::new();
    for i in 0..8 {
        let c = fabric.add_node(&format!("c{i}"));
        let mr = c.register_mr(64, Access::LOCAL);
        mr.write_u64(0, i as u64).unwrap();
        let cq = c.create_cq(16);
        let qp = c.create_qp(Transport::Rc, &cq, &cq);
        let sqp = server.create_qp(Transport::Rc, &scq, &scq);
        fabric.connect(&qp, &sqp).unwrap();
        clients.push((c, mr, cq, qp));
    }
    for (i, (_c, mr, _cq, qp)) in clients.iter().enumerate() {
        qp.post_send(SendWr::write(
            WrId(i as u64),
            Sge {
                lkey: mr.lkey(),
                addr: mr.addr(),
                len: 8,
            },
            RemoteAddr {
                rkey: smr.rkey(),
                addr: smr.addr() + (i as u64) * 8,
            },
        ))
        .unwrap();
    }
    for (_c, _mr, cq, _qp) in &clients {
        assert!(cq.wait_one(TIMEOUT).unwrap().is_ok());
    }
    for i in 0..8 {
        assert_eq!(smr.read_u64(i * 8).unwrap(), i as u64);
    }
    assert_eq!(server.qp_count(), 8);
}

#[test]
fn destroyed_qp_is_gone_and_cache_invalidated() {
    let p = pair(Transport::Rc);
    let qpn = p.sqp.qpn();
    // Seed the cache with the QP's state.
    p.cmr.write(0, b"x").unwrap();
    p.cqp
        .post_send(SendWr::write(
            WrId(1),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 1,
            },
            RemoteAddr {
                rkey: p.smr.rkey(),
                addr: p.smr.addr(),
            },
        ))
        .unwrap();
    assert!(p.ccq.wait_one(TIMEOUT).unwrap().is_ok());
    assert!(p
        .server
        .cache()
        .lock()
        .contains(flock_fabric::qp_state_key(p.server.id().0, qpn.0)));
    // Destroy: lookup fails, cache entry gone, double-destroy is false.
    assert!(p.server.destroy_qp(qpn));
    assert!(p.server.qp(qpn).is_none());
    assert!(!p
        .server
        .cache()
        .lock()
        .contains(flock_fabric::qp_state_key(p.server.id().0, qpn.0)));
    assert!(!p.server.destroy_qp(qpn));
    assert_eq!(p.server.qp_count(), 0);
}

#[test]
fn deregistered_mr_rejects_remote_access() {
    let p = pair(Transport::Rc);
    let rkey = p.smr.rkey();
    assert!(p.server.mrs().deregister(p.smr.lkey()));
    assert!(!p.server.mrs().deregister(p.smr.lkey()));
    p.cmr.write(0, b"y").unwrap();
    p.cqp
        .post_send(SendWr::write(
            WrId(2),
            Sge {
                lkey: p.cmr.lkey(),
                addr: p.cmr.addr(),
                len: 1,
            },
            RemoteAddr {
                rkey,
                addr: p.smr.addr(),
            },
        ))
        .unwrap();
    let c = p.ccq.wait_one(TIMEOUT).unwrap();
    assert_eq!(c.status, flock_fabric::CqStatus::RemoteAccessError);
}

/// A one-byte write and a one-byte read between `p`'s two regions.
fn write_and_read(p: &Pair) -> [SendWr; 2] {
    let local = Sge {
        lkey: p.cmr.lkey(),
        addr: p.cmr.addr(),
        len: 1,
    };
    let remote = RemoteAddr {
        rkey: p.smr.rkey(),
        addr: p.smr.addr(),
    };
    [
        SendWr::write(WrId(1), local, remote),
        SendWr::read(WrId(2), local, remote),
    ]
}

/// In the lab, where nothing runs between a post and the next line, post
/// `wr` twice on a fresh pair and `break_it` right after the second
/// post, before the NIC executes it (having resolved every object the
/// verb names for the first). Returns both completions' statuses and the
/// posting QP's state.
fn broken_between_post_and_execution(
    verb: usize,
    break_it: impl Fn(&Pair) + Send + Sync,
) -> (CqStatus, CqStatus, QpState) {
    flock_sim::VirtualLab::run(|| {
        let p = pair(Transport::Rc);
        let wr = write_and_read(&p)[verb];
        p.cqp.post_send(wr).unwrap();
        let first = p.ccq.wait_one(TIMEOUT).unwrap().status;
        p.cqp.post_send(wr).unwrap();
        break_it(&p);
        let second = p.ccq.wait_one(TIMEOUT).unwrap().status;
        (first, second, p.cqp.state())
    })
}

#[test]
fn a_peer_qp_destroyed_between_post_and_execution_fails_the_verb() {
    for verb in 0..2 {
        let got = broken_between_post_and_execution(verb, |p| {
            assert!(p.server.destroy_qp(p.sqp.qpn()));
        });
        let failed = (CqStatus::Success, CqStatus::RemoteAccessError, QpState::Error);
        assert_eq!(got, failed, "verb {verb}");
    }
}

#[test]
fn a_region_deregistered_between_post_and_execution_fails_the_verb() {
    for verb in 0..2 {
        let got = broken_between_post_and_execution(verb, |p| {
            assert!(p.server.mrs().deregister(p.smr.lkey()));
        });
        let failed = (CqStatus::Success, CqStatus::RemoteAccessError, QpState::Error);
        assert_eq!(got, failed, "verb {verb}");
    }
}

/// An inline write of eight `byte`s to `p`'s server region at `off`,
/// with `wr_id`. Its local SGE names no region: the NIC ignores it.
fn inline_write(p: &Pair, wr_id: u64, off: u64, byte: u8) -> flock_fabric::Result<()> {
    let local = Sge {
        lkey: flock_fabric::Lkey(0),
        addr: 0,
        len: 8,
    };
    let remote = RemoteAddr {
        rkey: p.smr.rkey(),
        addr: p.smr.addr() + off,
    };
    let mut payload = p.cqp.inline_buf(8);
    payload.fill(byte);
    p.cqp
        .post_inline(SendWr::write(WrId(wr_id), local, remote), payload)
}

/// In the lab, on a fresh pair, run `lead`, post an inline write of `A`s
/// at offset 0 and `break_it` before the NIC executes anything. Then collect the first lease's completions, start a new
/// lease on both QPs and write `B`s inline at offset 8. Returns the
/// server region's first 16 bytes, the first lease's completions and
/// the status of the new lease's write.
fn inline_write_broken_then_next_lease(
    lead: impl Fn(&Pair) + Send + Sync,
    break_it: impl Fn(&Pair) + Send + Sync,
) -> (Vec<u8>, Vec<(WrId, CqStatus)>, CqStatus) {
    flock_sim::VirtualLab::run(|| {
        let p = pair(Transport::Rc);
        lead(&p);
        inline_write(&p, 1, 0, b'A').unwrap();
        break_it(&p);
        let mut first = Vec::new();
        while let Some(c) = p.ccq.wait_one(Duration::from_millis(1)) {
            first.push((c.wr_id, c.status));
        }
        p.cqp.reset();
        p.sqp.reset();
        p.fabric.connect(&p.cqp, &p.sqp).unwrap();
        inline_write(&p, 2, 8, b'B').unwrap();
        let next = p.ccq.wait_one(TIMEOUT).unwrap();
        assert_eq!(next.wr_id, WrId(2));
        (p.smr.read_vec(0, 16).unwrap(), first, next.status)
    })
}

#[test]
fn an_inline_write_of_a_reset_lease_lands_nothing() {
    let (bytes, first, next) = inline_write_broken_then_next_lease(|_| {}, |p| p.cqp.reset());
    assert_eq!(bytes, [[0u8; 8], [b'B'; 8]].concat());
    assert!(first.is_empty(), "a reset lease completed {first:?}");
    assert_eq!(next, CqStatus::Success);
}

#[test]
fn an_inline_write_behind_an_error_lands_nothing() {
    // A write to a key nobody registered, posted first: it moves the QP
    // to `Error` after the inline write is posted and before it executes.
    let bad = |p: &Pair| {
        let local = Sge {
            lkey: p.cmr.lkey(),
            addr: p.cmr.addr(),
            len: 8,
        };
        let remote = RemoteAddr {
            rkey: Rkey(999),
            addr: 0,
        };
        p.cqp
            .post_send(SendWr::write(WrId(9), local, remote))
            .unwrap();
    };
    let (bytes, first, next) = inline_write_broken_then_next_lease(bad, |_| {});
    assert_eq!(bytes, [[0u8; 8], [b'B'; 8]].concat());
    let flushed = [
        (WrId(9), CqStatus::RemoteAccessError),
        (WrId(1), CqStatus::WorkRequestFlushed),
    ];
    assert_eq!(first, flushed);
    assert_eq!(next, CqStatus::Success);
}

#[test]
fn an_inline_write_must_be_a_write_of_its_payload() {
    let p = pair(Transport::Rc);
    let [write, read] = write_and_read(&p);
    let wrong = [(write, p.cqp.inline_buf(2)), (read, p.cqp.inline_buf(1))];
    for (wr, payload) in wrong {
        assert!(matches!(
            p.cqp.post_inline(wr, payload),
            Err(FabricError::UnsupportedVerb { .. })
        ));
    }
    inline_write(&p, 3, 0, b'C').unwrap();
    assert!(p.ccq.wait_one(TIMEOUT).unwrap().is_ok());
    assert_eq!(p.smr.read_vec(0, 8).unwrap(), [b'C'; 8]);
}

#[test]
fn multi_lane_engine_preserves_per_qp_fifo() {
    // 4 lanes, 8 QPs fanned in to one server node: writes on each QP
    // must land in posting order (per-QP FIFO), regardless of which
    // lane executes which QP.
    let mut cfg = FabricConfig::default();
    cfg.nic_lanes = 4;
    let fabric = Fabric::new(cfg);
    let server = fabric.add_node("server");
    let scq = server.create_cq(1024);
    let smr = server.register_mr(1 << 16, Access::REMOTE_ALL);
    let mut clients = Vec::new();
    for i in 0..8u64 {
        let c = fabric.add_node(&format!("c{i}"));
        let mr = c.register_mr(4096, Access::LOCAL);
        let cq = c.create_cq(256);
        let qp = c.create_qp(Transport::Rc, &cq, &cq);
        let sqp = server.create_qp(Transport::Rc, &scq, &scq);
        fabric.connect(&qp, &sqp).unwrap();
        clients.push((c, mr, cq, qp));
    }
    // Each client posts 64 sequenced writes to its own slot; only the
    // last is signaled, so completion implies all earlier writes (FIFO)
    // have executed.
    for (i, (_c, mr, _cq, qp)) in clients.iter().enumerate() {
        for n in 0..64u64 {
            mr.write_u64((n as usize % 16) * 8, (i as u64) << 32 | n)
                .unwrap();
            let mut wr = SendWr::write(
                WrId(n),
                Sge {
                    lkey: mr.lkey(),
                    addr: mr.addr() + (n % 16) * 8,
                    len: 8,
                },
                RemoteAddr {
                    rkey: smr.rkey(),
                    addr: smr.addr() + (i as u64) * 8,
                },
            );
            if n != 63 {
                wr = wr.unsignaled();
            }
            qp.post_send(wr).unwrap();
        }
    }
    for (i, (_c, _mr, cq, _qp)) in clients.iter().enumerate() {
        assert!(cq.wait_one(TIMEOUT).unwrap().is_ok());
        // FIFO: the final value in the server slot is the last write.
        assert_eq!(smr.read_u64(i * 8).unwrap(), (i as u64) << 32 | 63);
    }
}

// ---- Elastic control plane: QP pool + MR cache ----

fn elastic_fabric() -> Fabric {
    let mut cfg = FabricConfig::default();
    cfg.qpool.enabled = true;
    cfg.qpool.capacity = 8;
    cfg.mr_cache.enabled = true;
    cfg.mr_cache.capacity = 8;
    Fabric::new(cfg)
}

#[test]
fn warm_lease_recycles_the_same_qp() {
    let fabric = elastic_fabric();
    let node = fabric.add_node("n");
    let cq1 = node.create_cq(16);
    let qp = node.lease_qp(Transport::Rc, &cq1, &cq1);
    let qpn = qp.qpn();
    assert_eq!(node.pool().stats().cold.load(std::sync::atomic::Ordering::Relaxed), 1);
    node.release_qp(&qp);
    assert_eq!(node.pool().len(), 1);
    drop(qp);
    let cq2 = node.create_cq(16);
    let qp2 = node.lease_qp(Transport::Rc, &cq2, &cq2);
    assert_eq!(qp2.qpn(), qpn, "pool recycles the QP, preserving its QPN");
    assert_eq!(qp2.state(), QpState::Init);
    assert!(qp2.remote().is_none());
    assert_eq!(node.pool().stats().warm.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The recycled QP is rebound to the new lessee's CQ.
    assert!(std::sync::Arc::ptr_eq(&qp2.send_cq(), &cq2));
}

#[test]
fn stale_work_from_a_previous_lease_is_dropped() {
    let fabric = elastic_fabric();
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let amr = a.register_mr(4096, Access::LOCAL);
    let bmr = b.register_mr(4096, Access::REMOTE_ALL);
    let acq = a.create_cq(16);
    let bcq = b.create_cq(16);
    let aqp = a.lease_qp(Transport::Rc, &acq, &acq);
    let bqp = b.create_qp(Transport::Rc, &bcq, &bcq);
    flock_fabric::connect_qps(&aqp, &bqp).unwrap();
    amr.write(0, b"first").unwrap();
    let wr = SendWr::write(
        WrId(1),
        Sge { lkey: amr.lkey(), addr: amr.addr(), len: 5 },
        RemoteAddr { rkey: bmr.rkey(), addr: bmr.addr() },
    );
    aqp.post_send(wr).unwrap();
    assert!(acq.wait_one(TIMEOUT).unwrap().is_ok());
    // Reset bumps the epoch: a WR stamped with the old epoch that the
    // engine sees afterwards must be silently dropped, not executed
    // against whatever the QP is connected to next.
    a.release_qp(&aqp);
    let aqp2 = a.lease_qp(Transport::Rc, &acq, &acq);
    assert!(std::sync::Arc::ptr_eq(&aqp, &aqp2), "recycled");
    let b2cq = b.create_cq(16);
    let b2qp = b.create_qp(Transport::Rc, &b2cq, &b2cq);
    flock_fabric::connect_qps(&aqp2, &b2qp).unwrap();
    // Posting on the new lease works; the old lease's epoch is gone.
    amr.write(0, b"again").unwrap();
    let wr2 = SendWr::write(
        WrId(2),
        Sge { lkey: amr.lkey(), addr: amr.addr(), len: 5 },
        RemoteAddr { rkey: bmr.rkey(), addr: bmr.addr() },
    );
    aqp2.post_send(wr2).unwrap();
    assert!(acq.wait_one(TIMEOUT).unwrap().is_ok());
    assert_eq!(bmr.read_vec(0, 5).unwrap(), b"again");
}

#[test]
fn disabled_pool_destroys_on_release() {
    let fabric = Fabric::with_defaults();
    let node = fabric.add_node("n");
    let cq = node.create_cq(16);
    let qp = node.lease_qp(Transport::Rc, &cq, &cq);
    let qpn = qp.qpn();
    node.release_qp(&qp);
    assert_eq!(node.pool().len(), 0);
    assert!(node.qp(qpn).is_none(), "destroyed, not pooled");
}

#[test]
fn pool_capacity_bounds_recycling() {
    let fabric = elastic_fabric(); // capacity 8
    let node = fabric.add_node("n");
    let cq = node.create_cq(16);
    let qps: Vec<_> = (0..12).map(|_| node.lease_qp(Transport::Rc, &cq, &cq)).collect();
    for qp in &qps {
        node.release_qp(qp);
    }
    assert_eq!(node.pool().len(), 8);
    assert_eq!(
        node.pool().stats().discarded.load(std::sync::atomic::Ordering::Relaxed),
        4
    );
}

#[test]
fn prewarm_and_refill_counters() {
    let fabric = elastic_fabric();
    let node = fabric.add_node("n");
    assert_eq!(node.prewarm_qps(4), 4);
    assert_eq!(node.pool().len(), 4);
    let cq = node.create_cq(16);
    let qp = node.lease_qp(Transport::Rc, &cq, &cq);
    assert_eq!(node.pool().stats().warm.load(std::sync::atomic::Ordering::Relaxed), 1);
    node.release_qp(&qp);
}

#[test]
fn mr_cache_reuses_and_zeroes() {
    let fabric = elastic_fabric();
    let node = fabric.add_node("n");
    let mr = node.acquire_mr(1024, Access::REMOTE_WRITE);
    assert_eq!(node.mr_cache().lock().misses(), 1);
    mr.write(0, b"dirty").unwrap();
    let lkey = mr.lkey();
    node.release_mr(&mr);
    drop(mr);
    let mr2 = node.acquire_mr(1024, Access::REMOTE_WRITE);
    assert_eq!(mr2.lkey(), lkey, "same registration reused");
    assert_eq!(node.mr_cache().lock().hits(), 1);
    // Reuse zeroes the buffer: stale ring canaries must not survive. The
    // zeroing drops the bytes, which commit again at the next write.
    assert_eq!(mr2.read_vec(0, 1024).unwrap(), vec![0u8; 1024]);
    assert!(!mr2.committed(), "a recycled region holds its old bytes");
    // A different layout still registers cold.
    let other = node.acquire_mr(2048, Access::REMOTE_WRITE);
    assert_ne!(other.lkey(), lkey);
    assert_eq!(node.mr_cache().lock().misses(), 2);
}
