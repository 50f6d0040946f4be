//! The network pipeline: client NIC → link → wire → peer link → peer NIC,
//! with connection-cache charging at the server NIC — plus the central
//! delivery dispatcher.

use flock_sim::{Ns, Sim};

use crate::world::{ReqId, World};

/// A message travelling through the modelled network.
#[derive(Debug, Clone)]
pub(crate) enum NetMsg {
    /// A (possibly coalesced) request message on a QP lane.
    Request {
        /// Source client.
        client: usize,
        /// Destination server.
        server: usize,
        /// QP lane index at the client (per server).
        lane: usize,
        /// The coalesced requests.
        reqs: Vec<ReqId>,
    },
    /// The coalesced response message.
    Response {
        /// Destination client.
        client: usize,
        /// Source server.
        server: usize,
        /// QP lane.
        lane: usize,
        /// Requests answered.
        reqs: Vec<ReqId>,
    },
    /// A credit renewal (write-with-imm) carrying the median degree.
    Renewal {
        /// Source client.
        client: usize,
        /// Destination server.
        server: usize,
        /// QP lane.
        lane: usize,
        /// Reported median coalescing degree.
        degree: u16,
    },
    /// A credit grant / decline / (re)activation notice.
    Grant {
        /// Destination client.
        client: usize,
        /// Source server.
        server: usize,
        /// QP lane.
        lane: usize,
        /// `Some(n)`: n credits (QP active); `None`: deactivated.
        grant: Option<u32>,
    },
    /// A UD request packet (one request per packet).
    UdReq {
        /// Source client.
        client: usize,
        /// Destination server.
        server: usize,
        /// The request.
        req: ReqId,
    },
    /// A UD response packet.
    UdResp {
        /// Destination client.
        client: usize,
        /// Source server.
        server: usize,
        /// The request answered.
        req: ReqId,
    },
    /// A one-sided read request (raw read or txn validation).
    ReadReq {
        /// Source client.
        client: usize,
        /// Destination server.
        server: usize,
        /// NIC cache key for the QP carrying the read.
        qp_key: u64,
        /// The request.
        req: ReqId,
    },
    /// The read's data coming back.
    ReadResp {
        /// Destination client.
        client: usize,
        /// Source server.
        server: usize,
        /// The request.
        req: ReqId,
    },
}

impl NetMsg {
    fn endpoints(&self) -> (usize, usize) {
        match *self {
            NetMsg::Request { client, server, .. }
            | NetMsg::Response { client, server, .. }
            | NetMsg::Renewal { client, server, .. }
            | NetMsg::Grant { client, server, .. }
            | NetMsg::UdReq { client, server, .. }
            | NetMsg::UdResp { client, server, .. }
            | NetMsg::ReadReq { client, server, .. }
            | NetMsg::ReadResp { client, server, .. } => (client, server),
        }
    }

    fn is_client_to_server(&self) -> bool {
        matches!(
            self,
            NetMsg::Request { .. }
                | NetMsg::Renewal { .. }
                | NetMsg::UdReq { .. }
                | NetMsg::ReadReq { .. }
        )
    }
}

/// Wire serialization time only (no propagation): used for link stations.
fn serialize_time(w: &World, bytes: usize) -> Ns {
    let packets = w.cost.packets(bytes);
    let total = bytes + packets * w.cost.packet_overhead_bytes;
    Ns((total as u64 * w.cost.wire_ns_per_kb) / 1024)
}

/// Send `msg` of `bytes` through the full pipeline. `qp_key` banks the NIC
/// processing units and keys the *server* connection cache (`None` uses a
/// shared-key UD path that never thrashes).
pub(crate) fn transmit(
    w: &mut World,
    sim: &mut Sim<World>,
    qp_key: Option<u64>,
    bytes: usize,
    msg: NetMsg,
) {
    let now = sim.now();
    let (client, server) = msg.endpoints();
    let c2s = msg.is_client_to_server();
    // UD traffic has no per-connection NIC state (no cache pressure), but
    // it still spreads across the NIC's processing units: bank by the
    // originating thread.
    let key = qp_key.unwrap_or_else(|| match &msg {
        NetMsg::UdReq { req, .. } | NetMsg::UdResp { req, .. } => {
            0x8000_0000_0000_0000 | ((client as u64) << 16) | w.reqs[*req].thread as u64
        }
        _ => u64::MAX,
    });
    let cacheable = qp_key.is_some();

    let read_extra = match &msg {
        NetMsg::ReadReq { .. } | NetMsg::ReadResp { .. } => Ns(w.cost.nic_read_extra_ns),
        _ => Ns::ZERO,
    };
    // Source NIC. The client side has few QPs: always a cache hit. The
    // server side pays its cache on both rx and tx of connected QPs.
    let (src_nic_end, _hit) = if c2s {
        let (_, end) =
            w.clients[client]
                .nic
                .admit(key, now, w.cost.nic_service(bytes, true) + read_extra);
        (end, true)
    } else {
        let hit = if cacheable {
            w.servers[server].cache.access(key)
        } else {
            true
        };
        let (_, end) =
            w.servers[server]
                .nic
                .admit(key, now, w.cost.nic_service(bytes, hit) + read_extra);
        (end, hit)
    };

    // Source link.
    let ser = serialize_time(w, bytes);
    let (_, tx_end) = if c2s {
        w.clients[client].tx_link.admit(src_nic_end, ser)
    } else {
        w.servers[server].tx_link.admit(src_nic_end, ser)
    };

    if w.warmup <= now && c2s {
        w.stats.messages += 1;
        w.stats.packets += w.cost.packets(bytes) as u64;
    }

    // Propagation, then the destination side continues in a fresh event so
    // destination resources are admitted in arrival-time order.
    let arrival = tx_end + Ns(w.cost.wire_propagation_ns);
    sim.at(arrival, move |w: &mut World, sim| {
        arrive(w, sim, key, cacheable, bytes, msg);
    });
}

/// Destination-side half of the pipeline.
fn arrive(
    w: &mut World,
    sim: &mut Sim<World>,
    key: u64,
    cacheable: bool,
    bytes: usize,
    msg: NetMsg,
) {
    let now = sim.now();
    let (client, server) = msg.endpoints();
    let c2s = msg.is_client_to_server();
    let read_extra = match &msg {
        NetMsg::ReadReq { .. } | NetMsg::ReadResp { .. } => Ns(w.cost.nic_read_extra_ns),
        _ => Ns::ZERO,
    };
    let ser = serialize_time(w, bytes);
    let (_, rx_end) = if c2s {
        w.servers[server].rx_link.admit(now, ser)
    } else {
        w.clients[client].rx_link.admit(now, ser)
    };
    // Destination NIC: the server side pays the connection cache.
    let nic_end = if c2s {
        let hit = if cacheable {
            w.servers[server].cache.access(key)
        } else {
            true
        };
        let (_, end) =
            w.servers[server]
                .nic
                .admit(key, rx_end, w.cost.nic_service(bytes, hit) + read_extra);
        end
    } else {
        let (_, end) =
            w.clients[client]
                .nic
                .admit(key, rx_end, w.cost.nic_service(bytes, true) + read_extra);
        end
    };
    sim.at(nic_end, move |w: &mut World, sim| deliver(w, sim, msg));
}

/// Route a fully delivered message to its model.
fn deliver(w: &mut World, sim: &mut Sim<World>, msg: NetMsg) {
    match msg {
        NetMsg::Request {
            client,
            server,
            lane,
            reqs,
        } => crate::server::on_request_message(w, sim, client, server, lane, reqs),
        NetMsg::Response {
            client,
            server,
            lane,
            reqs,
        } => crate::client::on_response_message(w, sim, client, server, lane, reqs),
        NetMsg::Renewal {
            client,
            server,
            lane,
            degree,
        } => crate::server::on_renewal(w, sim, client, server, lane, degree),
        NetMsg::Grant {
            client,
            server,
            lane,
            grant,
        } => crate::client::on_grant(w, sim, client, server, lane, grant),
        NetMsg::UdReq {
            client,
            server,
            req,
        } => crate::server::on_ud_request(w, sim, client, server, req),
        NetMsg::UdResp { client, req, .. } => crate::client::on_ud_response(w, sim, client, req),
        NetMsg::ReadReq {
            client,
            server,
            qp_key,
            req,
        } => {
            // One-sided: the server CPU is never involved. The NIC already
            // charged the inbound processing; turn the data around.
            let resp_bytes = w.reqs[req].resp_size.max(1);
            transmit(
                w,
                sim,
                Some(qp_key),
                resp_bytes,
                NetMsg::ReadResp {
                    client,
                    server,
                    req,
                },
            );
        }
        NetMsg::ReadResp { client, req, .. } => {
            crate::client::on_read_complete(w, sim, client, req);
        }
    }
}
