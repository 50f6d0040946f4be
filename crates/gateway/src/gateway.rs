//! The gateway: tenant-keyed shared backend connections plus session
//! lifecycle.
//!
//! Topology (ROADMAP item 1, RDMAvisor shape): many edge sessions fan
//! into *few* Flock connections — one shared [`ConnectionHandle`] per
//! tenant, each with a small lane count — so the backend's QP load
//! scales with tenant count, not client count (Flock's thesis). The
//! tenant id rides the connect handshake, which lets the backend's
//! `QpScheduler` group senders by tenant, enforce per-tenant AQP share
//! caps, and account issued/completed requests per tenant.

use std::collections::BTreeMap;
use std::sync::Arc;

use flock_core::client::{ConnectionHandle, HandleConfig};
use flock_core::domain::FlockDomain;
use flock_core::error::Result;
use flock_fabric::Node;
use parking_lot::Mutex;

use crate::edge::EdgeSession;
use crate::proto::WireProtocol;
use crate::tenant::TenantRegistry;

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Template for each tenant's shared backend connection; the
    /// `tenant` field is overwritten per tenant. `mem_threads` bounds
    /// how many sessions a tenant can open over the connection's
    /// lifetime (session lanes are registered threads and thread slots
    /// are not recycled).
    pub handle: HandleConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        let mut handle = HandleConfig::default();
        // Few shared QPs per tenant — the whole point of the topology.
        handle.n_qps = 2;
        handle.mem_threads = 64;
        GatewayConfig { handle }
    }
}

/// The protocol gateway: maps tenants to shared backend connections and
/// opens per-client edge sessions over them.
pub struct Gateway {
    domain: Arc<FlockDomain>,
    node: Arc<Node>,
    server_name: String,
    cfg: GatewayConfig,
    registry: TenantRegistry,
    /// One shared backend connection per tenant, created on first
    /// session. `BTreeMap` keeps teardown order deterministic.
    conns: Mutex<BTreeMap<u32, ConnectionHandle>>,
}

impl Gateway {
    /// Create a gateway on `node` that forwards to the backend server
    /// listening as `server_name`.
    pub fn new(
        domain: Arc<FlockDomain>,
        node: Arc<Node>,
        server_name: &str,
        cfg: GatewayConfig,
    ) -> Gateway {
        Gateway {
            domain,
            node,
            server_name: server_name.to_string(),
            cfg,
            registry: TenantRegistry::default(),
            conns: Mutex::new(BTreeMap::new()),
        }
    }

    /// The session → tenant registry.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Open an edge session for `tenant` speaking `proto`. The tenant's
    /// shared backend connection is dialed on first use.
    pub fn open_session(&self, tenant: u32, proto: Arc<dyn WireProtocol>) -> Result<EdgeSession> {
        let thread = {
            let mut conns = self.conns.lock();
            let handle = match conns.entry(tenant) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(v) => {
                    let mut cfg = self.cfg.handle.clone();
                    cfg.tenant = tenant;
                    v.insert(ConnectionHandle::connect(
                        &self.domain,
                        &self.node,
                        &self.server_name,
                        cfg,
                    )?)
                }
            };
            handle.register_thread()
        };
        let session = self.registry.open(tenant);
        Ok(EdgeSession::new(session, tenant, proto, thread))
    }

    /// Close an edge session (unregister it from the tenant registry).
    /// The tenant's shared connection stays up for other sessions.
    pub fn close_session(&self, session: &EdgeSession) {
        self.registry.close(session.id());
    }

    /// Tenants with a live backend connection, ascending.
    pub fn connected_tenants(&self) -> Vec<u32> {
        self.conns.lock().keys().copied().collect()
    }

    /// Gracefully close every tenant connection (detach from the
    /// backend, recycle QPs/MRs). Call after the last session quiesced;
    /// errors from individual detaches surface after all were tried.
    pub fn close(&self) -> Result<()> {
        let mut first_err = None;
        let mut conns = self.conns.lock();
        while let Some((_tenant, mut handle)) = conns.pop_first() {
            if let Err(e) = handle.close() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}
