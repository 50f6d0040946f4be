//! Per-tenant accounting for the receiver-side QP scheduler.
//!
//! A *tenant* is a group of senders that share one isolation domain: the
//! gateway maps every edge session to a tenant, and each of the tenant's
//! Flock connections (senders) carries that tenant id through the
//! connect handshake. The scheduler keeps tenancy a first-class,
//! queryable property:
//!
//! * **Share caps** — a tenant's active-QP total can be capped below
//!   what pure utilization-proportional redistribution would give it
//!   ([`crate::sched::qp::QpScheduler::set_tenant_cap`]). An aggressor
//!   tenant then cannot convert traffic volume into AQP share, which is
//!   the RDMAvisor-style isolation the gateway relies on.
//! * **Counters** — issued/completed request counts per tenant, updated
//!   lock-free from the server's dispatch path through the shared
//!   [`TenantCounters`] handles (the scheduler mutex never sits on the
//!   per-request path).
//! * **Fairness snapshot** — a point-in-time view of per-tenant shares
//!   and counters plus Jain's fairness index, the number the tenant
//!   bench and the isolation tests assert on.
//!
//! Counters are monotone statistics ([`Counter`]s): readers may observe
//! `issued` and `completed` from slightly different instants, so
//! [`TenantCounters::queued`] saturates rather than underflows.

use std::collections::BTreeMap;
use std::sync::Arc;

use flock_sync::Counter;
use parking_lot::RwLock;

/// The tenant every sender belongs to unless the connect handshake says
/// otherwise.
pub(crate) const DEFAULT_TENANT: u32 = 0;

/// Lock-free per-tenant request counters, shared between the scheduler
/// (which owns the registry) and the server's dispatch path (which
/// holds one `Arc` per connection and bumps counters without any lock).
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests that entered dispatch so far.
    pub issued: Counter,
    /// Responses flushed so far.
    pub completed: Counter,
}

impl TenantCounters {
    /// Requests currently inside the server (issued minus completed,
    /// saturating: the two counters are read at distinct instants).
    pub fn queued(&self) -> u64 {
        self.issued.get().saturating_sub(self.completed.get())
    }
}

/// Registry of per-tenant counter blocks. Creation is rare (first
/// connect of a tenant); lookups after that return the shared `Arc`, so
/// the dispatch hot path never touches the registry lock.
#[derive(Debug, Default)]
pub struct TenantAccounting {
    tenants: RwLock<BTreeMap<u32, Arc<TenantCounters>>>,
}

impl TenantAccounting {
    /// The counter block for `tenant`, created on first use.
    pub(crate) fn counters(&self, tenant: u32) -> Arc<TenantCounters> {
        if let Some(c) = self.tenants.read().get(&tenant) {
            return Arc::clone(c);
        }
        let mut map = self.tenants.write();
        Arc::clone(map.entry(tenant).or_default())
    }

    /// The counter block for `tenant`, if it has ever been seen.
    pub fn get(&self, tenant: u32) -> Option<Arc<TenantCounters>> {
        self.tenants.read().get(&tenant).cloned()
    }

    /// Tenant ids with counter blocks, in ascending order.
    pub(crate) fn tenant_ids(&self) -> Vec<u32> {
        self.tenants.read().keys().copied().collect()
    }
}

/// One tenant's row in a [`FairnessSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// The tenant id.
    pub tenant: u32,
    /// Registered senders (connections) of this tenant.
    pub senders: usize,
    /// Active QPs currently held across those senders.
    pub active_qps: usize,
    /// Configured active-QP cap, if any.
    pub cap: Option<usize>,
    /// `active_qps` as a fraction of all active QPs (0 when idle).
    pub share: f64,
    /// Requests that entered dispatch.
    pub issued: u64,
    /// Responses flushed.
    pub completed: u64,
    /// In-flight requests (`issued - completed`, saturating).
    pub queued: u64,
}

/// Point-in-time view of per-tenant shares and counters — the
/// scheduler's answer to "is isolation holding right now?".
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessSnapshot {
    /// The scheduler's global active-QP budget.
    pub max_aqp: usize,
    /// Active QPs across all tenants at snapshot time.
    pub total_active: usize,
    /// Per-tenant rows, ascending by tenant id.
    pub tenants: Vec<TenantRow>,
}

impl FairnessSnapshot {
    /// Jain's fairness index over per-tenant active-QP shares.
    pub fn jains_active(&self) -> f64 {
        jains_index(self.tenants.iter().map(|t| t.active_qps as f64))
    }

    /// Jain's fairness index over per-tenant completed-request counts.
    pub fn jains_completed(&self) -> f64 {
        jains_index(self.tenants.iter().map(|t| t.completed as f64))
    }

    /// The row for `tenant`, if present.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantRow> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`. 1.0 is perfectly fair,
/// `1/n` is one allocation monopolizing everything. An empty or all-zero
/// population is vacuously fair (1.0).
pub fn jains_index(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut n, mut sum, mut sq) = (0u64, 0.0f64, 0.0f64);
    for x in xs {
        n += 1;
        sum += x;
        sq += x * x;
    }
    if n == 0 || sq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate_and_accumulate() {
        let c = TenantCounters::default();
        assert_eq!(c.queued(), 0);
        c.issued.add(5);
        assert_eq!(c.queued(), 5);
        c.completed.add(3);
        assert_eq!((c.issued.get(), c.completed.get(), c.queued()), (5, 3, 2));
        // A reader racing issued/completed must never underflow.
        c.completed.add(10);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn accounting_returns_shared_blocks() {
        let acct = TenantAccounting::default();
        let a = acct.counters(7);
        let b = acct.counters(7);
        a.issued.add(1);
        assert_eq!(b.issued.get(), 1, "same tenant shares one block");
        assert!(acct.get(8).is_none());
        acct.counters(3);
        assert_eq!(acct.tenant_ids(), vec![3, 7]);
    }

    #[test]
    fn jains_index_known_values() {
        assert_eq!(jains_index([].into_iter()), 1.0);
        assert_eq!(jains_index([0.0, 0.0].into_iter()), 1.0);
        assert_eq!(jains_index([4.0, 4.0, 4.0].into_iter()), 1.0);
        // One tenant hogging everything: 1/n.
        let j = jains_index([9.0, 0.0, 0.0].into_iter());
        assert!((j - 1.0 / 3.0).abs() < 1e-12, "{j}");
        // Mild imbalance stays high.
        let j = jains_index([3.0, 4.0, 3.0, 4.0].into_iter());
        assert!(j > 0.97, "{j}");
    }
}
