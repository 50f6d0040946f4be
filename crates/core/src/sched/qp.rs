//! Receiver-side QP scheduling (paper §5.1).
//!
//! The server bounds the number of QPs it actively serves (`MAX_AQP`,
//! default 256 — chosen from the Figure 2(a) thrash point) and
//! redistributes active QPs across senders every scheduling interval in
//! proportion to utilization:
//!
//! ```text
//!            ⎧ MAX_AQP · U_i / Σ_k U_k   if U_i > 0
//!   AQP_i =  ⎨
//!            ⎩ 1                          otherwise (dormant)
//! ```
//!
//! where `U_{i,j}` is the sum of coalescing degrees reported in credit
//! renewal requests on QP `j` of sender `i` since the last redistribution,
//! and `U_i = Σ_j U_{i,j}`. Higher utilization means either more QP
//! contention (higher coalescing degree) or more frequent renewals.
//!
//! **Multi-tenancy** (gateway topology, DESIGN.md §5h): every sender
//! belongs to a tenant ([`crate::sched::tenant::DEFAULT_TENANT`] unless
//! the connect handshake says otherwise). Redistribution additionally
//! enforces per-tenant active-QP *share caps* — a capped tenant's
//! senders cannot collectively hold more active QPs than the cap, no
//! matter how much utilization they report — and the whole tenancy
//! state is queryable via [`QpScheduler::fairness_snapshot`].
//!
//! Concurrency discipline: the scheduler runs on the server's single
//! scheduling thread; senders only observe its decisions through credit
//! renewal responses. No atomics in the policy itself — the only shared
//! state is the per-tenant counter blocks ([`TenantAccounting`]), which
//! are plain monotone statistics updated outside the scheduler mutex.
//! Any future shared state on a model-checked path must go through
//! [`flock_sync`] so it stays visible to the loom checker (DESIGN.md).

use std::collections::BTreeMap;
use std::sync::Arc;

use super::tenant::{FairnessSnapshot, TenantAccounting, TenantRow, DEFAULT_TENANT};

/// Default bound on server-active QPs (paper `MAX_AQP`).
pub(crate) const DEFAULT_MAX_AQP: usize = 256;

/// Configuration for the QP scheduler.
#[derive(Debug, Clone)]
pub struct QpSchedulerConfig {
    /// Maximum number of QPs the server keeps active.
    pub max_aqp: usize,
    /// Credits granted per renewal.
    pub grant_size: u32,
}

impl Default for QpSchedulerConfig {
    fn default() -> Self {
        QpSchedulerConfig {
            max_aqp: DEFAULT_MAX_AQP,
            grant_size: crate::credit::DEFAULT_CREDITS,
        }
    }
}

/// Identifies one QP of one sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenderQp {
    /// Sender (client node) id.
    pub sender: u32,
    /// QP index within that sender's connection handle.
    pub qp: usize,
}

#[derive(Debug)]
struct SenderState {
    util: Vec<u64>,
    active: Vec<bool>,
    tenant: u32,
}

impl SenderState {
    fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }
    fn total_util(&self) -> u64 {
        self.util.iter().sum()
    }
}

/// The receiver-side QP scheduler.
#[derive(Debug)]
pub struct QpScheduler {
    cfg: QpSchedulerConfig,
    senders: BTreeMap<u32, SenderState>,
    /// Per-tenant active-QP caps (tenants absent here are uncapped).
    tenant_caps: BTreeMap<u32, usize>,
    /// Shared per-tenant request counters (see [`TenantAccounting`]).
    accounting: Arc<TenantAccounting>,
}

impl QpScheduler {
    /// Create a scheduler.
    pub fn new(cfg: QpSchedulerConfig) -> QpScheduler {
        QpScheduler {
            cfg,
            senders: BTreeMap::new(),
            tenant_caps: BTreeMap::new(),
            accounting: Arc::new(TenantAccounting::default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &QpSchedulerConfig {
        &self.cfg
    }

    /// The shared per-tenant counter registry. The server clones per
    /// tenant counter blocks out of this at accept time so the dispatch
    /// hot path never takes the scheduler mutex.
    pub(crate) fn accounting(&self) -> &Arc<TenantAccounting> {
        &self.accounting
    }

    /// Register a sender with `n_qps` connections under
    /// [`DEFAULT_TENANT`]. See [`QpScheduler::register_sender_tenant`].
    pub fn register_sender(&mut self, sender: u32, n_qps: usize) {
        self.register_sender_tenant(sender, n_qps, DEFAULT_TENANT);
    }

    /// Register a sender with `n_qps` connections on behalf of `tenant`.
    ///
    /// A new sender receives the average active-QP count of existing
    /// functioning senders (paper §5.1), clamped to `[1, n_qps]` and to
    /// the remaining global budget.
    pub fn register_sender_tenant(&mut self, sender: u32, n_qps: usize, tenant: u32) {
        assert!(n_qps >= 1);
        let used: usize = self.senders.values().map(|s| s.active_count()).sum();
        let initial = if self.senders.is_empty() {
            n_qps.min(self.cfg.max_aqp)
        } else {
            let avg = (used / self.senders.len()).max(1);
            avg.min(n_qps)
                .min((self.cfg.max_aqp - used.min(self.cfg.max_aqp)).max(1))
        };
        let mut active = vec![false; n_qps];
        for a in active.iter_mut().take(initial) {
            *a = true;
        }
        self.senders.insert(
            sender,
            SenderState {
                util: vec![0; n_qps],
                active,
                tenant,
            },
        );
        // Materialize the tenant's counter block so snapshots list the
        // tenant even before its first request.
        self.accounting.counters(tenant);
    }

    /// The tenant a sender was registered under.
    pub fn tenant_of(&self, sender: u32) -> Option<u32> {
        self.senders.get(&sender).map(|s| s.tenant)
    }

    /// Cap `tenant`'s total active QPs at `cap` from the next
    /// redistribution on. Floors still win: every registered sender
    /// keeps at least one active QP, so the effective cap is
    /// `max(cap, senders_of_tenant)`. Budget a cap frees flows to the
    /// other tenants' busy senders in the same redistribution.
    pub fn set_tenant_cap(&mut self, tenant: u32, cap: usize) {
        assert!(cap >= 1);
        self.tenant_caps.insert(tenant, cap);
    }

    /// Remove `tenant`'s active-QP cap.
    pub(crate) fn clear_tenant_cap(&mut self, tenant: u32) {
        self.tenant_caps.remove(&tenant);
    }

    /// The configured cap for `tenant`, if any.
    pub fn tenant_cap(&self, tenant: u32) -> Option<usize> {
        self.tenant_caps.get(&tenant).copied()
    }

    /// Active QPs currently held by `tenant`'s senders.
    pub fn tenant_active(&self, tenant: u32) -> usize {
        self.senders
            .values()
            .filter(|s| s.tenant == tenant)
            .map(|s| s.active_count())
            .sum()
    }

    /// Remove a departing sender, releasing its whole AQP share
    /// immediately (graceful teardown — the budget becomes available to
    /// the next redistribution without waiting for the sender to go
    /// dormant). Returns the QP indices that were active, so the caller
    /// can tear down their server-side contexts.
    pub fn unregister_sender(&mut self, sender: u32) -> Vec<usize> {
        match self.senders.remove(&sender) {
            Some(s) => s
                .active
                .iter()
                .enumerate()
                .filter(|(_, a)| **a)
                .map(|(qp, _)| qp)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Grow a sender by one lane (lazy QP materialization: the client
    /// attached a data QP after connecting). The new lane starts active
    /// when the global budget allows — it is about to carry traffic —
    /// and inactive otherwise (the next redistribution arbitrates).
    /// Returns the new lane's index, or `None` for unknown senders.
    pub fn add_qp(&mut self, sender: u32) -> Option<usize> {
        let used: usize = self.senders.values().map(|s| s.active_count()).sum();
        let tenant = self.senders.get(&sender)?.tenant;
        // A capped tenant's lazily attached lane must not start active
        // past the cap — it would hold stolen budget until the next
        // redistribution.
        let tenant_room = match self.tenant_caps.get(&tenant) {
            Some(&cap) => self.tenant_active(tenant) < cap,
            None => true,
        };
        let state = self.senders.get_mut(&sender)?;
        let qp = state.util.len();
        state.util.push(0);
        state.active.push(used < self.cfg.max_aqp && tenant_room);
        Some(qp)
    }

    /// Whether `qp` of `sender` is currently active.
    pub fn is_active(&self, sq: SenderQp) -> bool {
        self.senders
            .get(&sq.sender)
            .and_then(|s| s.active.get(sq.qp))
            .copied()
            .unwrap_or(false)
    }

    /// Total active QPs across all senders.
    pub fn total_active(&self) -> usize {
        self.senders.values().map(|s| s.active_count()).sum()
    }

    /// Handle a credit renewal request carrying the reported median
    /// coalescing degree. Returns `Some(grant)` if the QP is active and the
    /// request is granted, `None` if declined (QP deactivated).
    ///
    /// The reported degree (at least 1 for any renewal) accumulates into
    /// the QP's utilization for the next redistribution.
    pub fn on_credit_request(&mut self, sq: SenderQp, median_degree: u16) -> Option<u32> {
        let state = self.senders.get_mut(&sq.sender)?;
        let util = state.util.get_mut(sq.qp)?;
        *util += u64::from(median_degree.max(1));
        if state.active[sq.qp] {
            Some(self.cfg.grant_size)
        } else {
            None
        }
    }

    /// Redistribute active QPs (end of a scheduling interval).
    ///
    /// Returns the list of `(SenderQp, now_active)` *changes* relative to
    /// the previous assignment. Utilization counters reset afterwards.
    ///
    /// With tenant caps configured, a clamping pass runs after the
    /// proportional targets: capped tenants shed lanes (least-utilized
    /// senders first) down to their cap, and the freed budget flows to
    /// the other tenants' busy senders (most-utilized first). With no
    /// caps the arithmetic is exactly the uncapped paper policy.
    pub fn redistribute(&mut self) -> Vec<(SenderQp, bool)> {
        let total_util: u64 = self.senders.values().map(|s| s.total_util()).sum();
        let max_aqp = self.cfg.max_aqp as u64;
        let mut changes = Vec::new();

        // Pass 1: compute each sender's AQP_i target.
        let mut targets: Vec<(u32, usize)> = self
            .senders
            .iter()
            .map(|(&id, s)| {
                let u_i = s.total_util();
                let n_qps = s.util.len();
                let target = if u_i > 0 && total_util > 0 {
                    (((max_aqp * u_i) / total_util) as usize).clamp(1, n_qps)
                } else {
                    1 // dormant senders keep one QP for future traffic
                };
                (id, target)
            })
            .collect();

        // Pass 1b: enforce tenant caps, recycling what they free.
        if !self.tenant_caps.is_empty() {
            let surplus = self.clamp_tenant_targets(&mut targets);
            if surplus > 0 {
                self.grant_surplus(&mut targets, surplus);
            }
        }

        // Pass 2: apply — within a sender, keep the most-utilized QPs.
        for (id, target) in targets {
            let s = self.senders.get_mut(&id).expect("sender exists");
            let mut order: Vec<usize> = (0..s.util.len()).collect();
            order.sort_by(|&a, &b| s.util[b].cmp(&s.util[a]).then(a.cmp(&b)));
            let mut new_active = vec![false; s.util.len()];
            for &qp in order.iter().take(target) {
                new_active[qp] = true;
            }
            for (qp, &now_active) in new_active.iter().enumerate() {
                if now_active != s.active[qp] {
                    changes.push((SenderQp { sender: id, qp }, now_active));
                }
            }
            s.active = new_active;
            s.util.iter_mut().for_each(|u| *u = 0);
        }
        changes
    }

    /// Shrink each capped tenant's summed targets down to its cap,
    /// taking lanes from that tenant's least-utilized senders first
    /// (never below the 1-lane floor). Returns the total number of
    /// lanes reclaimed from *busy* senders — budget the proportional
    /// pass had allocated and the caps just freed.
    fn clamp_tenant_targets(&self, targets: &mut [(u32, usize)]) -> usize {
        let mut surplus = 0usize;
        for (&tenant, &cap) in &self.tenant_caps {
            let mut total: usize = targets
                .iter()
                .filter(|(id, _)| self.senders[id].tenant == tenant)
                .map(|&(_, t)| t)
                .sum();
            if total <= cap {
                continue;
            }
            // Victim order: least utilization first, id as tiebreak, so
            // the clamp is deterministic and spares the tenant's hottest
            // sender longest.
            let mut order: Vec<usize> = (0..targets.len())
                .filter(|&i| self.senders[&targets[i].0].tenant == tenant)
                .collect();
            order.sort_by_key(|&i| (self.senders[&targets[i].0].total_util(), targets[i].0));
            'shrink: while total > cap {
                let mut shrunk = false;
                for &i in &order {
                    if targets[i].1 > 1 {
                        targets[i].1 -= 1;
                        total -= 1;
                        if self.senders[&targets[i].0].total_util() > 0 {
                            surplus += 1;
                        }
                        shrunk = true;
                        if total <= cap {
                            break 'shrink;
                        }
                    }
                }
                if !shrunk {
                    break; // every sender at its floor: floors win
                }
            }
        }
        surplus
    }

    /// Hand `surplus` lanes to busy senders of tenants with headroom,
    /// most-utilized first, one lane per round (so the surplus spreads
    /// instead of dog-piling the single hottest sender).
    fn grant_surplus(&self, targets: &mut [(u32, usize)], mut surplus: usize) {
        let mut order: Vec<usize> = (0..targets.len())
            .filter(|&i| self.senders[&targets[i].0].total_util() > 0)
            .collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(self.senders[&targets[i].0].total_util()),
                targets[i].0,
            )
        });
        let mut tenant_totals: BTreeMap<u32, usize> = BTreeMap::new();
        for &(id, t) in targets.iter() {
            *tenant_totals.entry(self.senders[&id].tenant).or_insert(0) += t;
        }
        while surplus > 0 {
            let mut granted = false;
            for &i in &order {
                if surplus == 0 {
                    break;
                }
                let (id, ref mut target) = targets[i];
                let s = &self.senders[&id];
                let at_cap = self
                    .tenant_caps
                    .get(&s.tenant)
                    .is_some_and(|&cap| tenant_totals[&s.tenant] >= cap);
                if *target < s.util.len() && !at_cap {
                    *target += 1;
                    *tenant_totals.get_mut(&s.tenant).expect("seeded above") += 1;
                    surplus -= 1;
                    granted = true;
                }
            }
            if !granted {
                break; // nobody can grow: caps/lane counts saturated
            }
        }
    }

    /// Snapshot of the active flags for one sender (for tests/metrics).
    pub fn active_map(&self, sender: u32) -> Option<Vec<bool>> {
        self.senders.get(&sender).map(|s| s.active.clone())
    }

    /// Point-in-time per-tenant fairness view: shares, caps, and the
    /// lock-free request counters, plus Jain's index helpers — tenant
    /// isolation as a queryable property (DESIGN.md §5h).
    pub fn fairness_snapshot(&self) -> FairnessSnapshot {
        let total_active = self.total_active();
        let mut rows: BTreeMap<u32, TenantRow> = BTreeMap::new();
        // Tenants with counter blocks appear even if all their senders
        // departed (their traffic history is still part of the story).
        for tenant in self.accounting.tenant_ids() {
            let c = self.accounting.counters(tenant);
            rows.insert(
                tenant,
                TenantRow {
                    tenant,
                    senders: 0,
                    active_qps: 0,
                    cap: self.tenant_cap(tenant),
                    share: 0.0,
                    issued: c.issued.get(),
                    completed: c.completed.get(),
                    queued: c.queued(),
                },
            );
        }
        for s in self.senders.values() {
            let row = rows.entry(s.tenant).or_insert_with(|| TenantRow {
                tenant: s.tenant,
                senders: 0,
                active_qps: 0,
                cap: self.tenant_cap(s.tenant),
                share: 0.0,
                issued: 0,
                completed: 0,
                queued: 0,
            });
            row.senders += 1;
            row.active_qps += s.active_count();
        }
        let mut tenants: Vec<TenantRow> = rows.into_values().collect();
        if total_active > 0 {
            for t in &mut tenants {
                t.share = t.active_qps as f64 / total_active as f64;
            }
        }
        FairnessSnapshot {
            max_aqp: self.cfg.max_aqp,
            total_active,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_aqp: usize) -> QpSchedulerConfig {
        QpSchedulerConfig {
            max_aqp,
            grant_size: 32,
        }
    }

    #[test]
    fn first_sender_gets_all_its_qps_up_to_cap() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender(0, 4);
        assert_eq!(s.total_active(), 4);
        s.register_sender(1, 16);
        // New sender gets the average of functioning senders (4).
        assert_eq!(s.active_map(1).unwrap().iter().filter(|a| **a).count(), 4);
    }

    #[test]
    fn grants_only_on_active_qps() {
        let mut s = QpScheduler::new(cfg(4));
        s.register_sender(0, 8); // 4 active (cap)
        assert_eq!(
            s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 2),
            Some(32)
        );
        assert_eq!(s.on_credit_request(SenderQp { sender: 0, qp: 7 }, 2), None);
    }

    #[test]
    fn redistribution_follows_utilization() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender(0, 8);
        s.register_sender(1, 8);
        // Sender 0 is heavily contended; sender 1 barely active.
        for _ in 0..9 {
            s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 8);
        }
        s.on_credit_request(SenderQp { sender: 1, qp: 0 }, 1);
        s.redistribute();
        let a0 = s.active_map(0).unwrap().iter().filter(|a| **a).count();
        let a1 = s.active_map(1).unwrap().iter().filter(|a| **a).count();
        assert!(a0 > a1, "contended sender should hold more active QPs");
        assert!(a0 + a1 <= 8 + 1);
        assert!(a1 >= 1);
    }

    #[test]
    fn dormant_sender_keeps_one_qp() {
        let mut s = QpScheduler::new(cfg(16));
        s.register_sender(0, 8);
        s.register_sender(1, 8);
        s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 4);
        // Sender 1 reports nothing: dormant.
        s.redistribute();
        assert_eq!(s.active_map(1).unwrap().iter().filter(|a| **a).count(), 1);
    }

    #[test]
    fn all_dormant_everyone_keeps_one() {
        let mut s = QpScheduler::new(cfg(16));
        s.register_sender(0, 4);
        s.register_sender(1, 4);
        s.redistribute();
        assert_eq!(s.total_active(), 2);
    }

    #[test]
    fn within_sender_most_utilized_qps_stay_active() {
        let mut s = QpScheduler::new(cfg(2));
        s.register_sender(0, 4);
        // QP 3 and 1 are hot.
        for _ in 0..5 {
            s.on_credit_request(SenderQp { sender: 0, qp: 3 }, 6);
            s.on_credit_request(SenderQp { sender: 0, qp: 1 }, 4);
        }
        s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 1);
        s.redistribute();
        let map = s.active_map(0).unwrap();
        assert!(map[3] && map[1]);
        assert!(!map[0] && !map[2]);
    }

    #[test]
    fn redistribute_reports_changes_only() {
        let mut s = QpScheduler::new(cfg(4));
        s.register_sender(0, 4); // all 4 active
        for qp in 0..4 {
            s.on_credit_request(SenderQp { sender: 0, qp }, 2);
        }
        let changes = s.redistribute();
        // Sole sender keeps all 4 active: no changes.
        assert!(changes.is_empty(), "{changes:?}");

        // A hot second sender joins: the budget shifts away from sender 0.
        s.register_sender(1, 4);
        for _ in 0..8 {
            s.on_credit_request(SenderQp { sender: 1, qp: 0 }, 8);
            s.on_credit_request(SenderQp { sender: 1, qp: 1 }, 8);
        }
        s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 1);
        let changes = s.redistribute();
        let deact_s0 = changes
            .iter()
            .filter(|(sq, a)| sq.sender == 0 && !a)
            .count();
        let act_s1 = changes
            .iter()
            .filter(|(sq, a)| sq.sender == 1 && *a)
            .count();
        assert!(deact_s0 >= 2, "{changes:?}");
        assert!(act_s1 >= 1, "{changes:?}");
        // Sender 0's surviving active QP is its utilized one (qp 0).
        assert!(s.is_active(SenderQp { sender: 0, qp: 0 }));
    }

    #[test]
    fn utilization_resets_each_interval() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender(0, 4);
        s.register_sender(1, 4);
        for _ in 0..10 {
            s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 9);
        }
        s.redistribute();
        // Next interval: only sender 1 is active; the old utilization of
        // sender 0 must not leak in.
        for _ in 0..10 {
            s.on_credit_request(SenderQp { sender: 1, qp: 0 }, 9);
        }
        s.redistribute();
        let a0 = s.active_map(0).unwrap().iter().filter(|a| **a).count();
        let a1 = s.active_map(1).unwrap().iter().filter(|a| **a).count();
        assert!(a1 > a0);
    }

    #[test]
    fn unknown_sender_requests_are_ignored() {
        let mut s = QpScheduler::new(cfg(4));
        assert_eq!(s.on_credit_request(SenderQp { sender: 9, qp: 0 }, 1), None);
        assert!(!s.is_active(SenderQp { sender: 9, qp: 0 }));
    }

    #[test]
    fn unregister_releases_share_immediately() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender(0, 8); // takes all 8
        s.register_sender(1, 8); // average-clamped slice
        let freed = s.unregister_sender(0);
        assert_eq!(freed.len(), 8, "all of sender 0's lanes were active");
        assert!(s.active_map(0).is_none());
        // The freed budget flows to the survivor on the next interval.
        s.on_credit_request(SenderQp { sender: 1, qp: 0 }, 4);
        s.redistribute();
        let a1 = s.active_map(1).unwrap().iter().filter(|a| **a).count();
        assert_eq!(a1, 8);
        // Unregistering twice (or an unknown sender) is harmless.
        assert!(s.unregister_sender(0).is_empty());
        assert!(s.unregister_sender(42).is_empty());
    }

    #[test]
    fn add_qp_grows_a_sender_within_budget() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender(0, 2);
        assert_eq!(s.total_active(), 2);
        // Budget has room: the lazily attached lane starts active.
        assert_eq!(s.add_qp(0), Some(2));
        assert!(s.is_active(SenderQp { sender: 0, qp: 2 }));
        assert_eq!(s.total_active(), 3);
        assert_eq!(s.add_qp(42), None, "unknown sender");
    }

    #[test]
    fn add_qp_beyond_budget_starts_inactive() {
        let mut s = QpScheduler::new(cfg(2));
        s.register_sender(0, 2); // saturates max_aqp
        assert_eq!(s.add_qp(0), Some(2));
        assert!(!s.is_active(SenderQp { sender: 0, qp: 2 }));
        assert_eq!(s.total_active(), 2);
    }

    #[test]
    fn tenant_cap_clamps_aggressor_and_recycles_budget() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender_tenant(0, 8, 1); // aggressor tenant 1
        s.register_sender_tenant(1, 8, 2); // victim tenant 2
        s.set_tenant_cap(1, 2);
        // Aggressor reports overwhelming utilization; victim a trickle.
        for _ in 0..20 {
            s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 8);
            s.on_credit_request(SenderQp { sender: 0, qp: 1 }, 8);
        }
        s.on_credit_request(SenderQp { sender: 1, qp: 0 }, 1);
        s.redistribute();
        assert_eq!(s.tenant_active(1), 2, "cap binds despite utilization");
        // Budget the cap freed flows to the victim (busy, uncapped).
        assert!(s.tenant_active(2) > 1, "{:?}", s.fairness_snapshot());
        assert!(s.total_active() <= 8);
    }

    #[test]
    fn tenant_cap_floor_wins_over_cap() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender_tenant(0, 2, 5);
        s.register_sender_tenant(1, 2, 5);
        s.register_sender_tenant(2, 2, 5);
        s.set_tenant_cap(5, 1); // below the 3-sender floor
        for id in 0..3 {
            s.on_credit_request(SenderQp { sender: id, qp: 0 }, 4);
        }
        s.redistribute();
        // Every sender keeps its 1-QP floor: effective cap is 3.
        assert_eq!(s.tenant_active(5), 3);
    }

    #[test]
    fn clear_tenant_cap_restores_proportional_share() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender_tenant(0, 8, 1);
        s.register_sender_tenant(1, 8, 2);
        s.set_tenant_cap(1, 1);
        for _ in 0..10 {
            s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 8);
        }
        s.on_credit_request(SenderQp { sender: 1, qp: 0 }, 1);
        s.redistribute();
        assert_eq!(s.tenant_active(1), 1);
        assert_eq!(s.tenant_cap(1), Some(1));
        s.clear_tenant_cap(1);
        assert_eq!(s.tenant_cap(1), None);
        for _ in 0..10 {
            s.on_credit_request(SenderQp { sender: 0, qp: 0 }, 8);
        }
        s.on_credit_request(SenderQp { sender: 1, qp: 0 }, 1);
        s.redistribute();
        assert!(s.tenant_active(1) > 1, "uncapped share follows utilization");
    }

    #[test]
    fn capped_add_qp_starts_inactive_at_cap() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender_tenant(0, 2, 3);
        s.set_tenant_cap(3, 2); // tenant 3 already holds 2 active
        assert_eq!(s.add_qp(0), Some(2));
        assert!(
            !s.is_active(SenderQp { sender: 0, qp: 2 }),
            "lazy lane must not start active past the tenant cap"
        );
        s.clear_tenant_cap(3);
        assert_eq!(s.add_qp(0), Some(3));
        assert!(s.is_active(SenderQp { sender: 0, qp: 3 }));
    }

    #[test]
    fn fairness_snapshot_reports_shares_caps_and_counters() {
        let mut s = QpScheduler::new(cfg(8));
        s.register_sender_tenant(0, 4, 1);
        s.register_sender_tenant(1, 4, 2);
        s.set_tenant_cap(2, 3);
        s.accounting().counters(1).issued.add(10);
        s.accounting().counters(1).completed.add(7);
        let snap = s.fairness_snapshot();
        assert_eq!(snap.max_aqp, 8);
        assert_eq!(snap.total_active, s.total_active());
        assert_eq!(snap.tenants.len(), 2);
        let t1 = snap.tenant(1).expect("tenant 1 present");
        assert_eq!((t1.senders, t1.issued, t1.completed, t1.queued), (1, 10, 7, 3));
        assert_eq!(t1.cap, None);
        let t2 = snap.tenant(2).expect("tenant 2 present");
        assert_eq!(t2.cap, Some(3));
        let share_sum: f64 = snap.tenants.iter().map(|t| t.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12, "shares partition unity");
        // Departed tenants keep their counter rows.
        s.unregister_sender(0);
        let snap = s.fairness_snapshot();
        let t1 = snap.tenant(1).expect("history survives departure");
        assert_eq!((t1.senders, t1.active_qps, t1.issued), (0, 0, 10));
    }

    #[test]
    fn equal_weight_tenants_reach_fair_steady_state() {
        let mut s = QpScheduler::new(cfg(12));
        for id in 0..4u32 {
            s.register_sender_tenant(id, 4, id + 1);
        }
        // A few intervals of identical load: shares must converge fair.
        for _ in 0..3 {
            for id in 0..4u32 {
                for qp in 0..3 {
                    s.on_credit_request(SenderQp { sender: id, qp }, 4);
                }
            }
            s.redistribute();
        }
        let snap = s.fairness_snapshot();
        assert!(
            snap.jains_active() >= 0.9,
            "equal-weight steady state must be fair: {snap:?}"
        );
    }
}
