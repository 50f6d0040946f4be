//! The per-node queue-pair pool.
//!
//! QP creation is a control-plane operation orders of magnitude slower
//! than the data path (Swift, PAPERS.md): the NIC allocates connection
//! state over PCIe config cycles and the driver round-trips the kernel.
//! Under connect/disconnect churn that cost lands on every arriving
//! client's time-to-first-RPC. The pool removes it from the hot path:
//! released QPs are *reset* (verbs modify-to-RESET — state back to
//! `Init`, peer cleared, lease epoch bumped) instead of destroyed, and
//! the next lease recycles one by rebinding its CQs — paying
//! [`CostModel::ctrl_reset_qp_ns`](crate::CostModel) instead of
//! [`CostModel::ctrl_create_qp_ns`](crate::CostModel).
//!
//! `take`/`put` are allocation-free (`cargo xtask lint` hot-alloc entry
//! points via [`Node::lease_qp`](crate::Node::lease_qp) /
//! [`Node::release_qp`](crate::Node::release_qp)): the free list is a
//! `Vec` preallocated to `capacity` and never grown past it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::qp::Qp;

/// Configuration for a node's QP pool.
#[derive(Debug, Clone)]
pub struct QpPoolConfig {
    /// Master switch. Disabled (the default), every lease cold-creates
    /// and every release destroys — the un-elastic baseline.
    pub enabled: bool,
    /// Maximum recycled QPs retained; releases beyond this destroy.
    pub capacity: usize,
}

impl Default for QpPoolConfig {
    fn default() -> Self {
        QpPoolConfig {
            enabled: false,
            capacity: 1024,
        }
    }
}

/// Pool counters (atomically updated; `Relaxed` — statistics only).
#[derive(Debug, Default)]
pub struct QpPoolStats {
    /// Total leases served.
    pub leases: AtomicU64,
    /// Leases served from the free list (reset + rebind, no creation).
    pub warm: AtomicU64,
    /// Leases that fell through to a cold `create_qp`.
    pub cold: AtomicU64,
    /// QPs released back into the pool.
    pub recycled: AtomicU64,
    /// Releases that found the pool full (QP destroyed instead).
    pub discarded: AtomicU64,
    /// QPs cold-created into the pool by [`Node::prewarm_qps`](crate::Node::prewarm_qps).
    pub refilled: AtomicU64,
}

impl QpPoolStats {
    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A LIFO free list of reset queue pairs.
///
/// LIFO keeps the most recently used QP's NIC-cache state warmest, and
/// makes lease order deterministic under the virtual lab.
#[derive(Debug)]
pub struct QpPool {
    cfg: QpPoolConfig,
    free: Mutex<Vec<Arc<Qp>>>,
    stats: QpPoolStats,
}

impl QpPool {
    /// Build a pool from its configuration.
    pub fn new(cfg: QpPoolConfig) -> QpPool {
        let cap = if cfg.enabled { cfg.capacity.max(1) } else { 0 };
        QpPool {
            cfg,
            free: Mutex::new(Vec::with_capacity(cap)),
            stats: QpPoolStats::default(),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &QpPoolConfig {
        &self.cfg
    }

    /// Pool counters.
    pub fn stats(&self) -> &QpPoolStats {
        &self.stats
    }

    /// Number of QPs currently pooled.
    pub fn len(&self) -> usize {
        self.free.lock().len()
    }

    /// Whether the free list is empty.
    pub fn is_empty(&self) -> bool {
        self.free.lock().is_empty()
    }

    /// Pop the most recently released QP, if any. Allocation-free.
    pub(crate) fn take(&self) -> Option<Arc<Qp>> {
        if !self.cfg.enabled {
            return None;
        }
        self.free.lock().pop()
    }

    /// Offer a reset QP back to the pool. Returns `false` (caller must
    /// destroy) when the pool is disabled or full. Allocation-free: the
    /// free list never grows past its preallocated capacity.
    pub(crate) fn put(&self, qp: Arc<Qp>) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let mut free = self.free.lock();
        if free.len() >= self.cfg.capacity {
            return false;
        }
        free.push(qp);
        true
    }
}
