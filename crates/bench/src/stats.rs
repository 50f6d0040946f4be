//! Sample statistics shared by every suite.

use std::sync::atomic::Ordering::Relaxed;

use flock_core::server::FlockServer;

use crate::json::{inline, object, Value};

/// The `p`-quantile (nearest rank) of ascending nanosecond samples, in
/// microseconds; 0 for an empty set.
pub(crate) fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1000.0
}

/// Mean of the slowest `share` of ascending nanosecond samples (at least
/// one), in microseconds; 0 for an empty set. What a tail costs, not
/// where one sample of it happens to fall: steady where a nearest-rank
/// percentile of a few hundred samples flips on a single sample.
pub(crate) fn tail_mean_us(sorted_ns: &[u64], share: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let n = ((sorted_ns.len() as f64 * share).ceil() as usize).clamp(1, sorted_ns.len());
    let tail = &sorted_ns[sorted_ns.len() - n..];
    tail.iter().sum::<u64>() as f64 / n as f64 / 1000.0
}

/// A server's deactivation hand-off so far (`ServerStats`): lanes the QP
/// scheduler took out of the active set, those whose client posted the
/// drained marker in time (the lane went silent), and the visits dispatch
/// shards paid to draining lanes.
#[derive(Debug, Clone, Copy)]
pub struct Handoff {
    deactivations: u64,
    drains_completed: u64,
    drain_sweeps: u64,
}

impl Handoff {
    pub(crate) fn of(server: &FlockServer) -> Handoff {
        let stats = server.stats();
        Handoff {
            deactivations: stats.deactivations.load(Relaxed),
            drains_completed: stats.drains_completed.load(Relaxed),
            drain_sweeps: stats.drain_sweeps.load(Relaxed),
        }
    }

    /// The three counters as one row of a document.
    pub(crate) fn row(&self) -> Value {
        inline(object(vec![
            ("deactivations", self.deactivations.into()),
            ("drains_completed", self.drains_completed.into()),
            ("drain_sweeps", self.drain_sweeps.into()),
        ]))
    }
}
