//! Open-loop arrival processes for virtual-time benchmarks.
//!
//! Closed-loop clients (issue, wait, issue) let a slow server throttle
//! its own offered load, hiding saturation; the paper's interference
//! and crossover questions need *open-loop* arrivals — a Poisson
//! process whose rate is a property of the client, not of the server's
//! response time. [`RateRamp`] is that process, as a piecewise-constant
//! rate schedule: each [`RampStage`] holds a mean inter-arrival gap for
//! a virtual-time span, and [`RateRamp::gap_at`] draws the next
//! exponential gap from whichever stage the caller's elapsed time falls
//! in. A single endless stage ([`RateRamp::constant`]) is plain Poisson
//! pacing; several stages form the arrival-rate ramp the tenant
//! interference scenario drives its victims with.
//!
//! Draws come from the caller's forked [`SimRng`], so two runs of the
//! same configuration see identical arrival times — the determinism
//! contract every bench JSON relies on.

use flock_sim::SimRng;

/// One constant-rate span of a [`RateRamp`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RampStage {
    /// Mean inter-arrival gap (virtual ns) while this stage is active.
    pub mean_gap_ns: f64,
    /// Virtual-time span of the stage; `u64::MAX` never ends.
    pub duration_ns: u64,
}

/// A piecewise-constant open-loop arrival schedule.
#[derive(Debug, Clone)]
pub(crate) struct RateRamp {
    stages: Vec<RampStage>,
}

impl RateRamp {
    /// Poisson arrivals at a single constant rate, forever (the caller
    /// bounds the run by request count or an external stop signal).
    pub(crate) fn constant(mean_gap_ns: f64) -> RateRamp {
        RateRamp {
            stages: vec![RampStage {
                mean_gap_ns,
                duration_ns: u64::MAX,
            }],
        }
    }

    /// An explicit stage schedule. Stages run in order; arrivals stop
    /// when the last stage's span ends.
    pub(crate) fn stages(stages: Vec<RampStage>) -> RateRamp {
        assert!(!stages.is_empty(), "a ramp needs at least one stage");
        assert!(
            stages.iter().all(|s| s.mean_gap_ns > 0.0),
            "mean gaps must be positive"
        );
        RateRamp { stages }
    }

    /// A ramp targeting ~`reqs_per_stage` arrivals in each stage: stage
    /// `i` uses `gaps_ns[i]` with span `reqs_per_stage * gaps_ns[i]`.
    pub(crate) fn per_stage_target(gaps_ns: &[f64], reqs_per_stage: u64) -> RateRamp {
        RateRamp::stages(
            gaps_ns
                .iter()
                .map(|&g| RampStage {
                    mean_gap_ns: g,
                    duration_ns: (reqs_per_stage as f64 * g) as u64,
                })
                .collect(),
        )
    }

    /// Draw the gap to the next arrival for a client `elapsed_ns` into
    /// its run, or `None` when the schedule is over.
    pub(crate) fn gap_at(&self, elapsed_ns: u64, rng: &mut SimRng) -> Option<u64> {
        let mut start = 0u64;
        for s in &self.stages {
            let end = start.saturating_add(s.duration_ns);
            if elapsed_ns < end {
                return Some(rng.exp(s.mean_gap_ns) as u64);
            }
            start = end;
        }
        None
    }

    /// Total scheduled span, or `None` if the final stage is endless.
    #[cfg(test)]
    fn total_ns(&self) -> Option<u64> {
        let mut total = 0u64;
        for s in &self.stages {
            if s.duration_ns == u64::MAX {
                return None;
            }
            total = total.saturating_add(s.duration_ns);
        }
        Some(total)
    }

    /// Expected arrival count over the whole schedule (∞-safe: endless
    /// stages report the count of the bounded prefix).
    pub(crate) fn expected_arrivals(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.duration_ns != u64::MAX)
            .map(|s| s.duration_ns as f64 / s.mean_gap_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_ends() {
        let r = RateRamp::constant(1000.0);
        let mut rng = SimRng::new(7);
        assert!(r.total_ns().is_none());
        assert!(r.gap_at(u64::MAX - 1, &mut rng).is_some());
    }

    #[test]
    fn stages_select_by_elapsed_time_and_end() {
        let r = RateRamp::per_stage_target(&[4000.0, 1000.0], 10);
        assert_eq!(r.total_ns(), Some(40_000 + 10_000));
        let mut rng = SimRng::new(7);
        // Stage means differ 4x; averaged draws must reflect the stage.
        let mean_of = |r: &RateRamp, at: u64, rng: &mut SimRng| {
            (0..500).map(|_| r.gap_at(at, rng).unwrap() as f64).sum::<f64>() / 500.0
        };
        let slow = mean_of(&r, 0, &mut rng);
        let fast = mean_of(&r, 45_000, &mut rng);
        assert!(slow > 2.0 * fast, "ramp stages not honored: {slow} vs {fast}");
        assert!(r.gap_at(50_000, &mut rng).is_none(), "schedule must end");
    }

    #[test]
    fn expected_arrivals_sums_stage_targets() {
        let r = RateRamp::per_stage_target(&[2000.0, 500.0, 1000.0], 20);
        let e = r.expected_arrivals();
        assert!((e - 60.0).abs() < 1e-9, "expected ~60 arrivals, got {e}");
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let r = RateRamp::constant(3000.0);
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        for _ in 0..64 {
            assert_eq!(r.gap_at(0, &mut a), r.gap_at(0, &mut b));
        }
    }
}
