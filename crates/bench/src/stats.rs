//! Sample statistics shared by every suite.

/// The `p`-quantile (nearest rank) of ascending nanosecond samples, in
/// microseconds; 0 for an empty set.
pub(crate) fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1000.0
}
