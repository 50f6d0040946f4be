//! Order statistics over exact samples (no bucketing: a bucketed
//! percentile would hide a one-poll-step shift of the median).

/// Quantile `q` in `[0, 1]` of an ascending slice, interpolating
/// linearly between the two nearest order statistics. 0 if empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Median of an unsorted sample (sorts it).
pub fn p50(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 if empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64
}

/// Mean of the slowest `share` of an ascending slice (at least one
/// sample). Unlike a percentile it moves continuously when latencies sit
/// on a poll grid, and it counts every slow operation, not just the
/// first one past the rank.
pub fn tail_mean(sorted: &[u64], share: f64) -> f64 {
    let n = ((sorted.len() as f64 * share).ceil() as usize).clamp(1, sorted.len().max(1));
    mean(&sorted[sorted.len().saturating_sub(n)..])
}

/// Median of a few floats (the repeats of one metric).
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
