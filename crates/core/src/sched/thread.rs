//! Sender-side thread scheduling — the paper's Algorithm 1.
//!
//! Threads are sorted first by median request size and second by the
//! number of requests sent since the last scheduling interval, then packed
//! onto active QPs by a byte quota (`total_bytes / active_qps`). This
//! groups small-payload threads on shared QPs (maximizing coalescing) and
//! isolates large-payload threads (avoiding head-of-line blocking), while
//! giving every active QP a similar byte load.

/// Per-thread load statistics since the last scheduling interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadLoadStats {
    /// The thread's id.
    pub thread_id: u32,
    /// Median request size in bytes.
    pub median_req_size: u32,
    /// Requests sent.
    pub requests: u64,
    /// Total bytes sent.
    pub bytes: u64,
}

/// Buffers of one [`assign_threads_into`] pass, kept by a caller that
/// repacks where it must not allocate (the client's response dispatcher
/// reruns Algorithm 1 at a zero grant).
#[derive(Debug, Default)]
pub(crate) struct AssignScratch {
    /// Indices into the pass's `stats`, in Algorithm 1's sort order.
    order: Vec<usize>,
    /// The assignment, in that order.
    out: Vec<(u32, usize)>,
    /// Threads per QP, recounted by the two balancing passes.
    counts: Vec<usize>,
}

/// Map threads to active QPs (Algorithm 1). Returns `(thread_id, qp_index)`
/// pairs with `qp_index < num_qps`.
///
/// Runs in `O(n log n)` for the sort plus a linear packing pass. With no
/// recorded traffic (`total_bytes == 0`), threads are spread round-robin so
/// new threads still receive balanced assignments.
pub fn assign_threads(stats: &[ThreadLoadStats], num_qps: usize) -> Vec<(u32, usize)> {
    let mut scratch = AssignScratch::default();
    assign_threads_into(stats, num_qps, &mut scratch);
    scratch.out
}

/// Recount `out`'s threads per QP into `counts`; the first QP with none.
fn first_idle(out: &[(u32, usize)], counts: &mut Vec<usize>, num_qps: usize) -> Option<usize> {
    counts.clear();
    counts.resize(num_qps, 0);
    for (_, q) in out {
        counts[*q] += 1;
    }
    counts.iter().position(|&c| c == 0)
}

/// [`assign_threads`] into `scratch`, whose buffers it reuses: once they
/// have grown to the thread and QP counts, a pass allocates nothing.
pub(crate) fn assign_threads_into<'a>(
    stats: &[ThreadLoadStats],
    num_qps: usize,
    scratch: &'a mut AssignScratch,
) -> &'a [(u32, usize)] {
    assert!(num_qps >= 1, "need at least one active QP");
    let AssignScratch { order, out, counts } = scratch;
    order.clear();
    order.extend(0..stats.len());
    // Thread ids are unique, so the key is a total order and the
    // (allocation-free) unstable sort has one possible result.
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (&stats[a], &stats[b]);
        a.median_req_size
            .cmp(&b.median_req_size)
            .then(a.requests.cmp(&b.requests))
            .then(a.thread_id.cmp(&b.thread_id))
    });
    out.clear();

    let total_bytes: u64 = stats.iter().map(|t| t.bytes).sum();
    if total_bytes == 0 {
        out.extend(
            order
                .iter()
                .enumerate()
                .map(|(i, &t)| (stats[t].thread_id, i % num_qps)),
        );
        return out;
    }

    let quota = (total_bytes / num_qps as u64).max(1);
    let mut qp_id = 0usize;
    let mut qp_load = 0u64;
    for &t in order.iter() {
        let t = &stats[t];
        qp_load += t.bytes;
        out.push((t.thread_id, qp_id.min(num_qps - 1)));
        if qp_load >= quota {
            qp_id += 1;
            qp_load = 0;
        }
    }

    // Class-isolation pass (the paper's first goal: "avoid head-of-line
    // blocking ... by minimizing the placement of a thread with a large
    // payload with a smaller one on the same QP"). The byte quota can
    // append the first large thread to a small-thread segment when the
    // large threads dominate the byte count; while idle QPs remain, split
    // such mixed segments at the size-class boundary (≥4× median jump).
    // (`out` is in `order`'s order, so entry `i`'s median is at hand.)
    let median_at = |i: usize| stats[order[i]].median_req_size.max(1);
    while let Some(idle) = first_idle(out, counts, num_qps) {
        // Find a lane whose (contiguous, sorted) members straddle a class
        // boundary.
        let mut split: Option<(usize, usize)> = None; // (lane, out-index after boundary)
        'lanes: for lane in 0..num_qps {
            let mut prev: Option<usize> = None;
            for (i, _) in out.iter().enumerate().filter(|(_, (_, q))| *q == lane) {
                if prev.is_some_and(|p| median_at(i) >= median_at(p) * 4) {
                    split = Some((lane, i));
                    break 'lanes;
                }
                prev = Some(i);
            }
        }
        let Some((lane, from)) = split else { break };
        for item in out.iter_mut().skip(from) {
            if item.1 == lane {
                item.1 = idle;
            }
        }
    }

    // Fairness pass (the paper's third goal: "the scheduler tries to use
    // all active QPs fairly"). Byte quotas alone can strand QPs idle when
    // a few heavy threads dominate the byte count. Repeatedly split the
    // most-crowded QP's *contiguous* run of (sorted) threads onto an idle
    // QP: every QP gets used, and size classes stay grouped so large
    // payloads remain isolated from small ones.
    while let Some(idle) = first_idle(out, counts, num_qps) {
        let (donor, &donor_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("at least one lane");
        if donor_count < 2 {
            break; // nothing left to split
        }
        // Move the second half of the donor's run (assignments preserve
        // the sorted order, so the run is contiguous in `out`).
        let run = out.iter_mut().filter(|(_, q)| *q == donor);
        for item in run.skip(donor_count / 2) {
            item.1 = idle;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(thread_id: u32, median: u32, requests: u64, bytes: u64) -> ThreadLoadStats {
        ThreadLoadStats {
            thread_id,
            median_req_size: median,
            requests,
            bytes,
        }
    }

    fn qp_of(assign: &[(u32, usize)], thread: u32) -> usize {
        assign.iter().find(|(id, _)| *id == thread).unwrap().1
    }

    #[test]
    fn small_threads_share_large_threads_isolated() {
        // 8 small-payload threads (512 KB total) and 2 large-payload
        // threads (1 MB each), 5 QPs. Quota = 2.56 MB / 5 = 512 KB: the
        // smalls exactly fill QP 0, and each large thread exceeds the
        // quota alone, landing on its own QP.
        let mut stats: Vec<ThreadLoadStats> = (0..8).map(|i| t(i, 64, 1000, 64_000)).collect();
        stats.push(t(8, 1024, 1000, 1_024_000));
        stats.push(t(9, 1024, 1001, 1_024_000));
        let assign = assign_threads(&stats, 5);
        let l1 = qp_of(&assign, 8);
        let l2 = qp_of(&assign, 9);
        assert_ne!(l1, l2, "each large thread gets a dedicated QP");
        // No small thread shares a QP with a large one (the head-of-line
        // blocking goal), though the fairness pass may spread smalls over
        // several QPs.
        let small_qps: Vec<usize> = (0..8).map(|i| qp_of(&assign, i)).collect();
        assert!(small_qps.iter().all(|&q| q != l1 && q != l2), "{assign:?}");
        // Every QP is used (fairness goal, paper §5.2).
        let mut used: Vec<usize> = assign.iter().map(|(_, q)| *q).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 5, "{assign:?}");
    }

    #[test]
    fn loads_are_balanced_across_qps() {
        let stats: Vec<ThreadLoadStats> = (0..8).map(|i| t(i, 64, 100, 6400)).collect();
        let assign = assign_threads(&stats, 4);
        let mut per_qp = [0u64; 4];
        for (id, qp) in &assign {
            per_qp[*qp] += stats.iter().find(|s| s.thread_id == *id).unwrap().bytes;
        }
        let max = per_qp.iter().max().unwrap();
        let min = per_qp.iter().min().unwrap();
        assert!(max - min <= 6400, "per_qp={per_qp:?}");
    }

    #[test]
    fn qp_index_never_exceeds_bounds() {
        // Byte-heavy threads can exhaust the quota early; indices clamp.
        let stats: Vec<ThreadLoadStats> = (0..10).map(|i| t(i, 64, 1, 1_000_000)).collect();
        let assign = assign_threads(&stats, 3);
        assert!(assign.iter().all(|(_, q)| *q < 3));
        assert_eq!(assign.len(), 10);
    }

    #[test]
    fn no_traffic_round_robins() {
        let stats: Vec<ThreadLoadStats> = (0..6).map(|i| t(i, 0, 0, 0)).collect();
        let assign = assign_threads(&stats, 3);
        let mut counts = [0; 3];
        for (_, q) in &assign {
            counts[*q] += 1;
        }
        assert_eq!(counts, [2, 2, 2]);
    }

    #[test]
    fn single_qp_takes_everything() {
        let stats: Vec<ThreadLoadStats> = (0..5).map(|i| t(i, 64 * (i + 1), 10, 640)).collect();
        let assign = assign_threads(&stats, 1);
        assert!(assign.iter().all(|(_, q)| *q == 0));
    }

    #[test]
    fn sort_is_by_median_then_requests() {
        let stats = vec![t(0, 128, 5, 640), t(1, 64, 9, 576), t(2, 64, 3, 192)];
        let assign = assign_threads(&stats, 3);
        // Sorted order: thread 2 (64,3), thread 1 (64,9), thread 0 (128,5).
        // With three threads and three QPs the fairness pass ensures each
        // lands on its own QP.
        let qps: Vec<usize> = [2, 1, 0].iter().map(|&i| qp_of(&assign, i)).collect();
        let mut sorted = qps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "{assign:?}");
    }

    #[test]
    fn fairness_pass_fills_idle_qps() {
        // One heavy thread dominates the byte quota: without the fairness
        // pass, all light threads would share QP 0 and QPs 2..N would sit
        // idle.
        let mut stats: Vec<ThreadLoadStats> = (0..12).map(|i| t(i, 64, 100, 6_400)).collect();
        stats.push(t(12, 4096, 100, 4_096_000));
        let assign = assign_threads(&stats, 6);
        let mut counts = [0usize; 6];
        for (_, q) in &assign {
            counts[*q] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "idle QP: {counts:?}");
        // The heavy thread still sits alone.
        let heavy_qp = qp_of(&assign, 12);
        assert_eq!(counts[heavy_qp], 1, "{assign:?}");
    }

    #[test]
    fn deterministic_for_equal_stats() {
        let stats: Vec<ThreadLoadStats> = (0..4).map(|i| t(i, 64, 10, 640)).collect();
        let a = assign_threads(&stats, 2);
        let b = assign_threads(&stats, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_thread_list() {
        assert!(assign_threads(&[], 4).is_empty());
    }
}
