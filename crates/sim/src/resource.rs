//! Passive FIFO resources in virtual time.
//!
//! A *passive* resource does not schedule events itself; the caller admits a
//! job with its arrival time and service demand and receives the computed
//! `(start, end)` interval, then schedules the downstream event at `end`.
//! This models non-preemptive FIFO servers — NIC processing units, wire
//! serialization, polling CPU cores — with a tiny amount of state.
//!
//! Correctness requires jobs be admitted in nondecreasing arrival-time
//! order, which holds naturally when admission happens inside DES events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Ns;

/// A FIFO queueing station with `k` identical parallel servers.
///
/// Jobs are served in admission order by the earliest-available server.
#[derive(Debug, Clone)]
pub struct MultiServer {
    free_at: BinaryHeap<Reverse<Ns>>,
    busy: Ns,
}

impl MultiServer {
    /// Create a station with `k >= 1` servers, all idle at time zero.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "MultiServer requires at least one server");
        let mut free_at = BinaryHeap::with_capacity(k);
        for _ in 0..k {
            free_at.push(Reverse(Ns::ZERO));
        }
        MultiServer {
            free_at,
            busy: Ns::ZERO,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Admit a job arriving at `arrival` needing `service` time.
    ///
    /// Returns `(start, end)`: the job starts at the later of its arrival
    /// and the earliest server-free instant, and completes `service` later.
    pub fn admit(&mut self, arrival: Ns, service: Ns) -> (Ns, Ns) {
        let Reverse(avail) = self.free_at.pop().expect("at least one server");
        let start = arrival.max(avail);
        let end = start + service;
        self.free_at.push(Reverse(end));
        self.busy += service;
        (start, end)
    }

    /// Utilization in `[0, 1]` over a horizon of `elapsed` virtual time.
    pub fn utilization(&self, elapsed: Ns) -> f64 {
        if elapsed == Ns::ZERO {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / (elapsed.as_nanos() as f64 * self.servers() as f64)
    }
}

/// A bank of single-server FIFO stations with static job-to-bank affinity.
///
/// This models an RNIC's processing units: a queue pair is statically hashed
/// to one unit, so few QPs exploit few units — the left-hand rise of the
/// paper's Figure 2(a) — while many QPs spread across all of them.
#[derive(Debug, Clone)]
pub struct BankedServer {
    free_at: Vec<Ns>,
}

impl BankedServer {
    /// Create `k >= 1` banks, all idle at time zero.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "BankedServer requires at least one bank");
        BankedServer {
            free_at: vec![Ns::ZERO; k],
        }
    }

    /// Admit a job with affinity `key` (hashed to a bank) arriving at
    /// `arrival` needing `service` time. Returns `(start, end)`.
    pub fn admit(&mut self, key: u64, arrival: Ns, service: Ns) -> (Ns, Ns) {
        let bank = (key % self.free_at.len() as u64) as usize;
        let start = arrival.max(self.free_at[bank]);
        let end = start + service;
        self.free_at[bank] = end;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_is_fifo() {
        let mut r = MultiServer::new(1);
        let (s1, e1) = r.admit(Ns(0), Ns(10));
        assert_eq!((s1, e1), (Ns(0), Ns(10)));
        // Arrives while busy: queued behind job 1.
        let (s2, e2) = r.admit(Ns(3), Ns(10));
        assert_eq!((s2, e2), (Ns(10), Ns(20)));
        // Arrives after idle gap: starts immediately.
        let (s3, e3) = r.admit(Ns(50), Ns(5));
        assert_eq!((s3, e3), (Ns(50), Ns(55)));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = MultiServer::new(2);
        let (_, e1) = r.admit(Ns(0), Ns(10));
        let (_, e2) = r.admit(Ns(0), Ns(10));
        assert_eq!(e1, Ns(10));
        assert_eq!(e2, Ns(10));
        // Third job waits for the earliest of the two.
        let (s3, _) = r.admit(Ns(1), Ns(1));
        assert_eq!(s3, Ns(10));
    }

    #[test]
    fn utilization_accounts_for_all_servers() {
        let mut r = MultiServer::new(2);
        r.admit(Ns(0), Ns(10));
        assert!((r.utilization(Ns(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn banked_server_respects_affinity() {
        let mut b = BankedServer::new(2);
        // Keys 0 and 2 hash to bank 0; serialized.
        let (_, e1) = b.admit(0, Ns(0), Ns(10));
        let (s2, _) = b.admit(2, Ns(0), Ns(10));
        assert_eq!(e1, Ns(10));
        assert_eq!(s2, Ns(10));
        // Key 1 hashes to bank 1; parallel.
        let (s3, _) = b.admit(1, Ns(0), Ns(10));
        assert_eq!(s3, Ns(0));
    }

    #[test]
    #[should_panic]
    fn zero_servers_rejected() {
        let _ = MultiServer::new(0);
    }
}
