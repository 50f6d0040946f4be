//! Benchmark workload generators: TATP (read-intensive telecom OLTP) and
//! Smallbank (write-intensive banking), as used in the paper's §8.5.2.

use flock_sim::SimRng;

/// Table tags packed into the high bits of a key.
const TABLE_SHIFT: u32 = 40;

/// A generated transaction: key sets plus a label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSpec {
    /// Read-set keys.
    pub reads: Vec<u64>,
    /// Write-set keys.
    pub writes: Vec<u64>,
    /// Transaction type label (for per-type stats).
    pub kind: &'static str,
}

#[cfg(test)]
impl TxnSpec {
    /// Whether this transaction updates any key.
    fn is_write(&self) -> bool {
        !self.writes.is_empty()
    }
}

// ---- TATP ---------------------------------------------------------------

/// TATP table ids.
mod tatp_tables {
    pub(crate) const SUBSCRIBER: u64 = 1;
    pub(crate) const ACCESS_INFO: u64 = 2;
    pub(crate) const SPECIAL_FACILITY: u64 = 3;
    pub(crate) const CALL_FORWARDING: u64 = 4;
}

/// The TATP telecom benchmark: per the paper, 70% single-key reads, 10%
/// multi-key reads, and 20% updates.
#[derive(Debug, Clone)]
pub struct Tatp {
    /// Number of subscribers (paper: one million per server).
    pub subscribers: u64,
}

impl Tatp {
    /// Create a generator over `subscribers` subscribers.
    pub fn new(subscribers: u64) -> Tatp {
        assert!(subscribers > 0);
        Tatp { subscribers }
    }

    fn key(table: u64, id: u64) -> u64 {
        (table << TABLE_SHIFT) | id
    }

    /// Keys (with initial 32-byte rows) to preload.
    pub fn load_keys(&self) -> impl Iterator<Item = (u64, [u8; 32])> + '_ {
        use tatp_tables::*;
        (0..self.subscribers).flat_map(|id| {
            [SUBSCRIBER, ACCESS_INFO, SPECIAL_FACILITY, CALL_FORWARDING]
                .into_iter()
                .map(move |t| (Self::key(t, id), [(t as u8) ^ (id as u8); 32]))
        })
    }

    /// Generate the next transaction.
    pub fn next(&self, rng: &mut SimRng) -> TxnSpec {
        use tatp_tables::*;
        let sub = rng.below(self.subscribers);
        let p = rng.f64();
        if p < 0.70 {
            // GET_SUBSCRIBER_DATA: one-key read.
            TxnSpec {
                reads: vec![Self::key(SUBSCRIBER, sub)],
                writes: vec![],
                kind: "get_subscriber_data",
            }
        } else if p < 0.80 {
            // GET_ACCESS_DATA / GET_NEW_DESTINATION: multi-key read.
            TxnSpec {
                reads: vec![Self::key(ACCESS_INFO, sub), Self::key(CALL_FORWARDING, sub)],
                writes: vec![],
                kind: "get_access_data",
            }
        } else if p < 0.90 {
            // UPDATE_SUBSCRIBER_DATA: subscriber bit + special facility.
            TxnSpec {
                reads: vec![],
                writes: vec![Self::key(SUBSCRIBER, sub), Self::key(SPECIAL_FACILITY, sub)],
                kind: "update_subscriber_data",
            }
        } else {
            // UPDATE_LOCATION: one-key update.
            TxnSpec {
                reads: vec![],
                writes: vec![Self::key(SUBSCRIBER, sub)],
                kind: "update_location",
            }
        }
    }
}

// ---- Smallbank ----------------------------------------------------------

/// Smallbank account sub-tables.
mod smallbank_tables {
    pub(crate) const SAVINGS: u64 = 8;
    pub(crate) const CHECKING: u64 = 9;
}

/// The Smallbank banking benchmark: 85% of transactions update keys; 4% of
/// accounts receive 90% of the traffic (paper §8.5.2).
#[derive(Debug, Clone)]
pub struct Smallbank {
    /// Number of accounts.
    pub accounts: u64,
    /// Fraction of accounts that are hot (paper: 4%).
    pub hot_fraction: f64,
    /// Probability a transaction targets hot accounts (paper: 90%).
    pub hot_probability: f64,
}

impl Smallbank {
    /// Create a generator with the paper's skew (4% hot / 90%).
    pub fn new(accounts: u64) -> Smallbank {
        assert!(accounts >= 25, "need enough accounts for the hot set");
        Smallbank {
            accounts,
            hot_fraction: 0.04,
            hot_probability: 0.90,
        }
    }

    /// The savings key of account `a`.
    pub fn savings(a: u64) -> u64 {
        (smallbank_tables::SAVINGS << TABLE_SHIFT) | a
    }

    /// The checking key of account `a`.
    pub fn checking(a: u64) -> u64 {
        (smallbank_tables::CHECKING << TABLE_SHIFT) | a
    }

    /// Keys (with initial 8-byte balances of 1000) to preload.
    pub fn load_keys(&self) -> impl Iterator<Item = (u64, [u8; 8])> + '_ {
        let balance = 1000u64.to_le_bytes();
        (0..self.accounts)
            .flat_map(move |a| [(Self::savings(a), balance), (Self::checking(a), balance)])
    }

    fn account(&self, rng: &mut SimRng) -> u64 {
        let hot = ((self.accounts as f64 * self.hot_fraction) as u64).max(1);
        if rng.chance(self.hot_probability) {
            rng.below(hot)
        } else {
            hot + rng.below(self.accounts - hot)
        }
    }

    fn two_accounts(&self, rng: &mut SimRng) -> (u64, u64) {
        let a = self.account(rng);
        loop {
            let b = self.account(rng);
            if b != a {
                return (a, b);
            }
        }
    }

    /// Generate the next transaction.
    pub fn next(&self, rng: &mut SimRng) -> TxnSpec {
        let p = rng.f64();
        if p < 0.15 {
            // BALANCE: read both balances (the only read-only type, 15%).
            let a = self.account(rng);
            TxnSpec {
                reads: vec![Self::savings(a), Self::checking(a)],
                writes: vec![],
                kind: "balance",
            }
        } else if p < 0.30 {
            // DEPOSIT_CHECKING.
            let a = self.account(rng);
            TxnSpec {
                reads: vec![],
                writes: vec![Self::checking(a)],
                kind: "deposit_checking",
            }
        } else if p < 0.45 {
            // TRANSACT_SAVINGS.
            let a = self.account(rng);
            TxnSpec {
                reads: vec![],
                writes: vec![Self::savings(a)],
                kind: "transact_savings",
            }
        } else if p < 0.70 {
            // WRITE_CHECK: read savings, update checking.
            let a = self.account(rng);
            TxnSpec {
                reads: vec![Self::savings(a)],
                writes: vec![Self::checking(a)],
                kind: "write_check",
            }
        } else if p < 0.85 {
            // AMALGAMATE: move everything from a's accounts to b.
            let (a, b) = self.two_accounts(rng);
            TxnSpec {
                reads: vec![],
                writes: vec![Self::savings(a), Self::checking(a), Self::checking(b)],
                kind: "amalgamate",
            }
        } else {
            // SEND_PAYMENT.
            let (a, b) = self.two_accounts(rng);
            TxnSpec {
                reads: vec![],
                writes: vec![Self::checking(a), Self::checking(b)],
                kind: "send_payment",
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tatp_mix_matches_paper() {
        let t = Tatp::new(10_000);
        let mut rng = SimRng::new(1);
        let n = 100_000;
        let mut single_read = 0;
        let mut multi_read = 0;
        let mut update = 0;
        for _ in 0..n {
            let spec = t.next(&mut rng);
            if spec.is_write() {
                update += 1;
            } else if spec.reads.len() == 1 {
                single_read += 1;
            } else {
                multi_read += 1;
            }
        }
        let f = |x: i32| x as f64 / n as f64;
        assert!((f(single_read) - 0.70).abs() < 0.01, "{single_read}");
        assert!((f(multi_read) - 0.10).abs() < 0.01, "{multi_read}");
        assert!((f(update) - 0.20).abs() < 0.01, "{update}");
    }

    #[test]
    fn tatp_load_covers_four_tables() {
        let t = Tatp::new(10);
        let keys: Vec<_> = t.load_keys().collect();
        assert_eq!(keys.len(), 40);
        let tables: std::collections::HashSet<u64> =
            keys.iter().map(|(k, _)| k >> TABLE_SHIFT).collect();
        assert_eq!(tables.len(), 4);
        assert!(keys.iter().all(|(_, v)| v.len() == 32));
    }

    #[test]
    fn smallbank_is_write_intensive() {
        let s = Smallbank::new(10_000);
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let writes = (0..n).filter(|_| s.next(&mut rng).is_write()).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.85).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn smallbank_hotspot_concentrates_access() {
        let s = Smallbank::new(10_000);
        let hot = (10_000f64 * s.hot_fraction) as u64;
        let mut rng = SimRng::new(3);
        let mut hot_hits = 0;
        let n = 50_000;
        for _ in 0..n {
            let spec = s.next(&mut rng);
            let key = *spec.reads.first().or(spec.writes.first()).unwrap();
            let account = key & ((1 << TABLE_SHIFT) - 1);
            if account < hot {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!(frac > 0.85, "hot fraction {frac}");
    }

    #[test]
    fn smallbank_two_accounts_distinct() {
        let s = Smallbank::new(100);
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            let (a, b) = s.two_accounts(&mut rng);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let t = Tatp::new(1000);
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(t.next(&mut a), t.next(&mut b));
        }
    }
}
