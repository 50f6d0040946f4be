//! The HydraList index service model (paper §8.6): a real index behind
//! modelled per-operation service times.

use flock_hydralist::{HydraConfig, HydraList};
use flock_sim::Ns;

/// The index application: a real `HydraList` plus nominal CPU costs.
pub struct HydraApp {
    index: HydraList,
    keyspace: u64,
    get_ns: u64,
    scan_ns: u64,
    /// Operations actually executed (observability).
    pub executed: u64,
}

impl HydraApp {
    /// Build and preload an index with `keys` entries (8 B keys/values,
    /// like the paper's 32 M-key setup, scaled to fit the test machine).
    pub fn new(keys: u64) -> HydraApp {
        let index = HydraList::new(HydraConfig::default());
        for k in 0..keys {
            index.insert(k, k.wrapping_mul(0x9E37_79B9));
        }
        HydraApp {
            index,
            keyspace: keys,
            // Point lookup: search-layer descent + node binary search.
            get_ns: 380,
            // Scan of 64: locate + walk ~1 node boundary + 64 copies.
            scan_ns: 380 + 64 * 16,
            executed: 0,
        }
    }

    /// Key universe size.
    pub(crate) fn keyspace(&self) -> u64 {
        self.keyspace
    }

    /// Nominal CPU time of a get.
    pub(crate) fn get_cost(&self) -> Ns {
        Ns(self.get_ns)
    }

    /// Nominal CPU time of a scan(64).
    pub(crate) fn scan_cost(&self) -> Ns {
        Ns(self.scan_ns)
    }

    /// Execute the real operation (the server replies with an 8 B count,
    /// so results only feed this sanity check).
    pub fn execute(&mut self, key: u64, is_scan: bool) {
        self.executed += 1;
        if is_scan {
            let out = self.index.scan(key, 64);
            debug_assert!(out.len() <= 64);
        } else {
            let _ = self.index.get(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_and_execute() {
        let mut app = HydraApp::new(1000);
        assert_eq!(app.keyspace(), 1000);
        app.execute(10, false);
        app.execute(10, true);
        assert_eq!(app.executed, 2);
        assert!(app.scan_cost() > app.get_cost());
    }
}
