//! What a preloaded key costs a FlockTX server in resident memory: its
//! row, its share of the row maps and arenas, and its version word in
//! the validation region. A binary of its own with a single test, so no
//! other test's allocations land between the two `VmRSS` readings.
#![cfg(target_os = "linux")]

use flock_fabric::{Access, MrTable};
use flock_txn::protocol::key_partition;
use flock_txn::{Smallbank, TxnServer};

const SERVERS: usize = 3;

/// Resident set size in bytes, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    let kb: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb * 1024
}

#[test]
fn a_preloaded_smallbank_key_costs_at_most_72_bytes() {
    // 100 000 accounts: 200 000 keys over three servers, as the
    // `txn_smallbank` benchmark loads them.
    let bank = Smallbank::new(100_000);
    let mrs = MrTable::new();
    let servers: Vec<_> = (0..SERVERS)
        .map(|i| TxnServer::new(i, mrs.register(1 << 20, Access::REMOTE_ALL)))
        .collect();
    let before = rss_bytes();
    let mut keys = 0u64;
    for (key, value) in bank.load_keys() {
        servers[key_partition(key, SERVERS)].load(key, &value);
        keys += 1;
    }
    let per_key = (rss_bytes() - before) as f64 / keys as f64;
    assert_eq!(keys, 200_000);
    assert!(
        per_key <= 72.0,
        "{per_key:.1} B of RSS per preloaded key, region words included"
    );
    let key = Smallbank::checking(99_999);
    let value = servers[key_partition(key, SERVERS)].peek(key);
    assert_eq!(value, Some(1000u64.to_le_bytes().to_vec()));
}
