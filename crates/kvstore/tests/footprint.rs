//! What a preloaded key with a short value costs the kv store in
//! resident memory: its row and its share of the row maps. A binary of
//! its own with a single test, so no other test's allocations land
//! between the two `VmRSS` readings.
#![cfg(target_os = "linux")]

use flock_kvstore::{KvConfig, KvStore};

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
fn a_preloaded_key_with_an_8_byte_value_costs_at_most_48_bytes() {
    const KEYS: u64 = 200_000;
    let kv = KvStore::new(KvConfig::default());
    let before = rss_bytes();
    for key in 0..KEYS {
        kv.put(key, &key.to_le_bytes());
    }
    let per_key = (rss_bytes() - before) as f64 / KEYS as f64;
    assert_eq!(kv.len(), KEYS as usize);
    assert!(per_key <= 48.0, "{per_key:.1} B of RSS per preloaded key");
    assert_eq!(kv.get(KEYS - 1), Some((KEYS - 1).to_le_bytes().to_vec()));
}
