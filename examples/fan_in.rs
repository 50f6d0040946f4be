//! The motivation experiment (paper §2.2, Figure 1) on the *threaded*
//! fabric: a high fan-in pattern where many client QPs hammer one server,
//! and the server RNIC's connection cache goes from fitting the working
//! set to thrashing.
//!
//! The threaded fabric runs in real time without modeled delays, so this
//! example demonstrates the *cache accounting* (hit ratios), not
//! throughput — Figure 2's timing shapes are the `fig2a`/`fig2b` sections
//! of `flock-bench figures`.
//!
//! Run with: `cargo run --release --example fan_in`

use std::sync::Arc;

use flock_repro::fabric::cache::Eviction;
use flock_repro::fabric::{
    Access, ConnCache, Fabric, FabricConfig, RemoteAddr, SendWr, Sge, Transport, WrId,
};

fn run(total_qps: usize, cache_entries: usize) -> f64 {
    let mut config = FabricConfig::default();
    config.nic_cache_entries = cache_entries;
    let fabric = Fabric::new(config);
    let server = fabric.add_node("server");
    let smr = server.register_mr(1 << 16, Access::REMOTE_ALL);
    let scq = server.create_cq(1024);

    // 8 client nodes share the QPs evenly (fan-in).
    let clients: Vec<_> = (0..8).map(|i| fabric.add_node(&format!("c{i}"))).collect();
    let mut qps = Vec::new();
    for (i, client) in clients.iter().cycle().take(total_qps).enumerate() {
        let mr = client.register_mr(64, Access::LOCAL);
        let cq = client.create_cq(16);
        let qp = client.create_qp(Transport::Rc, &cq, &cq);
        let sqp = server.create_qp(Transport::Rc, &scq, &scq);
        fabric.connect(&qp, &sqp).unwrap();
        qps.push((Arc::clone(client), mr, cq, qp, i));
    }

    // Several rounds of 16-byte reads across all QPs.
    for _round in 0..4 {
        for (_c, mr, _cq, qp, i) in &qps {
            qp.post_send(SendWr::read(
                WrId(*i as u64),
                Sge {
                    lkey: mr.lkey(),
                    addr: mr.addr(),
                    len: 16,
                },
                RemoteAddr {
                    rkey: smr.rkey(),
                    addr: smr.addr(),
                },
            ))
            .unwrap();
        }
        for (_c, _mr, cq, _qp, _i) in &qps {
            cq.wait_one(std::time::Duration::from_secs(5)).unwrap();
        }
    }
    let cache = server.cache().lock();
    cache.hit_ratio()
}

fn main() {
    println!("server NIC connection cache under growing fan-in (threaded fabric)");
    println!("qps\tcache=256\tcache=64");
    for total_qps in [16, 64, 128, 256] {
        let big = run(total_qps, 256);
        let small = run(total_qps, 64);
        println!("{total_qps}\t{big:.2}\t\t{small:.2}");
    }

    // The same effect, isolated on the cache model itself.
    println!("\nstandalone LRU vs random eviction at 2x capacity (cyclic access):");
    for (name, policy) in [("lru", Eviction::Lru), ("random", Eviction::Random)] {
        let mut c = ConnCache::with_policy(128, policy, 7);
        for _ in 0..8 {
            for k in 0..256u64 {
                c.access(k);
            }
        }
        println!("  {name}: hit ratio {:.2}", c.hit_ratio());
    }
    println!("\ntakeaway: bounding active QPs below the cache capacity (MAX_AQP) keeps hits ~1.0");
}
