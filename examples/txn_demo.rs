//! FlockTX in action: Smallbank money transfers over three replicated
//! servers with OCC + 2PC + one-sided validation (paper §8.5, Fig. 13).
//!
//! Run with: `cargo run --release --example txn_demo`

use std::collections::HashMap;
use std::sync::Arc;

use flock_repro::core::client::HandleConfig;
use flock_repro::core::server::{FlockServer, ServerConfig};
use flock_repro::core::{ConnectionHandle, FlockDomain};
use flock_repro::sim::SimRng;
use flock_repro::txn::protocol::{key_partition, replicas_of};
use flock_repro::txn::{Smallbank, TxnClient, TxnOutcome, TxnServer};

const N_SERVERS: usize = 3;
const ACCOUNTS: u64 = 200;

fn main() {
    let domain = FlockDomain::with_defaults();

    // --- Three transaction servers, each primary for one partition -------
    let mut servers = Vec::new();
    let mut txn_servers = Vec::new();
    for i in 0..N_SERVERS {
        let node = domain.add_node(&format!("txn-server-{i}"));
        let server =
            FlockServer::listen(&domain, &node, &format!("txn{i}"), ServerConfig::default());
        let region = server.attach_mreg(1 << 20); // version table for fl_read validation
        let ts = TxnServer::new(i, server.mem_region(region).unwrap());
        ts.register(&server);
        servers.push(server);
        txn_servers.push(ts);
    }

    // --- Load the bank: each key on its primary and both backups ----------
    let bank = Smallbank::new(ACCOUNTS);
    for (key, value) in bank.load_keys() {
        let p = key_partition(key, N_SERVERS);
        txn_servers[p].load(key, &value);
        for r in replicas_of(p, N_SERVERS) {
            txn_servers[r].load_backup(key, &value);
        }
    }
    let initial_total: u64 = ACCOUNTS * 2 * 1000;
    println!("loaded {ACCOUNTS} accounts ({initial_total} total balance)");

    // --- Clients run money-conserving transfers ---------------------------
    let client_node = domain.add_node("txn-client");
    let handles: Vec<Arc<ConnectionHandle>> = (0..N_SERVERS)
        .map(|i| {
            Arc::new(
                ConnectionHandle::connect(
                    &domain,
                    &client_node,
                    &format!("txn{i}"),
                    HandleConfig::default(),
                )
                .unwrap(),
            )
        })
        .collect();

    let mut joins = Vec::new();
    for worker in 0..3u64 {
        let handles = handles.clone();
        let bank = bank.clone();
        joins.push(std::thread::spawn(move || {
            let client = TxnClient::new(&handles);
            let mut rng = SimRng::new(worker);
            let (mut commits, mut aborts) = (0u64, 0u64);
            for _ in 0..150 {
                let spec = loop {
                    let s = bank.next(&mut rng);
                    if s.kind == "send_payment" {
                        break s;
                    }
                };
                let (from, to) = (spec.writes[0], spec.writes[1]);
                let outcome = client
                    .run(&[], &spec.writes, |vals| {
                        let f = u64::from_le_bytes(
                            vals[&from].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        let t = u64::from_le_bytes(
                            vals[&to].as_ref().unwrap()[..8].try_into().unwrap(),
                        );
                        let amount = 10.min(f);
                        HashMap::from([
                            (from, (f - amount).to_le_bytes().to_vec()),
                            (to, (t + amount).to_le_bytes().to_vec()),
                        ])
                    })
                    .unwrap();
                match outcome {
                    TxnOutcome::Committed(_) => commits += 1,
                    TxnOutcome::Aborted => aborts += 1,
                }
            }
            (commits, aborts)
        }));
    }
    let (mut commits, mut aborts) = (0, 0);
    for j in joins {
        let (c, a) = j.join().unwrap();
        commits += c;
        aborts += a;
    }
    println!("transfers: {commits} committed, {aborts} aborted (hot-account conflicts)");

    // --- Verify the invariant ---------------------------------------------
    let mut total = 0u64;
    for a in 0..ACCOUNTS {
        for key in [Smallbank::savings(a), Smallbank::checking(a)] {
            let v = txn_servers[key_partition(key, N_SERVERS)]
                .peek(key)
                .unwrap();
            total += u64::from_le_bytes(v[..8].try_into().unwrap());
        }
    }
    println!("total balance after transfers: {total} (expected {initial_total})");
    assert_eq!(total, initial_total, "money conservation violated");

    // Each worker's client settled when it dropped: every backup has
    // applied what committed and dropped what did not.
    let mut moved = 0;
    for (key, loaded) in bank.load_keys() {
        let p = key_partition(key, N_SERVERS);
        let primary = txn_servers[p].peek(key);
        for r in replicas_of(p, N_SERVERS) {
            assert_eq!(
                txn_servers[r].peek_backup(key),
                primary,
                "backup {r} of key {key}"
            );
            assert_eq!(txn_servers[r].pending(), 0, "server {r} holds a record");
        }
        moved += usize::from(primary.as_deref() != Some(&loaded[..]));
    }
    println!("every key's two backups equal its primary ({moved} balances moved)");

    for s in &servers {
        s.shutdown(&domain);
    }
    println!("done: serializable transfers with 3-way replication over Flock");
}
