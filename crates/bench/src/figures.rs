//! The paper's table and figures (Table 1, Figs. 2–18) and three
//! ablations beyond it, as one suite: every number EXPERIMENTS.md quotes
//! for them is a row of `BENCH_figures.json`, which `flock-bench --check`
//! holds to the tree like the four lab documents.
//!
//! Unlike those, this suite does not run the real stack under
//! `VirtualLab`: its rows come from the discrete-event models of
//! `flock-models` (DESIGN.md §2) — the document says so in `"source":
//! "model"`, the before-image for moving the figures onto the real code
//! (ROADMAP item 4). A model run is a pure function of its configuration
//! and seed, so the document is byte-identical from run to run.
//!
//! [`SECTIONS`] is the whole suite: one function per figure, each point a
//! diff against `RpcConfig::default()` through [`Preset::rpc`], each row
//! one inline object. Latencies are exact (whole virtual nanoseconds
//! printed as µs); scale-downs from the paper's sizes are the constants in
//! [`Preset::of`]. What the paper reports for each figure, and how the
//! rows compare, is EXPERIMENTS.md's to say, under the same section ids.

use flock_fabric::{Access, Fabric, FabricError, RecvWr, RemoteAddr, SendWr, Sge, Transport, WrId};
use flock_models::coord::TxnWorkload;
use flock_models::SystemKind::{Flock, LockShare, UdRpc};
use flock_models::{
    run_raw_read, run_rpc, run_txn, RawReadConfig, Report, RpcConfig, SystemKind, TxnConfig,
};
use flock_sim::Ns;
use flock_txn::{Smallbank, Tatp};

use crate::json::{array, float, inline, object, Value};
use crate::SuiteRun;

/// The sizes every section shares.
struct Preset {
    quick: bool,
    /// Measured virtual window per point, after `warmup_us`.
    window_us: u64,
    warmup_us: u64,
    /// TATP subscribers per server (paper: 1 M).
    tatp_subscribers: u64,
    /// Smallbank accounts (paper: 100 k per thread).
    smallbank_accounts: u64,
    /// Keys in the HydraList index (paper: 32 M).
    index_keys: u64,
}

impl Preset {
    /// Test smoke (`quick`) or the checked-in `BENCH_figures.json`.
    ///
    /// The smoke sizes are what tier-1 can afford: an unoptimized test
    /// build simulates ≈ 60 k requests a second, and `tests/suites.rs`
    /// runs the suite three times. One point per section over 0.75
    /// virtual ms is ≈ 5 s a run there (first *and* last point over 2 ms
    /// would be 30 s); every default-sized point still completes
    /// requests inside that window, the three ablations' starved first
    /// points (`max_aqp` 32, batch 1, grant 4) record none.
    fn of(quick: bool) -> Preset {
        if quick {
            Preset {
                quick,
                window_us: 500,
                warmup_us: 250,
                tatp_subscribers: 1_000,
                smallbank_accounts: 10_000,
                index_keys: 10_000,
            }
        } else {
            Preset {
                quick,
                window_us: 8_000,
                warmup_us: 4_000,
                tatp_subscribers: 200_000,
                smallbank_accounts: 100_000,
                index_keys: 2_000_000,
            }
        }
    }

    /// The points a section sweeps: all of `full`, or only its first when
    /// quick.
    fn axis<T: Copy>(&self, full: &[T]) -> Vec<T> {
        let points = if self.quick { 1 } else { full.len() };
        full[..points].to_vec()
    }

    /// `RpcConfig::default()` (seed 42) over this preset's window, then
    /// `diff`: a point reads as what it changes.
    fn rpc(&self, diff: impl FnOnce(&mut RpcConfig)) -> RpcConfig {
        let mut cfg = RpcConfig::default();
        cfg.duration = Ns::from_micros(self.window_us);
        cfg.warmup = Ns::from_micros(self.warmup_us);
        diff(&mut cfg);
        cfg
    }

    /// An echo or index point: `threads` application threads on as many
    /// QPs per client, `outstanding` requests each, then `diff`.
    fn point(
        &self,
        system: SystemKind,
        threads: usize,
        outstanding: usize,
        diff: impl FnOnce(&mut RpcConfig),
    ) -> Report {
        run_rpc(&self.rpc(|c| {
            c.system = system;
            c.threads_per_client = threads;
            c.lanes_per_client = threads;
            c.outstanding = outstanding;
            diff(c);
        }))
    }
}

/// Three decimals: exact for a latency in µs, 1 kops/s for a throughput.
fn f3(v: f64) -> Value {
    float(v, 3)
}

fn row(fields: Vec<(&'static str, Value)>) -> Value {
    inline(object(fields))
}

const THREADS_TO_48: [usize; 7] = [1, 2, 4, 8, 16, 32, 48];
const THREADS_TO_32: [usize; 6] = [1, 2, 4, 8, 16, 32];
const OUTSTANDING: [usize; 3] = [1, 4, 8];
const FIG2_POINTS: [usize; 8] = [22, 44, 88, 176, 352, 704, 1408, 2816];

/// Post each verb of Table 1 on a connected (or, for UD, ready) QP pair
/// of the threaded fabric: `(read, atomic, write, send)` accepted.
fn probe(t: Transport) -> (bool, bool, bool, bool) {
    let fabric = Fabric::with_defaults();
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let amr = a.register_mr(4096, Access::REMOTE_ALL);
    let bmr = b.register_mr(4096, Access::REMOTE_ALL);
    let acq = a.create_cq(16);
    let bcq = b.create_cq(16);
    let qa = a.create_qp(t, &acq, &acq);
    let qb = b.create_qp(t, &bcq, &bcq);
    if t.connected() {
        fabric.connect(&qa, &qb).expect("fresh QPs connect");
    } else {
        qa.ready().expect("fresh UD QP");
        qb.ready().expect("fresh UD QP");
    }
    qb.post_recv(RecvWr {
        wr_id: WrId(1),
        local: Sge {
            lkey: bmr.lkey(),
            addr: bmr.addr(),
            len: 4096,
        },
    })
    .expect("receive queue has room");
    let local = Sge {
        lkey: amr.lkey(),
        addr: amr.addr(),
        len: 8,
    };
    let remote = RemoteAddr {
        rkey: bmr.rkey(),
        addr: bmr.addr(),
    };
    let ok = |r: flock_fabric::Result<()>| !matches!(r, Err(FabricError::UnsupportedVerb { .. }));
    let read = ok(qa.post_send(SendWr::read(WrId(2), local, remote)));
    let atomic = ok(qa.post_send(SendWr::fetch_add(WrId(3), local, remote, 1)));
    let write = ok(qa.post_send(SendWr::write(WrId(4), local, remote)));
    let send = ok(qa.post_send(if t.connected() {
        SendWr::send(WrId(5), local)
    } else {
        SendWr::send_to(WrId(5), local, (b.id(), qb.qpn()))
    }));
    (read, atomic, write, send)
}

/// Table 1: verbs and maximum message size per transport, each verb
/// probed on the fabric and cross-checked against the declared matrix.
fn table1(_: &Preset) -> Value {
    let transports = [
        ("RC", Transport::Rc),
        ("UC", Transport::Uc),
        ("UD", Transport::Ud),
    ];
    array(transports.map(|(name, t)| {
        let (read, atomic, write, send) = probe(t);
        assert_eq!(read, t.supports_read(), "{name} read");
        assert_eq!(atomic, t.supports_atomic(), "{name} atomic");
        assert_eq!(write, t.supports_write(), "{name} write");
        assert!(send, "{name} send");
        let bytes = t.max_msg_size();
        let mtu = if bytes >= 1 << 30 {
            format!("{} GB", bytes >> 30)
        } else {
            format!("{} KB", bytes >> 10)
        };
        row(vec![
            ("transport", name.into()),
            ("mtu", mtu.as_str().into()),
            ("read", read.into()),
            ("atomic", atomic.into()),
            ("write", write.into()),
            ("send_recv", send.into()),
            ("reliable", t.reliable().into()),
        ])
    }))
}

/// Fig. 2(a): RC read throughput vs number of QPs, 22 clients issuing
/// 16-byte reads, until the QPs overrun the NIC's connection cache.
fn fig2a(p: &Preset) -> Value {
    array(p.axis(&FIG2_POINTS).into_iter().map(|qps| {
        let mut cfg = RawReadConfig::default();
        cfg.total_qps = qps;
        cfg.duration = Ns::from_micros(p.window_us);
        cfg.warmup = Ns::from_micros(p.warmup_us);
        let r = run_raw_read(&cfg);
        row(vec![
            ("qps", qps.into()),
            ("mops", f3(r.mops)),
            ("cache_hit", f3(r.cache_hit)),
        ])
    }))
}

/// Fig. 2(b): raw HERD-style UD RPC vs number of senders, bound by the
/// server CPU's per-packet receive work.
fn fig2b(p: &Preset) -> Value {
    array(p.axis(&FIG2_POINTS).into_iter().map(|senders| {
        let r = run_rpc(&p.rpc(|c| {
            c.system = UdRpc;
            c.n_clients = 22;
            c.threads_per_client = (senders / 22).max(1);
            c.outstanding = 4;
            c.handler_ns = 50;
            // Minimal session bookkeeping, unlike eRPC proper.
            c.cost.cpu_erpc_session_ns = 150;
        }));
        row(vec![
            ("senders", senders.into()),
            ("mops", f3(r.mops)),
            ("server_cpu", f3(r.server_cpu)),
        ])
    }))
}

/// Figs. 6/7/8: Flock vs eRPC, 64-byte RPCs, one server, 23 clients —
/// throughput, median and p99.
fn fig6_7_8(p: &Preset) -> Value {
    let mut rows = Vec::new();
    for outstanding in p.axis(&OUTSTANDING) {
        for threads in p.axis(&THREADS_TO_48) {
            let f = p.point(Flock, threads, outstanding, |_| {});
            let e = p.point(UdRpc, threads, outstanding, |_| {});
            rows.push(row(vec![
                ("outstanding", outstanding.into()),
                ("threads", threads.into()),
                ("flock_mops", f3(f.mops)),
                ("flock_med_us", f3(f.median_us)),
                ("flock_p99_us", f3(f.p99_us)),
                ("flock_degree", f3(f.degree)),
                ("erpc_mops", f3(e.mops)),
                ("erpc_med_us", f3(e.median_us)),
                ("erpc_p99_us", f3(e.p99_us)),
            ]));
        }
    }
    array(rows)
}

/// Fig. 9: QP-sharing schemes at 8 outstanding — Flock, one QP per thread
/// (no sharing), FaRM-style spinlock sharing with 2 or 4 threads per QP.
fn fig9(p: &Preset) -> Value {
    array(p.axis(&THREADS_TO_48).into_iter().map(|threads| {
        let unshared = |system, threads_per_qp: usize| {
            p.point(system, threads, 8, |c| {
                c.lanes_per_client = threads.div_ceil(threads_per_qp);
                c.batch_limit = 1;
                c.scheduling = false;
                c.thread_sched = false;
            })
        };
        let flock = p.point(Flock, threads, 8, |_| {});
        let noshare = unshared(Flock, 1);
        let farm2 = unshared(LockShare, 2);
        let farm4 = unshared(LockShare, 4);
        row(vec![
            ("threads", threads.into()),
            ("flock_mops", f3(flock.mops)),
            ("flock_deg", f3(flock.degree)),
            ("flock_p99_us", f3(flock.p99_us)),
            ("noshare_mops", f3(noshare.mops)),
            ("noshare_p99_us", f3(noshare.p99_us)),
            ("noshare_hit", f3(noshare.cache_hit)),
            ("farm2_mops", f3(farm2.mops)),
            ("farm4_mops", f3(farm4.mops)),
        ])
    }))
}

/// Fig. 10: coalescing on and off, 32 threads per client.
fn fig10(p: &Preset) -> Value {
    array(p.axis(&OUTSTANDING).into_iter().map(|outstanding| {
        let with = p.point(Flock, 32, outstanding, |_| {});
        let without = p.point(Flock, 32, outstanding, |c| c.batch_limit = 1);
        row(vec![
            ("outstanding", outstanding.into()),
            ("with_mops", f3(with.mops)),
            ("without_mops", f3(without.mops)),
            ("speedup", f3(with.mops / without.mops)),
            ("reqs_per_msg", f3(with.degree)),
            ("with_pkts", with.packets.into()),
            ("without_pkts", without.packets.into()),
        ])
    }))
}

/// Fig. 11: sender-side thread scheduling (Algorithm 1) against a static
/// two-threads-per-QP assignment; 10 % of 32 threads send large RPCs.
fn fig11(p: &Preset) -> Value {
    array(p.axis(&[512, 768, 1024]).into_iter().map(|large| {
        let run = |thread_sched| {
            p.point(Flock, 32, 8, |c| {
                c.lanes_per_client = 16;
                c.large_fraction = 0.10;
                c.large_size = large;
                // The receiver side is off on both sides, so the sender
                // side is the one variable.
                c.scheduling = false;
                c.thread_sched = thread_sched;
            })
        };
        let (with, without) = (run(true), run(false));
        row(vec![
            ("large_B", large.into()),
            ("with_mops", f3(with.mops)),
            ("without_mops", f3(without.mops)),
            ("speedup", f3(with.mops / without.mops)),
            ("with_p99_us", f3(with.p99_us)),
            ("without_p99_us", f3(without.p99_us)),
        ])
    }))
}

/// Fig. 12: node scalability, 23 → 368 client processes at 8 outstanding:
/// 1 thread on 1 QP (nothing to coalesce, Flock's worst case), 2 threads
/// sharing 1 QP, 2 threads on 2 QPs.
fn fig12(p: &Preset) -> Value {
    array(p.axis(&[23, 46, 92, 184, 368]).into_iter().map(|clients| {
        let run = |threads, lanes| {
            p.point(Flock, threads, 8, |c| {
                c.n_clients = clients;
                c.lanes_per_client = lanes;
            })
        };
        let (a, b, c) = (run(1, 1), run(2, 1), run(2, 2));
        row(vec![
            ("clients", clients.into()),
            ("1t1q_mops", f3(a.mops)),
            ("1t1q_med", f3(a.median_us)),
            ("1t1q_p99", f3(a.p99_us)),
            ("2t1q_mops", f3(b.mops)),
            ("2t1q_med", f3(b.median_us)),
            ("2t1q_p99", f3(b.p99_us)),
            ("2t2q_mops", f3(c.mops)),
            ("2t2q_med", f3(c.median_us)),
            ("2t2q_p99", f3(c.p99_us)),
        ])
    }))
}

/// A section of FlockTX vs a FaSST-style UD-RPC system, which has no
/// one-sided verbs and validates by RPC: 3 servers (3-way replication),
/// 20 clients, 19 of a thread's 20 coroutines submitting.
fn txn_section(p: &Preset, workload: TxnWorkload, threads: &[usize]) -> Value {
    array(p.axis(threads).into_iter().map(|threads| {
        let run = |system| {
            run_txn(&TxnConfig {
                rpc: p.rpc(|c| {
                    c.system = system;
                    c.n_clients = 20;
                    c.threads_per_client = threads;
                    c.lanes_per_client = threads;
                }),
                n_servers: 3,
                coroutines: 19,
                workload: workload.clone(),
                validate_via_rpc: system == UdRpc,
            })
        };
        let (f, s) = (run(Flock), run(UdRpc));
        let abort_pct = 100.0 * f.aborts as f64 / (f.commits + f.aborts).max(1) as f64;
        row(vec![
            ("threads", threads.into()),
            ("flocktx_mtps", f3(f.mops)),
            ("flocktx_med_us", f3(f.median_us)),
            ("flocktx_p99_us", f3(f.p99_us)),
            ("flocktx_aborts", f.aborts.into()),
            ("flocktx_abort_pct", f3(abort_pct)),
            ("fasst_mtps", f3(s.mops)),
            ("fasst_med_us", f3(s.median_us)),
            ("fasst_p99_us", f3(s.p99_us)),
        ])
    }))
}

/// Fig. 14: TATP (read-intensive).
fn fig14(p: &Preset) -> Value {
    let tatp = TxnWorkload::Tatp(Tatp::new(p.tatp_subscribers));
    txn_section(p, tatp, &THREADS_TO_32)
}

/// Fig. 15: Smallbank (85 % updates, 4 % of accounts take 90 % of the
/// traffic).
fn fig15(p: &Preset) -> Value {
    let smallbank = TxnWorkload::Smallbank(Smallbank::new(p.smallbank_accounts));
    txn_section(p, smallbank, &[1, 2, 4, 8, 16])
}

/// Figs. 16/17/18: HydraList index service, 90 % get / 10 % scan(64),
/// 22 clients, 8-byte keys and values, scans answered with a count.
fn fig16_17_18(p: &Preset) -> Value {
    let mut rows = Vec::new();
    for outstanding in p.axis(&OUTSTANDING) {
        for threads in p.axis(&THREADS_TO_32) {
            let run = |system| {
                p.point(system, threads, outstanding, |c| {
                    c.n_clients = 22;
                    c.hydra_keys = Some(p.index_keys);
                })
            };
            let (f, e) = (run(Flock), run(UdRpc));
            rows.push(row(vec![
                ("outstanding", outstanding.into()),
                ("threads", threads.into()),
                ("flock_mops", f3(f.mops)),
                ("flock_get_med", f3(f.get_median_us)),
                ("flock_get_p99", f3(f.get_p99_us)),
                ("flock_scan_med", f3(f.scan_median_us)),
                ("flock_scan_p99", f3(f.scan_p99_us)),
                ("erpc_mops", f3(e.mops)),
                ("erpc_get_med", f3(e.get_median_us)),
                ("erpc_get_p99", f3(e.get_p99_us)),
                ("erpc_scan_med", f3(e.scan_median_us)),
                ("erpc_scan_p99", f3(e.scan_p99_us)),
            ]));
        }
    }
    array(rows)
}

/// One ablation sweep (DESIGN.md §4) at 23 clients × 48 threads, 8
/// outstanding: `set` applies the swept value, which the rows carry as
/// `knob`.
fn ablation<T: Copy + Into<Value>>(
    p: &Preset,
    knob: &'static str,
    values: &[T],
    set: fn(&mut RpcConfig, T),
) -> Value {
    array(p.axis(values).into_iter().map(|v| {
        let r = p.point(Flock, 48, 8, |c| set(c, v));
        row(vec![
            (knob, v.into()),
            ("mops", f3(r.mops)),
            ("p99_us", f3(r.p99_us)),
            ("degree", f3(r.degree)),
            ("cache_hit", f3(r.cache_hit)),
        ])
    }))
}

/// The server's active-QP bound: too low starves parallelism, too high
/// readmits cache thrashing; the paper picks 256 from Fig. 2(a).
fn ablation_max_aqp(p: &Preset) -> Value {
    let values = [32usize, 64, 128, 256, 512, 1024, 2048];
    ablation(p, "max_aqp", &values, |c, v| c.max_aqp = v)
}

/// The TCQ leader's per-batch bound (paper §4.2): gains saturate once it
/// exceeds the natural contention degree.
fn ablation_batch_limit(p: &Preset) -> Value {
    let values = [1usize, 2, 4, 8, 16, 32, 64];
    ablation(p, "batch_limit", &values, |c, v| c.batch_limit = v)
}

/// Credits per grant, `C` (paper: 32): tiny grants stall senders on
/// renewal round trips.
fn ablation_grant_size(p: &Preset) -> Value {
    let values = [4u32, 8, 16, 32, 64, 128];
    ablation(p, "grant", &values, |c, v| c.grant_size = v)
}

/// A section's id in the document and the function that renders its rows.
type Section = (&'static str, fn(&Preset) -> Value);

/// Every section of the document, in rendering order.
const SECTIONS: [Section; 14] = [
    ("table1", table1),
    ("fig2a", fig2a),
    ("fig2b", fig2b),
    ("fig6_7_8", fig6_7_8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16_17_18", fig16_17_18),
    ("ablation_max_aqp", ablation_max_aqp),
    ("ablation_batch_limit", ablation_batch_limit),
    ("ablation_grant_size", ablation_grant_size),
];

/// Every section's rows, in [`SECTIONS`] order. Sections are independent
/// pure functions of the preset, so they run on up to one host thread per
/// CPU, each thread taking the next section nobody has taken.
#[expect(
    clippy::disallowed_methods,
    reason = "the sections are model runs outside any lab: host threads only spread them over the \
              CPUs, and each section's rows are the same on whichever thread computes them"
)]
fn run_sections(p: &Preset) -> Vec<Value> {
    let next = flock_sync::Counter::default();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows: Vec<(usize, Value)> = std::thread::scope(|s| {
        let take_sections = || {
            let mut rows = Vec::new();
            loop {
                let i = next.add(1) as usize;
                let Some((_, section)) = SECTIONS.get(i) else {
                    return rows;
                };
                rows.push((i, section(p)));
            }
        };
        let workers: Vec<_> = (0..cpus.min(SECTIONS.len()))
            .map(|_| s.spawn(take_sections))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    rows.sort_unstable_by_key(|&(i, _)| i);
    rows.into_iter().map(|(_, value)| value).collect()
}

/// Run every section and render the stable-order JSON document.
pub fn run_suite(quick: bool) -> SuiteRun {
    let p = Preset::of(quick);
    let mut doc = vec![
        ("schema", "flock-bench-figures/v1".into()),
        ("quick", quick.into()),
        ("source", "model".into()),
        ("window_us", p.window_us.into()),
        ("warmup_us", p.warmup_us.into()),
        ("seed", RpcConfig::default().seed.into()),
        ("tatp_subscribers", p.tatp_subscribers.into()),
        ("smallbank_accounts", p.smallbank_accounts.into()),
        ("index_keys", p.index_keys.into()),
    ];
    doc.extend(SECTIONS.iter().map(|(id, _)| *id).zip(run_sections(&p)));
    SuiteRun {
        doc: object(doc),
        ops: 0,
        cost: Default::default(),
    }
}
