//! The one harness under the four lab suites (`scale`, `churn`, `tenant`,
//! `onesided`): a run inside [`VirtualLab`] and what it cost the host
//! ([`run`], [`LabCost`], the heap allocations of [`count_allocs`]), the
//! server it runs against ([`Bed`]), what its clients measured
//! ([`Samples`]) and the one closed-loop RPC client ([`drive`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::iter::Sum;
use std::ops::Add;
use std::sync::Arc;

use flock_core::client::FlThread;
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::FlockDomain;
use flock_fabric::{FabricConfig, Node};
use flock_sim::vtime::VirtualLab;
use flock_sync::clock::{self, TaskHandle};
use flock_sync::Stop;

use crate::json::{inline, object, Value};

/// What one lab run cost the host, from its `LabReport`. Exact for a
/// tree, so `--check` holds every document's copy of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabCost {
    /// Times the lab resumed a task that has a stack: the run's host
    /// cost, and a determinism fingerprint.
    pub handovers: u64,
    /// Scheduler heap pushes: the rest of the run's host cost.
    pub heap_pushes: u64,
    /// Virtual tasks spawned over the run, steppers included.
    pub tasks: u64,
    /// Heap allocations the run made, counted by [`count_allocs`]: exact
    /// for a tree in a release build (debug assertions allocate too).
    pub allocs: u64,
}

impl LabCost {
    /// The object of `fields` followed by the cost's four.
    pub(crate) fn object(self, mut fields: Vec<(&'static str, Value)>) -> Value {
        fields.extend([
            ("handovers", self.handovers.into()),
            ("heap_pushes", self.heap_pushes.into()),
            ("tasks", self.tasks.into()),
            ("allocs", self.allocs.into()),
        ]);
        object(fields)
    }

    /// The cost alone, as one row of a document.
    pub(crate) fn row(self) -> Value {
        inline(self.object(Vec::new()))
    }
}

impl Add for LabCost {
    type Output = LabCost;

    fn add(self, o: LabCost) -> LabCost {
        LabCost {
            handovers: self.handovers + o.handovers,
            heap_pushes: self.heap_pushes + o.heap_pushes,
            tasks: self.tasks + o.tasks,
            allocs: self.allocs + o.allocs,
        }
    }
}

impl Sum for LabCost {
    fn sum<I: Iterator<Item = LabCost>>(costs: I) -> LabCost {
        costs.fold(LabCost::default(), Add::add)
    }
}

/// Run `f` as the root task of a fresh [`VirtualLab`]: its result and
/// what the run cost. The lab runs on an OS thread of its own, so the
/// thread-locals it fills (the TCQ's block pool among them) start empty
/// and a run's `allocs` does not depend on what ran before it.
#[expect(
    clippy::disallowed_methods,
    reason = "a lab run is hosted on an OS thread of its own; the lab inside is the same deterministic \
              single-thread executor, and the caller joins the thread before it returns"
)]
pub(crate) fn run<T: Send>(f: impl FnOnce() -> T + Send) -> (T, LabCost) {
    std::thread::scope(|s| {
        let host = s.spawn(|| count_allocs(|| VirtualLab::run_report(f)));
        let ((out, report), allocs) = host.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        let cost = LabCost {
            handovers: report.handovers,
            heap_pushes: report.heap_pushes,
            tasks: report.tasks_spawned,
            allocs,
        };
        (out, cost)
    })
}

/// Forwards to [`System`], counting each allocation (`alloc`,
/// `alloc_zeroed`, `realloc`) that a thread inside [`count_allocs`]
/// makes. Every binary that links `flock-bench` allocates through it.
struct Counting;

thread_local! {
    #[expect(
        clippy::disallowed_types,
        reason = "the allocator counts per OS thread; each lab run has its thread to itself (run)"
    )]
    /// This thread's allocations since [`count_allocs`] began; `None`
    /// outside it.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

impl Counting {
    fn count() {
        if let Some(n) = ALLOCS.get() {
            ALLOCS.set(Some(n + 1));
        }
    }
}

// SAFETY: every method forwards its arguments to `System`, which upholds
// the `GlobalAlloc` contract; counting reads and writes a const-initialized
// thread-local `Cell` without a destructor, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let block = unsafe { System.alloc(layout) };
        Counting::count();
        block
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let block = unsafe { System.alloc_zeroed(layout) };
        Counting::count();
        block
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block of this allocator (so of
        // `System`) with its `layout`, and a valid `new_size`.
        let block = unsafe { System.realloc(ptr, layout, new_size) };
        Counting::count();
        block
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block of this allocator (so of
        // `System`) with its `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the heap allocations this thread made while it ran.
/// Frees are not counted. Other threads are not counted, but a lab's
/// tasks all run on the thread that runs the lab (where tasks have
/// stacks of their own: x86-64 Unix, DESIGN.md §5e).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let outer = ALLOCS.replace(Some(0));
    let out = f();
    let n = ALLOCS.get().expect("counting until `f` returns");
    ALLOCS.set(outer.map(|o| o + n));
    (out, n)
}

/// Elastic fabric: QP pool and MR cache on, `nic_lanes` lanes per node.
pub(crate) fn elastic_fabric(nic_lanes: usize) -> FabricConfig {
    let mut fc = FabricConfig::default();
    fc.qpool.enabled = true;
    fc.mr_cache.enabled = true;
    fc.nic_lanes = nic_lanes;
    fc
}

/// A test bed: one server listening on a node of a fresh domain.
pub(crate) struct Bed {
    pub domain: Arc<FlockDomain>,
    pub node: Arc<Node>,
    pub server: FlockServer,
}

impl Bed {
    /// A domain over `fabric` whose node `node` serves `service`. The
    /// node's name labels its NIC lane tasks.
    pub(crate) fn new(fabric: FabricConfig, node: &str, service: &str, cfg: ServerConfig) -> Bed {
        let domain = Arc::new(FlockDomain::new(fabric));
        let node = domain.add_node(node);
        let server = FlockServer::listen(&domain, &node, service, cfg);
        Bed {
            domain,
            node,
            server,
        }
    }

    /// [`Bed::new`], with RPC 1 an echo.
    pub(crate) fn echo(fabric: FabricConfig, node: &str, service: &str, cfg: ServerConfig) -> Bed {
        let bed = Bed::new(fabric, node, service, cfg);
        bed.server.reg_handler(1, |req| req.to_vec());
        bed
    }

    /// Shut the server down and drop the domain: its last reference
    /// stops and joins the NIC lane tasks, so the lab ends with only the
    /// root task live.
    ///
    /// # Panics
    ///
    /// If anything still holds the domain.
    pub(crate) fn close(self) {
        self.server.shutdown(&self.domain);
        drop(self.server);
        let domain = Arc::try_unwrap(self.domain).ok();
        drop(domain.expect("all domain users joined"));
    }
}

/// Join `tasks` in order. A task that panicked has failed the run
/// already, so a join has nothing to report.
pub(crate) fn join(tasks: impl IntoIterator<Item = TaskHandle>) {
    for t in tasks {
        let _ = t.join();
    }
}

/// What clients measured: one client's, or a cohort's once merged.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    /// Operations completed.
    pub ops: u64,
    /// Latency of each timed operation (virtual ns), ascending once
    /// merged.
    pub lats: Vec<u64>,
    /// Virtual instant the client started.
    pub start: u64,
    /// Virtual instant the client finished.
    pub finish: u64,
}

impl Samples {
    /// Every op and latency of `parts`, over the span from the first
    /// start to the last finish (0 to 0 for none).
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Samples>) -> Samples {
        let mut all = Samples {
            start: u64::MAX,
            ..Samples::default()
        };
        for p in parts {
            all.ops += p.ops;
            all.lats.extend_from_slice(&p.lats);
            all.start = all.start.min(p.start);
            all.finish = all.finish.max(p.finish);
        }
        all.start = all.start.min(all.finish);
        all.lats.sort_unstable();
        all
    }

    /// Virtual ns from start to finish, at least 1.
    pub(crate) fn span_ns(&self) -> u64 {
        self.finish.saturating_sub(self.start).max(1)
    }
}

/// When a [`drive`]n client stops: checked before each burst.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Until<'a> {
    /// Once this many requests completed.
    Requests(u64),
    /// At this virtual instant.
    Deadline(u64),
    /// Once the flag is set.
    Stopped(&'a Stop),
}

/// One closed-loop client on `t`: bursts of up to `window` echo requests
/// (RPC 1) carrying `payload`, each burst sent whole and then received
/// in order, until `until`. Every request is one op and one latency.
pub(crate) fn drive(t: &FlThread, payload: &[u8], window: usize, until: Until<'_>) -> Samples {
    let start = clock::now_ns();
    let mut lats = Vec::new();
    let mut burst: Vec<(u64, u64)> = Vec::with_capacity(window);
    loop {
        let size = match until {
            Until::Requests(n) => (n - lats.len() as u64).min(window as u64) as usize,
            Until::Deadline(at) if clock::now_ns() < at => window,
            Until::Stopped(stop) if !stop.is_set() => window,
            Until::Deadline(_) | Until::Stopped(_) => 0,
        };
        if size == 0 {
            break;
        }
        burst.clear();
        for _ in 0..size {
            let at = clock::now_ns();
            burst.push((t.send_rpc(1, payload).expect("send"), at));
        }
        for &(seq, at) in &burst {
            let resp = t.recv_res(seq).expect("recv");
            debug_assert_eq!(resp.len(), payload.len());
            lats.push(clock::now_ns().saturating_sub(at));
        }
    }
    Samples {
        ops: lats.len() as u64,
        lats,
        start,
        finish: clock::now_ns(),
    }
}

#[cfg(test)]
mod tests {
    use flock_core::api::fl_connect;
    use flock_core::client::HandleConfig;
    use parking_lot::Mutex;

    use super::*;

    const PAYLOAD: [u8; 16] = [7; 16];

    /// `body` on one client thread of a one-handler echo bed, in a fresh
    /// lab; also the requests the handler served. The handler calls
    /// `on_request` with its count so far before it answers.
    fn echo_bed<T: Send>(
        on_request: impl Fn(u64) + Send + Sync + 'static,
        body: impl FnOnce(FlThread) -> T + Send,
    ) -> (T, u64) {
        run(|| {
            let cfg = ServerConfig::default();
            let bed = Bed::new(FabricConfig::default(), "drive-srv", "drive", cfg);
            let served = Arc::new(Mutex::new(0u64));
            let counter = Arc::clone(&served);
            bed.server.reg_handler(1, move |req| {
                let n = {
                    let mut n = counter.lock();
                    *n += 1;
                    *n
                };
                on_request(n);
                req.to_vec()
            });
            let node = bed.domain.add_node("drive-cli");
            let handle =
                fl_connect(&bed.domain, &node, "drive", HandleConfig::default()).expect("connect");
            let out = body(handle.register_thread());
            drop(handle);
            bed.close();
            let served = *served.lock();
            (out, served)
        })
        .0
    }

    #[test]
    fn a_request_count_is_met_exactly_in_window_bursts() {
        // 4 + 4 + 2.
        let (s, served) = echo_bed(|_| {}, |t| drive(&t, &PAYLOAD, 4, Until::Requests(10)));
        assert_eq!((s.ops, s.lats.len(), served), (10, 10, 10));
        assert!(s.lats.iter().all(|&ns| ns > 0), "{:?}", s.lats);
    }

    #[test]
    fn no_burst_starts_at_or_after_the_deadline() {
        let at_once = |t: FlThread| drive(&t, &PAYLOAD, 4, Until::Deadline(clock::now_ns()));
        let (s, served) = echo_bed(|_| {}, at_once);
        assert_eq!((s.ops, served), (0, 0), "a burst started at the deadline");
        let later = |t: FlThread| drive(&t, &PAYLOAD, 4, Until::Deadline(clock::now_ns() + 50_000));
        let (s, served) = echo_bed(|_| {}, later);
        assert!(
            s.ops > 0 && s.ops % 4 == 0,
            "{} requests, not whole bursts",
            s.ops
        );
        assert_eq!(served, s.ops);
    }

    #[test]
    fn a_stopped_client_returns_after_the_set() {
        // The handler sets the stop while it serves request 7, the one
        // request in flight at window 1: the client takes its reply and
        // returns, and a request past it fails the run.
        const AT: u64 = 7;
        let stop = Arc::new(Stop::new());
        let setter = Arc::clone(&stop);
        let on_request = move |n| {
            assert!(n <= AT, "request {n} was sent after the stop");
            if n == AT {
                setter.set([]);
            }
        };
        let (s, served) = echo_bed(on_request, |t| {
            drive(&t, &PAYLOAD, 1, Until::Stopped(&stop))
        });
        assert_eq!((s.ops, s.lats.len(), served), (AT, AT as usize, AT));
    }
}
