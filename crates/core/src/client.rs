//! The client side of Flock: the connection handle (paper §3), the
//! leader's send path over the TCQ (§4.2), the response dispatcher (§4.3),
//! sender-side thread scheduling (§5.2), and one-sided memory operations
//! (§6).

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use flock_fabric::{
    Access, CompletionQueue, CostModel, CqOpcode, DoorbellSender, MemoryRegion, Node, Qp,
    RemoteAddr, SendWr, Sge, Transport, WrId,
};
use flock_sync::clock::{self, Event, IdleOn, Next, TaskHandle};
use flock_sync::{Counter, Stop};
use parking_lot::{Mutex, RwLock};

use crate::credit::{CreditState, MedianWindow, Residents, SendPhase};
use crate::domain::{
    await_reply, reply_channel, AttachMemRequest, AttachRequest, ConnectRequest, CtrlMsg,
    DetachRequest, ExportRequest, FlockDomain, MemRegionInfo, RingInfo, SegmentLease,
};
use crate::error::{FlockError, Result};
use crate::msg::{self, EntryMeta, EntryRef, FLAG_CREDIT_GRANT, FLAG_DRAINED, RPC_POSTED};
use crate::requests::{Delivered, Requests};
use crate::ring::{self, Link};
use crate::sched::thread::{assign_threads_into, AssignScratch, ThreadLoadStats};
use crate::tcq::{Outcome, Tcq};

/// Per-thread scratch slot size for one-sided operation payloads/results.
pub(crate) const MEM_SCRATCH: usize = 4096;
/// Maximum registered threads per connection handle.
pub(crate) const MAX_THREADS: usize = 256;

/// Client-side configuration for a connection handle.
#[derive(Debug, Clone)]
pub struct HandleConfig {
    /// Number of RC QPs multiplexed under this handle.
    pub n_qps: usize,
    /// Ring buffer capacity per QP (bytes).
    pub ring_capacity: usize,
    /// TCQ batch bound (coalesced requests per message); 1 disables
    /// coalescing: every request is its own message, the TCQ a queue
    /// lock (the lock-sharing baseline, `flock_baselines::lock_shared`).
    pub batch_limit: usize,
    /// Sender-side thread scheduling interval.
    pub sched_interval: Duration,
    /// Run the sender-side thread scheduler; off, a thread stays on
    /// lane `id % n_qps` (the lock-sharing baseline's static lanes).
    pub auto_thread_sched: bool,
    /// Default timeout for blocking waits.
    pub timeout: Duration,
    /// Materialize all `n_qps` lanes during `fl_connect` instead of
    /// lazily on first use. Connection setup is control-plane bound
    /// (QP creation + MR registration, Swift in PAPERS.md), so the
    /// default gets to the first RPC after a single control QP and
    /// attaches the remaining data lanes as threads land on them.
    pub eager_qps: bool,
    /// Threads the one-sided scratch region is sized for (its MR is
    /// `mem_threads * MEM_SCRATCH` bytes, registered at connect — the
    /// dominant MR-registration cost of the handle). Lower it for
    /// connection-churn workloads that never issue one-sided ops.
    pub mem_threads: usize,
    /// Tenant this handle connects on behalf of (gateway topology;
    /// [`crate::sched::DEFAULT_TENANT`] = 0 for single-tenant use). The
    /// server groups senders by tenant for AQP share caps and
    /// per-tenant accounting.
    pub tenant: u32,
    /// Give every registered thread a dedicated RC QP for its one-sided
    /// operations (the conventional FaRM/HERD design) instead of riding
    /// the shared RPC lanes' doorbells. This is the faithful one-sided
    /// baseline for the crossover experiments: per-thread QPs multiply
    /// per-client NIC connection state with fan-in — the state Flock's
    /// QP sharing amortizes away — so the responder's connection cache
    /// starts missing once total readers exceed its reach. Default off:
    /// Flock proper coalesces memory ops onto the shared lanes.
    pub dedicated_mem_qps: bool,
}

impl Default for HandleConfig {
    fn default() -> Self {
        HandleConfig {
            n_qps: 4,
            ring_capacity: 1 << 16,
            batch_limit: 16,
            sched_interval: Duration::from_millis(10),
            auto_thread_sched: true,
            timeout: Duration::from_secs(10),
            eager_qps: false,
            mem_threads: MAX_THREADS,
            tenant: crate::sched::DEFAULT_TENANT,
            dedicated_mem_qps: false,
        }
    }
}

/// A request item travelling through the TCQ.
pub(crate) enum ClientReq {
    /// An RPC request: metadata plus payload. The payload is a shared
    /// [`Bytes`] so handing it from the submitting thread to the leader
    /// (and retrying/re-batching) never copies the bytes — the only copy
    /// on the send path is the encode into the ring write's payload.
    Rpc(EntryMeta, Bytes),
    /// A pre-built one-sided work request.
    Mem(SendWr),
}

/// Per-QP client context.
pub(crate) struct ClientQpCtx {
    index: usize,
    /// Requests out (the TCQ leader sends), responses in (the response
    /// dispatcher polls).
    link: Link,
    /// The link's QP's send CQ, bound at lease: the response dispatcher
    /// drains it on every sweep.
    send_cq: Arc<CompletionQueue>,
    tcq: Tcq<ClientReq>,
    credits: Mutex<CreditState>,
    /// Signalled on every credit grant/decline and at shutdown.
    credit_event: Event,
    degree: Mutex<MedianWindow>,
    /// The threads sending on this lane and the lane's side of the
    /// deactivation hand-off: open, draining (a zero grant arrived, the
    /// [`FLAG_DRAINED`] marker is owed by whoever empties the lane) or
    /// drained (marker posted, nothing is sent until the next grant).
    residents: Residents,
    /// Posted requests sent on the lane and not yet answered: the send
    /// CQ answers them. Taken after the TCQ leadership, before
    /// `HandleInner::threads`.
    posted: Mutex<Posted>,
    messages_sent: Counter,
    requests_sent: Counter,
}

/// A lane's posted requests ([`FlThread::post_rpc`]) whose message has
/// not been heard of yet, and what its send CQ has said so far. RC
/// completes a QP's writes in order: a completion of message `n` says
/// every message up to `n` landed in the server's request ring, an
/// error one that every message before `n` landed and `n` and every
/// later one did not (the QP is in error from there on).
#[derive(Default)]
struct Posted {
    /// `(message, request)`, in message order.
    waiting: VecDeque<(u64, EntryMeta)>,
    /// Every message up to this one landed.
    landed: u64,
    /// This message and every later one failed.
    failed: Option<u64>,
}

impl Posted {
    /// The answer for a posted request sent in message `n`, once the
    /// send CQ has spoken for `n`.
    fn answer(&self, n: u64) -> Option<Result<Bytes>> {
        if self.failed.is_some_and(|first| n >= first) {
            return Some(Err(FlockError::RemoteOpFailed(
                "request write completed with error status",
            )));
        }
        (n <= self.landed).then(|| Ok(Bytes::new()))
    }
}

/// Number of scratch sub-slots per thread (concurrent one-sided ops).
pub(crate) const MEM_SUBSLOTS: usize = 8;
/// Bytes per scratch sub-slot.
pub(crate) const MEM_SUBSLOT_SIZE: usize = MEM_SCRATCH / MEM_SUBSLOTS;

/// What a one-sided op's slot in its thread's table carries: the
/// scratch sub-slots it holds and where in them its bytes land.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    /// Sub-slot bitmask held by the operation.
    mask: u8,
    /// Absolute offset of the result bytes in the handle's scratch MR.
    scratch_off: usize,
    /// Bytes to copy out on success.
    result_len: usize,
}

/// Where a completed one-sided op's bytes are until it is taken.
enum Landed {
    /// In its sub-slots, which it still holds.
    Held(MemOp),
    /// Moved out, its sub-slots freed, when the thread needed them for a
    /// new op before taking this one ([`FlThread::try_acquire_scratch`]).
    Moved(Vec<u8>),
}

impl Landed {
    /// Its bytes, read out of `scratch` if they are still there.
    fn into_vec(self, scratch: &MemoryRegion) -> Result<Vec<u8>> {
        match self {
            Landed::Held(op) => Ok(scratch.read_vec(op.scratch_off, op.result_len)?),
            Landed::Moved(bytes) => Ok(bytes),
        }
    }

    /// Copy as many of its bytes as fit into `out`; returns how many.
    fn copy_into(&self, scratch: &MemoryRegion, out: &mut [u8]) -> Result<usize> {
        match self {
            Landed::Held(op) => {
                let n = op.result_len.min(out.len());
                scratch.read(op.scratch_off, &mut out[..n])?;
                Ok(n)
            }
            Landed::Moved(bytes) => {
                let n = bytes.len().min(out.len());
                out[..n].copy_from_slice(&bytes[..n]);
                Ok(n)
            }
        }
    }
}

/// A published one-sided result: where its bytes are, or why the op
/// failed (its completion's error status, or the error of the post that
/// never sent it). A failed op holds no sub-slot.
type MemResult = Result<Landed>;

/// A thread's one-sided ops by seq and the scratch sub-slots they hold,
/// under one lock: a completion publishes the result, a take copies the
/// bytes out and frees the sub-slots.
struct MemOps {
    ops: Requests<MemOp, MemResult>,
    /// Bitmap of free scratch sub-slots.
    free: u8,
}

/// Bits of a one-sided work-request id below the issuing thread's id:
/// the op's seq in its thread's table. Thread ids are below
/// [`MAX_THREADS`] and seqs start at 1 and stay below bit 55
/// (`ring::MESSAGE_WR`), so no id is one of [`Link::owns`]'s before a
/// thread's 2^55th op.
const MEM_SEQ_BITS: u32 = 56;

/// The work-request id of `thread`'s one-sided op `seq`.
fn mem_wr_id(thread: u32, seq: u64) -> WrId {
    debug_assert!(seq < ring::MESSAGE_WR);
    WrId(u64::from(thread) << MEM_SEQ_BITS | seq)
}

/// A one-sided op's size bound: `MessageTooLarge` past `capacity` bytes.
fn fits(len: usize, capacity: usize) -> Result<()> {
    if len > capacity {
        return Err(FlockError::MessageTooLarge {
            need: len,
            capacity,
        });
    }
    Ok(())
}

/// A point-in-time snapshot of one QP lane's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QpMetrics {
    /// Coalesced messages sent on the lane.
    pub messages: u64,
    /// Individual requests sent on the lane.
    pub requests: u64,
    /// Credits currently available.
    pub credits: u32,
    /// Whether the server's scheduler keeps the lane active.
    pub active: bool,
}

/// A point-in-time snapshot of a connection handle's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct HandleMetrics {
    /// Total coalesced messages sent.
    pub messages: u64,
    /// Total requests sent.
    pub requests: u64,
    /// Mean coalescing degree (requests per message; 0 before traffic).
    pub degree: f64,
    /// Lanes currently active.
    pub active_qps: usize,
    /// Registered application threads.
    pub threads: usize,
    /// Per-lane breakdown.
    pub per_qp: Vec<QpMetrics>,
}

/// A handle to an in-flight one-sided operation (coroutine-style
/// pipelining, paper §8.5.2). Obtain via [`FlThread::read_async`],
/// [`FlThread::write_async`], or [`FlThread::read_batch`]; poll with
/// [`FlThread::try_mem`], block with [`FlThread::wait_mem`], or copy
/// the bytes into a buffer of the caller's with
/// [`FlThread::take_deferred`].
#[derive(Debug, Clone, Copy)]
pub struct MemToken {
    /// The op's seq in its thread's table.
    seq: u64,
}

/// Where a thread sends and what Algorithm 1 knows of its load (paper
/// §5.2), under one lock: the owner migrates and records, the scheduling
/// pass reads the window and writes `target`. Never held across a wait;
/// taken before [`ThreadCtx::requests`] when both are held.
struct Placement {
    /// The lane the thread sends on.
    current: usize,
    /// The lane the last scheduling pass picked; adopted when idle (no
    /// request outstanding in [`ThreadCtx::requests`]).
    target: usize,
    // Load since the last periodic scheduling pass.
    sizes: MedianWindow,
    requests: u64,
    bytes: u64,
}

/// Per-application-thread context.
pub(crate) struct ThreadCtx {
    id: u32,
    placement: Mutex<Placement>,
    /// Every request the thread sent, by seq: issued by the send path,
    /// answered by the response dispatcher (or, for a request its flush
    /// could not send, by the flush), taken or given up by the receive.
    requests: Mutex<Requests<(), Result<Bytes>>>,
    /// Signalled after every reply delivered and when the handle stops.
    reply_event: Event,
    /// Every one-sided op the thread issued, by seq, the same way, and
    /// its free scratch sub-slots.
    mem: Mutex<MemOps>,
    /// Signalled after every published result, every release of scratch
    /// sub-slots and when the handle stops.
    mem_event: Event,
    /// This thread's dedicated one-sided QP
    /// ([`HandleConfig::dedicated_mem_qps`]); empty when memory ops
    /// coalesce onto the shared lanes (the default), or when the
    /// mem-QP attach failed and the thread fell back to them.
    mem_qp: OnceLock<Arc<Qp>>,
    /// Buffers for the batches this thread leads; see [`leader_flush`].
    flush_scratch: Mutex<FlushScratch>,
}

impl ThreadCtx {
    /// Free the scratch sub-slots in `mask` and wake whoever waits for
    /// them.
    fn release(&self, mask: u8) {
        self.mem.lock().free |= mask;
        self.mem_event.notify_all();
    }
}

/// Shared state behind a [`ConnectionHandle`].
pub(crate) struct HandleInner {
    node: Arc<Node>,
    sender_id: u32,
    cfg: HandleConfig,
    /// Control channel to the server (attach/detach after connect).
    ctrl: DoorbellSender<CtrlMsg>,
    /// QP lanes, a dense prefix of which is materialized. Slots are
    /// write-once, so the send path reads a lane with no lock at all.
    lanes: Vec<OnceLock<Arc<ClientQpCtx>>>,
    /// Single-flight lane attach. Only ever taken by `try_lock` inside a
    /// wait on `dispatch_event` (`ensure_lanes`): the winner holds it
    /// across the control-plane round trip, and a loser never blocks on
    /// it — a virtual-time task must not.
    attach: Mutex<()>,
    threads: RwLock<Vec<Arc<ThreadCtx>>>,
    mem_regions: Vec<MemRegionInfo>,
    mem_mr: Arc<MemoryRegion>,
    /// Send CQ shared by the dedicated mem QPs (when
    /// [`HandleConfig::dedicated_mem_qps`] is set): one poll point for
    /// the dispatcher regardless of how many threads attached a QP.
    mem_cq: Option<Arc<CompletionQueue>>,
    /// What the response dispatcher idles on. Everything its sweep looks
    /// at notifies it: the NIC after a write into a lane's response ring
    /// (the ring MR's doorbell), every lane's send CQ and the mem CQ on a
    /// push, a lane attached, and the stop flag. Threads waiting for a
    /// lane attach wait on it too.
    dispatch_event: Arc<Event>,
    /// Fabric cost model: charges virtual CPU time for host-side work
    /// (doorbells, memcpys, polling) under a virtual-time executor;
    /// charges are no-ops in threaded mode.
    cost: CostModel,
    stop: Stop,
}

impl HandleInner {
    /// The materialized lane at `idx`.
    fn lane(&self, idx: usize) -> &Arc<ClientQpCtx> {
        self.lanes[idx].get().expect("lane not materialized")
    }

    /// For wait conditions: `Some(Err(Disconnected))` once the handle has
    /// stopped (ends the wait), `None` (keep waiting) until then.
    fn disconnected<T>(&self) -> Option<Result<T>> {
        self.stop.is_set().then_some(Err(FlockError::Disconnected))
    }

    /// Stop the handle and wake every wait that ends on
    /// [`HandleInner::disconnected`].
    fn stop_and_wake(&self) {
        let threads = self.threads.read();
        let credits = self.lanes_live().map(|qp| &qp.credit_event);
        let threads = threads.iter().flat_map(|t| [&t.reply_event, &t.mem_event]);
        let ring = std::iter::once(&*self.dispatch_event)
            .chain(credits)
            .chain(threads);
        self.stop.set(ring);
    }

    /// Iterate the materialized lanes (the dense prefix).
    fn lanes_live(&self) -> impl Iterator<Item = &Arc<ClientQpCtx>> {
        self.lanes.iter().map_while(OnceLock::get)
    }

    /// Lease one lane's local resources: a QP whose completions, and a
    /// response ring whose NIC writes, wake the response dispatcher.
    fn lease_lane(
        node: &Node,
        cfg: &HandleConfig,
        dispatch_event: &Arc<Event>,
    ) -> (Arc<Qp>, Arc<MemoryRegion>) {
        let cq = CompletionQueue::with_event(256, Arc::clone(dispatch_event));
        let qp = node.lease_qp(Transport::Rc, &cq, &cq);
        let resp_mr = node.acquire_mr(cfg.ring_capacity, Access::REMOTE_WRITE);
        resp_mr.set_doorbell(Some(Arc::clone(dispatch_event)));
        (qp, resp_mr)
    }

    /// TCQ boarding window (see [`crate::tcq::Tcq::join_with`]): a leader
    /// yields once before collecting its batch so that concurrently
    /// sending threads land in *this* batch. On real hardware the
    /// combining window exists for free (doorbell + DMA latency); in the
    /// simulator the flush is pure CPU work, so without this the window
    /// is a few nanoseconds and coalescing would depend on preemption
    /// luck. Gated off for single-threaded handles and when coalescing
    /// is disabled, where the yield would be pure overhead.
    fn boarding_window(&self) {
        if self.cfg.batch_limit > 1 && self.threads.read().len() > 1 {
            // Under a virtual executor the yield hands the core to peer
            // client tasks at the same virtual instant — the combining
            // window the doorbell+DMA latency provides on hardware.
            #[expect(
                clippy::disallowed_methods,
                reason = "one yield that lets peers board this batch, not a wait for a condition"
            )]
            clock::yield_now();
        }
    }
}

/// A Flock connection to one remote node (`fl_connect`, paper Table 2).
///
/// The handle owns a set of RC QPs, their rings, TCQs and credit state,
/// plus one task: the response dispatcher, which also runs the
/// sender-side thread scheduler. Application threads register via
/// [`ConnectionHandle::register_thread`] and interact through the
/// returned [`FlThread`].
pub struct ConnectionHandle {
    inner: Arc<HandleInner>,
    dispatcher: Option<TaskHandle>,
    /// Resources returned to the node's QP pool / MR cache by `close`;
    /// a second `close` returns nothing.
    released: bool,
}

/// A per-application-thread handle (cheap to clone is intentionally *not*
/// provided: one `FlThread` per OS thread).
pub struct FlThread {
    ctx: Arc<ThreadCtx>,
    inner: Arc<HandleInner>,
}

impl ConnectionHandle {
    /// Establish a connection to the server listening as `server_name`
    /// (the `fl_connect` API).
    pub fn connect(
        domain: &FlockDomain,
        node: &Arc<Node>,
        server_name: &str,
        cfg: HandleConfig,
    ) -> Result<ConnectionHandle> {
        assert!(cfg.n_qps >= 1);
        assert!(cfg.mem_threads >= 1 && cfg.mem_threads <= MAX_THREADS);
        let ctrl = domain.control(server_name)?;

        // Lease QPs and response rings for the eagerly-created lanes: all
        // of them in eager mode, only lane 0 (the control QP) otherwise.
        let init_lanes = if cfg.eager_qps { cfg.n_qps } else { 1 };
        let dispatch_event = Arc::new(Event::new());
        let mut client_qps = Vec::with_capacity(init_lanes);
        let mut resp_mrs = Vec::with_capacity(init_lanes);
        let mut response_rings = Vec::with_capacity(init_lanes);
        for _ in 0..init_lanes {
            let (qp, resp_mr) = HandleInner::lease_lane(node, &cfg, &dispatch_event);
            response_rings.push(RingInfo::of(&resp_mr));
            resp_mrs.push(resp_mr);
            client_qps.push(qp);
        }

        let (reply_tx, _unused) = reply_channel();
        let dialed = domain.dial(
            server_name,
            ConnectRequest {
                client_node: node.id(),
                client_qps: client_qps.clone(),
                response_rings,
                tenant: cfg.tenant,
                reply: reply_tx,
            },
        );
        let reply = match dialed {
            Ok(reply) => reply,
            Err(e) => {
                // No lane went live: recycle what was leased for them.
                for (qp, resp_mr) in client_qps.iter().zip(&resp_mrs) {
                    node.release_qp(qp);
                    node.release_mr(resp_mr);
                }
                return Err(e);
            }
        };

        let mut lanes: Vec<OnceLock<Arc<ClientQpCtx>>> = Vec::with_capacity(cfg.n_qps);
        lanes.resize_with(cfg.n_qps, OnceLock::new);
        for (i, (qp, resp_mr)) in client_qps.into_iter().zip(resp_mrs).enumerate() {
            let link = Link::new(node, qp, resp_mr, reply.request_rings[i]);
            let ctx = build_lane_ctx(&cfg, i, link, reply.initial_credits);
            lanes[i].set(ctx).ok().expect("fresh lane slot");
        }

        let mem_mr = node.acquire_mr(cfg.mem_threads * MEM_SCRATCH, Access::LOCAL);
        let inner = Arc::new(HandleInner {
            node: Arc::clone(node),
            sender_id: reply.sender_id,
            cfg: cfg.clone(),
            ctrl,
            lanes,
            attach: Mutex::new(()),
            threads: RwLock::new(Vec::new()),
            mem_regions: reply.memory_regions,
            mem_mr,
            mem_cq: cfg
                .dedicated_mem_qps
                .then(|| CompletionQueue::with_event(1024, Arc::clone(&dispatch_event))),
            dispatch_event,
            cost: domain.fabric().config().cost.clone(),
            stop: Stop::new(),
        });

        let dispatcher = {
            let mut dispatcher = ResponseDispatcher {
                inner: Arc::clone(&inner),
                drained: Vec::new(),
                msg: Vec::new(),
                sched: SchedScratch::default(),
                next_window: if cfg.auto_thread_sched {
                    clock::deadline(cfg.sched_interval)
                } else {
                    u64::MAX
                },
            };
            // Polling core in the lab: see the matching cap of the
            // server's `DispatchShard` for why the virtual ladder stays
            // tight.
            let idler = flock_sync::AdaptiveBackoff::new().with_virtual_cap(1_000);
            let event = Arc::clone(&inner.dispatch_event);
            clock::spawn_stepper("fl-resp-dispatch", idler, event, move || dispatcher.step())
        };

        Ok(ConnectionHandle {
            inner,
            dispatcher: Some(dispatcher),
            released: false,
        })
    }

    /// The sender id the server assigned to this connection.
    pub fn sender_id(&self) -> u32 {
        self.inner.sender_id
    }

    /// Memory regions the server advertised for one-sided operations.
    pub fn memory_regions(&self) -> &[MemRegionInfo] {
        &self.inner.mem_regions
    }

    /// Fetch the server's exported one-sided segment leases
    /// ([`CtrlMsg::Export`]), optionally filtered by exact name.
    ///
    /// One control-plane round trip; the returned leases are
    /// self-contained (slot `i` of a segment lives at
    /// `region.addr + i * stride` under `region.rkey`), so every
    /// subsequent read is a pure one-sided verb with no further
    /// control traffic.
    pub fn fetch_exports(&self, filter: Option<&str>) -> Result<Vec<SegmentLease>> {
        if self.inner.stop.is_set() {
            return Err(FlockError::Disconnected);
        }
        let (reply_tx, reply_rx) = reply_channel();
        self.inner
            .ctrl
            .send(CtrlMsg::Export(ExportRequest {
                filter: filter.map(str::to_string),
                reply: reply_tx,
            }))
            .map_err(|_| FlockError::Disconnected)?;
        await_reply(&reply_rx).map(|r| r.segments)
    }

    /// Register the calling application thread; returns its `FlThread`.
    ///
    /// First use of a not-yet-materialized QP lane happens here: the
    /// thread's round-robin lane (`id % n_qps`) is attached through the
    /// control channel on demand (lazy QP creation — `fl_connect` paid
    /// for one control QP only). If the attach fails, the thread falls
    /// back onto an existing lane instead of failing registration.
    pub fn register_thread(&self) -> FlThread {
        let ctx = {
            let mut threads = self.inner.threads.write();
            let id = threads.len() as u32;
            assert!((id as usize) < MAX_THREADS, "too many registered threads");
            assert!(
                (id as usize) < self.inner.cfg.mem_threads,
                "more threads than cfg.mem_threads scratch slots"
            );
            let ctx = Arc::new(ThreadCtx {
                id,
                placement: Mutex::new(Placement {
                    current: 0,
                    target: 0,
                    sizes: MedianWindow::new(64),
                    requests: 0,
                    bytes: 0,
                }),
                requests: Mutex::new(Requests::new()),
                reply_event: Event::new(),
                mem: Mutex::new(MemOps {
                    ops: Requests::new(),
                    free: 0xFF,
                }),
                mem_event: Event::new(),
                mem_qp: OnceLock::new(),
                flush_scratch: Mutex::new(FlushScratch::default()),
            });
            threads.push(Arc::clone(&ctx));
            ctx
        };
        // Outside the `threads` lock: the attach blocks on a control-plane
        // round trip, and the dispatcher reads `threads` on its hot path.
        let wanted = ctx.id as usize % self.inner.cfg.n_qps;
        let wanted = match ensure_lanes(&self.inner, wanted) {
            Ok(()) => wanted,
            Err(_) => ctx.id as usize % self.inner.lanes_live().count().max(1),
        };
        // Never start on a lane the server has deactivated while another
        // is open. With none open (a deactivation overtook the activation
        // sent before it), sit on the wanted lane: the thread's first
        // send waits for the grant if the lane is already drained.
        let open = |lane: usize| self.inner.lane(lane).residents.enter_open();
        let lane = if open(wanted) {
            wanted
        } else {
            let live = self.inner.lanes_live().count();
            (0..live).find(|&lane| open(lane)).unwrap_or_else(|| {
                self.inner.lane(wanted).residents.enter();
                wanted
            })
        };
        let mut placement = ctx.placement.lock();
        (placement.current, placement.target) = (lane, lane);
        drop(placement);
        // Dedicated mem QP, best-effort like the lane attach above: a
        // thread that cannot get one falls back to the shared-lane TCQ
        // path for its one-sided ops.
        if self.inner.cfg.dedicated_mem_qps {
            if let Ok(qp) = attach_mem_qp(&self.inner) {
                assert!(ctx.mem_qp.set(qp).is_ok(), "fresh thread ctx");
            }
        }
        FlThread {
            ctx,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of QPs currently marked active by the server's scheduler
    /// (unmaterialized lanes are not active — they do not exist yet).
    pub fn active_qps(&self) -> usize {
        self.inner
            .lanes_live()
            .filter(|q| q.residents.is_open())
            .count()
    }

    /// Number of lanes actually materialized so far (≤ `cfg.n_qps`).
    pub fn materialized_qps(&self) -> usize {
        self.inner.lanes_live().count()
    }

    /// Snapshot the handle's counters (observability; cheap, lock-light).
    /// `per_qp` always has `cfg.n_qps` entries; lanes not yet
    /// materialized report zeros and `active: false`.
    pub fn metrics(&self) -> HandleMetrics {
        let mut per_qp: Vec<QpMetrics> = self
            .inner
            .lanes_live()
            .map(|q| QpMetrics {
                messages: q.messages_sent.get(),
                requests: q.requests_sent.get(),
                credits: q.credits.lock().credits(),
                active: q.residents.is_open(),
            })
            .collect();
        per_qp.resize(self.inner.cfg.n_qps, QpMetrics::default());
        let messages: u64 = per_qp.iter().map(|q| q.messages).sum();
        let requests: u64 = per_qp.iter().map(|q| q.requests).sum();
        HandleMetrics {
            messages,
            requests,
            degree: if messages == 0 {
                0.0
            } else {
                requests as f64 / messages as f64
            },
            active_qps: per_qp.iter().filter(|q| q.active).count(),
            threads: self.inner.threads.read().len(),
            per_qp,
        }
    }

    /// Shut down the handle's response dispatcher.
    pub fn shutdown(&mut self) {
        self.inner.stop_and_wake();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }

    /// Gracefully close the connection (`fl_disconnect`).
    ///
    /// Tells the server to quiesce this sender — its QPs leave the
    /// dispatch shards and its AQP share returns to the scheduler —
    /// waits for the acknowledgement, stops the response dispatcher, and
    /// returns every leased QP and cached MR to the node's
    /// pools. The caller should have drained outstanding requests; any
    /// still in flight are dropped by the QP epoch guard.
    pub fn close(&mut self) -> Result<()> {
        // Graceful detach first, while the dispatcher still runs (the
        // server replies only after its shards stopped touching us).
        let detach = if self.inner.stop.is_set() {
            Err(FlockError::Disconnected)
        } else {
            let (reply_tx, reply_rx) = reply_channel();
            self.inner
                .ctrl
                .send(CtrlMsg::Detach(DetachRequest {
                    sender_id: self.inner.sender_id,
                    reply: reply_tx,
                }))
                .map_err(|_| FlockError::Disconnected)
                .and_then(|()| await_reply(&reply_rx))
        };
        self.shutdown();
        // Recycle: QPs back to the node's pool (reset, not destroyed),
        // rings and scratch back to the MR cache. Guarded so a second
        // `close` cannot double-insert into the pool.
        if !std::mem::replace(&mut self.released, true) {
            for lane in self.inner.lanes_live() {
                lane.link.release(&self.inner.node);
            }
            for t in self.inner.threads.read().iter() {
                if let Some(qp) = t.mem_qp.get() {
                    self.inner.node.release_qp(qp);
                }
            }
            self.inner.node.release_mr(&self.inner.mem_mr);
        }
        detach
    }
}

impl Drop for ConnectionHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl FlThread {
    /// This thread's id within the handle.
    pub fn id(&self) -> u32 {
        self.ctx.id
    }

    /// The QP this thread currently sends on.
    pub fn current_qp(&self) -> usize {
        self.ctx.placement.lock().current
    }

    /// Send an RPC request (`fl_send_rpc`); returns the sequence number to
    /// pass to [`FlThread::recv_res`].
    ///
    /// Copies `payload` once into a shared buffer. Callers that reuse the
    /// same payload (or already hold one as [`Bytes`]) should use
    /// [`FlThread::send_rpc_bytes`], which is copy-free.
    pub fn send_rpc(&self, rpc_id: u32, payload: &[u8]) -> Result<u64> {
        self.send_rpc_bytes(rpc_id, Bytes::copy_from_slice(payload))
    }

    /// Send a posted request: the server runs the handler of `rpc_id`
    /// and sends no response. [`FlThread::recv_res`] of the returned seq
    /// answers an empty [`Bytes`] once the RDMA write that carried the
    /// request has landed in the server's request ring — the NIC's
    /// acknowledgement, before the server has looked at it — or that
    /// write's error. The server handles a lane's requests in order, so
    /// it handles a posted request before any request sent after it on
    /// the same lane. Fails as [`FlThread::send_rpc_bytes`] does.
    pub fn post_rpc(&self, rpc_id: u32, payload: &[u8]) -> Result<u64> {
        self.send(rpc_id, RPC_POSTED, Bytes::copy_from_slice(payload))
    }

    /// Send an RPC request whose payload is already a shared buffer:
    /// the bytes are never copied until the leader encodes them into the
    /// ring write's payload (cloning `Bytes` is a refcount bump, so resending the
    /// same payload allocates nothing).
    ///
    /// A send fails only before its request joins a batch: on a stopped
    /// handle, or with `MessageTooLarge` for a payload that could never
    /// fit one message in the server's request ring (before it takes a
    /// seq, a credit or a place in a batch). After the join it returns
    /// the seq, whoever leads the batch: a request the flush could not
    /// send is answered with the flush's error, which
    /// [`FlThread::recv_res`] returns at once. An `rpc_id` with its top
    /// bit set ([`RPC_POSTED`]) is refused with `InvalidArgument`.
    pub fn send_rpc_bytes(&self, rpc_id: u32, payload: Bytes) -> Result<u64> {
        self.send(rpc_id, 0, payload)
    }

    /// Send request `rpc_id` through the lane's TCQ, marked `mark`
    /// ([`RPC_POSTED`] or 0).
    fn send(&self, rpc_id: u32, mark: u32, payload: Bytes) -> Result<u64> {
        if msg::is_posted(rpc_id) {
            return Err(FlockError::InvalidArgument("rpc id with its top bit set"));
        }
        let inner = &self.inner;
        if inner.stop.is_set() {
            return Err(FlockError::Disconnected);
        }
        let qp = inner.lane(self.migrate_if_idle());
        let need = msg::encoded_size([payload.len()]);
        if need > qp.link.max_message() {
            return Err(FlockError::MessageTooLarge {
                need,
                capacity: qp.link.remote_capacity(),
            });
        }
        let seq = self.ctx.requests.lock().issue(());
        let mut placement = self.ctx.placement.lock();
        placement.sizes.record(payload.len() as u32);
        placement.requests += 1;
        placement.bytes += payload.len() as u64;
        drop(placement);

        let meta = EntryMeta {
            len: payload.len() as u32,
            thread_id: self.ctx.id,
            seq,
            rpc_id: rpc_id | mark,
        };
        // TCQ enqueue: one uncontended atomic RMW of host CPU.
        clock::charge(inner.cost.cpu_sync_ns);
        let joined = qp
            .tcq
            .join_with(ClientReq::Rpc(meta, payload), || inner.boarding_window());
        if let Outcome::Lead(batch) = joined {
            leader_flush(inner, &self.ctx, qp, batch);
        }
        Ok(seq)
    }

    /// Wait for the response to sequence `seq` (`fl_recv_res`).
    ///
    /// The returned [`Bytes`] owns exactly the response, copied out of
    /// the response message (so no reply pins a multi-entry buffer); a
    /// posted request's is empty ([`FlThread::post_rpc`]). A
    /// [`FlockError::Timeout`] or `Disconnected` gives `seq` up: its
    /// response, should it still arrive, is discarded. A `seq` that is
    /// neither in flight nor answered — already received, given up, or
    /// never returned by a send — fails at once with
    /// `InvalidArgument("seq not in flight")` and changes nothing.
    pub fn recv_res(&self, seq: u64) -> Result<Bytes> {
        let take = |give_up| self.ctx.requests.lock().take(seq, give_up);
        self.receive(&self.ctx.reply_event, take)
    }

    /// A blocking receive from one of the thread's tables: `take` answers
    /// a receive, given the error it gives up with; it is asked until it
    /// answers, giving up once the handle has stopped, and after the
    /// timeout once more, giving up unless the reply landed since the
    /// last poll. The reply is itself a result: the request's answer.
    fn receive<T>(
        &self,
        event: &Event,
        mut take: impl FnMut(Option<FlockError>) -> Option<Result<Result<T>>>,
    ) -> Result<T> {
        let deadline = clock::deadline(self.inner.cfg.timeout);
        let got = event.wait_until(deadline, 500, || take(self.stopped()));
        let give_up = || take(Some(FlockError::Timeout));
        got.or_else(give_up)
            .expect("a receive that gives up ends")?
    }

    /// The error a receive gives up with now: `Disconnected` once the
    /// handle has stopped.
    fn stopped(&self) -> Option<FlockError> {
        self.inner.stop.is_set().then_some(FlockError::Disconnected)
    }

    /// Non-blocking check for the response to `seq` (coroutine-style
    /// pipelining, paper §8.5.2: a thread runs many concurrent
    /// transactions and polls instead of blocking). `None` while it is
    /// on its way; `Some(Err(Disconnected))` once the handle has stopped
    /// without it, which gives `seq` up; for a `seq` not in flight, the
    /// error [`FlThread::recv_res`] returns.
    pub fn try_recv_res(&self, seq: u64) -> Option<Result<Bytes>> {
        let landed = self.ctx.requests.lock().take(seq, self.stopped());
        landed.map(Result::flatten)
    }

    /// Whether the posted request `seq` ([`FlThread::post_rpc`]) has
    /// landed, without receiving it: `Some(Ok(()))` once its write has
    /// landed, and `seq` stays outstanding, so the thread stays on its
    /// lane until a receive takes it (§5.2) and a request sent after
    /// this answer follows it on that lane. A failed write, a stopped
    /// handle and a `seq` not in flight are received, as
    /// [`FlThread::try_recv_res`] receives them; `None` while the write
    /// is on its way.
    pub fn try_landed(&self, seq: u64) -> Option<Result<()>> {
        self.landed(seq, self.stopped()).map(Result::flatten)
    }

    /// Block until the posted request `seq` has landed, leaving it
    /// outstanding as [`FlThread::try_landed`] does; a failure is
    /// received, as [`FlThread::recv_res`] receives it.
    pub fn wait_landed(&self, seq: u64) -> Result<()> {
        self.receive(&self.ctx.reply_event, |give_up| self.landed(seq, give_up))
    }

    /// A landing seen and left ready, or else a receive of `seq`.
    fn landed(&self, seq: u64, give_up: Option<FlockError>) -> Option<Result<Result<()>>> {
        let mut requests = self.ctx.requests.lock();
        if requests.ready(seq).is_some_and(Result::is_ok) {
            return Some(Ok(Ok(())));
        }
        let taken = requests.take(seq, give_up);
        taken.map(|got| got.map(|reply| reply.map(drop)))
    }

    /// Convenience: send and wait.
    pub fn call(&self, rpc_id: u32, payload: &[u8]) -> Result<Bytes> {
        let seq = self.send_rpc(rpc_id, payload)?;
        self.recv_res(seq)
    }

    /// One-sided read (`fl_read`) of up to [`MEM_SCRATCH`] bytes from
    /// advertised region `mem_idx`.
    pub fn read(&self, mem_idx: usize, offset: u64, len: usize) -> Result<Vec<u8>> {
        let remote = self.remote_addr(mem_idx, offset)?;
        let read = |local| SendWr::read(WrId(0), local, remote);
        self.wait_mem(self.start_verb(MEM_SCRATCH, &[], len, read)?)
    }

    /// One-sided write (`fl_write`) of up to [`MEM_SCRATCH`] bytes into
    /// advertised region `mem_idx`.
    pub fn write(&self, mem_idx: usize, offset: u64, data: &[u8]) -> Result<()> {
        let remote = self.remote_addr(mem_idx, offset)?;
        let write = |local| SendWr::write(WrId(0), local, remote);
        self.wait_mem(self.start_verb(MEM_SCRATCH, data, 0, write)?)
            .map(drop)
    }

    /// One-sided fetch-and-add (`fl_fetch_and_add`); returns the old value.
    pub fn fetch_add(&self, mem_idx: usize, offset: u64, delta: u64) -> Result<u64> {
        let remote = self.remote_addr(mem_idx, offset)?;
        let add = |local| SendWr::fetch_add(WrId(0), local, remote, delta);
        let old = self.wait_mem(self.start_verb(8, &[], 8, add)?)?;
        Ok(u64::from_le_bytes(old[..8].try_into().expect("8 bytes")))
    }

    /// One-sided compare-and-swap (`fl_cmp_and_swap`); returns the old
    /// value (the swap happened iff it equals `expect`).
    pub fn cmp_swap(&self, mem_idx: usize, offset: u64, expect: u64, swap: u64) -> Result<u64> {
        let remote = self.remote_addr(mem_idx, offset)?;
        let cas = |local| SendWr::cmp_swap(WrId(0), local, remote, expect, swap);
        let old = self.wait_mem(self.start_verb(8, &[], 8, cas)?)?;
        Ok(u64::from_le_bytes(old[..8].try_into().expect("8 bytes")))
    }

    /// The remote end of a one-sided WR: `offset` into advertised region
    /// `mem_idx`.
    fn remote_addr(&self, mem_idx: usize, offset: u64) -> Result<RemoteAddr> {
        let region = self
            .inner
            .mem_regions
            .get(mem_idx)
            .ok_or(FlockError::RemoteOpFailed("unknown memory region index"))?;
        Ok(RemoteAddr {
            rkey: region.rkey,
            addr: region.addr + offset,
        })
    }

    /// The local end of one: `len` bytes of the handle's scratch MR at
    /// byte `scratch`.
    fn scratch_sge(&self, scratch: usize, len: usize) -> Sge {
        Sge {
            lkey: self.inner.mem_mr.lkey(),
            addr: self.inner.mem_mr.addr() + scratch as u64,
            len,
        }
    }

    fn scratch_off(&self) -> usize {
        self.ctx.id as usize * MEM_SCRATCH
    }

    /// Acquire scratch sub-slots covering `len` bytes. Returns the slot
    /// bitmask and the byte offset within the thread's scratch region, or
    /// `None` if the space is not currently free. Completed ops that are
    /// not taken yet move their bytes out of the sub-slots first.
    fn try_acquire_scratch(&self, len: usize) -> Option<(u8, usize)> {
        let mut mem = self.ctx.mem.lock();
        let MemOps { ops, free } = &mut *mem;
        let need = if len <= MEM_SUBSLOT_SIZE { 1 } else { MEM_SUBSLOTS };
        for ready in ops.ready_mut() {
            if free.count_ones() as usize >= need {
                break;
            }
            if let Ok(Landed::Held(op)) = *ready {
                *free |= op.mask;
                *ready = Landed::Held(op).into_vec(&self.inner.mem_mr).map(Landed::Moved);
            }
        }
        if len <= MEM_SUBSLOT_SIZE {
            for i in 0..MEM_SUBSLOTS {
                let bit = 1u8 << i;
                if *free & bit != 0 {
                    *free &= !bit;
                    return Some((bit, i * MEM_SUBSLOT_SIZE));
                }
            }
            None
        } else {
            // Large ops take the whole scratch region exclusively.
            if *free == 0xFF {
                *free = 0;
                Some((0xFF, 0))
            } else {
                None
            }
        }
    }

    fn acquire_scratch_blocking(&self, len: usize) -> Result<(u8, usize)> {
        let deadline = clock::deadline(self.inner.cfg.timeout);
        let got = self.ctx.mem_event.wait_until(deadline, 500, || {
            self.try_acquire_scratch(len)
                .map(Ok)
                .or_else(|| self.inner.disconnected())
        });
        got.unwrap_or(Err(FlockError::Timeout))
    }

    /// The one starter of every one-sided verb. The op sends `data` (a
    /// write's) or reads back `result_len` bytes (a read's or an
    /// atomic's), at most `bound` either way: it acquires scratch that
    /// covers them — one sub-slot up to [`MEM_SUBSLOT_SIZE`] bytes, the
    /// whole region above that — copies `data` into it, and starts the
    /// work request `verb` builds on it.
    fn start_verb(
        &self,
        bound: usize,
        data: &[u8],
        result_len: usize,
        verb: impl FnOnce(Sge) -> SendWr,
    ) -> Result<MemToken> {
        let len = data.len().max(result_len);
        fits(len, bound)?;
        let (mask, off) = self.acquire_scratch_blocking(len)?;
        let scratch_off = self.scratch_off() + off;
        let copied = self.inner.mem_mr.write(scratch_off, data);
        copied.expect("a thread's scratch lies inside the scratch MR");
        let op = MemOp {
            mask,
            scratch_off,
            result_len,
        };
        Ok(self.start_mem(verb(self.scratch_sge(scratch_off, len)), op))
    }

    /// Issue `op` and send its work request `wr`, whose local SGE points
    /// at `op.scratch_off`, without waiting: on the thread's dedicated
    /// mem QP, or through its lane's TCQ. A post that fails answers the
    /// op with its error, so the token is always one to wait for.
    fn start_mem(&self, mut wr: SendWr, op: MemOp) -> MemToken {
        let seq = self.ctx.mem.lock().ops.issue(op);
        wr.wr_id = mem_wr_id(self.ctx.id, seq);
        if let Some(mqp) = self.ctx.mem_qp.get() {
            // Dedicated mem QP: the conventional one-sided design pays a
            // verb and a doorbell per op — a per-thread QP has no
            // combining partner.
            post_chain(&self.inner, mqp, &[wr]);
        } else {
            // Memory ops also coalesce through Flock synchronization (§6):
            // the leader links the batch's work requests into one doorbell.
            let qp = self.inner.lane(self.migrate_if_idle());
            let joined = qp
                .tcq
                .join_with(ClientReq::Mem(wr), || self.inner.boarding_window());
            if let Outcome::Lead(batch) = joined {
                leader_flush(&self.inner, &self.ctx, qp, batch);
            }
        }
        MemToken { seq }
    }

    /// Take op `seq`'s result, given the error a receive gives up with
    /// (see [`Requests::take`]): `copy` gets its bytes, and then the
    /// sub-slots that held them go free.
    fn take_mem<T>(
        &self,
        seq: u64,
        give_up: Option<FlockError>,
        copy: impl FnOnce(Landed) -> Result<T>,
    ) -> Option<Result<T>> {
        let mut mem = self.ctx.mem.lock();
        let landed = match mem.ops.take(seq, give_up)?.flatten() {
            Ok(landed) => landed,
            Err(e) => return Some(Err(e)),
        };
        let mask = match landed {
            Landed::Held(op) => op.mask,
            Landed::Moved(_) => 0,
        };
        let got = copy(landed);
        drop(mem);
        if mask != 0 {
            self.ctx.release(mask);
        }
        Some(got)
    }

    /// Non-blocking poll of an in-flight one-sided op: `None` while it is
    /// in flight, `Some(Err(Disconnected))` once the handle has stopped
    /// without its result, which gives the op up; for a token already
    /// taken, given up or never issued, the error [`FlThread::recv_res`]
    /// returns for such a seq.
    pub fn try_mem(&self, token: MemToken) -> Option<Result<Vec<u8>>> {
        let scratch = &self.inner.mem_mr;
        self.take_mem(token.seq, self.stopped(), |landed| landed.into_vec(scratch))
    }

    /// Block until an in-flight one-sided op completes and take its
    /// result: the bytes read back, or why it failed — its completion's
    /// error status, or, at once, the error of the post that never sent
    /// it. A timeout gives the op up, and its late completion frees its
    /// sub-slots and publishes nothing.
    pub fn wait_mem(&self, token: MemToken) -> Result<Vec<u8>> {
        let scratch = &self.inner.mem_mr;
        let take = |give_up| self.take_mem(token.seq, give_up, |l| l.into_vec(scratch)).map(Ok);
        self.receive(&self.ctx.mem_event, take)
    }

    /// Start a non-blocking one-sided read of up to one sub-slot
    /// ([`MEM_SUBSLOT_SIZE`] bytes); poll with [`FlThread::try_mem`].
    /// It fails only before it is sent (an unknown region, an oversize
    /// read, no sub-slot free within the timeout); once sent, its token
    /// answers, through [`FlThread::wait_mem`], whatever became of it.
    pub fn read_async(&self, mem_idx: usize, offset: u64, len: usize) -> Result<MemToken> {
        let remote = self.remote_addr(mem_idx, offset)?;
        let read = |local| SendWr::read(WrId(0), local, remote);
        self.start_verb(MEM_SUBSLOT_SIZE, &[], len, read)
    }

    /// Start a non-blocking one-sided write of up to one sub-slot.
    pub fn write_async(&self, mem_idx: usize, offset: u64, data: &[u8]) -> Result<MemToken> {
        let remote = self.remote_addr(mem_idx, offset)?;
        let write = |local| SendWr::write(WrId(0), local, remote);
        self.start_verb(MEM_SUBSLOT_SIZE, data, 0, write)
    }

    /// Issue up to [`MEM_SUBSLOTS`] one-sided READs against raw
    /// [`RemoteAddr`]es as one doorbell-batched chain.
    ///
    /// This is the one-sided fast path: the caller is its own combining
    /// leader, so the work requests bypass the TCQ and go straight to
    /// the lane's QP through [`post_chain`] — N verbs, one doorbell
    /// (exactly what a TCQ leader does for coalesced memory ops).
    /// Each read lands in its own scratch sub-slot and stays there until
    /// it is taken: [`FlThread::take_deferred`] copies it into a
    /// caller-provided buffer, so with a reused `tokens` vector the whole
    /// issue/validate loop allocates nothing in steady state.
    ///
    /// Each read must fit one sub-slot ([`MEM_SUBSLOT_SIZE`] bytes). The
    /// batch fails only before it is sent; once it is, every token it
    /// pushed must be taken, and a chain that failed to post answers
    /// each of its takes with the post's error.
    pub fn read_batch(
        &self,
        reads: &[(RemoteAddr, usize)],
        tokens: &mut Vec<MemToken>,
    ) -> Result<()> {
        let n = reads.len();
        if n == 0 {
            return Ok(());
        }
        if n > MEM_SUBSLOTS {
            return Err(FlockError::RemoteOpFailed(
                "read batch exceeds scratch sub-slots",
            ));
        }
        let mut masks = [0u8; MEM_SUBSLOTS];
        let mut offs = [0usize; MEM_SUBSLOTS];
        for (i, &(_, len)) in reads.iter().enumerate() {
            let got = fits(len, MEM_SUBSLOT_SIZE).and_then(|()| self.acquire_scratch_blocking(len));
            match got {
                Ok((m, o)) => {
                    masks[i] = m;
                    offs[i] = o;
                }
                Err(e) => {
                    self.ctx.release(masks.iter().fold(0, |all, m| all | m));
                    return Err(e);
                }
            }
        }
        // Dedicated mem QP when configured; otherwise the thread's shared
        // RPC lane, whose doorbell the chain shares with coalesced traffic.
        let post_qp = match self.ctx.mem_qp.get() {
            Some(q) => q,
            None => self.inner.lane(self.migrate_if_idle()).link.qp(),
        };
        // Fixed-size tokens and WR chain on the stack; indices past `n`
        // duplicate the last real read and are never issued or posted.
        let mut mem = self.ctx.mem.lock();
        let issued: [MemToken; MEM_SUBSLOTS] = std::array::from_fn(|i| {
            let j = i.min(n - 1);
            let op = MemOp {
                mask: masks[j],
                scratch_off: self.scratch_off() + offs[j],
                result_len: reads[j].1,
            };
            let seq = if i < n { mem.ops.issue(op) } else { 0 };
            MemToken { seq }
        });
        drop(mem);
        let wrs: [SendWr; MEM_SUBSLOTS] = std::array::from_fn(|i| {
            let (remote, len) = reads[i.min(n - 1)];
            let local = self.scratch_sge(self.scratch_off() + offs[i.min(n - 1)], len);
            SendWr::read(mem_wr_id(self.ctx.id, issued[i].seq), local, remote)
        });
        post_chain(&self.inner, post_qp, &wrs[..n]);
        tokens.extend_from_slice(&issued[..n]);
        Ok(())
    }

    /// Copy a one-sided op's bytes into `out` (no allocation), as many as
    /// fit, and free its sub-slot. Blocks until the completion arrives,
    /// as [`FlThread::wait_mem`] does, and fails as it does; returns the
    /// number of bytes copied.
    pub fn take_deferred(&self, token: MemToken, out: &mut [u8]) -> Result<usize> {
        let scratch = &self.inner.mem_mr;
        let take =
            |give_up| self.take_mem(token.seq, give_up, |l| l.copy_into(scratch, out)).map(Ok);
        self.receive(&self.ctx.mem_event, take)
    }

    /// Adopt the scheduler's target QP if no request is outstanding
    /// (migration safety, §5.2) and the target is still open — a thread
    /// never moves toward a lane the server has deactivated. The thread
    /// that empties a deactivated lane posts the lane's drained marker.
    fn migrate_if_idle(&self) -> usize {
        let mut placement = self.ctx.placement.lock();
        let (current, target) = (placement.current, placement.target);
        if target == current
            || self.ctx.requests.lock().outstanding() != 0
            || !self.inner.lane(target).residents.enter_open()
        {
            return current;
        }
        placement.current = target;
        // Unlocked: the marker may wait for ring space.
        drop(placement);
        let left = self.inner.lane(current);
        if let Some(epoch) = left.residents.leave() {
            post_drained_marker(&self.inner, left, epoch, true);
        }
        target
    }
}

/// Build one lane's client-side context around a leased QP and its
/// cached-MR rings.
fn build_lane_ctx(
    cfg: &HandleConfig,
    index: usize,
    link: Link,
    initial_credits: u32,
) -> Arc<ClientQpCtx> {
    Arc::new(ClientQpCtx {
        index,
        send_cq: link.qp().send_cq(),
        link,
        tcq: Tcq::new(cfg.batch_limit),
        credits: Mutex::new(CreditState::new(initial_credits)),
        credit_event: Event::new(),
        degree: Mutex::new(MedianWindow::new(64)),
        residents: Residents::default(),
        posted: Mutex::default(),
        messages_sent: Counter::default(),
        requests_sent: Counter::default(),
    })
}

/// Materialize lanes up to and including `want_idx` (clamped to
/// `n_qps - 1`). Lanes attach densely in index order, one caller at a
/// time: the others wait on `dispatch_event` rather than on the `attach`
/// lock, which the winner holds across the control-plane round trip.
fn ensure_lanes(inner: &Arc<HandleInner>, want_idx: usize) -> Result<()> {
    let want = (want_idx + 1).min(inner.cfg.n_qps);
    // `Some(guard)`: this caller attaches.
    let attach = inner.dispatch_event.wait_until(u64::MAX, 500, || {
        if inner.lanes[want - 1].get().is_some() {
            return Some(Ok(None));
        }
        if let Some(stopped) = inner.disconnected() {
            return Some(stopped);
        }
        inner.attach.try_lock().map(|guard| Ok(Some(guard)))
    });
    let Some(guard) = attach.expect("a wait with no deadline ends with its condition")? else {
        return Ok(());
    };
    let mut result = Ok(());
    while inner.lanes[want - 1].get().is_none() {
        result = attach_one_lane(inner);
        if result.is_err() {
            break;
        }
    }
    drop(guard);
    // For the waiters the attach did not serve: their lane is further
    // out, or the attach failed and added none.
    inner.dispatch_event.notify_all();
    result
}

/// Attach the next lane: lease a QP and a cached response ring locally,
/// round-trip the control channel, and publish the materialized lane.
/// Caller holds the `attach` lock.
fn attach_one_lane(inner: &Arc<HandleInner>) -> Result<()> {
    let idx = inner.lanes_live().count();
    let (qp, resp_mr) = HandleInner::lease_lane(&inner.node, &inner.cfg, &inner.dispatch_event);
    let (reply_tx, reply_rx) = reply_channel();
    let sent = inner
        .ctrl
        .send(CtrlMsg::Attach(AttachRequest {
            sender_id: inner.sender_id,
            lane: idx,
            client_qp: Arc::clone(&qp),
            response_ring: RingInfo::of(&resp_mr),
            reply: reply_tx,
        }))
        .map_err(|_| FlockError::Disconnected)
        .and_then(|()| await_reply(&reply_rx));
    let reply = match sent {
        Ok(r) => r,
        Err(e) => {
            // The lane never went live: recycle its resources.
            inner.node.release_qp(&qp);
            inner.node.release_mr(&resp_mr);
            return Err(e);
        }
    };
    let link = Link::new(&inner.node, qp, resp_mr, reply.request_ring);
    let ctx = build_lane_ctx(&inner.cfg, idx, link, reply.initial_credits);
    inner.lanes[idx].set(ctx).ok().expect("attach single-flight");
    // One more ring in the dispatcher's sweep.
    inner.dispatch_event.notify_all();
    Ok(())
}

/// Lease a dedicated per-thread one-sided QP and pair it with the
/// server (`CtrlMsg::AttachMem`): one control-plane round trip per
/// registered thread. All mem QPs share the handle's `mem_cq`, so the
/// dispatcher gains one poll point, not one per thread.
fn attach_mem_qp(inner: &Arc<HandleInner>) -> Result<Arc<Qp>> {
    let cq = inner.mem_cq.as_ref().expect("mem CQ exists when dedicated_mem_qps");
    let qp = inner.node.lease_qp(Transport::Rc, cq, cq);
    let (reply_tx, reply_rx) = reply_channel();
    let sent = inner
        .ctrl
        .send(CtrlMsg::AttachMem(AttachMemRequest {
            sender_id: inner.sender_id,
            client_qp: Arc::clone(&qp),
            reply: reply_tx,
        }))
        .map_err(|_| FlockError::Disconnected)
        .and_then(|()| await_reply(&reply_rx));
    match sent {
        Ok(()) => Ok(qp),
        Err(e) => {
            inner.node.release_qp(&qp);
            Err(e)
        }
    }
}

/// Leader-side flush scratch, reused across batches by each thread
/// ([`ThreadCtx::flush_scratch`]): any thread can transiently become a
/// leader, and recycling these buffers (plus the TCQ's pooled batch
/// scratch) keeps the steady-state flush allocation-free.
#[derive(Default)]
struct FlushScratch {
    rpcs: Vec<(EntryMeta, Bytes)>,
    mem_wrs: Vec<SendWr>,
}

/// The leader's flush: partition the batch, post one-sided work requests,
/// encode the coalesced RPC message, manage credits and ring space, and
/// issue the RDMA write(s) (paper §4.2, Figure 5). It answers every
/// request it carried: one it could not send gets the error through its
/// thread's table, as a reply or a completion would come.
fn leader_flush(
    inner: &HandleInner,
    leader: &ThreadCtx,
    qp: &ClientQpCtx,
    mut batch: crate::tcq::Batch<ClientReq>,
) {
    // Taken out for the flush, not borrowed: the flush can suspend (a
    // credit wait, a full ring), other leaders run meanwhile — under a
    // virtual executor on this very OS thread — and no lock is held
    // across a suspension point.
    let mut scratch = std::mem::take(&mut *leader.flush_scratch.lock());
    flush_batch(inner, qp, &mut batch, &mut scratch);
    *leader.flush_scratch.lock() = scratch;
    qp.tcq.complete(batch);
}

fn flush_batch(
    inner: &HandleInner,
    qp: &ClientQpCtx,
    batch: &mut crate::tcq::Batch<ClientReq>,
    scratch: &mut FlushScratch,
) {
    scratch.rpcs.clear();
    scratch.mem_wrs.clear();
    // Drain in place: the batch keeps its (pooled) buffers for
    // `Tcq::complete` to recycle, and the payload `Bytes` move without
    // copying.
    for item in batch.drain_items() {
        match item {
            ClientReq::Rpc(meta, data) => scratch.rpcs.push((meta, data)),
            ClientReq::Mem(wr) => scratch.mem_wrs.push(wr),
        }
    }
    flush_parts(inner, qp, &scratch.rpcs, &scratch.mem_wrs);
    // Drop payload refcounts promptly (the encode is done);
    // the buffers themselves are retained for the next batch.
    scratch.rpcs.clear();
    scratch.mem_wrs.clear();
}

fn flush_parts(
    inner: &HandleInner,
    qp: &ClientQpCtx,
    rpcs: &[(EntryMeta, Bytes)],
    mem_wrs: &[SendWr],
) {
    // One-sided ops are linked into a single chain and posted with one
    // doorbell by the leader (paper §6).
    if !mem_wrs.is_empty() {
        post_chain(inner, qp.link.qp(), mem_wrs);
    }
    // One message per run of requests that fits the peer's ring: the
    // whole batch unless its bytes outgrow one message. A run that fails
    // ends the flush, and it and every run after it are answered with
    // its error.
    let max = qp.link.max_message();
    let mut rest = rpcs;
    while !rest.is_empty() {
        let mut need = msg::encoded_size([]);
        let fits = rest.iter().take_while(|(meta, _)| {
            need += msg::entry_size(meta.len as usize);
            need <= max
        });
        // Every request fits alone (`send_rpc_bytes` checks).
        let (run, after) = rest.split_at(fits.count().max(1));
        if let Err(e) = send_run(inner, qp, run) {
            return fail_unsent(inner, rest, &e);
        }
        rest = after;
    }
}

/// Send `run` as one message (paper §4.2, Figure 5): its credits, one
/// RDMA write and one doorbell.
fn send_run(inner: &HandleInner, qp: &ClientQpCtx, run: &[(EntryMeta, Bytes)]) -> Result<()> {
    let degree = run.len() as u32;
    qp.degree.lock().record(degree);

    wait_for_credits(inner, qp, degree)?;

    // Encoded straight from the scratch pairs (no intermediate
    // `Vec<EntryRef>`). While the request ring is full, yield: the
    // dispatcher folds in the server's head as responses arrive.
    let entries = run
        .iter()
        .map(|(meta, data)| EntryRef { meta: *meta, data });
    // A posted request learns it landed from its write's completion.
    let posted = run.iter().any(|(meta, _)| msg::is_posted(meta.rpc_id));
    let (need, message) = ring::send_while_full(&inner.stop, inner.cfg.timeout, || {
        qp.link.try_send(0, 0, posted, entries.clone())
    })?;
    if posted {
        sent_posted(inner, qp, run, message);
    }
    // Leader's host cost: encode each entry, stage the message, ring the
    // doorbell — amortized over the whole run (the coalescing win).
    clock::charge(
        inner.cost.cpu_doorbell_ns
            + inner.cost.memcpy_time(need).as_nanos()
            + inner.cost.cpu_codec_ns * degree as u64,
    );
    qp.messages_sent.add(1);
    qp.requests_sent.add(degree as u64);
    Ok(())
}

/// Hand the posted requests of `run`, sent as message `n`, to the lane's
/// send CQ to answer ([`Posted`]), or answer them now if it already has
/// spoken for `n`.
fn sent_posted(inner: &HandleInner, qp: &ClientQpCtx, run: &[(EntryMeta, Bytes)], n: u64) {
    let mut posted = qp.posted.lock();
    for (meta, _) in run.iter().filter(|(meta, _)| msg::is_posted(meta.rpc_id)) {
        match posted.answer(n) {
            Some(answer) => deliver_rpc(&inner.threads.read(), meta, || answer),
            None => posted.waiting.push_back((n, *meta)),
        }
    }
}

/// Fold a completion of lane `qp`'s message `n` into its [`Posted`]
/// requests, and answer every one it speaks for.
fn land_posted(inner: &HandleInner, qp: &ClientQpCtx, n: u64, ok: bool) {
    let mut posted = qp.posted.lock();
    if ok {
        posted.landed = posted.landed.max(n);
    } else {
        posted.landed = posted.landed.max(n - 1);
        posted.failed = Some(posted.failed.map_or(n, |first| first.min(n)));
    }
    if posted.waiting.is_empty() {
        return;
    }
    let threads = inner.threads.read();
    while let Some(&(m, meta)) = posted.waiting.front() {
        let Some(answer) = posted.answer(m) else {
            break;
        };
        posted.waiting.pop_front();
        deliver_rpc(&threads, &meta, || answer);
    }
}

/// Consume `n` credits, requesting renewal when at half (paper §5.1).
fn wait_for_credits(inner: &HandleInner, qp: &ClientQpCtx, n: u32) -> Result<()> {
    let deadline = clock::deadline(inner.cfg.timeout);
    loop {
        // One attempt under the credits lock: `(consumed, renew)`, or
        // keep waiting for the grant of a renewal already in flight.
        let attempt = qp.credit_event.wait_until(deadline, 1_000, || {
            let mut credits = qp.credits.lock();
            match qp.residents.phase() {
                SendPhase::Open => {}
                // Deactivated QP: its residents drain without credits
                // and migrate away for future requests.
                SendPhase::Draining => return Some(Ok((true, false))),
                // The marker is out and the server has stopped reading:
                // a thread that had nowhere else to start waits for the
                // next grant.
                SendPhase::Drained => return inner.disconnected(),
            }
            let consumed = credits.try_consume(n);
            let renew = credits.should_request_renewal();
            if renew {
                credits.mark_requested();
            }
            if consumed || renew {
                return Some(Ok((consumed, renew)));
            }
            inner.disconnected()
        });
        let (consumed, renew) = attempt.unwrap_or(Err(FlockError::Timeout))?;
        if renew {
            send_credit_request(qp)?;
        }
        if consumed {
            return Ok(());
        }
    }
}

/// Post the credit renewal (paper §7), reporting the median coalescing
/// degree since the last one.
fn send_credit_request(qp: &ClientQpCtx) -> Result<()> {
    let median = {
        let mut w = qp.degree.lock();
        let m = w.median().clamp(1, u16::MAX as u32) as u16;
        w.clear();
        m
    };
    qp.link.post_credit_request(median)
}

/// The response dispatcher (paper §4.3): polls every QP's response ring,
/// routes entries to threads by thread id, folds in piggybacked heads and
/// credit grants, and routes one-sided completions. It is also the
/// sender-side thread scheduler (§5.2, Algorithm 1): once per
/// `sched_interval`, and at every grant that opens or drains a lane. A
/// `clock::spawn_stepper` task: [`ResponseDispatcher::step`] is one
/// sweep.
struct ResponseDispatcher {
    inner: Arc<HandleInner>,
    /// Send-CQ drain scratch: batched poll, one sync edge per sweep.
    drained: Vec<flock_fabric::Completion>,
    /// The response message being routed: every message is copied out of
    /// its ring into this one buffer, its entries from there to their
    /// waiters.
    msg: Vec<u8>,
    /// Buffers of a thread-scheduling pass, reused by every pass.
    sched: SchedScratch,
    /// Instant at which the periodic pass falls due; `u64::MAX` when
    /// `auto_thread_sched` is off.
    next_window: u64,
}

impl ResponseDispatcher {
    fn step(&mut self) -> Next {
        let inner = &*self.inner;
        if inner.stop.is_set() {
            return Next::Done;
        }
        let now = clock::now_ns();
        if now >= self.next_window {
            // Not progress: a sweep that finds nothing else still idles,
            // so the pass leaves the idle ladder where it was.
            run_thread_scheduling(inner, &mut self.sched, true);
            let interval = u64::try_from(inner.cfg.sched_interval.as_nanos())
                .unwrap_or(u64::MAX)
                .max(1);
            let passed = (now - self.next_window) / interval + 1;
            self.next_window = self
                .next_window
                .saturating_add(passed.saturating_mul(interval));
        }
        let (drained, msg, sched) = (&mut self.drained, &mut self.msg, &mut self.sched);
        let seen = inner.dispatch_event.epoch();
        let mut progressed = false;
        let mut lanes = 0;
        for qp in inner.lanes_live() {
            lanes += 1;
            // Send-CQ: one-sided completions, signaled ring writes (which
            // answer posted requests) and (rare) ring-write errors.
            drained.clear();
            if qp.send_cq.poll(drained, usize::MAX) > 0 {
                progressed = true;
                clock::charge(inner.cost.cpu_poll_cqe_ns * drained.len() as u64);
                for c in drained.iter() {
                    match Link::landed(c.wr_id) {
                        Some(n) => land_posted(inner, qp, n, c.is_ok()),
                        None => route_completion(inner, c),
                    }
                }
            }
            // Response ring.
            let polled = qp.link.poll_into(msg);
            handle_ring_poll(inner, sched, qp, polled, msg, &mut progressed);
        }
        // Dedicated mem QPs share one send CQ; their one-sided
        // completions route exactly like the lanes' do.
        if let Some(cq) = &inner.mem_cq {
            drained.clear();
            if cq.poll(drained, usize::MAX) > 0 {
                progressed = true;
                clock::charge(inner.cost.cpu_poll_cqe_ns * drained.len() as u64);
                for c in drained.iter() {
                    route_completion(inner, c);
                }
            }
        }
        if progressed {
            // `Again` applies the accrued virtual CPU cost of a busy
            // sweep (see the server dispatcher).
            return Next::Again;
        }
        // Nothing the sweep looked at changes before a notify of
        // `dispatch_event`, and until then every sweep is this one
        // again: an empty probe of each lane's ring. The periodic pass
        // ends the idling at its instant.
        Next::Idle(IdleOn {
            seen,
            busy_ns: lanes * inner.cost.cpu_poll_empty_ns,
            deadline_ns: match self.next_window {
                u64::MAX => u64::MAX,
                due => due - 1,
            },
        })
    }
}

/// Fold one lane's response-ring poll result into the dispatcher sweep:
/// credit grants and per-thread response routing (the link has already
/// folded in the piggybacked head).
fn handle_ring_poll(
    inner: &HandleInner,
    sched: &mut SchedScratch,
    qp: &ClientQpCtx,
    polled: Result<bool>,
    msg: &[u8],
    progressed: &mut bool,
) {
    match polled {
        Ok(true) => {
            *progressed = true;
            clock::charge(inner.cost.cpu_ring_poll_ns);
            let view = crate::ring::view(msg);
            let h = view.header;
            if h.flags & FLAG_CREDIT_GRANT != 0 {
                let (granted, epoch) = msg::unpack_aux(h.aux);
                let moved = {
                    let mut credits = qp.credits.lock();
                    if granted == 0 {
                        credits.decline();
                        qp.residents.drain(epoch)
                    } else {
                        credits.grant(granted);
                        qp.residents.open()
                    }
                };
                qp.credit_event.notify_all();
                if moved && inner.cfg.auto_thread_sched {
                    // The set of served lanes changed: Algorithm 1 again,
                    // now. A deactivated lane's threads learn where to go
                    // before their next send, not at the next periodic
                    // pass, and a reactivated lane takes its share.
                    run_thread_scheduling(inner, sched, false);
                }
            }
            let threads = inner.threads.read();
            for (meta, data) in view.entries() {
                clock::charge(inner.cost.cpu_codec_ns);
                // The waiter owns exactly its reply: the dispatcher's
                // message buffer is reused.
                deliver_rpc(&threads, &meta, || Ok(Bytes::copy_from_slice(data)));
            }
            // A deactivated lane nobody sends on owes the server its
            // marker: at the notice, or when an earlier attempt found the
            // request ring full and this message freed some of it.
            if let Some(epoch) = qp.residents.claim_marker() {
                post_drained_marker(inner, qp, epoch, false);
            }
        }
        Ok(false) => {
            clock::charge(inner.cost.cpu_poll_empty_ns);
        }
        Err(_) => {
            // Corrupt ring: fatal for this connection.
            inner.stop_and_wake();
        }
    }
}

fn route_completion(inner: &HandleInner, c: &flock_fabric::Completion) {
    // One-sided ops encode the thread id; the rest are the link's own
    // (a wrap record or a credit request that failed).
    if Link::owns(c.wr_id) {
        return;
    }
    if !matches!(
        c.opcode,
        CqOpcode::Read | CqOpcode::Write | CqOpcode::Atomic
    ) {
        return;
    }
    let status = if c.is_ok() {
        Ok(())
    } else {
        Err(FlockError::RemoteOpFailed(
            "remote operation completed with error status",
        ))
    };
    deliver_mem(inner, c.wr_id, status);
}

/// Post `wrs` to `qp` as one chain behind one doorbell (paper §6): the
/// one way a one-sided work request reaches the fabric. A post that
/// fails sends none of them, and each op gets the post's error as its
/// result: no completion will come for it.
fn post_chain(inner: &HandleInner, qp: &Qp, wrs: &[SendWr]) {
    match qp.post_send_many(wrs) {
        Ok(()) => clock::charge(inner.cost.cpu_doorbell_ns),
        Err(e) => fail_unposted(inner, wrs, &e.into()),
    }
}

/// Deliver the one-sided ops of `wrs`, never posted, the error `e`.
fn fail_unposted(inner: &HandleInner, wrs: &[SendWr], e: &FlockError) {
    for wr in wrs {
        deliver_mem(inner, wr.wr_id, Err(e.clone()));
    }
}

/// Deliver the RPCs of `rpcs`, never sent, the error `e`: the twin of
/// [`fail_unposted`].
fn fail_unsent(inner: &HandleInner, rpcs: &[(EntryMeta, Bytes)], e: &FlockError) {
    let threads = inner.threads.read();
    for (meta, _) in rpcs {
        deliver_rpc(&threads, meta, || Err(e.clone()));
    }
}

/// Deliver the answer to RPC `meta` to its thread's table, and wake the
/// thread if it waits for it.
fn deliver_rpc(
    threads: &[Arc<ThreadCtx>],
    meta: &EntryMeta,
    answer: impl FnOnce() -> Result<Bytes>,
) {
    let Some(t) = threads.get(meta.thread_id as usize) else {
        return;
    };
    let delivered = t.requests.lock().deliver(t.id, meta.seq, |_| answer());
    if delivered == Delivered::Awaited(()) {
        t.reply_event.notify_all();
    }
}

/// Deliver one-sided op `wr_id`'s outcome to its thread's table. The
/// bytes of an op that succeeded stay in its sub-slots until it is taken;
/// a failed or given-up op frees them now.
fn deliver_mem(inner: &HandleInner, wr_id: WrId, status: Result<()>) {
    let thread = wr_id.0 >> MEM_SEQ_BITS;
    let threads = inner.threads.read();
    let Some(t) = threads.get(thread as usize) else {
        return;
    };
    let failed = status.is_err();
    let result = |op: &MemOp| status.map(|()| Landed::Held(*op));
    let mut mem = t.mem.lock();
    let seq = wr_id.0 & ((1 << MEM_SEQ_BITS) - 1);
    mem.free |= match mem.ops.deliver(t.id, seq, result) {
        Delivered::Awaited(_) if !failed => 0,
        Delivered::Awaited(op) | Delivered::Dropped(op) => op.mask,
        Delivered::Stray => return,
    };
    drop(mem);
    t.mem_event.notify_all();
}

/// Post lane `qp`'s [`FLAG_DRAINED`] marker for drain `epoch`, behind
/// every request the lane carried: the caller holds the claim
/// ([`Residents::claim_marker`]), so nobody is resident and nobody else
/// posts. A migrating thread `may_wait` for ring space; the response
/// dispatcher may not, and on a full ring (or any failure) hands the duty
/// back for its next look at the lane.
fn post_drained_marker(inner: &HandleInner, qp: &ClientQpCtx, epoch: u16, may_wait: bool) {
    let send = || {
        let marker = std::iter::empty::<EntryRef<'_>>();
        qp.link
            .try_send(FLAG_DRAINED, msg::pack_aux(0, epoch), false, marker)
    };
    let sent = if may_wait {
        ring::send_while_full(&inner.stop, inner.cfg.timeout, send)
    } else {
        send()
    };
    match sent {
        Ok((need, _)) => {
            let stage = inner.cost.memcpy_time(need).as_nanos();
            clock::charge(inner.cost.cpu_doorbell_ns + stage);
        }
        Err(_) => qp.residents.unclaim_marker(epoch),
    }
}

/// Buffers of [`run_thread_scheduling`]: the response dispatcher's, so
/// that no pass allocates.
#[derive(Default)]
struct SchedScratch {
    active: Vec<usize>,
    stats: Vec<ThreadLoadStats>,
    median: Vec<u32>,
    assign: AssignScratch,
}

/// One scheduling pass (paper §5.2, Algorithm 1) over the lanes the
/// server serves. The periodic pass starts a new `requests`/`bytes` window;
/// the pass run at a grant reads the running one and leaves it.
/// With no open lane known nobody is re-targeted: threads stay where they
/// are and their lanes keep draining.
fn run_thread_scheduling(inner: &HandleInner, scratch: &mut SchedScratch, new_window: bool) {
    let SchedScratch {
        active,
        stats,
        median,
        assign,
    } = scratch;
    active.clear();
    active.extend(
        inner
            .lanes_live()
            .filter(|q| q.residents.is_open())
            .map(|q| q.index),
    );
    let threads = inner.threads.read();
    if active.is_empty() || threads.is_empty() {
        return;
    }
    stats.clear();
    stats.extend(threads.iter().map(|t| {
        let mut placement = t.placement.lock();
        let load = ThreadLoadStats {
            thread_id: t.id,
            median_req_size: placement.sizes.median_with(median),
            requests: placement.requests,
            bytes: placement.bytes,
        };
        if new_window {
            (placement.requests, placement.bytes) = (0, 0);
        }
        load
    }));
    for &(tid, rank) in assign_threads_into(stats, active.len(), assign) {
        if let Some(t) = threads.get(tid as usize) {
            t.placement.lock().target = active[rank];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Arc;

    use crate::server::{FlockServer, ServerConfig};
    use flock_sync::clock;

    const RPC_UNANSWERED: u32 = 5;
    const RPC_ECHO: u32 = 6;
    const RPC_COUNT: u32 = 7;

    /// A server that echoes [`RPC_ECHO`], queues [`RPC_UNANSWERED`]
    /// for `recv_rpc` and advertises one zeroed 4 KiB region (index 0)
    /// for one-sided ops, and a handle on `n_qps` eager lanes with a
    /// 200 µs timeout and no thread scheduler.
    fn echo_bed(name: &str, n_qps: usize) -> (FlockDomain, FlockServer, ConnectionHandle) {
        let domain = FlockDomain::with_defaults();
        let server_node = domain.add_node(&format!("{name}-srv"));
        let server = FlockServer::listen(&domain, &server_node, name, ServerConfig::default());
        server.reg_handler(RPC_ECHO, |req| req.to_vec());
        assert_eq!(server.attach_mreg(4096), 0);
        let mut cfg = HandleConfig::default();
        cfg.n_qps = n_qps;
        cfg.eager_qps = true;
        cfg.auto_thread_sched = false;
        cfg.timeout = Duration::from_micros(200);
        let client_node = domain.add_node(&format!("{name}-cli"));
        let handle = ConnectionHandle::connect(&domain, &client_node, name, cfg).unwrap();
        (domain, server, handle)
    }

    /// Whether `t`, re-targeted to the other of two lanes, adopts it:
    /// only a thread with no request outstanding does.
    fn migrates(t: &FlThread) -> bool {
        let other = 1 - t.current_qp();
        t.ctx.placement.lock().target = other;
        t.migrate_if_idle() == other
    }

    /// Run `f` on a task of its own; the returned closure joins the task
    /// and gives back what `f` returned.
    fn on_task<T: Send + 'static>(
        name: &str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> impl FnOnce() -> T {
        let out = Arc::new(Mutex::new(None));
        let task = {
            let out = Arc::clone(&out);
            clock::spawn(name, move || *out.lock() = Some(f()))
        };
        move || {
            task.join().unwrap();
            out.lock().take().expect("the task returned")
        }
    }

    /// Send one RPC from `t` on a task of its own, to join the batch the
    /// caller leads next; the returned closure joins the task and gives
    /// back the receive, which must not have waited.
    fn rpc_follower(t: FlThread) -> impl FnOnce() -> Result<Bytes> {
        on_task("follower", move || {
            let seq = t.send_rpc(RPC_ECHO, b"follower").expect("send");
            let asked = clock::now_ns();
            let got = t.recv_res(seq);
            assert_eq!(clock::now_ns(), asked, "the follower waited");
            got
        })
    }

    fn not_in_flight<T>(got: Result<T>) -> bool {
        matches!(got, Err(FlockError::InvalidArgument("seq not in flight")))
    }

    /// Answer the one queued [`RPC_UNANSWERED`] request and wait until
    /// its reply has reached the client.
    fn answer_late(server: &FlockServer) {
        let rpc = server
            .recv_rpc(Duration::from_millis(1))
            .expect("queued request");
        server.send_res(rpc.token, b"too late").unwrap();
        clock::sleep_ns(100_000);
    }

    /// A timed-out `recv_res` used to leave its seq counted in flight
    /// forever (the thread could never migrate again, paper §5.2) and
    /// its late response parked forever.
    #[test]
    fn timed_out_call_frees_the_thread_and_drops_the_late_response() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("leak", 2);
            let t = handle.register_thread();

            let seq = t.send_rpc(RPC_UNANSWERED, b"late").unwrap();
            assert!(matches!(t.recv_res(seq), Err(FlockError::Timeout)));
            // Asked again, it is no longer in flight: at once.
            let asked = clock::now_ns();
            assert!(not_in_flight(t.recv_res(seq)));
            assert_eq!(clock::now_ns(), asked);
            assert_eq!(t.ctx.requests.lock().outstanding(), 0);

            // Re-targeted, the idle thread adopts the new QP on its next send.
            let other = 1 - t.current_qp();
            t.ctx.placement.lock().target = other;
            assert_eq!(&t.call(RPC_ECHO, b"on time").unwrap()[..], b"on time");
            assert_eq!(t.current_qp(), other);

            // The late answer is dropped on arrival, not parked.
            answer_late(&server);
            assert!(not_in_flight(t.recv_res(seq)));
            assert_eq!(t.ctx.requests.lock().outstanding(), 0);
            assert_eq!(t.ctx.requests.lock().issue(()), seq + 2);

            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// `try_recv_res` on a stopped handle used to answer `Disconnected`
    /// for a seq `recv_res` had already given up, and to count it out of
    /// flight a second time: the count wrapped and the thread never
    /// migrated again.
    #[test]
    fn a_stopped_handle_does_not_count_a_given_up_seq_twice() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("twice", 2);
            let t = handle.register_thread();
            let seq = t.send_rpc(RPC_UNANSWERED, b"late").unwrap();
            assert!(matches!(t.recv_res(seq), Err(FlockError::Timeout)));
            handle.shutdown();
            let polled = t.try_recv_res(seq);
            assert!(migrates(&t), "the thread is pinned to its lane");
            assert!(not_in_flight(polled.expect("an answer")));
            server.shutdown(&domain);
        });
    }

    /// A third `recv_res` of a given-up seq, once its late reply had
    /// landed, used to wait a full timeout.
    #[test]
    fn asking_again_after_the_late_reply_landed_returns_at_once() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("third", 2);
            let t = handle.register_thread();
            let seq = t.send_rpc(RPC_UNANSWERED, b"late").unwrap();
            assert!(matches!(t.recv_res(seq), Err(FlockError::Timeout)));
            answer_late(&server);
            let asked = clock::now_ns();
            let again = t.recv_res(seq);
            assert_eq!(clock::now_ns(), asked, "the receive waited");
            assert!(not_in_flight(again));
            assert!(migrates(&t));
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A `recv_res` of a seq already received, or never sent, used to
    /// wait a full timeout, count the seq out of flight and list it as
    /// abandoned for good.
    #[test]
    fn a_seq_taken_or_never_sent_fails_at_once() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("taken", 2);
            let t = handle.register_thread();
            let seq = t.send_rpc(RPC_ECHO, b"once").unwrap();
            assert_eq!(&t.recv_res(seq).unwrap()[..], b"once");
            let asked = clock::now_ns();
            let taken = t.recv_res(seq);
            let never = t.recv_res(seq + 100);
            assert_eq!(clock::now_ns(), asked, "the receives waited");
            assert!(not_in_flight(taken) && not_in_flight(never));
            assert!(migrates(&t));
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A send whose flush failed (here: the credit wait timed out on a
    /// server that is gone) used to leave its seq counted in flight, a
    /// seq the caller never saw, so the thread never migrated again. The
    /// send returns the seq, and its receive answers the flush's error
    /// at once.
    #[test]
    fn a_failed_send_gives_its_seq_up() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("failed", 2);
            let t = handle.register_thread();
            server.shutdown(&domain);
            // The bootstrap grant's requests go out, never answered; the
            // next one waits for a grant that never comes.
            let sent: Vec<u64> = (0..crate::credit::DEFAULT_CREDITS)
                .map(|_| t.send_rpc(RPC_ECHO, b"unanswered").unwrap())
                .collect();
            let failed = t.send_rpc(RPC_ECHO, b"unanswered").unwrap();
            let asked = clock::now_ns();
            let err = t.recv_res(failed);
            assert_eq!(clock::now_ns(), asked, "the receive waited");
            assert!(matches!(err, Err(FlockError::Timeout)), "{err:?}");
            for seq in sent {
                assert!(matches!(t.recv_res(seq), Err(FlockError::Timeout)));
            }
            assert!(migrates(&t), "the failed send is still outstanding");
            handle.shutdown();
        });
    }

    /// A request too large for one message used to fail only inside
    /// the leader's flush, after its batch had taken credits, and took
    /// every request batched beside it down with it.
    #[test]
    fn an_oversize_request_fails_before_it_joins_a_batch() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("oversize", 1);
            let big = Arc::new(handle.register_thread());
            let beside = handle.register_thread();
            let too_large = {
                let big = Arc::clone(&big);
                clock::spawn("big", move || {
                    let got = big.send_rpc(RPC_ECHO, &[0; 40 << 10]);
                    assert!(
                        matches!(got, Err(FlockError::MessageTooLarge { .. })),
                        "{got:?}"
                    );
                })
            };
            assert_eq!(&beside.call(RPC_ECHO, b"beside").unwrap()[..], b"beside");
            too_large.join().unwrap();
            // It took no seq either.
            assert_eq!(big.send_rpc(RPC_ECHO, b"small"), Ok(1));
            assert_eq!(&big.recv_res(1).unwrap()[..], b"small");
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// Sixteen requests that each fit one message but not together used
    /// to fail as one batch; the leader sends them in runs that fit.
    #[test]
    fn a_batch_larger_than_one_message_is_sent_in_runs() {
        const THREADS: usize = 16;
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("runs", 1);
            let threads: Vec<_> = (0..THREADS)
                .map(|_| Arc::new(handle.register_thread()))
                .collect();
            let tasks: Vec<_> = threads
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let t = Arc::clone(t);
                    clock::spawn(&format!("t{i}"), move || {
                        let payload = vec![i as u8; 2560];
                        assert_eq!(t.call(RPC_ECHO, &payload).unwrap(), payload);
                    })
                })
                .collect();
            for task in tasks {
                task.join().unwrap();
            }
            let sent = handle.metrics();
            assert_eq!(sent.requests, THREADS as u64);
            assert!(sent.messages >= 2, "{sent:?}");
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// Two `FlThread`s over one thread's context, on two tasks, walk
    /// every receive that used to miscount — a second receive of a
    /// given-up seq, a third once its reply landed, a receive of a seq
    /// the other took or nobody sent, a poll on a stopped handle — while
    /// the other task's replies land in the same table; the reference
    /// run checks every wake-up has its notify.
    #[test]
    fn two_handles_on_one_thread_match_the_reference() {
        let (seen, _) = flock_sim::vtime::VirtualLab::run_against_reference(|| {
            let (domain, server, mut handle) = echo_bed("twin", 1);
            let a = Arc::new(handle.register_thread());
            let b = Arc::new(FlThread {
                ctx: Arc::clone(&a.ctx),
                inner: Arc::clone(&a.inner),
            });
            // The first call connects the lane (≈ 1 ms).
            a.call(RPC_ECHO, b"warm").unwrap();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let note = {
                let seen = Arc::clone(&seen);
                move |what: &str, got: &dyn std::fmt::Debug| {
                    let line = format!("{what}: {got:?}");
                    seen.lock().push((clock::now_ns(), line));
                }
            };
            let late = a.send_rpc(RPC_UNANSWERED, b"late").unwrap();
            let waiter = {
                let (b, note) = (Arc::clone(&b), note.clone());
                clock::spawn("b", move || note("b gives up", &b.recv_res(late)))
            };
            let mut mine = 0;
            for k in 0..4u8 {
                mine = a.send_rpc(RPC_ECHO, &[k]).unwrap();
                note("a echo", &a.recv_res(mine));
            }
            waiter.join().unwrap();
            note("a again", &a.recv_res(late));
            answer_late(&server);
            note("b asks", &());
            note("b third", &b.recv_res(late));
            note("b taken", &b.recv_res(mine));
            note("b never", &b.recv_res(mine + 10));
            handle.shutdown();
            note("a stopped", &a.try_recv_res(late));
            note("outstanding", &a.ctx.requests.lock().outstanding());
            server.shutdown(&domain);
            let seen = seen.lock().clone();
            seen
        });
        let (at, lines): (Vec<u64>, Vec<String>) = seen.into_iter().unzip();
        let gone = "Err(InvalidArgument(\"seq not in flight\"))";
        let rest = [
            "b gives up: Err(Timeout)".to_string(),
            format!("a again: {gone}"),
            "b asks: ()".to_string(),
            format!("b third: {gone}"),
            format!("b taken: {gone}"),
            format!("b never: {gone}"),
            format!("a stopped: Some({gone})"),
            "outstanding: 0".to_string(),
        ];
        let echoed = lines[..4].iter().all(|l| l.starts_with("a echo: Ok"));
        assert!(echoed, "{lines:?}");
        assert_eq!(lines[4..], rest, "{lines:?}");
        // Answered at once, once the late reply had landed.
        assert!(at[6..10].iter().all(|&t| t == at[6]), "{at:?}");
    }

    /// A one-sided op whose wait timed out used to leave its late result
    /// in `MemSlots::results` for good; a deferred one, its marker.
    #[test]
    fn timed_out_one_sided_waits_leave_nothing_behind() {
        flock_sim::vtime::VirtualLab::run(|| {
            let domain = FlockDomain::with_defaults();
            let server_node = domain.add_node("abandon-srv");
            let server =
                FlockServer::listen(&domain, &server_node, "abandon", ServerConfig::default());
            let idx = server.attach_mreg(4096);
            let mut cfg = HandleConfig::default();
            cfg.n_qps = 1;
            cfg.timeout = Duration::from_nanos(100);
            let client_node = domain.add_node("abandon-cli");
            let mut handle =
                ConnectionHandle::connect(&domain, &client_node, "abandon", cfg).unwrap();
            let t = handle.register_thread();
            clock::flush_charge();

            let token = t.read_async(idx, 0, 8).unwrap();
            assert!(matches!(t.wait_mem(token), Err(FlockError::Timeout)));
            let region = &handle.memory_regions()[idx];
            let remote = RemoteAddr {
                rkey: region.rkey,
                addr: region.addr,
            };
            let mut tokens = Vec::new();
            t.read_batch(&[(remote, 8)], &mut tokens).unwrap();
            let deferred = t.take_deferred(tokens[0], &mut [0; 8]);
            assert!(matches!(deferred, Err(FlockError::Timeout)));

            // Both completions land later: they free their sub-slots and
            // publish nothing.
            clock::sleep_ns(100_000);
            let mem = t.ctx.mem.lock();
            assert!(mem.ops.is_empty());
            assert_eq!(mem.free, 0xFF);
            drop(mem);

            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A one-sided op's bytes wait in its sub-slot for whichever take
    /// comes: a `read_batch` token taken with `wait_mem` used to return
    /// an empty `Vec` and keep its sub-slot, so eight such takes left the
    /// next `read_async` none. A ninth untaken read moves the first one's
    /// bytes out of the sub-slot it needs.
    #[test]
    fn a_batch_read_taken_with_wait_mem_returns_its_bytes() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("batch-wait", 1);
            server.mem_region(0).unwrap().write(0, &[7; 8]).unwrap();
            let t = handle.register_thread();
            let region = &handle.memory_regions()[0];
            let remote = RemoteAddr {
                rkey: region.rkey,
                addr: region.addr,
            };
            let mut tokens = Vec::new();
            for _ in 0..MEM_SUBSLOTS {
                t.read_batch(&[(remote, 8)], &mut tokens).unwrap();
                assert_eq!(t.wait_mem(tokens.pop().unwrap()), Ok(vec![7; 8]));
            }
            assert_eq!(t.ctx.mem.lock().free, 0xFF);
            let token = t.read_async(0, 0, 8).unwrap();
            assert_eq!(t.wait_mem(token), Ok(vec![7; 8]));

            for _ in 0..=MEM_SUBSLOTS {
                t.read_batch(&[(remote, 8)], &mut tokens).unwrap();
            }
            for token in tokens {
                let mut out = [0; 8];
                assert_eq!(t.take_deferred(token, &mut out), Ok(8));
                assert_eq!(out, [7; 8]);
            }
            let mem = t.ctx.mem.lock();
            assert!(mem.ops.is_empty());
            assert_eq!(mem.free, 0xFF);
            drop(mem);

            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A second `wait_mem` or `take_deferred` of a token whose result was
    /// taken used to wait a full timeout and return `Timeout`.
    #[test]
    fn a_token_taken_or_never_issued_fails_at_once() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("token", 1);
            let t = handle.register_thread();
            let token = t.read_async(0, 0, 8).unwrap();
            assert_eq!(t.wait_mem(token), Ok(vec![0; 8]));
            let region = &handle.memory_regions()[0];
            let remote = RemoteAddr {
                rkey: region.rkey,
                addr: region.addr,
            };
            let mut tokens = Vec::new();
            t.read_batch(&[(remote, 8)], &mut tokens).unwrap();
            assert_eq!(t.take_deferred(tokens[0], &mut [0; 8]), Ok(8));

            let asked = clock::now_ns();
            let waited = t.wait_mem(token);
            let deferred = t.take_deferred(tokens[0], &mut [0; 8]);
            let never = t.try_mem(MemToken { seq: 9 });
            assert_eq!(clock::now_ns(), asked, "the waits waited");
            assert!(not_in_flight(waited) && not_in_flight(deferred));
            assert!(not_in_flight(never.expect("an answer")));
            // Nothing was freed twice.
            let mem = t.ctx.mem.lock();
            assert!(mem.ops.is_empty());
            assert_eq!(mem.free, 0xFF);
            drop(mem);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A leader flush whose one-sided post failed used to leave its own
    /// op and every follower's holding their sub-slots for good: the
    /// leader's `read_async` returned the error, each follower's wait
    /// timed out, and after four such batches the thread's eight
    /// sub-slots were gone. Leader and follower alike now get a token
    /// that answers the post's error at once.
    #[test]
    fn a_failed_one_sided_flush_fails_its_whole_batch_at_once() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("unposted", 2);
            let a = handle.register_thread();
            // A second registered thread opens the boarding window, so
            // the follower below joins the leader's batch.
            let _beside = handle.register_thread();
            let b = Arc::new(FlThread {
                ctx: Arc::clone(&a.ctx),
                inner: Arc::clone(&a.inner),
            });
            let lane = a.current_qp();
            let qpn = handle.inner.lane(lane).link.qp().qpn();
            assert!(handle.inner.node.destroy_qp(qpn));
            for round in 0..4 {
                let b = Arc::clone(&b);
                let follower = on_task(&format!("b{round}"), move || {
                    let token = b.read_async(0, 8, 8).expect("the follower's op");
                    let asked = clock::now_ns();
                    let got = b.wait_mem(token);
                    assert_eq!(clock::now_ns(), asked, "the follower waited");
                    got
                });
                let led = a.read_async(0, 0, 8).expect("the leader's op");
                let asked = clock::now_ns();
                let led = a.wait_mem(led);
                assert_eq!(clock::now_ns(), asked, "the leader waited");
                assert!(matches!(led, Err(FlockError::Fabric(_))), "{led:?}");
                assert_eq!(follower(), led);
            }
            let mem = a.ctx.mem.lock();
            assert!(mem.ops.is_empty());
            assert_eq!(mem.free, 0xFF);
            drop(mem);
            // Moved off the broken lane, the thread's ninth op goes out.
            a.ctx.placement.lock().target = 1 - lane;
            let ninth = a.read_async(0, 0, 8).expect("a free sub-slot");
            assert_eq!(a.wait_mem(ninth), Ok(vec![0; 8]));
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// The RPC followers of a leader flush that failed used to get no
    /// answer: the leader's send returned the error, and each follower
    /// waited out its receive timeout (200 500 ns here) for `Timeout`.
    #[test]
    fn a_failed_flush_answers_its_rpc_followers_at_once() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("unsent", 1);
            let a = handle.register_thread();
            let b = handle.register_thread();
            let qpn = handle.inner.lane(0).link.qp().qpn();
            assert!(handle.inner.node.destroy_qp(qpn));
            let follower = rpc_follower(b);
            let led = a.send_rpc(RPC_ECHO, b"leader");
            let led = led.and_then(|seq| a.recv_res(seq));
            assert!(matches!(led, Err(FlockError::Fabric(_))), "{led:?}");
            assert_eq!(follower(), led);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A one-sided op that led a batch used to return the error of the
    /// batch's RPC run though its own work request went out and ran:
    /// `write_async` returned `Timeout` while the server's region read
    /// the bytes it wrote.
    #[test]
    fn a_posted_one_sided_leader_is_not_reported_failed() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("posted", 1);
            let a = handle.register_thread();
            let b = handle.register_thread();
            a.call(RPC_ECHO, b"warm").unwrap();
            server.shutdown(&domain);
            // Spend the rest of the bootstrap grant: the next RPC run
            // waits for a grant that never comes.
            for _ in 1..crate::credit::DEFAULT_CREDITS {
                a.send_rpc(RPC_ECHO, b"spend").unwrap();
            }
            let follower = rpc_follower(b);
            let token = a.write_async(0, 0, &[7; 8]).expect("the leader's op");
            assert_eq!(a.wait_mem(token), Ok(Vec::new()));
            let got = follower();
            assert!(matches!(got, Err(FlockError::Timeout)), "{got:?}");
            let region = server.mem_region(0).expect("region 0");
            assert_eq!(region.read_vec(0, 8).unwrap(), [7; 8]);
            let mem = a.ctx.mem.lock();
            assert!(mem.ops.is_empty());
            assert_eq!(mem.free, 0xFF);
            drop(mem);
            handle.shutdown();
        });
    }

    /// A blocking write used to copy its bytes into the thread's scratch
    /// before it held any of it: over the sub-slot of a `write_async`
    /// still in flight, which then wrote them in place of its own.
    #[test]
    fn a_blocking_write_leaves_an_async_writes_scratch_alone() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("scratch", 1);
            let t = handle.register_thread();
            let token = t.write_async(0, 0, &[0xAA; 8]).unwrap();
            t.write(0, 64, &[0xBB; 8]).unwrap();
            assert_eq!(t.wait_mem(token), Ok(Vec::new()));
            let region = server.mem_region(0).expect("region 0");
            assert_eq!(region.read_vec(0, 8).unwrap(), [0xAA; 8]);
            assert_eq!(region.read_vec(64, 8).unwrap(), [0xBB; 8]);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// `read_slots` used to return at the first read that failed and
    /// never take the batch's later ones: each kept its sub-slot for
    /// good, and its answered slot kept the table from moving on.
    #[test]
    fn a_failed_slot_batch_takes_every_read() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("slots", 1);
            let t = handle.register_thread();
            let mut region = handle.memory_regions()[0];
            region.rkey.0 ^= 0xdead;
            let lease = SegmentLease {
                name: "unknown".to_string(),
                region,
                stride: 64,
                slots: 4,
                meta: 48,
            };
            let mut reader = crate::onesided::OneSidedReader::new(lease).unwrap();
            let mut buf = [0; 3 * 64];
            let got = reader.read_slots(&t, &[0, 1, 2], &mut buf, &mut Vec::new());
            assert!(matches!(got, Err(FlockError::RemoteOpFailed(_))), "{got:?}");
            let mem = t.ctx.mem.lock();
            assert!(mem.ops.is_empty());
            assert_eq!(mem.free, 0xFF);
            drop(mem);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A handler that counts its calls, registered for [`RPC_COUNT`].
    fn counted(server: &FlockServer) -> Arc<Counter> {
        let calls = Arc::new(Counter::default());
        let seen = Arc::clone(&calls);
        server.reg_handler(RPC_COUNT, move |req| {
            seen.add(1);
            req.to_vec()
        });
        calls
    }

    /// A posted request is answered by the landing of its write: an
    /// empty reply, a handler run once and no response message.
    #[test]
    fn a_posted_request_is_answered_by_its_delivery() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("posted", 1);
            let calls = counted(&server);
            let t = handle.register_thread();
            t.call(RPC_ECHO, b"warm").unwrap();
            let responses = server.stats().responses.get();
            let seq = t.post_rpc(RPC_COUNT, b"once").unwrap();
            assert_eq!(t.recv_res(seq), Ok(Bytes::new()));
            clock::sleep_ns(50_000);
            assert_eq!(calls.get(), 1);
            assert_eq!(server.stats().requests.get(), 2);
            assert_eq!(server.stats().responses.get(), responses);
            assert_eq!(t.ctx.requests.lock().outstanding(), 0);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A landing seen by `try_landed` or `wait_landed` stays outstanding
    /// until a receive takes it; a failed one is received at once.
    #[test]
    fn a_seen_landing_stays_outstanding_until_received() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("seen", 1);
            let calls = counted(&server);
            let t = handle.register_thread();
            t.call(RPC_ECHO, b"warm").unwrap();
            let seq = t.post_rpc(RPC_COUNT, b"once").unwrap();
            assert_eq!(t.try_landed(seq), None, "landed as it was posted");
            assert_eq!(t.wait_landed(seq), Ok(()));
            assert_eq!(t.try_landed(seq), Some(Ok(())));
            assert_eq!(t.ctx.requests.lock().outstanding(), 1);
            assert_eq!(t.recv_res(seq), Ok(Bytes::new()));
            assert_eq!(t.ctx.requests.lock().outstanding(), 0);
            let (peer, qpn) = handle.inner.lane(0).link.qp().remote().expect("connected");
            assert!(domain.fabric().node(peer).unwrap().destroy_qp(qpn));
            let lost = t.post_rpc(RPC_COUNT, b"lost").unwrap();
            let failed = t.wait_landed(lost);
            assert!(matches!(failed, Err(FlockError::RemoteOpFailed(_))));
            assert_eq!(t.ctx.requests.lock().outstanding(), 0);
            let not_in_flight = FlockError::InvalidArgument("seq not in flight");
            assert_eq!(t.try_landed(lost), Some(Err(not_in_flight)));
            assert_eq!(calls.get(), 1);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// Eight threads on one lane, every other one posting, board one
    /// TCQ batch: one message carries both kinds, and each request is
    /// answered once (debug builds: the table's oracles stay silent),
    /// the posted ones empty and the others with their echo.
    #[test]
    fn one_batch_mixes_posted_and_answered_requests() {
        const THREADS: usize = 8;
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("mixed", 1);
            let calls = counted(&server);
            let threads: Vec<_> = (0..THREADS)
                .map(|_| Arc::new(handle.register_thread()))
                .collect();
            threads[0].call(RPC_ECHO, b"warm").unwrap();
            let messages = handle.metrics().messages;
            let tasks: Vec<_> = threads
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let t = Arc::clone(t);
                    on_task(&format!("t{i}"), move || {
                        if i % 2 == 0 {
                            let seq = t.post_rpc(RPC_COUNT, &[i as u8]).unwrap();
                            assert_eq!(t.recv_res(seq), Ok(Bytes::new()), "thread {i}");
                        } else {
                            assert_eq!(&t.call(RPC_ECHO, &[i as u8]).unwrap()[..], [i as u8]);
                        }
                        assert_eq!(t.ctx.requests.lock().outstanding(), 0);
                    })
                })
                .collect();
            for task in tasks {
                task();
            }
            assert_eq!(handle.metrics().messages - messages, 1, "one batch");
            clock::sleep_ns(50_000);
            assert_eq!(calls.get(), THREADS as u64 / 2);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A posted request whose write failed is answered with the error
    /// at once, not at its receive's timeout (200 µs here): a write the
    /// NIC reported failed (the server's QP is gone), and then a post
    /// the errored QP refused, with a follower in its batch.
    #[test]
    fn a_failed_posted_write_answers_at_once() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("post-fail", 1);
            let calls = counted(&server);
            let a = handle.register_thread();
            let b = handle.register_thread();
            a.call(RPC_ECHO, b"warm").unwrap();
            let (peer, qpn) = handle.inner.lane(0).link.qp().remote().expect("connected");
            assert!(domain.fabric().node(peer).unwrap().destroy_qp(qpn));
            let asked = clock::now_ns();
            let failed = a.recv_res(a.post_rpc(RPC_COUNT, b"lost").unwrap());
            assert!(clock::now_ns() - asked < 20_000, "the receive waited");
            let completion =
                FlockError::RemoteOpFailed("request write completed with error status");
            assert_eq!(failed, Err(completion));
            let follower = on_task("follower", move || {
                let seq = b.post_rpc(RPC_COUNT, b"follower").unwrap();
                let asked = clock::now_ns();
                let got = b.recv_res(seq);
                assert_eq!(clock::now_ns(), asked, "the follower waited");
                got
            });
            let led = a
                .post_rpc(RPC_COUNT, b"leader")
                .and_then(|seq| a.recv_res(seq));
            assert!(matches!(led, Err(FlockError::Fabric(_))), "{led:?}");
            assert_eq!(follower(), led);
            assert_eq!(calls.get(), 0);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A thread that only posts never gets a response to carry the
    /// server's consumed head back; the head-debt rule's head-only
    /// messages do, so ten rings' worth of posted requests never wedge
    /// the request ring. Eight of these fill the ring before the lane's
    /// first credit renewal, whose grant would carry the head too.
    #[test]
    fn posting_ten_rings_of_requests_never_wedges() {
        const PAYLOAD: usize = 8000;
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("post-only", 1);
            let calls = counted(&server);
            let t = handle.register_thread();
            let ring = handle.inner.lane(0).link.remote_capacity();
            let posts = 10 * ring / PAYLOAD;
            for i in 0..posts {
                let seq = t.post_rpc(RPC_COUNT, &[i as u8; PAYLOAD]).unwrap();
                assert_eq!(t.recv_res(seq), Ok(Bytes::new()), "post {i}");
            }
            clock::sleep_ns(50_000);
            assert_eq!(calls.get(), posts as u64);
            assert_eq!(server.stats().response_messages.get(), 0);
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A posted request for an id with no handler goes to `recv_rpc`
    /// like any other, but its sender was answered when it landed:
    /// `send_res` refuses its token, so no second reply can reach the
    /// thread. No handler can be registered for a marked id.
    #[test]
    fn a_posted_request_without_a_handler_takes_no_response() {
        flock_sim::vtime::VirtualLab::run(|| {
            let (domain, server, mut handle) = echo_bed("post-manual", 1);
            let t = handle.register_thread();
            let seq = t.post_rpc(RPC_UNANSWERED, b"manual").unwrap();
            assert_eq!(t.recv_res(seq), Ok(Bytes::new()));
            let rpc = server
                .recv_rpc(Duration::from_millis(1))
                .expect("queued request");
            assert_eq!(
                (rpc.rpc_id, &rpc.data[..]),
                (RPC_UNANSWERED, &b"manual"[..])
            );
            let refused = server.send_res(rpc.token, b"never");
            assert!(
                matches!(refused, Err(FlockError::InvalidArgument(_))),
                "{refused:?}"
            );
            clock::sleep_ns(50_000);
            assert_eq!(server.stats().responses.get(), 0);
            assert!(not_in_flight(t.recv_res(seq)));
            let marked = t.post_rpc(RPC_POSTED | RPC_ECHO, b"marked");
            assert!(matches!(marked, Err(FlockError::InvalidArgument(_))));
            let sent = t.send_rpc(RPC_POSTED | RPC_ECHO, b"marked");
            assert!(matches!(sent, Err(FlockError::InvalidArgument(_))));
            let register = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                server.reg_handler(RPC_POSTED | RPC_ECHO, |req| req.to_vec())
            }));
            assert!(register.is_err(), "a marked id took a handler");
            handle.shutdown();
            server.shutdown(&domain);
        });
    }

    /// A dial that fails returns every QP and response ring `fl_connect`
    /// leased for it.
    #[test]
    fn failed_dial_releases_the_leased_lanes() {
        let domain = FlockDomain::with_defaults();
        let (tx, rx, _rung) = flock_fabric::doorbell();
        domain.register_listener("gone", tx);
        drop(rx);
        let node = domain.add_node("gone-cli");
        let mut cfg = HandleConfig::default();
        cfg.eager_qps = true;
        let dialed = ConnectionHandle::connect(&domain, &node, "gone", cfg);
        assert!(matches!(dialed, Err(FlockError::Disconnected)));
        assert_eq!((node.qp_count(), node.mrs().len()), (0, 0));
    }

    #[test]
    fn handle_config_defaults_are_sane() {
        let cfg = HandleConfig::default();
        assert!(cfg.n_qps >= 1);
        assert!(cfg.ring_capacity % 64 == 0);
        assert!(cfg.batch_limit > 1, "coalescing is on by default");
    }
}
