//! FaRM-style lock-based QP sharing (and the no-sharing special case).
//!
//! Threads share an RC QP behind a plain lock: each thread encodes its own
//! single-request message and posts its own RDMA write while holding the
//! QP lock. No coalescing, no leader — the configuration the paper's
//! Figure 9 compares against (2 or 4 threads per QP via spinlock;
//! 1 thread per QP is the *no sharing* configuration).
//!
//! The client speaks the Flock ring/message protocol, so the peer is an
//! unmodified [`flock_core::server::FlockServer`].

use std::collections::HashMap;

use std::time::Duration;

use flock_sync::clock::{self, Event, TaskHandle};
use flock_sync::{Arc, Counter, Stop};

use flock_core::credit::CreditState;
use flock_core::domain::{reply_channel, ConnectRequest, FlockDomain, RingInfo};
use flock_core::msg::{self, EntryMeta, EntryRef, FLAG_CREDIT_GRANT};
use flock_core::ring::{self, Link};
use flock_core::{FlockError, Result};
use flock_fabric::{Access, Node, Transport};
use parking_lot::Mutex;

/// Configuration for the lock-sharing client.
#[derive(Debug, Clone)]
pub struct LockShareConfig {
    /// Number of RC QPs.
    pub n_qps: usize,
    /// Ring capacity per QP.
    pub ring_capacity: usize,
    /// Blocking-wait timeout.
    pub timeout: Duration,
}

impl Default for LockShareConfig {
    fn default() -> Self {
        LockShareConfig {
            n_qps: 4,
            ring_capacity: 1 << 16,
            timeout: Duration::from_secs(10),
        }
    }
}

struct QpCtx {
    /// The shared QP and its rings. The link's send lock is the
    /// FaRM-style QP lock (a parking-lot mutex, which spins before
    /// parking): every thread encodes and posts its own message under it.
    link: Link,
    credits: Mutex<CreditState>,
    /// Signalled on every credit grant.
    granted: Event,
    messages_sent: Counter,
}

struct ThreadSlot {
    inbox: Mutex<HashMap<u64, Vec<u8>>>,
    /// Signalled after every inbox insert and when the client stops.
    delivered: Event,
}

struct Inner {
    cfg: LockShareConfig,
    qps: Vec<Arc<QpCtx>>,
    threads: Mutex<Vec<Arc<ThreadSlot>>>,
    stop: Stop,
}

impl Inner {
    /// For wait conditions: `Some(Err(Disconnected))` once the client has
    /// stopped (ends the wait), `None` (keep waiting) until then.
    fn disconnected<T>(&self) -> Option<Result<T>> {
        self.stop.is_set().then_some(Err(FlockError::Disconnected))
    }
}

/// The lock-based QP-sharing RPC client.
pub struct LockSharedClient {
    inner: Arc<Inner>,
    dispatcher: Option<TaskHandle>,
}

/// A per-thread context for [`LockSharedClient`].
pub struct LockThread {
    inner: Arc<Inner>,
    thread_id: u32,
    qp_idx: usize,
    seq: std::cell::Cell<u64>,
    slot: Arc<ThreadSlot>,
}

impl LockSharedClient {
    /// Connect to a Flock server (same handshake as the Flock client).
    pub fn connect(
        domain: &FlockDomain,
        node: &Arc<Node>,
        server_name: &str,
        cfg: LockShareConfig,
    ) -> Result<LockSharedClient> {
        let mut client_qps = Vec::new();
        let mut resp_mrs = Vec::new();
        let mut response_rings = Vec::new();
        for _ in 0..cfg.n_qps {
            let cq = node.create_cq(256);
            let qp = node.create_qp(Transport::Rc, &cq, &cq);
            let resp_mr = node.register_mr(cfg.ring_capacity, Access::REMOTE_WRITE);
            response_rings.push(RingInfo::of(&resp_mr));
            resp_mrs.push(resp_mr);
            client_qps.push(qp);
        }
        let (reply_tx, _r) = reply_channel();
        let reply = domain.dial(
            server_name,
            ConnectRequest {
                client_node: node.id(),
                client_qps: client_qps.clone(),
                response_rings,
                tenant: 0,
                reply: reply_tx,
            },
        )?;
        let qps = client_qps
            .into_iter()
            .zip(resp_mrs)
            .zip(&reply.request_rings)
            .map(|((qp, resp_mr), &req_remote)| {
                Arc::new(QpCtx {
                    link: Link::new(node, qp, resp_mr, req_remote),
                    credits: Mutex::new(CreditState::new(reply.initial_credits)),
                    granted: Event::new(),
                    messages_sent: Counter::default(),
                })
            })
            .collect();
        let inner = Arc::new(Inner {
            cfg,
            qps,
            threads: Mutex::new(Vec::new()),
            stop: Stop::new(),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            clock::spawn("lockshare-dispatch", move || dispatcher_loop(&inner))
        };
        Ok(LockSharedClient {
            inner,
            dispatcher: Some(dispatcher),
        })
    }

    /// Register a thread; it is pinned to QP `thread_id % n_qps` (static
    /// FaRM-style assignment; no thread scheduler).
    pub fn register_thread(&self) -> LockThread {
        let mut threads = self.inner.threads.lock();
        let thread_id = threads.len() as u32;
        let slot = Arc::new(ThreadSlot {
            inbox: Mutex::new(HashMap::new()),
            delivered: Event::new(),
        });
        threads.push(Arc::clone(&slot));
        LockThread {
            inner: Arc::clone(&self.inner),
            thread_id,
            qp_idx: thread_id as usize % self.inner.qps.len(),
            seq: std::cell::Cell::new(1),
            slot,
        }
    }

    /// Messages sent (equals requests: no coalescing).
    pub fn messages_sent(&self) -> u64 {
        self.inner.qps.iter().map(|q| q.messages_sent.get()).sum()
    }

    /// Stop the dispatcher.
    pub fn shutdown(&mut self) {
        // Both waits of `call` end on the stop flag.
        let threads = self.inner.threads.lock();
        let grants = self.inner.qps.iter().map(|qp| &qp.granted);
        let inboxes = threads.iter().map(|slot| &slot.delivered);
        self.inner.stop.set(grants.chain(inboxes));
        drop(threads);
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LockSharedClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl LockThread {
    /// Blocking RPC: encode one single-request message under the QP lock,
    /// post it, and wait for the response.
    pub fn call(&self, rpc_id: u32, payload: &[u8]) -> Result<Vec<u8>> {
        let qp = &self.inner.qps[self.qp_idx];
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let meta = EntryMeta {
            len: payload.len() as u32,
            thread_id: self.thread_id,
            seq,
            rpc_id,
        };
        let deadline = clock::deadline(self.inner.cfg.timeout);

        // Credits: 1 per request; renew at half. The credits are unlocked
        // between attempts so the dispatcher can grant.
        qp.granted
            .wait_until(deadline, 500, || {
                let mut credits = qp.credits.lock();
                if credits.try_consume(1) {
                    return Some(Ok(()));
                }
                if !credits.renewal_in_flight() {
                    credits.mark_requested();
                    send_credit_request(qp);
                }
                self.inner.disconnected()
            })
            .unwrap_or(Err(FlockError::Timeout))?;
        {
            let mut credits = qp.credits.lock();
            if credits.should_request_renewal() {
                credits.mark_requested();
                send_credit_request(qp);
            }
        }

        // The send itself holds the QP lock (FaRM model); a full ring
        // releases it for the wait.
        let entry = EntryRef {
            meta,
            data: payload,
        };
        while let Err(e) = qp.link.try_send(0, 0, [entry].into_iter()) {
            if !matches!(e, FlockError::RingFull { .. }) {
                return Err(e);
            }
            if clock::expired(deadline) {
                return Err(FlockError::Timeout);
            }
            clock::yield_now();
        }
        qp.messages_sent.add(1);

        // ---- Wait for the response outside the lock. ----
        self.slot
            .delivered
            .wait_until(deadline, 500, || {
                if let Some(data) = self.slot.inbox.lock().remove(&seq) {
                    return Some(Ok(data));
                }
                self.inner.disconnected()
            })
            .unwrap_or(Err(FlockError::Timeout))
    }
}

fn send_credit_request(qp: &QpCtx) {
    let _ = qp.link.post_credit_request(1); // degree is always 1 here
}

fn dispatcher_loop(inner: &Inner) {
    let mut msg = Vec::new();
    while !inner.stop.is_set() {
        let mut progressed = false;
        for qp in &inner.qps {
            while qp.link.qp().send_cq().poll_one().is_some() {}
            if let Ok(true) = qp.link.poll_into(&mut msg) {
                progressed = true;
                let view = ring::view(&msg);
                if view.header.flags & FLAG_CREDIT_GRANT != 0 {
                    let (granted, _) = msg::unpack_aux(view.header.aux);
                    // The Flock server only declines QPs its scheduler
                    // deactivated; the FaRM-style client has no
                    // migration, so treat it as a fresh grant request
                    // opportunity (keeps the baseline simple).
                    qp.credits.lock().grant(granted.max(1));
                    qp.granted.notify_all();
                }
                let threads = inner.threads.lock();
                for (meta, data) in view.entries() {
                    if let Some(slot) = threads.get(meta.thread_id as usize) {
                        slot.inbox.lock().insert(meta.seq, data.to_vec());
                        slot.delivered.notify_all();
                    }
                }
            }
        }
        if progressed {
            // Charge per-batch CPU cost so a busy virtual dispatcher
            // still advances time and yields the core (no-ops in
            // threaded mode).
            clock::charge(1_000);
            clock::flush_charge();
        } else {
            clock::yield_now();
        }
    }
}
