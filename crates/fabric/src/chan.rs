//! The one channel receive of the clock seam.
//!
//! Companion to [`flock_sync::clock::Event`] for conditions that live
//! in a crossbeam channel (control-plane requests and replies, NIC
//! doorbells, manually pulled RPCs). It lives here rather than in
//! `flock-sync` because this is the lowest crate that already depends
//! on crossbeam.
//!
//! A channel a virtual task waits on — a NIC lane's command queue, a
//! server's control and manual-RPC queues, a control-plane reply — is
//! a [`doorbell`] channel: every send also notifies an `Event`, so the
//! receiver can idle through [`flock_sync::AdaptiveBackoff::idle_on`]
//! (a ladder) or [`Event::idle_fixed`] (a fixed period) and the lab
//! runs none of its empty polls.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};
use flock_sync::clock::{self, Event};

/// Sending half of a [`doorbell`] channel.
#[derive(Debug)]
pub struct DoorbellSender<T> {
    tx: Sender<T>,
    rung: Arc<Event>,
}

impl<T> Clone for DoorbellSender<T> {
    fn clone(&self) -> Self {
        DoorbellSender {
            tx: self.tx.clone(),
            rung: Arc::clone(&self.rung),
        }
    }
}

impl<T> DoorbellSender<T> {
    /// Queue `msg`, then notify the receiver's event.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let sent = self.tx.send(msg);
        self.rung.notify_all();
        sent
    }
}

/// An unbounded channel plus the event every send notifies.
pub fn doorbell<T>() -> (DoorbellSender<T>, Receiver<T>, Arc<Event>) {
    let (tx, rx) = unbounded();
    let rung = Arc::new(Event::new());
    let tx = DoorbellSender {
        tx,
        rung: Arc::clone(&rung),
    };
    (tx, rx, rung)
}

/// One attempt to receive a message before `deadline_ns` (a
/// [`clock::deadline`] value; `None` = never), for callers that must
/// not wait under a virtual executor — a `clock::spawn_stepper` step,
/// and [`recv_until`]'s loop.
///
/// Threaded callers block in the channel and never see `Ok(None)`. A
/// virtual task must not block (a parked OS thread stalls the lab's one
/// core): there an empty channel is `Ok(None)`, and the caller sleeps on
/// the channel's [`doorbell`] event before it tries again — a step by
/// returning `Next::Idle`.
pub(crate) fn recv_step<T>(
    rx: &Receiver<T>,
    deadline_ns: Option<u64>,
) -> Result<Option<T>, RecvTimeoutError> {
    if !clock::is_virtual() {
        return match deadline_ns {
            Some(d) => rx.recv_timeout(Duration::from_nanos(d.saturating_sub(clock::now_ns()))),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        }
        .map(Some);
    }
    match rx.try_recv() {
        Ok(msg) => Ok(Some(msg)),
        Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
        Err(TryRecvError::Empty) if deadline_ns.is_some_and(clock::expired) => {
            Err(RecvTimeoutError::Timeout)
        }
        Err(TryRecvError::Empty) => Ok(None),
    }
}

/// Receive one message, giving up when `deadline_ns` passes:
/// [`recv_step`] until it has one, calling `idle` between a virtual
/// task's empty polls — a fixed period or an
/// [`flock_sync::AdaptiveBackoff`] ladder, the caller's modeling
/// choice, slept on the channel's [`doorbell`] event. `idle` never runs
/// in threaded mode.
pub fn recv_until<T>(
    rx: &Receiver<T>,
    deadline_ns: Option<u64>,
    mut idle: impl FnMut(),
) -> Result<T, RecvTimeoutError> {
    loop {
        if let Some(msg) = recv_step(rx, deadline_ns)? {
            return Ok(msg);
        }
        idle();
    }
}
