//! The one blocking channel receive.
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

/// Receive one message, giving up when `deadline_ns` (a
/// [`clock::deadline`] value; `None` = never) passes.
///
/// Threaded callers block in the channel. A virtual task must not (a
/// parked OS thread stalls the lab's one core): it polls `try_recv` and
/// calls `idle` between empty polls — a fixed period or an
/// [`flock_sync::AdaptiveBackoff`] ladder, the caller's modeling
/// choice, slept on the channel's [`doorbell`] event. `idle` never runs
/// in threaded mode.
pub fn recv_until<T>(
    rx: &Receiver<T>,
    deadline_ns: Option<u64>,
    mut idle: impl FnMut(),
) -> Result<T, RecvTimeoutError> {
    if !clock::is_virtual() {
        return match deadline_ns {
            Some(d) => rx.recv_timeout(Duration::from_nanos(d.saturating_sub(clock::now_ns()))),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
    }
    loop {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {
                if deadline_ns.is_some_and(clock::expired) {
                    return Err(RecvTimeoutError::Timeout);
                }
                idle();
            }
        }
    }
}
