//! The one blocking channel receive.
//!
//! Companion to [`flock_sync::clock::Event`] for conditions that live
//! in a crossbeam channel (control-plane requests and replies, NIC
//! doorbells, manually pulled RPCs). It lives here rather than in
//! `flock-sync` because this is the lowest crate that already depends
//! on crossbeam.
//!
//! A channel that a virtual task watches for most of a run — a NIC
//! lane's command queue — is a [`doorbell`] channel: every send also
//! notifies an `Event`, so the lane can idle through
//! [`flock_sync::AdaptiveBackoff::idle_on`] and the lab runs none of
//! its empty polls. The control-plane channels keep a plain idle
//! closure (a fixed 5 µs period or a deep ladder): their polls are a
//! percent of a run's handovers (ROADMAP item 2).

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};
use flock_sync::clock::{self, Event};

/// Sending half of a [`doorbell`] channel.
#[derive(Debug)]
pub(crate) struct DoorbellSender<T> {
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
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let sent = self.tx.send(msg);
        self.rung.notify_all();
        sent
    }
}

/// An unbounded channel plus the event every send notifies.
pub(crate) fn doorbell<T>() -> (DoorbellSender<T>, Receiver<T>, Arc<Event>) {
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
/// calls `idle` between empty polls — a fixed `clock::sleep_ns` period
/// or an [`flock_sync::AdaptiveBackoff`] ladder, the caller's modeling
/// choice; `idle_on` the channel's event when it is a [`doorbell`]
/// one. `idle` never runs in threaded mode.
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
