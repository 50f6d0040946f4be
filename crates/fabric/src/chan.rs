//! Doorbell channels: a crossbeam channel plus the `Event` its sends
//! notify.
//!
//! Companion to [`flock_sync::clock::Event`] for conditions that live
//! in a crossbeam channel (control-plane requests and replies, NIC
//! doorbells, manually pulled RPCs). It lives here rather than in
//! `flock-sync` because this is the lowest crate that already depends
//! on crossbeam.
//!
//! Nobody can block in the channel itself: the `crossbeam` shim's
//! channel is unbounded and its receiver has only `try_recv`. While the
//! channel is empty a receiver waits on the channel's event like any
//! other waiter, the same call on both executors: an
//! [`Event::wait_until`] over `try_recv`, an
//! [`flock_sync::AdaptiveBackoff::idle_on`] loop, or a stepper's
//! `Next::Idle`. Every send notifies the event, and so does the drop of
//! the channel's last sender, so a waiting receiver sees the disconnect.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use flock_sync::clock::Event;

/// Sending half of a [`doorbell`] channel.
#[derive(Debug)]
pub struct DoorbellSender<T> {
    // Declared before `bell`, so dropped first: when the last sender's
    // `bell` rings, the channel is already disconnected.
    tx: Sender<T>,
    bell: Arc<Bell>,
}

/// The channel's event, shared by all of its senders: dropped with the
/// last of them, which notifies the receiver of the disconnect.
#[derive(Debug)]
struct Bell(Arc<Event>);

impl Drop for Bell {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

impl<T> Clone for DoorbellSender<T> {
    fn clone(&self) -> Self {
        DoorbellSender {
            tx: self.tx.clone(),
            bell: Arc::clone(&self.bell),
        }
    }
}

impl<T> DoorbellSender<T> {
    /// Queue `msg`, then notify the receiver's event.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let sent = self.tx.send(msg);
        self.bell.0.notify_all();
        sent
    }
}

/// An unbounded channel plus the event every send notifies.
pub fn doorbell<T>() -> (DoorbellSender<T>, Receiver<T>, Arc<Event>) {
    let (tx, rx) = unbounded();
    let rung = Arc::new(Event::new());
    let tx = DoorbellSender {
        tx,
        bell: Arc::new(Bell(Arc::clone(&rung))),
    };
    (tx, rx, rung)
}
