//! The one blocking channel receive.
//!
//! Companion to [`flock_sync::clock::Event`] for conditions that live
//! in a crossbeam channel (control-plane requests and replies, NIC
//! doorbells, manually pulled RPCs). It lives here rather than in
//! `flock-sync` because this is the lowest crate that already depends
//! on crossbeam.

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use flock_sync::clock;
use std::time::Duration;

/// Receive one message, giving up when `deadline_ns` (a
/// [`clock::deadline`] value; `None` = never) passes.
///
/// Threaded callers block in the channel. A virtual task must not (a
/// parked OS thread stalls the lab's one core): it polls `try_recv` and
/// calls `idle` between empty polls — a fixed `clock::sleep_ns` period
/// or an [`flock_sync::AdaptiveBackoff`] ladder, the caller's modeling
/// choice. `idle` never runs in threaded mode.
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
