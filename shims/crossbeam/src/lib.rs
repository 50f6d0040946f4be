//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access, so the workspace patches
//! `crossbeam` to this shim (see `[patch.crates-io]` in the root
//! `Cargo.toml`). It keeps only the surface the workspace calls:
//! `crossbeam::channel::unbounded`, with cloneable senders and one
//! receiver, and nothing that blocks. A receiver `try_recv`s; to wait
//! for a message it waits on the `flock_sync::clock::Event` the senders
//! notify (`flock_fabric::chan`), the one blocking primitive of the
//! workspace. A send fails once the receiver is gone, and `try_recv`
//! reports `Disconnected` once every sender is gone and the queue is
//! drained.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver: bool,
    }

    /// Every update is one field write or one queue operation, so a
    /// holder that panicked left the state valid.
    fn lock<T>(state: &Mutex<State<T>>) -> MutexGuard<'_, State<T>> {
        state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Error returned by [`Sender::send`] when the receiver is gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders have been dropped and the queue is drained.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        state: Arc<Mutex<State<T>>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        state: Arc<Mutex<State<T>>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            lock(&self.state).senders += 1;
            Sender {
                state: Arc::clone(&self.state),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            lock(&self.state).senders -= 1;
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            lock(&self.state).receiver = false;
        }
    }

    impl<T> Sender<T> {
        /// Queue a message; fails only once the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = lock(&self.state);
            if !st.receiver {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Take the oldest queued message, if any.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = lock(&self.state);
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let state = Arc::new(Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver: true,
        }));
        (
            Sender {
                state: Arc::clone(&state),
            },
            Receiver { state },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observed() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        let (tx2, rx2) = unbounded::<u32>();
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn queued_messages_are_delivered_before_disconnected() {
        let (tx, rx) = unbounded();
        tx.send(3u8).unwrap();
        tx.send(4).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(3));
        assert_eq!(rx.try_recv(), Ok(4));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn endpoints_are_clone_and_shared() {
        fn shared<T: Send + Sync>(_: &T) {}
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        shared(&tx2);
        shared(&rx);
        tx2.send(7u8).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(7));
        // One sender is left: empty, not disconnected.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}
