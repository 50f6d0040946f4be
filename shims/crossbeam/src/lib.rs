//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access, so the workspace patches
//! `crossbeam` to this shim (see `[patch.crates-io]` in the root
//! `Cargo.toml`). Only the surface the workspace actually uses is
//! provided: `crossbeam::channel` with cloneable multi-producer
//! multi-consumer senders and receivers. Semantics match crossbeam for
//! that subset: `bounded(n)` blocks senders when full, endpoints are
//! `Clone + Send + Sync`, and disconnection is observed when all peers
//! of the other side are dropped.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `recv_cv` / senders blocked on `send_cv`,
        /// counted under the lock around each wait. A notify is a futex
        /// system call even with nobody to wake, so the other side makes
        /// one only when the count says somebody is there.
        parked_receivers: usize,
        parked_senders: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        recv_cv: Condvar,
        send_cv: Condvar,
    }

    impl<T> Chan<T> {
        /// A message was queued: wake a receiver, if one is blocked.
        fn wake_receiver(&self, st: &State<T>) {
            if st.parked_receivers > 0 {
                self.recv_cv.notify_one();
            }
        }

        /// A message was taken: wake a sender, if one is blocked.
        fn wake_sender(&self, st: &State<T>) {
            if st.parked_senders > 0 {
                self.send_cv.notify_one();
            }
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders have been dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// All senders have been dropped and the queue is drained.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 && st.parked_receivers > 0 {
                self.chan.recv_cv.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 && st.parked_senders > 0 {
                self.chan.send_cv.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Send a message, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match st.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st.parked_senders += 1;
                        st = self.chan.send_cv.wait(st).unwrap();
                        st.parked_senders -= 1;
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            self.chan.wake_receiver(&st);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Receive a message, blocking until one is available or all
        /// senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.chan.wake_sender(&st);
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.parked_receivers += 1;
                st = self.chan.recv_cv.wait(st).unwrap();
                st.parked_receivers -= 1;
            }
        }

        /// Receive without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.state.lock().unwrap();
            if let Some(v) = st.queue.pop_front() {
                self.chan.wake_sender(&st);
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receive with a deadline of `timeout` from now.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.chan.wake_sender(&st);
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.parked_receivers += 1;
                let (g, _) = self.chan.recv_cv.wait_timeout(st, deadline - now).unwrap();
                st = g;
                st.parked_receivers -= 1;
            }
        }

        /// Blocking iterator over received messages; ends on disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// `(receivers, senders)` blocked on the channel right now: lets
        /// a test wait until its peer is really parked before it makes
        /// the call that has to wake it.
        #[cfg(test)]
        pub(crate) fn parked(&self) -> (usize, usize) {
            let st = self.chan.state.lock().unwrap();
            (st.parked_receivers, st.parked_senders)
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// Create a bounded channel. A capacity of zero is treated as one
    /// (this shim does not implement rendezvous channels).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
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
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observed() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx2, rx2) = unbounded::<u32>();
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn bounded_blocks_and_unblocks() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || {
            tx.send(2).unwrap();
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        h.join().unwrap();
    }

    /// Spin until `rx`'s channel has `want` = `(receivers, senders)`
    /// blocked on it.
    fn until_parked<T>(rx: &Receiver<T>, want: (usize, usize)) {
        while rx.parked() != want {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_receiver_parked_in_recv_is_woken_by_a_send_and_by_the_last_sender_leaving() {
        let (tx, rx) = unbounded::<u32>();
        let parked = rx.clone();
        let h = std::thread::spawn(move || (parked.recv(), parked.recv()));
        until_parked(&rx, (1, 0));
        tx.send(5).unwrap();
        // Woken, served, and parked again — not a lucky first poll.
        until_parked(&rx, (1, 0));
        drop(tx);
        assert_eq!(h.join().unwrap(), (Ok(5), Err(RecvError)));
        assert_eq!(rx.parked(), (0, 0));
    }

    #[test]
    fn a_receiver_parked_in_recv_timeout_is_woken_by_a_send() {
        let (tx, rx) = unbounded::<u32>();
        let parked = rx.clone();
        let hour = std::time::Duration::from_secs(3600);
        let h = std::thread::spawn(move || parked.recv_timeout(hour));
        until_parked(&rx, (1, 0));
        tx.send(6).unwrap();
        assert_eq!(h.join().unwrap(), Ok(6));
        assert_eq!(rx.parked(), (0, 0));
    }

    #[test]
    fn a_sender_parked_on_a_full_channel_is_woken_by_every_kind_of_receive() {
        let takes: [fn(&Receiver<u32>) -> u32; 3] = [
            |rx| rx.recv().unwrap(),
            |rx| rx.try_recv().unwrap(),
            |rx| {
                rx.recv_timeout(std::time::Duration::from_secs(3600))
                    .unwrap()
            },
        ];
        for take in takes {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let h = std::thread::spawn(move || tx.send(2).unwrap());
            until_parked(&rx, (0, 1));
            assert_eq!(take(&rx), 1);
            h.join().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.parked(), (0, 0));
        }
    }

    #[test]
    fn a_sender_parked_on_a_full_channel_is_woken_by_the_last_receiver_leaving() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let watch = rx.clone();
        let h = std::thread::spawn(move || tx.send(2).is_err());
        until_parked(&watch, (0, 1));
        drop(rx);
        // `watch` is a receiver too: the sender stays parked until it goes.
        until_parked(&watch, (0, 1));
        drop(watch);
        assert!(h.join().unwrap(), "the send must fail, not hang");
    }

    #[test]
    fn endpoints_are_clone_and_shared() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx2.send(7u8).unwrap();
        assert_eq!(rx2.recv(), Ok(7));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
