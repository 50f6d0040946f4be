//! A client thread's requests by sequence number (paper Table 2:
//! `fl_send_rpc` returns the number, `fl_recv_res` takes it, and the
//! response dispatcher routes each reply back by it, §4.3).
//!
//! Seqs are issued densely per thread, so the table is a ring indexed by
//! `seq - base`, one [`Slot`] per request:
//!
//! ```text
//! issue ─► InFlight ──reply──► Ready ──receive──► Taken
//!             │                                    ▲
//!             └─give up──► Abandoned ──late reply──┘
//! ```
//!
//! A receive gives up on a timeout, on a stopped handle, or when the
//! send itself failed. `base` moves past every finished (`Taken` or
//! `Abandoned`) slot at the front, so a reply that never comes does not
//! grow the table, and a late reply below `base` is dropped. An
//! `Abandoned` slot that leaves the front still owes one late reply: the
//! table counts them, so a reply below `base` while none is owed is a
//! second reply, whatever the seq was before it retired. Only the
//! count of outstanding requests — `InFlight` or `Ready`, sent and
//! neither received nor given up — leaves the table: a thread with none
//! may migrate (paper §5.2). Each transition is one `match` here, and a
//! slot becomes `Taken` or `Abandoned` from one of those two states once,
//! so no path counts a request out twice.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::error::{FlockError, Result};

/// Where one request stands.
enum Slot {
    /// Sent or being sent; no reply yet.
    InFlight,
    /// Its reply, until a receive takes it.
    Ready(Bytes),
    /// Its receiver gave up: a late reply is dropped.
    Abandoned,
    /// Received, or its late reply dropped.
    Taken,
}

/// The error of a receive whose seq is not in flight and has no reply
/// waiting: taken, abandoned, or never issued.
const NOT_IN_FLIGHT: FlockError = FlockError::InvalidArgument("seq not in flight");

/// One thread's requests (see the module doc).
pub(crate) struct Requests {
    /// Seq of `slots[0]`: every seq below it is finished.
    base: u64,
    slots: VecDeque<Slot>,
    /// `InFlight` and `Ready` slots.
    outstanding: usize,
    /// Slots retired `Abandoned`: late replies that may still come
    /// below `base`.
    owed: usize,
}

impl Requests {
    /// An empty table whose first seq is 1.
    pub(crate) fn new() -> Requests {
        Requests {
            base: 1,
            slots: VecDeque::new(),
            outstanding: 0,
            owed: 0,
        }
    }

    /// Issue the next seq, in flight.
    pub(crate) fn issue(&mut self) -> u64 {
        self.slots.push_back(Slot::InFlight);
        self.outstanding += 1;
        self.base + self.slots.len() as u64 - 1
    }

    /// Requests issued and neither received nor given up.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The slot of `seq`, if it is in `[base, next)`.
    fn index(&self, seq: u64) -> Option<usize> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// Deliver `thread`'s reply `data` to `seq` (the response dispatcher).
    /// Returns whether a receiver may be waiting for it: `false` when the
    /// request was given up and the reply is dropped. A second reply to
    /// one seq, or a reply to a seq never issued, is a protocol fault;
    /// debug builds panic on it. Below `base` a second reply shows only
    /// as a reply no retired `Abandoned` slot owes.
    pub(crate) fn deliver(&mut self, thread: u32, seq: u64, data: &[u8]) -> bool {
        let Some(i) = self.index(seq) else {
            debug_assert!(
                (1..self.base).contains(&seq),
                "thread {thread} got a reply for seq {seq}, which it never sent"
            );
            debug_assert!(
                self.owed > 0,
                "thread {thread} got a second reply for seq {seq}"
            );
            self.owed = self.owed.saturating_sub(1);
            return false;
        };
        let slot = &mut self.slots[i];
        match slot {
            Slot::InFlight => {
                // The waiter owns exactly its reply: the dispatcher's
                // message buffer is reused.
                *slot = Slot::Ready(Bytes::copy_from_slice(data));
                true
            }
            Slot::Abandoned => {
                *slot = Slot::Taken;
                self.retire();
                false
            }
            Slot::Ready(_) | Slot::Taken => {
                debug_assert!(false, "thread {thread} got a second reply for seq {seq}");
                false
            }
        }
    }

    /// A receive of `seq`: its reply once it is there (the slot is then
    /// `Taken`); while it is in flight `None`, or, given a `give_up`
    /// error, that error (the slot is then `Abandoned`); and for a seq
    /// neither in flight nor ready, [`NOT_IN_FLIGHT`] at once, changing
    /// nothing.
    pub(crate) fn take(&mut self, seq: u64, give_up: Option<FlockError>) -> Option<Result<Bytes>> {
        let Some(i) = self.index(seq) else {
            return Some(Err(NOT_IN_FLIGHT));
        };
        // Each arm leaves the slot in its next state (the reply moves
        // out; a placeholder `Bytes` would allocate).
        let slot = &mut self.slots[i];
        let got = match (std::mem::replace(slot, Slot::Taken), give_up) {
            (Slot::Ready(data), _) => Ok(data),
            (Slot::InFlight, Some(e)) => {
                *slot = Slot::Abandoned;
                Err(e)
            }
            (Slot::InFlight, None) => {
                *slot = Slot::InFlight;
                return None;
            }
            (finished, _) => {
                *slot = finished;
                return Some(Err(NOT_IN_FLIGHT));
            }
        };
        self.outstanding -= 1;
        self.retire();
        Some(got)
    }

    /// Move `base` past the finished slots at the front.
    fn retire(&mut self) {
        while let Some(Slot::Taken | Slot::Abandoned) = self.slots.front() {
            if let Some(Slot::Abandoned) = self.slots.pop_front() {
                self.owed += 1;
            }
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    /// The reference: every seq ever issued, with a plain state. A
    /// reply to an abandoned seq is dropped without a trace.
    #[derive(Clone, Copy, PartialEq)]
    enum Model {
        InFlight,
        Ready,
        Gone,
    }

    fn model_take(
        model: &mut [Model],
        seq: u64,
        give_up: Option<FlockError>,
    ) -> Option<Result<u64>> {
        let Some(state) = seq.checked_sub(1).and_then(|i| model.get_mut(i as usize)) else {
            return Some(Err(NOT_IN_FLIGHT));
        };
        match (*state, give_up) {
            (Model::Ready, _) => {
                *state = Model::Gone;
                Some(Ok(seq))
            }
            (Model::InFlight, None) => None,
            (Model::InFlight, Some(e)) => {
                *state = Model::Gone;
                Some(Err(e))
            }
            (Model::Gone, _) => Some(Err(NOT_IN_FLIGHT)),
        }
    }

    fn payload(seq: u64) -> [u8; 8] {
        seq.to_le_bytes()
    }

    proptest! {
        /// Random interleavings of issue, delivery (in and out of
        /// order, late ones included), take, poll, timeout, stop and
        /// failed send, against the model at every step: the same
        /// answers, the same outstanding count, a table no longer than
        /// the span from the oldest unfinished seq to the newest, and as
        /// many late replies owed below it as given-up seqs there that
        /// got none.
        #[test]
        fn the_table_matches_its_model(ops in vec((0u8..7, 0u64..64), 1..200)) {
            let mut table = Requests::new();
            let mut model: Vec<Model> = Vec::new();
            // Issued seqs whose reply has not been delivered yet.
            let mut unanswered: Vec<u64> = Vec::new();
            for (step, &(op, pick)) in ops.iter().enumerate() {
                let next = model.len() as u64 + 1;
                // Any seq from 0 (never issued) to two past the newest.
                let seq = pick % (next + 2);
                let (got, want) = match op {
                    0 => {
                        let seq = table.issue();
                        prop_assert_eq!(seq, next, "step {}", step);
                        model.push(Model::InFlight);
                        unanswered.push(seq);
                        (None, None)
                    }
                    1 if !unanswered.is_empty() => {
                        let seq = unanswered.swap_remove(pick as usize % unanswered.len());
                        let woke = table.deliver(0, seq, &payload(seq));
                        let state = &mut model[seq as usize - 1];
                        prop_assert_eq!(woke, *state == Model::InFlight, "step {}", step);
                        if *state == Model::InFlight {
                            *state = Model::Ready;
                        }
                        (None, None)
                    }
                    2 => (table.take(seq, None), model_take(&mut model, seq, None)),
                    3 => {
                        let e = Some(FlockError::Timeout);
                        (table.take(seq, e.clone()), model_take(&mut model, seq, e))
                    }
                    4 => {
                        let e = Some(FlockError::Disconnected);
                        (table.take(seq, e.clone()), model_take(&mut model, seq, e))
                    }
                    5 => {
                        // A send whose flush failed: issued and given up
                        // at once; its reply may still come.
                        let seq = table.issue();
                        model.push(Model::InFlight);
                        unanswered.push(seq);
                        let e = Some(FlockError::MessageTooLarge { need: 1, capacity: 0 });
                        (table.take(seq, e.clone()), model_take(&mut model, seq, e))
                    }
                    _ => (None, None),
                };
                let got = got.map(|r| r.map(|data| u64::from_le_bytes(data[..].try_into().unwrap())));
                prop_assert_eq!(got, want, "step {}: op {} seq {}", step, op, seq);
                let outstanding = model.iter().filter(|&&s| s != Model::Gone).count();
                prop_assert_eq!(table.outstanding(), outstanding, "step {}", step);
                let oldest = model.iter().position(|&s| s != Model::Gone).unwrap_or(model.len());
                prop_assert_eq!(table.base, oldest as u64 + 1, "step {}", step);
                prop_assert_eq!(table.slots.len(), model.len() - oldest, "step {}", step);
                let owed = unanswered.iter().filter(|&&s| s <= oldest as u64).count();
                prop_assert_eq!(table.owed, owed, "step {}", step);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a second reply for seq 1")]
    fn a_second_reply_trips_the_oracle() {
        let mut table = Requests::new();
        let seq = table.issue();
        table.issue();
        assert!(table.deliver(3, seq, b"once"));
        table.deliver(3, seq, b"twice");
    }

    /// The receive retires the slot at once, so the second reply finds
    /// its seq below `base`, where no given-up request owes one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a second reply for seq 1")]
    fn a_second_reply_after_the_receive_trips_the_oracle() {
        let mut table = Requests::new();
        let seq = table.issue();
        assert!(table.deliver(3, seq, b"once"));
        assert!(matches!(table.take(seq, None), Some(Ok(_))));
        table.deliver(3, seq, b"twice");
    }

    /// A given-up seq owes one late reply below `base`, and only one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a second reply for seq 1")]
    fn a_second_late_reply_trips_the_oracle() {
        let mut table = Requests::new();
        let seq = table.issue();
        let timeout = Some(FlockError::Timeout);
        assert!(matches!(
            table.take(seq, timeout),
            Some(Err(FlockError::Timeout))
        ));
        assert!(!table.deliver(3, seq, b"late"));
        table.deliver(3, seq, b"twice");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a reply for seq 2, which it never sent")]
    fn a_reply_to_a_seq_never_sent_trips_the_oracle() {
        let mut table = Requests::new();
        table.issue();
        table.deliver(3, 2, b"unasked");
    }
}
