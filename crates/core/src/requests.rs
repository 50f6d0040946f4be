//! A client thread's requests by sequence number (paper Table 2:
//! `fl_send_rpc` and `fl_read` return an id, `fl_recv_res` and the
//! one-sided wait take it, and the response dispatcher routes each reply
//! or completion back by it, §4.3, §6).
//!
//! A thread keeps two tables of this one type: its RPCs
//! (`Requests<(), Result<Bytes>>`, the seq is the entry's
//! `EntryMeta::seq`) and its one-sided ops (`Requests<MemOp, MemResult>`
//! in `client.rs`, the seq is the low bits of the work-request id, and a
//! slot carries the scratch sub-slots the op holds). Seqs are issued
//! densely per table, so a table is a ring indexed by `seq - base`, one
//! [`Slot`] per request, carrying `P` until its reply `R` is there:
//!
//! ```text
//! issue(P) ─► InFlight(P) ──reply──► Ready(R) ──receive──► Taken
//!                 │                                          ▲
//!                 └─give up──► Abandoned(P) ──late reply─────┘
//! ```
//!
//! A delivery gives `P` back ([`Delivered`]), so what a one-sided op
//! holds is freed by its completion, late or not. A request its flush
//! could not send is delivered the flush's error the same way. A
//! receive gives up on a timeout or on a stopped handle.
//! `base` moves past every finished (`Taken` or `Abandoned`) slot at the
//! front, so a reply that never comes does not grow the ring; an
//! `Abandoned` slot that leaves it keeps its seq and `P` in `owed` until
//! its late reply comes, so a reply below `base` that no retired slot
//! owes is a second reply, whatever the seq was before it retired. Only
//! the count of outstanding requests — `InFlight` or `Ready`, sent and
//! neither received nor given up — leaves the table: a thread with no
//! RPC outstanding may migrate (paper §5.2). Each transition is one
//! `match` here, and a slot becomes `Taken` or `Abandoned` from one of
//! those two states once, so no path counts a request out twice.

use std::collections::VecDeque;

use crate::error::{FlockError, Result};

/// Where one request stands.
enum Slot<P, R> {
    /// Sent or being sent; no reply yet.
    InFlight(P),
    /// Its reply, until a receive takes it.
    Ready(R),
    /// Its receiver gave up: a late reply is dropped.
    Abandoned(P),
    /// Received, or its late reply dropped.
    Taken,
}

/// What [`Requests::deliver`] did with a reply.
#[derive(Debug, PartialEq)]
pub(crate) enum Delivered<P> {
    /// Its request was in flight: the reply is ready, and a receiver may
    /// be waiting for it. Gives back what the slot carried.
    Awaited(P),
    /// Its request was given up: the reply is dropped. Gives back what
    /// the slot carried.
    Dropped(P),
    /// A second reply, or a reply to a seq never issued: a protocol
    /// fault (debug builds panic on it), dropped.
    Stray,
}

/// The error of a receive whose seq is not in flight and has no reply
/// waiting: taken, abandoned, or never issued.
const NOT_IN_FLIGHT: FlockError = FlockError::InvalidArgument("seq not in flight");

/// One thread's requests of one kind (see the module doc).
pub(crate) struct Requests<P, R> {
    /// Seq of `slots[0]`: every seq below it is finished.
    base: u64,
    slots: VecDeque<Slot<P, R>>,
    /// `InFlight` and `Ready` slots.
    outstanding: usize,
    /// Slots retired `Abandoned`, with what they carried: late replies
    /// that may still come below `base`.
    owed: Vec<(u64, P)>,
}

impl<P, R> Requests<P, R> {
    /// An empty table whose first seq is 1.
    pub(crate) fn new() -> Requests<P, R> {
        Requests {
            base: 1,
            slots: VecDeque::new(),
            outstanding: 0,
            owed: Vec::new(),
        }
    }

    /// Issue the next seq, in flight, carrying `payload`.
    pub(crate) fn issue(&mut self, payload: P) -> u64 {
        self.slots.push_back(Slot::InFlight(payload));
        self.outstanding += 1;
        self.base + self.slots.len() as u64 - 1
    }

    /// Requests issued and neither received nor given up.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Whether no slot is left and no late reply is owed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.owed.is_empty()
    }

    /// The slot of `seq`, if it is in `[base, next)`.
    fn index(&self, seq: u64) -> Option<usize> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// Deliver `thread`'s reply to `seq` (the response dispatcher):
    /// `reply` makes the ready value from what the slot carries, and is
    /// called only if the request is in flight. A second reply to one
    /// seq, or a reply to a seq never issued, is a protocol fault; debug
    /// builds panic on it.
    pub(crate) fn deliver(
        &mut self,
        thread: u32,
        seq: u64,
        reply: impl FnOnce(&P) -> R,
    ) -> Delivered<P> {
        let Some(i) = self.index(seq) else {
            debug_assert!(
                (1..self.base).contains(&seq),
                "thread {thread} got a reply for seq {seq}, which it never sent"
            );
            let Some(at) = self.owed.iter().position(|&(owed, _)| owed == seq) else {
                debug_assert!(false, "thread {thread} got a second reply for seq {seq}");
                return Delivered::Stray;
            };
            return Delivered::Dropped(self.owed.swap_remove(at).1);
        };
        let slot = &mut self.slots[i];
        match std::mem::replace(slot, Slot::Taken) {
            Slot::InFlight(payload) => {
                *slot = Slot::Ready(reply(&payload));
                Delivered::Awaited(payload)
            }
            Slot::Abandoned(payload) => {
                self.retire();
                Delivered::Dropped(payload)
            }
            finished => {
                *slot = finished;
                debug_assert!(false, "thread {thread} got a second reply for seq {seq}");
                Delivered::Stray
            }
        }
    }

    /// A receive of `seq`: its reply once it is there (the slot is then
    /// `Taken`); while it is in flight `None`, or, given a `give_up`
    /// error, that error (the slot is then `Abandoned`); and for a seq
    /// neither in flight nor ready, [`NOT_IN_FLIGHT`] at once, changing
    /// nothing.
    pub(crate) fn take(&mut self, seq: u64, give_up: Option<FlockError>) -> Option<Result<R>> {
        let Some(i) = self.index(seq) else {
            return Some(Err(NOT_IN_FLIGHT));
        };
        // Each arm leaves the slot in its next state (the reply moves
        // out; a placeholder `Bytes` would allocate).
        let slot = &mut self.slots[i];
        let got = match (std::mem::replace(slot, Slot::Taken), give_up) {
            (Slot::Ready(data), _) => Ok(data),
            (Slot::InFlight(payload), Some(e)) => {
                *slot = Slot::Abandoned(payload);
                Err(e)
            }
            (Slot::InFlight(payload), None) => {
                *slot = Slot::InFlight(payload);
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
        while let Some(Slot::Taken | Slot::Abandoned(_)) = self.slots.front() {
            if let Some(Slot::Abandoned(payload)) = self.slots.pop_front() {
                self.owed.push((self.base, payload));
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

    /// What a test request carries: its seq and the one sub-slot of a
    /// 64-bit scratch bitmap it holds, like a one-sided op, which a
    /// `defer`red one keeps until it is received. An RPC's `()` is the
    /// same table with nothing to give back.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Held {
        seq: u64,
        bit: u64,
        defer: bool,
    }

    /// The reference: every seq ever issued, with a plain state. A
    /// reply to an abandoned seq is dropped without a trace.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        InFlight,
        Ready,
        Gone,
    }

    fn model_take(
        model: &mut [(State, Held)],
        seq: u64,
        give_up: Option<FlockError>,
    ) -> Option<Result<u64>> {
        let Some((state, _)) = seq.checked_sub(1).and_then(|i| model.get_mut(i as usize)) else {
            return Some(Err(NOT_IN_FLIGHT));
        };
        match (*state, give_up) {
            (State::Ready, _) => {
                *state = State::Gone;
                Some(Ok(seq))
            }
            (State::InFlight, None) => None,
            (State::InFlight, Some(e)) => {
                *state = State::Gone;
                Some(Err(e))
            }
            (State::Gone, _) => Some(Err(NOT_IN_FLIGHT)),
        }
    }

    proptest! {
        /// Random interleavings of issue, delivery (in and out of
        /// order, late ones included), take, poll, timeout, stop and
        /// failed send, against the model at every step: the same
        /// answers, the same outstanding count, a table no longer than
        /// the span from the oldest unfinished seq to the newest, the
        /// given-up seqs there that got no reply owed below it, every
        /// payload given back once, by its own delivery, and the
        /// sub-slots held exactly by the requests in flight, the given-up
        /// ones whose reply has not come, and the deferred ready ones.
        #[test]
        fn the_table_matches_its_model(ops in vec((0u8..7, 0u64..64, any::<bool>()), 1..200)) {
            let mut table: Requests<Held, u64> = Requests::new();
            let mut model: Vec<(State, Held)> = Vec::new();
            // Issued seqs whose reply has not been delivered yet.
            let mut unanswered: Vec<u64> = Vec::new();
            let mut free = u64::MAX;
            for (step, &(op, pick, defer)) in ops.iter().enumerate() {
                let next = model.len() as u64 + 1;
                // Any seq from 0 (never issued) to two past the newest.
                let seq = pick % (next + 2);
                let held = Held { seq: next, bit: free & free.wrapping_neg(), defer };
                if matches!(op, 0 | 5) && held.bit != 0 {
                    free &= !held.bit;
                    prop_assert_eq!(table.issue(held), next, "step {}", step);
                    model.push((State::InFlight, held));
                    unanswered.push(next);
                }
                let (got, want) = match op {
                    1 if !unanswered.is_empty() => {
                        let seq = unanswered.swap_remove(pick as usize % unanswered.len());
                        let (state, held) = &mut model[seq as usize - 1];
                        let got = table.deliver(0, seq, |held| held.seq);
                        let want = if *state == State::InFlight {
                            *state = State::Ready;
                            Delivered::Awaited(*held)
                        } else {
                            Delivered::Dropped(*held)
                        };
                        prop_assert_eq!(&got, &want, "step {}", step);
                        if !matches!(want, Delivered::Awaited(Held { defer: true, .. })) {
                            free |= held.bit;
                        }
                        (None, None)
                    }
                    2..=4 => {
                        let e = match op {
                            2 => None,
                            3 => Some(FlockError::Timeout),
                            _ => Some(FlockError::Disconnected),
                        };
                        (table.take(seq, e.clone()), model_take(&mut model, seq, e))
                    }
                    // A send whose flush failed: issued and given up at
                    // once; its reply may still come.
                    5 if held.bit != 0 => {
                        let e = Some(FlockError::MessageTooLarge { need: 1, capacity: 0 });
                        (table.take(next, e.clone()), model_take(&mut model, next, e))
                    }
                    _ => (None, None),
                };
                if let Some(Ok(seq)) = got {
                    // A deferred op's receive frees what it held.
                    let held = model[seq as usize - 1].1;
                    if held.defer {
                        free |= held.bit;
                    }
                }
                prop_assert_eq!(got, want, "step {}: op {} seq {}", step, op, seq);
                let outstanding = model.iter().filter(|(s, _)| *s != State::Gone).count();
                prop_assert_eq!(table.outstanding(), outstanding, "step {}", step);
                let oldest = model.iter().position(|(s, _)| *s != State::Gone).unwrap_or(model.len());
                prop_assert_eq!(table.base, oldest as u64 + 1, "step {}", step);
                prop_assert_eq!(table.slots.len(), model.len() - oldest, "step {}", step);
                let mut owed: Vec<u64> = table.owed.iter().map(|&(seq, _)| seq).collect();
                let mut want_owed: Vec<u64> =
                    unanswered.iter().copied().filter(|&s| s <= oldest as u64).collect();
                owed.sort_unstable();
                want_owed.sort_unstable();
                prop_assert_eq!(owed, want_owed, "step {}", step);
                let held = model.iter().enumerate().filter(|&(i, &(state, held))| match state {
                    State::InFlight => true,
                    State::Ready => held.defer,
                    State::Gone => unanswered.contains(&(i as u64 + 1)),
                });
                let held = held.fold(0, |all, (_, &(_, h))| all | h.bit);
                prop_assert_eq!(!free, held, "step {}", step);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a second reply for seq 1")]
    fn a_second_reply_trips_the_oracle() {
        let mut table = Requests::new();
        let seq = table.issue(());
        table.issue(());
        let once = table.deliver(3, seq, |()| "once");
        assert_eq!(once, Delivered::Awaited(()));
        table.deliver(3, seq, |()| "twice");
    }

    /// The receive retires the slot at once, so the second reply finds
    /// its seq below `base`, where no given-up request owes one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a second reply for seq 1")]
    fn a_second_reply_after_the_receive_trips_the_oracle() {
        let mut table = Requests::new();
        let seq = table.issue(());
        assert_eq!(table.deliver(3, seq, |()| "once"), Delivered::Awaited(()));
        assert!(matches!(table.take(seq, None), Some(Ok(_))));
        table.deliver(3, seq, |()| "twice");
    }

    /// A given-up seq owes one late reply below `base`, and only one;
    /// another given-up seq that still owes one does not hide it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a second reply for seq 1")]
    fn a_second_late_reply_trips_the_oracle() {
        let mut table = Requests::new();
        let seq = table.issue(());
        let other = table.issue(());
        for s in [seq, other] {
            let timeout = Some(FlockError::Timeout);
            let gave_up = table.take(s, timeout);
            assert!(matches!(gave_up, Some(Err(FlockError::Timeout))));
        }
        assert_eq!(table.deliver(3, seq, |()| "late"), Delivered::Dropped(()));
        table.deliver(3, seq, |()| "twice");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a reply for seq 2, which it never sent")]
    fn a_reply_to_a_seq_never_sent_trips_the_oracle() {
        let mut table = Requests::new();
        table.issue(());
        table.deliver(3, 2, |()| "unasked");
    }

    /// A one-sided op's slot: the sub-slot mask it holds.
    type MemTable = Requests<u8, std::result::Result<Vec<u8>, &'static str>>;

    /// A second completion of a one-sided op whose result was taken
    /// finds its seq below `base`, owed by nobody.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a second reply for seq 1")]
    fn a_second_completion_trips_the_oracle() {
        let mut table = MemTable::new();
        let seq = table.issue(0b1);
        let once = table.deliver(3, seq, |_| Ok(Vec::new()));
        assert_eq!(once, Delivered::Awaited(0b1));
        assert!(matches!(table.take(seq, None), Some(Ok(Ok(_)))));
        table.deliver(3, seq, |_| Ok(Vec::new()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 3 got a reply for seq 3, which it never sent")]
    fn a_completion_for_an_op_never_issued_trips_the_oracle() {
        let mut table = MemTable::new();
        table.issue(0b1);
        table.issue(0b10);
        table.deliver(3, 3, |_| Ok(Vec::new()));
    }
}
