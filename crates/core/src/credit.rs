//! The cooperative credit-renewal scheme (paper §5.1).
//!
//! A credit is the right to send one request to the receiver. Credits are
//! issued per QP (avoiding cross-QP synchronization). A sender starts with
//! `C` credits and asks for `C` more once half are consumed, so renewal
//! latency hides behind the remaining half. The receiver's QP scheduler
//! may decline a renewal, which deactivates the QP on both ends.
//!
//! Deactivation is a two-sided hand-off (§5.1 meets §5.2): the server's
//! [`LaneGate`] goes *draining* and its zero grant carries the drain
//! epoch; the client's [`Residents`] word tells whoever empties the lane
//! to post the [`crate::msg::FLAG_DRAINED`] marker behind the lane's last
//! request; the dispatch shard that reads a marker of the current epoch
//! marks the gate *silent* and stops visiting the lane until the
//! scheduler reactivates it.
//!
//! Concurrency discipline: [`CreditState`] is per-QP and owned by the
//! QP's driving thread (the TCQ leader of the moment); it is mutated only
//! between `join`/`complete` pairs, never concurrently. The two lane
//! words are the module's only atomics and go through [`crate::sync`], so
//! the loom suite (`tests/loom_lane.rs`) sees them (see DESIGN.md).

use crate::sync::atomic::{AtomicU64, Ordering};

/// Default bootstrap credit count (paper: `C = 32`).
pub(crate) const DEFAULT_CREDITS: u32 = 32;

/// Sender-side per-QP credit state.
#[derive(Debug, Clone)]
pub struct CreditState {
    credits: u32,
    grant_size: u32,
    renewal_in_flight: bool,
    active: bool,
}

impl CreditState {
    /// Start with `grant_size` credits (the bootstrap grant).
    pub fn new(grant_size: u32) -> CreditState {
        CreditState {
            credits: grant_size,
            grant_size,
            renewal_in_flight: false,
            active: true,
        }
    }

    /// Remaining credits.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Whether the QP is active (has not been declined).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether a renewal request is outstanding.
    pub fn renewal_in_flight(&self) -> bool {
        self.renewal_in_flight
    }

    /// Try to consume `n` credits; returns `false` (and consumes nothing)
    /// if fewer than `n` remain or the QP is inactive.
    pub fn try_consume(&mut self, n: u32) -> bool {
        if !self.active || self.credits < n {
            return false;
        }
        self.credits -= n;
        true
    }

    /// Whether the sender should request renewal now: at or below half of
    /// the grant size, active, and no request already outstanding.
    pub fn should_request_renewal(&self) -> bool {
        self.active && !self.renewal_in_flight && self.credits <= self.grant_size / 2
    }

    /// Record that a renewal request was sent.
    pub fn mark_requested(&mut self) {
        self.renewal_in_flight = true;
    }

    /// Apply a grant of `n` credits from the receiver.
    pub fn grant(&mut self, n: u32) {
        self.credits += n;
        self.renewal_in_flight = false;
        self.active = true;
    }

    /// Apply a decline: the QP is deactivated; remaining credits may still
    /// be used to drain outstanding work, but no renewal will arrive.
    pub fn decline(&mut self) {
        self.renewal_in_flight = false;
        self.active = false;
    }

    /// Reactivate after the scheduler re-enables this QP (fresh grant).
    pub fn reactivate(&mut self, n: u32) {
        self.active = true;
        self.credits = n;
        self.renewal_in_flight = false;
    }
}

/// One transition of a lane word: `next(current)` says what the word
/// becomes, or `None` to leave it; the value it was computed from comes
/// back as `Ok` (applied) or `Err` (left). Every transition of both
/// words goes through here, so each is one compare-exchange on one word.
fn transition(word: &AtomicU64, next: impl Fn(u64) -> Option<u64>) -> Result<u64, u64> {
    let mut cur = word.load(Ordering::Acquire);
    loop {
        let Some(new) = next(cur) else {
            return Err(cur);
        };
        match word.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Ok(cur),
            Err(seen) => cur = seen,
        }
    }
}

/// What a server lane is to its dispatch shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePhase {
    /// The scheduler serves the lane: visited every sweep, renewals
    /// granted.
    Active,
    /// Deactivated in drain epoch `.0`: still visited every sweep, until
    /// the client's marker of that epoch arrives.
    Draining(u16),
    /// The client posted its marker and sends nothing until the next
    /// grant: not visited at all.
    Silent,
}

/// Server side of the hand-off: one lane's phase and drain epoch in one
/// word. The QP scheduler's task deactivates and reactivates, the lane's
/// dispatch shard applies markers; a marker that crossed a reactivation
/// carries an epoch the word no longer holds and changes nothing.
#[derive(Debug, Default)]
pub struct LaneGate {
    /// `epoch << 2 | phase`, a new lane's being active in epoch 0; the
    /// epoch outlives the phases so that every deactivation gets one no
    /// marker in flight can carry.
    word: AtomicU64,
}

const GATE_ACTIVE: u64 = 0;
const GATE_DRAINING: u64 = 1;
const GATE_SILENT: u64 = 2;

impl LaneGate {
    fn epoch_of(word: u64) -> u16 {
        (word >> 2) as u16
    }

    /// The lane's phase. A shard reads it once per sweep, before it
    /// polls the ring: the Acquire pairs with [`LaneGate::activate`].
    pub fn phase(&self) -> LanePhase {
        let word = self.word.load(Ordering::Acquire);
        match word & 3 {
            GATE_ACTIVE => LanePhase::Active,
            GATE_DRAINING => LanePhase::Draining(Self::epoch_of(word)),
            _ => LanePhase::Silent,
        }
    }

    /// The drain epoch a zero grant sent now carries: the current one
    /// while the lane is draining or silent (a declined renewal repeats
    /// it), the last one otherwise.
    pub fn epoch(&self) -> u16 {
        Self::epoch_of(self.word.load(Ordering::Relaxed))
    }

    /// Reactivate. Call *before* the grant is written: whatever the
    /// client sends on that grant finds the lane visited again.
    pub fn activate(&self) {
        let _ = transition(&self.word, |cur| Some(cur & !3 | GATE_ACTIVE));
    }

    /// Deactivate: the lane drains in a fresh epoch, returned for the
    /// zero grant to carry.
    pub fn deactivate(&self) -> u16 {
        let draining = |cur| u64::from(Self::epoch_of(cur).wrapping_add(1)) << 2 | GATE_DRAINING;
        let before = transition(&self.word, |cur| Some(draining(cur)));
        Self::epoch_of(draining(before.expect("unconditional")))
    }

    /// Apply a client's marker of `epoch`: the lane goes silent iff it is
    /// still draining in that epoch. `false` for a stale marker — a
    /// reactivation (or a whole later deactivation) crossed it.
    pub fn mark_silent(&self, epoch: u16) -> bool {
        let draining = u64::from(epoch) << 2 | GATE_DRAINING;
        let silent = u64::from(epoch) << 2 | GATE_SILENT;
        transition(&self.word, |cur| (cur == draining).then_some(silent)).is_ok()
    }
}

/// What a client lane's residents may do, see [`Residents`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPhase {
    /// Send against credits.
    Open,
    /// Deactivated: send what is left without credits, migrate away.
    Draining,
    /// Marker posted: send nothing until the next grant.
    Drained,
}

/// Client side of the hand-off: how many threads send on the lane
/// (`current_qp`), and what the lane owes the server, in one word — so
/// that "the last resident left a deactivated lane" has exactly one
/// observer, who posts the marker.
///
/// Phases: *open* (the server grants credits), *draining* (a zero grant
/// of the recorded epoch arrived, the marker is owed) and *drained* (the
/// marker was posted; nothing may be sent until the next grant). Threads
/// [`Residents::enter_open`] and [`Residents::leave`] as they migrate;
/// the response dispatcher moves the phase.
#[derive(Debug, Default)]
pub struct Residents {
    /// `phase << 48 | epoch << 32 | count`.
    word: AtomicU64,
}

const RES_OPEN: u64 = 0;
const RES_DRAINING: u64 = 1;
const RES_DRAINED: u64 = 2;
const RES_COUNT: u64 = 0xFFFF_FFFF;

/// A [`Residents`] word, taken apart.
fn res_parts(word: u64) -> (u64, u16, u64) {
    (word >> 48, (word >> 32) as u16, word & RES_COUNT)
}

fn res_word(phase: u64, epoch: u16, count: u64) -> u64 {
    phase << 48 | u64::from(epoch) << 32 | count
}

impl Residents {
    /// The lane's phase. The Acquire pairs with the dispatcher's phase
    /// changes: a sender that sees the lane open sees the grant's credits.
    pub fn phase(&self) -> SendPhase {
        match res_parts(self.word.load(Ordering::Acquire)).0 {
            RES_OPEN => SendPhase::Open,
            RES_DRAINING => SendPhase::Draining,
            _ => SendPhase::Drained,
        }
    }

    /// Whether the server serves the lane (no zero grant since the last
    /// grant).
    pub fn is_open(&self) -> bool {
        self.phase() == SendPhase::Open
    }

    /// Threads resident on the lane.
    pub fn count(&self) -> u32 {
        res_parts(self.word.load(Ordering::Relaxed)).2 as u32
    }

    /// Become resident, whatever the phase (a new thread with no open
    /// lane to go to; it waits at its first send if the lane is drained).
    pub fn enter(&self) {
        let _ = transition(&self.word, |cur| Some(cur + 1));
    }

    /// Become resident iff the lane is open — a thread never migrates
    /// toward a lane the server is about to stop reading.
    pub fn enter_open(&self) -> bool {
        transition(&self.word, |cur| {
            (res_parts(cur).0 == RES_OPEN).then_some(cur + 1)
        })
        .is_ok()
    }

    /// Stop being resident (every request the thread sent here has been
    /// answered). `Some(epoch)`: the lane was draining and is now empty —
    /// the caller posts the marker, see [`Residents::claim_marker`].
    pub fn leave(&self) -> Option<u16> {
        let before = transition(&self.word, |cur| Some(cur - 1));
        debug_assert!(
            before.is_ok_and(|word| res_parts(word).2 > 0),
            "leave without enter"
        );
        self.claim_marker()
    }

    /// A zero grant of `epoch` arrived: the lane drains. `false` for a
    /// notice already applied (a declined renewal repeats the
    /// redistribution's).
    pub fn drain(&self, epoch: u16) -> bool {
        transition(&self.word, |cur| {
            let (phase, seen, count) = res_parts(cur);
            (phase == RES_OPEN || seen != epoch).then(|| res_word(RES_DRAINING, epoch, count))
        })
        .is_ok()
    }

    /// A grant arrived: the lane is open again, an owed marker is moot.
    /// `true` if the lane was not open (the grant reactivates it).
    pub fn open(&self) -> bool {
        let before = transition(&self.word, |cur| {
            let (_, epoch, count) = res_parts(cur);
            Some(res_word(RES_OPEN, epoch, count))
        });
        before.is_ok_and(|word| res_parts(word).0 != RES_OPEN)
    }

    /// If the lane is draining and empty, take the duty to post its
    /// marker: `Some(epoch)` for exactly one caller per drain, the lane
    /// drained from here on. Threads entering concurrently either make
    /// the claim fail or find the lane drained.
    pub fn claim_marker(&self) -> Option<u16> {
        transition(&self.word, |cur| {
            let (phase, epoch, count) = res_parts(cur);
            (phase == RES_DRAINING && count == 0).then(|| res_word(RES_DRAINED, epoch, 0))
        })
        .ok()
        .map(|word| res_parts(word).1)
    }

    /// The marker of `epoch` could not be posted (request ring full): owe
    /// it again, unless a grant or a newer notice has moved on.
    pub fn unclaim_marker(&self, epoch: u16) {
        let _ = transition(&self.word, |cur| {
            let (phase, seen, count) = res_parts(cur);
            (phase == RES_DRAINED && seen == epoch).then(|| res_word(RES_DRAINING, epoch, count))
        });
    }
}

/// Running median over a sliding window of recent values.
///
/// Used for the coalescing-degree report (median since last renewal) and
/// the per-thread median request size in sender-side scheduling.
#[derive(Debug, Clone)]
pub struct MedianWindow {
    window: Vec<u32>,
    cap: usize,
    next: usize,
    filled: usize,
}

impl MedianWindow {
    /// A window over the most recent `cap` observations (`cap >= 1`).
    pub fn new(cap: usize) -> MedianWindow {
        assert!(cap >= 1);
        MedianWindow {
            window: vec![0; cap],
            cap,
            next: 0,
            filled: 0,
        }
    }

    /// Record an observation.
    pub fn record(&mut self, v: u32) {
        self.window[self.next] = v;
        self.next = (self.next + 1) % self.cap;
        if self.filled < self.cap {
            self.filled += 1;
        }
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Median of the window (0 if empty).
    pub fn median(&self) -> u32 {
        // A fresh copy is fine here: the window is small (≤ its fixed
        // capacity) and this runs only on periodic credit renewal and
        // thread scheduling, not per request.
        self.median_with(&mut Vec::new())
    }

    /// [`MedianWindow::median`] sorting in `scratch`, for a caller that
    /// must not allocate.
    pub(crate) fn median_with(&self, scratch: &mut Vec<u32>) -> u32 {
        if self.filled == 0 {
            return 0;
        }
        scratch.clear();
        scratch.extend_from_slice(&self.window[..self.filled]);
        scratch.sort_unstable();
        scratch[(scratch.len() - 1) / 2]
    }

    /// Clear all observations.
    pub fn clear(&mut self) {
        self.next = 0;
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_and_consume() {
        let mut c = CreditState::new(32);
        assert_eq!(c.credits(), 32);
        assert!(c.try_consume(10));
        assert_eq!(c.credits(), 22);
        assert!(!c.try_consume(23));
        assert_eq!(c.credits(), 22);
    }

    #[test]
    fn renewal_at_half() {
        let mut c = CreditState::new(32);
        assert!(!c.should_request_renewal());
        assert!(c.try_consume(15));
        assert!(!c.should_request_renewal()); // 17 > 16
        assert!(c.try_consume(1));
        assert!(c.should_request_renewal()); // 16 <= 16
        c.mark_requested();
        assert!(!c.should_request_renewal()); // in flight
        c.grant(32);
        assert_eq!(c.credits(), 48);
        assert!(!c.should_request_renewal());
    }

    #[test]
    fn decline_deactivates() {
        let mut c = CreditState::new(32);
        c.try_consume(16);
        c.mark_requested();
        c.decline();
        assert!(!c.is_active());
        assert!(!c.try_consume(1));
        assert!(!c.should_request_renewal());
        c.reactivate(32);
        assert!(c.is_active());
        assert_eq!(c.credits(), 32);
        assert!(c.try_consume(1));
    }

    #[test]
    fn gate_goes_silent_on_the_marker_of_its_own_epoch_only() {
        let gate = LaneGate::default();
        assert_eq!(gate.phase(), LanePhase::Active);
        assert!(!gate.mark_silent(0), "an active lane ignores markers");
        let first = gate.deactivate();
        assert_eq!(gate.phase(), LanePhase::Draining(first));
        assert_eq!(gate.epoch(), first, "a declined renewal repeats the epoch");
        gate.activate();
        let second = gate.deactivate();
        assert_ne!(first, second);
        assert!(
            !gate.mark_silent(first),
            "the first drain's marker is stale"
        );
        assert!(gate.mark_silent(second));
        assert_eq!((gate.phase(), gate.epoch()), (LanePhase::Silent, second));
        assert!(!gate.mark_silent(second), "applied once");
        gate.activate();
        assert_eq!(gate.phase(), LanePhase::Active);
    }

    #[test]
    fn the_last_resident_out_of_a_draining_lane_owes_the_marker() {
        let lane = Residents::default();
        assert!(lane.enter_open() && lane.enter_open());
        assert_eq!(lane.leave(), None, "an open lane owes nothing");
        assert!(lane.drain(5));
        assert!(!lane.drain(5), "the same notice twice");
        assert!(!lane.enter_open(), "nobody moves toward a deactivated lane");
        assert_eq!(lane.claim_marker(), None, "still one resident");
        assert_eq!(lane.leave(), Some(5));
        assert_eq!((lane.phase(), lane.count()), (SendPhase::Drained, 0));
        assert_eq!(lane.claim_marker(), None, "one poster per drain");
        // A full ring hands the duty back; a grant makes it moot.
        lane.unclaim_marker(5);
        assert_eq!(lane.phase(), SendPhase::Draining);
        assert!(lane.open());
        assert!(!lane.open(), "a renewal's grant reopens nothing");
        lane.unclaim_marker(5);
        assert!(lane.is_open() && lane.enter_open());
    }

    #[test]
    fn median_window_basics() {
        let mut m = MedianWindow::new(5);
        assert_eq!(m.median(), 0);
        m.record(10);
        assert_eq!(m.median(), 10);
        m.record(30);
        m.record(20);
        assert_eq!(m.median(), 20);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn median_window_slides() {
        let mut m = MedianWindow::new(3);
        for v in [1, 2, 3, 100, 100] {
            m.record(v);
        }
        // Window now holds [3, 100, 100].
        assert_eq!(m.median(), 100);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.median(), 0);
    }

    #[test]
    fn even_window_takes_lower_middle() {
        let mut m = MedianWindow::new(4);
        for v in [1, 2, 3, 4] {
            m.record(v);
        }
        assert_eq!(m.median(), 2);
    }
}
