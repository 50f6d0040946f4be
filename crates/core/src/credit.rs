//! The cooperative credit-renewal scheme (paper §5.1).
//!
//! A credit is the right to send one request to the receiver. Credits are
//! issued per QP (avoiding cross-QP synchronization). A sender starts with
//! `C` credits and asks for `C` more once half are consumed, so renewal
//! latency hides behind the remaining half. The receiver's QP scheduler
//! may decline a renewal, which deactivates the QP on both ends.
//!
//! Concurrency discipline: credit state is per-QP and owned by the QP's
//! driving thread (the TCQ leader of the moment); it is mutated only
//! between `join`/`complete` pairs, never concurrently. No atomics —
//! any future shared-state access must go through [`crate::sync`] so it
//! stays visible to the loom model checker (see DESIGN.md).

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
        if self.filled == 0 {
            return 0;
        }
        // Copy is fine here: the window is small (≤ its fixed capacity) and
        // median() runs only on periodic credit renewal, not per-request.
        let mut v: Vec<u32> = self.window[..self.filled].to_vec();
        v.sort_unstable();
        v[(v.len() - 1) / 2]
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
