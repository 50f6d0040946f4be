//! Bounded-exhaustive model checking of the deactivation hand-off's two
//! state words (`flock_core::credit::{LaneGate, Residents}`).
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p flock-core --test loom_lane --release
//! ```
//!
//! (or `cargo loom`). The properties, on every interleaving:
//!
//! * **A grant finds the lane visited.** The QP scheduler stores *active*
//!   before it writes the grant, so whoever has seen the grant reads the
//!   gate as active — even with the shard applying the client's drained
//!   marker at the same time — and a marker that loses that race changes
//!   nothing: the gate is never silent once a reactivation returned.
//! * **A marker of an old epoch is ignored**, whatever it races with.
//! * **Exactly one poster per drain.** Of the threads leaving a
//!   deactivated client lane and the response dispatcher applying the
//!   zero grant, exactly one is handed the marker, and only with the lane
//!   empty; a thread that got in first keeps the marker from being
//!   posted at all.

#![cfg(loom)]

use flock_core::credit::{LaneGate, LanePhase, Residents, SendPhase};
use flock_core::sync::atomic::{AtomicBool, Ordering};
use flock_core::sync::{thread, Arc};

#[test]
fn reactivation_beats_a_marker_in_flight() {
    loom::model(|| {
        let gate = Arc::new(LaneGate::default());
        let epoch = gate.deactivate();
        let granted = Arc::new(AtomicBool::new(false));

        let scheduler = {
            let (gate, granted) = (Arc::clone(&gate), Arc::clone(&granted));
            thread::spawn(move || {
                gate.activate();
                // The grant's ring write, as far as the model cares.
                granted.store(true, Ordering::Release);
            })
        };
        let shard = {
            let (gate, granted) = (Arc::clone(&gate), Arc::clone(&granted));
            thread::spawn(move || {
                let silenced = gate.mark_silent(epoch);
                // A request sent on the grant is in the ring: the sweep
                // that could find it must not skip the lane.
                if granted.load(Ordering::Acquire) {
                    assert_eq!(gate.phase(), LanePhase::Active);
                }
                silenced
            })
        };
        scheduler.join().unwrap();
        // Applied or stale, the marker never outlives the reactivation.
        let _ = shard.join().unwrap();
        assert_eq!(gate.phase(), LanePhase::Active);
    });
}

#[test]
fn a_marker_of_an_old_epoch_changes_nothing() {
    loom::model(|| {
        let gate = Arc::new(LaneGate::default());
        let old = gate.deactivate();
        gate.activate();

        // The scheduler deactivates again while the first drain's marker
        // is still on its way.
        let scheduler = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.deactivate())
        };
        let shard = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.mark_silent(old))
        };
        let new = scheduler.join().unwrap();
        assert_ne!(new, old);
        assert!(!shard.join().unwrap(), "a stale marker was applied");
        assert_eq!(gate.phase(), LanePhase::Draining(new));
        assert!(gate.mark_silent(new));
        assert_eq!(gate.phase(), LanePhase::Silent);
    });
}

#[test]
fn exactly_one_poster_per_drain() {
    loom::model(|| {
        let lane = Arc::new(Residents::default());
        assert!(lane.enter_open() && lane.enter_open());

        let leavers: Vec<_> = (0..2)
            .map(|_| {
                let lane = Arc::clone(&lane);
                thread::spawn(move || lane.leave())
            })
            .collect();
        // The response dispatcher at the zero grant.
        assert!(lane.drain(7));
        let mut claims: Vec<u16> = lane.claim_marker().into_iter().collect();
        for t in leavers {
            claims.extend(t.join().unwrap());
        }
        // Both threads may have left before the notice, so the dispatcher
        // looks once more, as it does on the lane's next message.
        claims.extend(lane.claim_marker());
        assert_eq!(claims, vec![7], "the marker has exactly one poster");
        assert_eq!((lane.phase(), lane.count()), (SendPhase::Drained, 0));
    });
}

#[test]
fn a_thread_that_got_in_keeps_the_lane_draining() {
    loom::model(|| {
        let lane = Arc::new(Residents::default());
        assert!(lane.enter_open());

        let leaver = {
            let lane = Arc::clone(&lane);
            thread::spawn(move || lane.leave())
        };
        let mover = {
            let lane = Arc::clone(&lane);
            thread::spawn(move || lane.enter_open())
        };
        lane.drain(3);
        let mut claimed = lane.claim_marker().is_some();
        claimed |= leaver.join().unwrap().is_some();
        let entered = mover.join().unwrap();
        claimed |= lane.claim_marker().is_some();
        // Either the thread is resident on a lane that still owes its
        // marker, or it was turned away and the marker has one poster.
        assert_ne!(entered, claimed);
        let phase = if entered {
            SendPhase::Draining
        } else {
            SendPhase::Drained
        };
        assert_eq!((lane.phase(), lane.count()), (phase, u32::from(entered)));
    });
}
