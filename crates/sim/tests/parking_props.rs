//! `VirtualLab` parks a waiter off its run queue until its event is
//! notified or its deadline passes, and computes at the notify the poll
//! instant at which the waiter would have seen the change. These
//! properties hold it to the reference run, which executes every poll:
//! same results, same final clock, and every poll the lab slept through
//! one of the reference's handovers (`run_against_reference`). A
//! `clock::Barrier` is held, besides, to the `sleep_ns` gates it replaced.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use flock_sim::vtime::VirtualLab;
use flock_sync::clock::{self, Event, IdleOn, Next};
use flock_sync::AdaptiveBackoff;
use proptest::collection::vec;
use proptest::prelude::*;

/// An event and the count its notifiers bump before announcing it.
#[derive(Default)]
struct Signal {
    event: Arc<Event>,
    count: AtomicU64,
}

impl Signal {
    fn bump(&self, by: u64) {
        self.count.fetch_add(by, Ordering::Relaxed);
        self.event.notify_all();
    }

    fn reached(&self, target: u64) -> Option<u64> {
        let count = self.count.load(Ordering::Relaxed);
        (count >= target).then_some(count)
    }
}

/// How a waiter sleeps between two checks.
#[derive(Debug, Clone, Copy)]
enum Sleep {
    /// `Event::wait_until` on a fixed quantum.
    Fixed(u64),
    /// `AdaptiveBackoff::idle_on`: the ladder from 250 ns up to `cap`,
    /// `busy` charged by every empty check.
    Ladder { cap: u64, busy: u64 },
    /// The same ladder, run by the lab as an inline stepper.
    Stepper { cap: u64, busy: u64 },
}

/// One waiter: on which signal, how, for how many counts in a row, and
/// until when.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    signal: usize,
    sleep: Sleep,
    rounds: u64,
    deadline_ns: u64,
}

/// Who bumps the signals at the scheduled instants.
#[derive(Debug, Clone, Copy)]
enum Notifier {
    /// The root, sleeping from one instant to the next.
    Root,
    /// A task whose own wait times out at each instant: a poller.
    Poller(u64),
    /// A stepper idling on a timer that nobody notifies: an inline
    /// step woken by its deadline.
    Stepper,
}

/// `(instant, signal)` in the order they are made.
type Schedule = Vec<(u64, usize)>;

/// When each waiter saw each count it waited for (`None`: timed out).
type Log = Arc<Mutex<Vec<(u64, Option<u64>)>>>;

fn ladder(cap: u64) -> AdaptiveBackoff {
    AdaptiveBackoff::new().with_virtual_cap(cap)
}

fn spawn_waiter(name: &str, w: Waiter, signal: Arc<Signal>, log: Log) -> clock::TaskHandle {
    let deadline = w.deadline_ns;
    match w.sleep {
        Sleep::Fixed(quantum) => clock::spawn(name, move || {
            for round in 1..=w.rounds {
                let got = signal
                    .event
                    .wait_until(deadline, quantum, || signal.reached(round));
                log.lock().unwrap().push((clock::now_ns(), got));
                if got.is_none() {
                    return;
                }
            }
        }),
        Sleep::Ladder { cap, busy } => clock::spawn(name, move || {
            let mut idler = ladder(cap);
            for round in 1..=w.rounds {
                let got = loop {
                    let seen = signal.event.epoch();
                    if let Some(count) = signal.reached(round) {
                        idler.reset();
                        break Some(count);
                    }
                    if clock::now_ns() > deadline {
                        break None;
                    }
                    clock::charge(busy);
                    idler.idle_on(&signal.event, seen, busy, deadline);
                };
                log.lock().unwrap().push((clock::now_ns(), got));
                if got.is_none() {
                    return;
                }
            }
        }),
        Sleep::Stepper { cap, busy } => {
            let mut round = 1;
            let event = Arc::clone(&signal.event);
            clock::spawn_stepper(name, ladder(cap), event, move || {
                let seen = signal.event.epoch();
                if let Some(count) = signal.reached(round) {
                    log.lock().unwrap().push((clock::now_ns(), Some(count)));
                    round += 1;
                    return if round > w.rounds {
                        Next::Done
                    } else {
                        Next::Again
                    };
                }
                if clock::now_ns() > deadline {
                    log.lock().unwrap().push((clock::now_ns(), None));
                    return Next::Done;
                }
                clock::charge(busy);
                Next::Idle(IdleOn {
                    seen,
                    busy_ns: busy,
                    deadline_ns: deadline,
                })
            })
        }
    }
}

/// Bump the scheduled signals at their instants, as `notifier` does.
fn spawn_notifier(
    notifier: Notifier,
    schedule: Schedule,
    signals: Vec<Arc<Signal>>,
) -> Option<clock::TaskHandle> {
    let timer = Arc::new(Event::new());
    match notifier {
        Notifier::Root => {
            for (at, s) in schedule {
                clock::sleep_ns(at.saturating_sub(clock::now_ns()));
                signals[s].bump(1);
            }
            None
        }
        Notifier::Poller(quantum) => Some(clock::spawn("notifier", move || {
            for (at, s) in schedule {
                timer.wait_until(at - 1, quantum, || None::<()>);
                signals[s].bump(1);
            }
        })),
        Notifier::Stepper => {
            let mut next = 0;
            // Never `Next::Again`: work that only the clock announces
            // does not reset the idle ladder.
            Some(clock::spawn_stepper(
                "notifier",
                ladder(500),
                Arc::clone(&timer),
                move || loop {
                    let Some(&(at, s)) = schedule.get(next) else {
                        return Next::Done;
                    };
                    if clock::now_ns() >= at {
                        signals[s].bump(1);
                        next += 1;
                        continue;
                    }
                    return Next::Idle(IdleOn {
                        seen: timer.epoch(),
                        busy_ns: 0,
                        deadline_ns: at - 1,
                    });
                },
            ))
        }
    }
}

/// The whole scenario: the waiters, the scheduled notifies, then one
/// bump of every signal that satisfies whoever is still waiting.
fn scenario(
    signals: usize,
    waiters: &[Waiter],
    notifier: Notifier,
    schedule: &Schedule,
) -> Vec<Vec<(u64, Option<u64>)>> {
    let signals: Vec<Arc<Signal>> = (0..signals).map(|_| Arc::default()).collect();
    let logs: Vec<Log> = waiters.iter().map(|_| Log::default()).collect();
    let tasks: Vec<_> = (waiters.iter().zip(&logs).enumerate())
        .map(|(i, (w, log))| {
            let signal = signals[w.signal].clone();
            spawn_waiter(&format!("w{i}"), *w, signal, log.clone())
        })
        .collect();
    if let Some(notifier) = spawn_notifier(notifier, schedule.clone(), signals.clone()) {
        notifier.join().unwrap();
    }
    for signal in &signals {
        signal.bump(1 << 20);
    }
    for task in tasks {
        task.join().unwrap();
    }
    logs.iter().map(|log| log.lock().unwrap().clone()).collect()
}

/// Where a notify lands relative to the first poll of a waiter.
#[derive(Debug, Clone, Copy)]
enum Landing {
    /// This many ns before it.
    Before(u64),
    /// At it, made by a poll of a task spawned before the waiter, which
    /// comes first at that instant.
    AtAhead,
    /// At it, made by a plain sleeper, after every poll due then.
    AtBehind,
    /// This many ns after it.
    After(u64),
}

/// The instant of the first poll of a waiter that starts waiting at
/// `start`: its first sleep, after what its empty check charged.
fn first_poll(sleep: Sleep, start: u64) -> u64 {
    start
        + match sleep {
            Sleep::Fixed(quantum) => quantum,
            Sleep::Ladder { busy, .. } | Sleep::Stepper { busy, .. } => busy + 250,
        }
}

/// One waiter goes to sleep at `start` (the lab parks it right there
/// unless `deadline_ns` is before its first poll) and one notify lands
/// as `landing` says. Returns what the waiter saw, and when.
fn first_poll_scenario(
    sleep: Sleep,
    start: u64,
    landing: Landing,
    deadline_ns: u64,
) -> Vec<(u64, Option<u64>)> {
    let signal = Arc::new(Signal::default());
    let at = first_poll(sleep, start);
    let notifier = {
        let signal = signal.clone();
        clock::spawn("notifier", move || {
            match landing {
                Landing::Before(gap) => clock::sleep_ns(at - gap),
                Landing::AtAhead => {
                    // Times out at its one poll, at `at`.
                    Event::new().wait_until(at - 1, at, || None::<()>);
                }
                Landing::AtBehind => clock::sleep_ns(at),
                Landing::After(gap) => clock::sleep_ns(at + gap),
            }
            signal.bump(1);
        })
    };
    clock::sleep_ns(start);
    let log = Log::default();
    let waiter = Waiter {
        signal: 0,
        sleep,
        rounds: 1,
        deadline_ns,
    };
    let waiter = spawn_waiter("waiter", waiter, signal, log.clone());
    notifier.join().unwrap();
    waiter.join().unwrap();
    let log = log.lock().unwrap().clone();
    log
}

/// The first instant of the grid `start + k * step` (k ≥ 1) at or past
/// `t`.
fn grid_point(start: u64, step: u64, t: u64) -> u64 {
    start + (t - start).div_ceil(step).max(1) * step
}

/// A `clock::Barrier` run by tasks that arrive at `arrivals`, opened
/// `open_after` ns after the coordinator saw them all, beside the
/// hand-rolled gate it replaced: a poller on `sleep_ns(5_000)` that
/// starts with the first task. Returns when the coordinator saw the
/// arrivals, the instant `open` returned, each task's (leave instant,
/// what `wait` returned), and when the poller left.
fn barrier_scenario(arrivals: &[u64], open_after: u64) -> (u64, u64, Vec<(u64, u64)>, u64) {
    let gate = Arc::new(clock::Barrier::new());
    let go = Arc::new(Mutex::new(false));
    let left: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
    let tasks: Vec<_> = (arrivals.iter().enumerate())
        .map(|(i, &at)| {
            let (gate, left) = (Arc::clone(&gate), Arc::clone(&left));
            clock::spawn(&format!("arriver-{i}"), move || {
                clock::sleep_ns(at);
                gate.arrive();
                let opened = gate.wait();
                left.lock().unwrap().push((clock::now_ns(), opened));
            })
        })
        .collect();
    let poller_left = Arc::new(Mutex::new(0));
    let poller = {
        let (go, poller_left, first) = (Arc::clone(&go), Arc::clone(&poller_left), arrivals[0]);
        clock::spawn("poller", move || {
            clock::sleep_ns(first);
            while !*go.lock().unwrap() {
                clock::sleep_ns(5_000);
            }
            *poller_left.lock().unwrap() = clock::now_ns();
        })
    };
    gate.wait_arrived(arrivals.len());
    let all_in = clock::now_ns();
    clock::sleep_ns(open_after);
    let opened = gate.open();
    *go.lock().unwrap() = true;
    for task in tasks {
        task.join().unwrap();
    }
    poller.join().unwrap();
    let mut left = std::mem::take(&mut *left.lock().unwrap());
    left.sort_unstable();
    let poller_left = *poller_left.lock().unwrap();
    (all_in, opened, left, poller_left)
}

#[test]
fn a_barrier_leaves_where_the_hand_rolled_gate_did() {
    // Arrivals and the opening off both grids, so no poll instant is
    // shared with a notify.
    for (arrivals, open_after) in [
        (vec![1_500, 7_300, 23_100], 2_345),
        (vec![4_100], 700),
        (vec![2_000, 2_000, 2_700, 41_900], 13_010),
    ] {
        let ((all_in, opened, left, poller_left), _) =
            VirtualLab::run_against_reference(|| barrier_scenario(&arrivals, open_after));
        let last = *arrivals.iter().max().unwrap();
        assert_eq!(all_in, grid_point(0, 10_000, last), "{arrivals:?}");
        assert_eq!(opened, all_in + open_after, "{arrivals:?}");
        let first = arrivals[0];
        assert_eq!(
            poller_left,
            grid_point(first, 5_000, opened),
            "{arrivals:?}"
        );
        let mut want: Vec<_> = arrivals
            .iter()
            .map(|&at| (grid_point(at, 5_000, opened), opened))
            .collect();
        want.sort_unstable();
        assert_eq!(left, want, "{arrivals:?}");
        assert!(left.contains(&(poller_left, opened)));
    }
}

proptest! {
    #[test]
    fn a_waiter_parked_at_its_sleep_wakes_where_the_reference_polls_see_the_notify(
        kind in 0u8..3,
        param in 0usize..4,
        start in 1u64..2_000,
        landing in (0u8..4, 0u64..1_000),
        deadline in (0u8..3, 0u64..3_000),
    ) {
        let (cap, busy) = ([250, 1_000, 2_000, 1 << 20][param], [0, 20, 100][param % 3]);
        let sleep = match kind {
            0 => Sleep::Fixed([50, 333, 500, 1_000][param]),
            1 => Sleep::Ladder { cap, busy },
            _ => Sleep::Stepper { cap, busy },
        };
        let at = first_poll(sleep, start);
        let landing = match landing {
            // After the waiter's start, before its first poll.
            (0, gap) => Landing::Before(1 + gap % (at - start - 1)),
            (1, _) => Landing::AtAhead,
            (2, _) => Landing::AtBehind,
            (_, gap) => Landing::After(1 + gap),
        };
        let deadline_ns = match deadline {
            // From the start to the instant before the first poll: the
            // waiter is queued, not parked.
            (0, d) => start + d % (at - start),
            (1, d) => at + d,
            _ => u64::MAX,
        };
        let (log, _) = VirtualLab::run_against_reference(|| {
            first_poll_scenario(sleep, start, landing, deadline_ns)
        });
        prop_assert_eq!(log.len(), 1);
        if let (Sleep::Fixed(quantum), u64::MAX) = (sleep, deadline_ns) {
            // Seen by the first poll if the notify comes first in heap
            // order, by the next one otherwise.
            let want = match landing {
                Landing::Before(_) | Landing::AtAhead => Some(at),
                Landing::AtBehind => Some(at + quantum),
                Landing::After(_) => None,
            };
            if let Some(want) = want {
                prop_assert_eq!(log[0], (want, Some(1)));
            }
        }
    }

    #[test]
    fn parked_waiters_wake_where_the_reference_polls_see_the_notify(
        signals in 1usize..4,
        waiters in vec((0usize..3, 0u8..3, 0usize..4, 1u64..4, 0u64..30_000), 1..6),
        notifier in (0u8..3, 0usize..3),
        notifies in vec((1u64..4_000, 0usize..3, any::<bool>()), 1..8),
    ) {
        let waiters: Vec<Waiter> = waiters
            .into_iter()
            .map(|(signal, kind, param, rounds, deadline)| {
                let (cap, busy) = ([250, 1_000, 2_000, 1 << 20][param], [0, 20, 100][param % 3]);
                Waiter {
                    signal: signal % signals,
                    sleep: match kind {
                        0 => Sleep::Fixed([50, 333, 500, 1_000][param]),
                        1 => Sleep::Ladder { cap, busy },
                        _ => Sleep::Stepper { cap, busy },
                    },
                    rounds,
                    // A third of them wait for ever.
                    deadline_ns: if deadline < 10_000 { u64::MAX } else { deadline },
                }
            })
            .collect();
        let notifier = match notifier {
            (0, _) => Notifier::Root,
            (1, q) => Notifier::Poller([50, 500, 700][q]),
            _ => Notifier::Stepper,
        };
        // Instants between poll instants, and on them: the grids of 50,
        // 250 and 500 ns all meet at multiples of 500.
        let mut at = 0;
        let schedule: Schedule = notifies
            .into_iter()
            .map(|(gap, signal, on_grid)| {
                at += gap;
                if on_grid {
                    at = at.next_multiple_of(500);
                }
                (at, signal % signals)
            })
            .collect();
        let (logs, report) =
            VirtualLab::run_against_reference(|| scenario(signals, &waiters, notifier, &schedule));
        prop_assert_eq!(logs.len(), waiters.len());
        prop_assert!(report.heap_pushes > 0);
    }
}
