//! Seeded determinism violations: every time/scheduler call here
//! escapes the virtual-clock seam and must be flagged.

use std::time::Instant;

pub fn poll_wait() {
    let t0 = Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(1));
    std::thread::yield_now();
    let _ = t0;
}

pub fn spawn_worker() {
    let h = std::thread::spawn(|| {});
    let _ = h.join();
}

pub fn wait_twice(cv: &Condvar, m: &mut Guard) {
    if clock::is_virtual() {
        clock::sleep_ns(500);
    } else {
        cv.wait(m);
    }
}
