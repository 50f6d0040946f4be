//! Clean twin of `determinism_bad.rs`: the same shapes routed through
//! the clock seam, plus a test region (exempt by policy).

use flock_sync::clock;

pub fn poll_wait() {
    let t0 = clock::now_ns();
    clock::sleep_ns(500);
    clock::yield_now();
    let _ = t0;
}

pub fn spawn_worker() {
    let h = clock::spawn("worker", || {});
    let _ = h.join();
}

pub fn default_workers() -> usize {
    2
}

pub fn wait_once(ev: &clock::Event, deadline_ns: u64) -> Option<()> {
    ev.wait_until(deadline_ns, 500, || None)
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests_is_exempt() {
        let _ = std::time::Instant::now();
        std::thread::yield_now();
        std::thread::scope(|_| {});
    }
}
