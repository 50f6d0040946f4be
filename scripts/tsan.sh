#!/usr/bin/env sh
# Run the flock-core test suite under ThreadSanitizer.
#
# TSan complements the loom suite: loom explores interleavings of *small*
# scenarios exhaustively (SeqCst semantics only), while TSan watches the
# full-size stress tests execute with real hardware weak memory ordering.
#
# `-Z sanitizer` needs a nightly toolchain plus the rust-src component
# (for `-Z build-std`). Offline build environments cannot install those,
# so this script *skips* (exit 0 with a notice) when they are missing.
#
# The VirtualLab tests are left out. A lab handover is a user-space stack
# switch (crates/sim/src/fiber.rs), and TSan keeps one shadow stack per
# OS thread: it cannot follow a switch it is not told about
# (`__tsan_switch_to_fiber`), and reports garbage or crashes at the first
# one. Nothing is lost by it — the lab runs one task at a time on one
# thread, so there is no race in it for TSan to see; the same protocol
# code is watched under real threads by the threaded tests. Lab-only test
# targets (poll_elision, response_coalescing) are not named below, and
# the lab tests that live in mixed targets are skipped by name; a new lab
# test in flock-core needs one or the other.
#
# Extra arguments go to the test binary, e.g. `scripts/tsan.sh tcq`.
set -eu
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "tsan.sh: SKIP — no nightly toolchain (needs: rustup toolchain install nightly)"
    exit 0
fi
sysroot="$(rustc +nightly --print sysroot 2>/dev/null)" || sysroot=""
if [ -z "$sysroot" ] || [ ! -d "$sysroot/lib/rustlib/src/rust/library" ]; then
    echo "tsan.sh: SKIP — rust-src missing (needs: rustup +nightly component add rust-src)"
    exit 0
fi

target="$(rustc +nightly --version --verbose | sed -n 's/^host: //p')"
export RUSTFLAGS="-Z sanitizer=thread ${RUSTFLAGS:-}"
# TSan slows execution ~10x; halve thread counts via test-threads=1 to
# keep scheduler-induced timeouts out of the signal.
exec cargo +nightly test -p flock-core -Z build-std --target "$target" \
    --lib --test alloc_count --test flock_e2e --test lpt_props \
    --test multi_dispatch --test onesided_e2e --test ring_props \
    --test sched_props \
    -- --test-threads=1 \
    --skip timed_out_call_frees_the_thread_and_drops_the_late_response \
    --skip unanswered_manual_request_times_out \
    --skip a_reply_dropped_unanswered_is_disconnected_in_the_lab \
    "$@"
