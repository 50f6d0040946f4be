#!/usr/bin/env sh
# Run the TCQ tests under Miri, the rustc interpreter that checks for
# undefined behavior (aliasing violations at the retire_node/pool
# reclamation sites — drop_in_place + raw-block recycling — data races
# under its weak-memory emulation, leaks).
#
# Miri needs a nightly toolchain with the `miri` component. Offline build
# environments cannot install it, so this script *skips* (exit 0 with a
# notice) when Miri is unavailable rather than failing the suite; the CI
# miri job runs it for real.
#
# Miri has no inline assembly, so under `cfg(miri)` a VirtualLab hosts
# its tasks on OS threads, as its reference run does everywhere
# (crates/sim/src/fiber.rs: `SUPPORTED` is false); a lab test picked by
# the filter runs, slowly, on that path.
#
# Extra arguments go to `cargo miri test`, e.g. `scripts/miri.sh tcq`.
set -eu
cd "$(dirname "$0")/.."

if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "miri.sh: SKIP — miri is not installed (needs: rustup +nightly component add miri)"
    exit 0
fi

# -Zmiri-strict-provenance: the TCQ's raw node pointers (pooled blocks
#   and the Box escape hatch) must stay provenance-clean (no int-to-ptr
#   round trips).
# -Zmiri-disable-isolation: the contention tests use the host clock
#   (thread::sleep) to hold batches open.
# Callers can override by exporting MIRIFLAGS themselves.
export MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance -Zmiri-disable-isolation}"

# Heavy tcq tests shrink themselves under cfg(miri); see tcq.rs.
filter="${1:-tcq}"
[ "$#" -gt 0 ] && shift
exec cargo +nightly miri test -p flock-core "$filter" "$@"
