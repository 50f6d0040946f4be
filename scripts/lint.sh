#!/usr/bin/env sh
# Run the workspace invariant checker (`cargo xtask lint`): four
# AST-level rules over every crate —
#   determinism  time/scheduler/entropy calls outside the
#                flock_sync::clock seam, thread_local!s in crates that
#                run under the lab        (allowlist: determinism.allow)
#   lock-order   cycles in the cross-crate Mutex/RwLock acquisition
#                graph                     (allowlist: lockorder.allow)
#   safety       `unsafe` without a `// SAFETY:` comment (no allowlist)
#   hot-alloc    allocations reachable from the declared hot-path entry
#                points                    (allowlist: hotpath.allow)
#
# Equivalent to `cargo lint` (alias in .cargo/config.toml). Arguments
# are passed through: `-D` denies warnings (CI mode), `--rule <name>`
# runs one rule, `--fix-allow` appends TODO skeletons for new findings.
set -eu
cd "$(dirname "$0")/.."

exec cargo run --quiet --release -p xtask -- lint "$@"
