//! Empty. Nothing depends on `criterion` any more (`flock-bench micro`
//! replaced the Criterion benches); the package stays only because
//! `benchmark/Cargo.toml` still lists this path in its `[patch.crates-io]`
//! table and `benchmark/Cargo.lock` records it, and goes with them
//! (ROADMAP item 13).
