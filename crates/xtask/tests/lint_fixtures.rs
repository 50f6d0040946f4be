//! Fixture tests for the four `cargo xtask lint` rules: each seeded
//! violation under `tests/fixtures/` must be flagged, and its clean
//! twin must pass. Fixtures are parsed (never compiled) under synthetic
//! workspace-relative paths, so they exercise exactly the code path the
//! real lint run takes.

use xtask::allowlist::Allowlist;
use xtask::lint::{determinism, hot_alloc, lock_order, safety};
use xtask::parse::SourceModel;

fn model(path: &str, src: &str) -> SourceModel {
    SourceModel::build(path, src)
}

fn empty_allow() -> Allowlist {
    Allowlist::parse("")
}

// ---------------------------------------------------------- determinism

#[test]
fn determinism_bad_fixture_is_flagged() {
    let m = model(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    let (diags, missing) = determinism::check(&[&m], &empty_allow());
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 5, "findings: {msgs:?}");
    for pat in [
        "Instant::now",
        "thread::sleep",
        "thread::yield_now",
        "thread::spawn",
        "thread::available_parallelism",
    ] {
        assert!(
            msgs.iter().any(|m| m.contains(pat)),
            "missing {pat} in {msgs:?}"
        );
    }
    assert_eq!(missing.len(), 5);
}

#[test]
fn determinism_clean_fixture_passes() {
    let m = model(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/determinism_clean.rs"),
    );
    let (diags, _) = determinism::check(&[&m], &empty_allow());
    assert!(
        diags.is_empty(),
        "clean twin flagged: {:?}",
        diags.iter().map(|d| &d.message).collect::<Vec<_>>()
    );
}

#[test]
fn determinism_allowlist_and_seam_are_honored() {
    // A justified site passes; the seam file itself is always exempt.
    let m = model(
        "crates/fixture/src/lib.rs",
        "pub fn t() { let _ = Instant::now(); }\n",
    );
    let allow =
        Allowlist::parse("crates/fixture/src/lib.rs::t::Instant::now#1 = fixture justification\n");
    let (diags, missing) = determinism::check(&[&m], &allow);
    assert!(diags.is_empty() && missing.is_empty());

    let seam = model(
        "crates/sync/src/clock.rs",
        "pub fn now() { let _ = Instant::now(); }\n",
    );
    let (diags, _) = determinism::check(&[&seam], &empty_allow());
    assert!(diags.is_empty(), "seam file must be exempt");
}

#[test]
fn determinism_todo_justification_still_fails() {
    let m = model(
        "crates/fixture/src/lib.rs",
        "pub fn t() { let _ = Instant::now(); }\n",
    );
    let allow = Allowlist::parse("crates/fixture/src/lib.rs::t::Instant::now#1 = TODO\n");
    let (diags, _) = determinism::check(&[&m], &allow);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("TODO"));
}

#[test]
fn thread_local_in_a_crate_that_runs_under_the_lab_needs_a_justification() {
    let src =
        "thread_local! {\n    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());\n}\n\
               pub fn flush() { SCRATCH.with(|s| s.borrow_mut().clear()); }\n";
    let m = model("crates/core/src/scratch.rs", src);
    let (diags, missing) = determinism::check(&[&m], &empty_allow());
    assert_eq!(diags.len(), 1, "{:?}", diags[0].message);
    assert!(diags[0].message.contains("shared by every task"));
    assert_eq!(
        missing,
        ["crates/core/src/scratch.rs::(file)::thread_local!#1"]
    );

    let allow = Allowlist::parse(
        "crates/core/src/scratch.rs::(file)::thread_local!#1 = fixture justification\n",
    );
    let (diags, _) = determinism::check(&[&m], &allow);
    assert!(diags.is_empty());

    // Harnesses that drive the lab from outside keep their freedom, and
    // so do tests.
    let bench = model("crates/bench/src/lib.rs", src);
    let (diags, _) = determinism::check(&[&bench], &empty_allow());
    assert!(diags.is_empty());
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
    let m = model("crates/core/src/scratch.rs", &in_test);
    let (diags, _) = determinism::check(&[&m], &empty_allow());
    assert!(diags.is_empty());
}

// ----------------------------------------------------------- lock-order

#[test]
fn lock_order_three_lock_cycle_is_flagged() {
    let m = model(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/lock_order_bad.rs"),
    );
    let diags = lock_order::check(&[&m], &empty_allow());
    assert_eq!(diags.len(), 1, "expected exactly one cycle report");
    let msg = &diags[0].message;
    for lock in ["alpha", "beta", "gamma"] {
        assert!(msg.contains(lock), "cycle path missing {lock}: {msg}");
    }
}

#[test]
fn lock_order_consistent_order_passes() {
    let m = model(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/lock_order_clean.rs"),
    );
    let diags = lock_order::check(&[&m], &empty_allow());
    assert!(
        diags.is_empty(),
        "clean twin flagged: {:?}",
        diags.iter().map(|d| &d.message).collect::<Vec<_>>()
    );
}

#[test]
fn lock_order_interprocedural_cycle_is_flagged_and_allowable() {
    let m = model(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/lock_order_call_bad.rs"),
    );
    let diags = lock_order::check(&[&m], &empty_allow());
    assert_eq!(diags.len(), 1, "expected the left<->right cycle");
    assert!(diags[0].message.contains("left") && diags[0].message.contains("right"));

    // Accepting one direction in lockorder.allow breaks the cycle.
    let allow = Allowlist::parse("edge::left->right = fixture: benign by protocol\n");
    let diags = lock_order::check(&[&m], &allow);
    assert!(diags.is_empty());
}

// --------------------------------------------------------------- safety

#[test]
fn safety_bad_fixture_is_flagged() {
    let m = model(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/safety_bad.rs"),
    );
    let diags = safety::check(&[&m]);
    // Three sites: the block in `peek`, the `unsafe fn` itself, and the
    // inner block in its body.
    assert_eq!(
        diags.len(),
        3,
        "expected undocumented block + fn + inner block: {:?}",
        diags.iter().map(|d| &d.message).collect::<Vec<_>>()
    );
}

#[test]
fn safety_clean_fixture_passes() {
    let m = model(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/safety_clean.rs"),
    );
    let diags = safety::check(&[&m]);
    assert!(
        diags.is_empty(),
        "clean twin flagged: {:?}",
        diags.iter().map(|d| &d.message).collect::<Vec<_>>()
    );
}

// ------------------------------------------------------------ hot-alloc

const FIXTURE_ENTRIES: &[(&str, &str)] = &[("crates/fixture/src/hot.rs", "hot_entry")];

#[test]
fn hot_alloc_bad_fixture_is_flagged() {
    let m = model(
        "crates/fixture/src/hot.rs",
        include_str!("fixtures/hot_alloc_bad.rs"),
    );
    let (diags, missing) = hot_alloc::check_with_entries(&[&m], &empty_allow(), FIXTURE_ENTRIES);
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 2, "findings: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("Vec::with_capacity")));
    assert!(msgs.iter().any(|m| m.contains("format!")));
    assert_eq!(missing.len(), 2);
}

#[test]
fn hot_alloc_clean_fixture_passes() {
    let m = model(
        "crates/fixture/src/hot.rs",
        include_str!("fixtures/hot_alloc_clean.rs"),
    );
    let (diags, _) = hot_alloc::check_with_entries(&[&m], &empty_allow(), FIXTURE_ENTRIES);
    assert!(
        diags.is_empty(),
        "clean twin flagged: {:?}",
        diags.iter().map(|d| &d.message).collect::<Vec<_>>()
    );
}

#[test]
fn hot_alloc_allowlist_is_honored() {
    let m = model(
        "crates/fixture/src/hot.rs",
        include_str!("fixtures/hot_alloc_bad.rs"),
    );
    let allow = Allowlist::parse(
        "crates/fixture/src/hot.rs::build_scratch::Vec::with_capacity#1 = fixture\n\
         crates/fixture/src/hot.rs::build_scratch::format!#1 = fixture\n",
    );
    let (diags, missing) = hot_alloc::check_with_entries(&[&m], &allow, FIXTURE_ENTRIES);
    assert!(diags.is_empty() && missing.is_empty());
}
