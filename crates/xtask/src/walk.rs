//! Workspace file walker shared by every xtask audit.

use std::path::{Path, PathBuf};

/// Directories scanned, relative to the workspace root. `shims/` is
/// deliberately excluded: those crates reimplement external
/// dependencies' documented APIs and are not part of the Flock protocol
/// surface.
pub(crate) const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Paths (relative, prefix match) excluded from every scan. The xtask
/// crate excludes itself: its rule tables and test fixtures spell out
/// the very patterns the rules hunt for.
pub(crate) const EXCLUDE: &[&str] = &["crates/xtask"];

/// The workspace root (xtask lives at `<root>/crates/xtask`;
/// `CARGO_MANIFEST_DIR` is compiled in, so audits work from any cwd
/// inside the workspace).
pub(crate) fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask manifest has a workspace root two levels up")
        .to_path_buf()
}

/// All `.rs` files under the scan roots, workspace-relative with `/`
/// separators, sorted.
pub(crate) fn rust_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect(&root.join(scan), root, &mut files);
    }
    files.sort();
    files
}

fn collect(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .expect("scanned path under root")
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDE.iter().any(|e| rel.starts_with(e)) {
            continue;
        }
        if path.is_dir() {
            collect(&path, root, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…` ->
/// `<name>`; everything else -> `(root)`, the top-level `flock-repro`
/// package).
pub(crate) fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("(root)")
}

/// Whether a path is test/bench/example scaffolding rather than library
/// code: integration tests, benches, and examples drive the system from
/// *outside* a `VirtualLab` on real OS threads by design, so the
/// determinism and hot-path rules skip them (inline `#[cfg(test)]`
/// modules are skipped via token regions instead).
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}
