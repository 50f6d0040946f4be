//! Workspace file walker for the ordering audit.

use std::path::{Path, PathBuf};

/// Directories scanned, relative to the workspace root. `shims/` is
/// deliberately excluded: those crates reimplement external
/// dependencies' documented APIs and are not part of the Flock protocol
/// surface.
pub(crate) const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Paths (relative, prefix match) excluded from every scan. The xtask
/// crate excludes itself: the audit's own scanner spells out the very
/// pattern it hunts for.
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
