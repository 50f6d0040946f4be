//! Shared allowlist format for the workspace audits.
//!
//! One `key = justification` entry per line; `#` starts a comment. Used
//! by `orderings.allow` (atomic-ordering audit), `determinism.allow`
//! (virtual-clock seam escapes) and `lockorder.allow` (accepted
//! lock-order edges). The parser
//! is stricter than the original `audit-orderings` one: duplicate keys
//! are reported (the old `BTreeMap::insert` silently kept the *last*
//! line, so a stale duplicate could shadow a reviewed justification).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// key -> justification (last occurrence wins, as before).
    pub entries: BTreeMap<String, String>,
    /// Keys that appeared more than once (line numbers of the repeats).
    pub duplicates: Vec<(String, usize)>,
    /// Raw text as read (for append-mode fixes).
    pub raw: String,
    /// Path it was loaded from (for fixes and diagnostics).
    pub path: String,
}

impl Allowlist {
    /// Load `path` (workspace-relative display name `name`); a missing
    /// file parses as an empty allowlist so new audits bootstrap cleanly
    /// with `--fix-allow`.
    pub fn load(root: &Path, name: &str) -> Allowlist {
        let raw = std::fs::read_to_string(root.join(name)).unwrap_or_default();
        let mut list = Allowlist::parse(&raw);
        list.path = name.to_string();
        list
    }

    /// Parse allowlist text.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = BTreeMap::new();
        let mut duplicates = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((key, just)) = line.split_once(" = ") {
                let key = key.trim().to_string();
                if entries.contains_key(&key) {
                    duplicates.push((key.clone(), idx + 1));
                }
                entries.insert(key, just.trim().to_string());
            }
        }
        Allowlist {
            entries,
            duplicates,
            raw: text.to_string(),
            path: String::new(),
        }
    }

    /// Justification for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|s| s.as_str())
    }

    /// Append skeleton `key = TODO` entries for `keys` and write the
    /// file back. `TODO` justifications still fail the audit, so each
    /// must be filled in by hand before CI goes green.
    pub(crate) fn append_todos(&self, root: &Path, keys: &[String]) -> std::io::Result<()> {
        if keys.is_empty() {
            return Ok(());
        }
        let mut out = self.raw.clone();
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        for key in keys {
            let _ = writeln!(out, "{key} = TODO");
        }
        std::fs::write(root.join(&self.path), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_comments_and_duplicates() {
        let a =
            Allowlist::parse("# header\nfoo::bar#1 = fine\n\nfoo::bar#1 = shadowed\nbaz#1 = ok\n");
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.get("foo::bar#1"), Some("shadowed"));
        assert_eq!(a.duplicates.len(), 1);
        assert_eq!(a.duplicates[0].0, "foo::bar#1");
    }
}
