//! `cargo audit-orderings` — the atomic-ordering audit.
//!
//! Every `Ordering::*` argument at an atomic operation must carry a
//! one-line justification in `orderings.allow` at the workspace root.
//! The audit fails when a site in the code has no entry (most
//! importantly: a *new* `Relaxed` on a shared protocol field slips in
//! without review) and when an entry goes stale (the site it justified
//! is gone), so the allowlist is always exactly the set of orderings the
//! tree actually contains.
//!
//! A `use` that imports an `Ordering` variant — `Ordering::Relaxed`,
//! `Ordering::{Acquire, Release}` or `Ordering::*` — is an error of its
//! own: past it a bare `Relaxed` is an ordering the scanner cannot see,
//! so every site spells `Ordering::X`.
//!
//! Sites are keyed `file::item::Variant#n` — the enclosing `fn` (or
//! module path for file-level code) plus a per-(item, variant) ordinal —
//! rather than line numbers, so unrelated edits to a file do not
//! invalidate the allowlist. Run with `--fix` to append skeleton
//! entries (justification `TODO`) for any missing sites; `TODO`
//! justifications still fail the audit, so they must be filled in.
//!
//! The site scanner below is line-based, not a Rust parser: its keying
//! convention is baked into every reviewed `orderings.allow` entry, and
//! changing how `fn` names are recognized would invalidate them all.
//! The file walker, the allowlist parser and diagnostic rendering come
//! from [`crate::walk`], [`crate::allowlist`], and [`crate::diag`].

use crate::allowlist::Allowlist;
use crate::diag::{emit, Diagnostic};
use crate::walk::{rust_files, workspace_root};
use std::collections::BTreeMap;
use std::process::ExitCode;

const ALLOWLIST: &str = "orderings.allow";

/// One `Ordering::Variant` occurrence in the tree.
#[derive(Debug)]
struct Site {
    key: String,
    file: String,
    line: usize,
    snippet: String,
}

/// Run the audit; `fix` appends skeleton entries for missing sites.
pub fn audit(fix: bool) -> ExitCode {
    let root = workspace_root();
    let files = rust_files(&root);

    let mut sites: Vec<Site> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for rel in &files {
        let text =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        scan_file(rel, &text, &mut sites, &mut diags);
    }

    let allow = Allowlist::load(&root, ALLOWLIST);

    let mut missing: Vec<String> = Vec::new();
    for site in &sites {
        match allow.get(&site.key) {
            None => {
                diags.push(
                    Diagnostic::error("orderings", "unjustified `Ordering::` site")
                        .at(&site.file, site.line)
                        .snippet(&site.snippet)
                        .note(format!("key: {}", site.key)),
                );
                missing.push(site.key.clone());
            }
            Some("TODO") => {
                diags.push(
                    Diagnostic::error("orderings", "TODO justification")
                        .at(&site.file, site.line)
                        .note(format!("key: {}", site.key)),
                );
            }
            Some(_) => {}
        }
    }
    for key in allow.entries.keys() {
        if !sites.iter().any(|s| s.key == *key) {
            diags.push(Diagnostic::error(
                "orderings",
                format!("stale allowlist entry `{key}` (site no longer exists)"),
            ));
        }
    }
    for (key, line) in &allow.duplicates {
        diags.push(Diagnostic::error(
            "orderings",
            format!("duplicate allowlist entry `{key}` (line {line} shadows an earlier one)"),
        ));
    }

    if fix && !missing.is_empty() {
        allow
            .append_todos(&root, &missing)
            .expect("write allowlist");
        eprintln!(
            "audit-orderings: appended {} skeleton entries to {ALLOWLIST}",
            missing.len()
        );
    }

    let failures = emit(&diags);
    if failures > 0 {
        eprintln!(
            "audit-orderings: FAILED with {failures} problem(s) across {} sites in {} files \
             (allowlist: {ALLOWLIST})",
            sites.len(),
            files.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "audit-orderings: ok — {} ordering sites in {} files, all justified",
            sites.len(),
            files.len()
        );
        ExitCode::SUCCESS
    }
}

/// Extract `Ordering::Variant` sites from one file, keying each by the
/// enclosing `fn` name and a per-(fn, variant) ordinal; a `use`
/// statement that imports a variant is an error.
fn scan_file(rel: &str, text: &str, sites: &mut Vec<Site>, diags: &mut Vec<Diagnostic>) {
    // (fn-name, variant) -> next ordinal
    let mut ordinals: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut current_fn = String::from("(file)");
    // The `use` statement being read: its first line and its text so far.
    let mut statement: Option<(usize, String)> = None;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if let Some(name) = fn_name(trimmed) {
            current_fn = name;
        }
        if statement.is_none() && is_use(trimmed) {
            statement = Some((idx, String::new()));
        }
        if let Some((first, stmt)) = &mut statement {
            stmt.push_str(line.trim());
            stmt.push(' ');
            if line.contains(';') {
                if imports_a_variant(stmt) {
                    diags.push(
                        Diagnostic::error("orderings", "`use` of an `Ordering` variant")
                            .at(rel, *first + 1)
                            .snippet(stmt.trim_end())
                            .note("spell `Ordering::X` at the site: the audit cannot see a bare variant"),
                    );
                }
                statement = None;
            }
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("Ordering::") {
            let after = &rest[pos + "Ordering::".len()..];
            let variant = word(after);
            rest = &after[variant.len()..];
            if !is_variant(variant) {
                continue; // `cmp::Ordering::Less` and friends
            }
            let n = ordinals
                .entry((current_fn.clone(), variant.to_string()))
                .or_insert(0);
            *n += 1;
            sites.push(Site {
                key: format!("{rel}::{current_fn}::{variant}#{n}"),
                file: rel.to_string(),
                line: idx + 1,
                snippet: line.trim().to_string(),
            });
        }
    }
}

/// An atomic `Ordering` variant (not `cmp::Ordering`'s `Less` and
/// friends).
fn is_variant(name: &str) -> bool {
    matches!(
        name,
        "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
    )
}

/// Whether a (trimmed) line starts a `use` statement.
fn is_use(trimmed: &str) -> bool {
    let mut s = trimmed;
    for prefix in ["pub(crate) ", "pub(super) ", "pub "] {
        s = s.strip_prefix(prefix).unwrap_or(s);
    }
    s.starts_with("use ")
}

/// Whether a `use` statement imports an atomic `Ordering` variant: by
/// name, in a braced list, or by a glob (`cmp::Ordering::*` aside).
fn imports_a_variant(statement: &str) -> bool {
    statement.match_indices("Ordering::").any(|(pos, found)| {
        let after = statement[pos + found.len()..].trim_start();
        if let Some(list) = after.strip_prefix('{') {
            let list = &list[..list.find('}').unwrap_or(list.len())];
            list.split(',')
                .any(|name| is_variant(word(name.trim_start())))
        } else if after.starts_with('*') {
            !statement[..pos].ends_with("cmp::")
        } else {
            is_variant(word(after))
        }
    })
}

/// The alphanumeric word `s` starts with.
fn word(s: &str) -> &str {
    &s[..s
        .find(|c: char| !c.is_ascii_alphanumeric())
        .unwrap_or(s.len())]
}

/// Pull a function name out of a (trimmed) line declaring one.
fn fn_name(trimmed: &str) -> Option<String> {
    let mut s = trimmed;
    for prefix in [
        "pub(crate) ",
        "pub(super) ",
        "pub ",
        "const ",
        "unsafe ",
        "async ",
    ] {
        while let Some(r) = s.strip_prefix(prefix) {
            s = r;
        }
    }
    let r = s.strip_prefix("fn ")?;
    let name: String = r
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> (Vec<Site>, Vec<Diagnostic>) {
        let (mut sites, mut diags) = (Vec::new(), Vec::new());
        scan_file("a.rs", text, &mut sites, &mut diags);
        (sites, diags)
    }

    #[test]
    fn a_site_is_keyed_by_its_fn_and_ordinal() {
        let (sites, imports) = scan(
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             use std::cmp::Ordering::Less;\n\
             fn f(a: &AtomicU64) {\n\
             \x20   a.load(Ordering::Relaxed);\n\
             \x20   a.store(1, Ordering::Relaxed);\n\
             }\n",
        );
        let keys: Vec<&str> = sites.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, ["a.rs::f::Relaxed#1", "a.rs::f::Relaxed#2"]);
        assert_eq!(sites[1].line, 5);
        assert!(imports.is_empty());
    }

    #[test]
    fn a_use_of_a_variant_is_reported_not_keyed() {
        let text = "use std::sync::atomic::Ordering::Relaxed;\n\
                    use std::sync::atomic::{AtomicBool, Ordering::{self, Acquire}};\n\
                    use std::sync::atomic::Ordering::*;\n\
                    pub(crate) use std::sync::atomic::{\n\
                    \x20   AtomicU64,\n\
                    \x20   Ordering::SeqCst as S,\n\
                    };\n\
                    use std::cmp::Ordering::*;\n\
                    use std::cmp::Ordering::{Greater, Less};\n\
                    fn f(a: &AtomicBool) -> bool {\n\
                    \x20   a.load(Relaxed)\n\
                    }\n";
        let (sites, imports) = scan(text);
        assert!(sites.is_empty(), "{sites:?}");
        let lines: Vec<usize> = imports.iter().map(|i| i.line).collect();
        assert_eq!(lines, [1, 2, 3, 4]);
        assert!(imports[3].snippet.ends_with("Ordering::SeqCst as S, };"));
    }
}
