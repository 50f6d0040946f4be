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
    for rel in &files {
        let text =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        scan_file(rel, &text, &mut sites);
    }

    let allow = Allowlist::load(&root, ALLOWLIST);

    let mut diags: Vec<Diagnostic> = Vec::new();
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
/// enclosing `fn` name and a per-(fn, variant) ordinal.
fn scan_file(rel: &str, text: &str, sites: &mut Vec<Site>) {
    // (fn-name, variant) -> next ordinal
    let mut ordinals: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut current_fn = String::from("(file)");
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if let Some(name) = fn_name(trimmed) {
            current_fn = name;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("Ordering::") {
            let after = &rest[pos + "Ordering::".len()..];
            let variant: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            rest = &after[variant.len()..];
            if !matches!(
                variant.as_str(),
                "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
            ) {
                continue; // `cmp::Ordering::Less` and friends
            }
            let n = ordinals
                .entry((current_fn.clone(), variant.clone()))
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
