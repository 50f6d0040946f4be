//! Structural model of one Rust source file, built on [`crate::lex`].
//!
//! This is deliberately *not* a grammar-complete parser: the linter
//! needs (a) which function encloses a given token, (b) which token
//! ranges are test-only (`#[cfg(test)]` items, `mod tests`), (c) where
//! `unsafe` blocks/fns/impls begin, and (d) brace structure for the
//! block-scoped lock analysis. Every approximation errs toward *seeing
//! more* (the rules over-report rather than silently skip; the
//! allowlists absorb deliberate exceptions).

use crate::lex::{lex, Comment, Tok, TokKind};

/// Span of one `fn` item (including nested fns; `fns` is ordered by
/// start token, so the *innermost* enclosing fn for a token is the last
/// span containing it).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The declared name (`fn name`).
    pub name: String,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body's opening `{` (== `end` for bodyless
    /// declarations).
    pub body_start: usize,
    /// Token index of the body's closing `}` (exclusive range end).
    pub end: usize,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// One `unsafe` occurrence.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Token index of the `unsafe` keyword.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
    /// What follows: `block`, `fn`, `impl`, or `trait`.
    pub kind: &'static str,
}

/// Fully analyzed source file.
pub struct SourceModel {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Raw source split into lines (for diagnostics and comment-window
    /// checks).
    pub lines: Vec<String>,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// All fn item spans, ordered by start token.
    pub fns: Vec<FnSpan>,
    /// Token ranges (start..end) that are test-only code.
    pub test_regions: Vec<(usize, usize)>,
    /// For each token index of a `{`, the index of its matching `}`.
    pub brace_match: Vec<Option<usize>>,
    /// `unsafe` occurrences.
    pub unsafes: Vec<UnsafeSite>,
}

impl SourceModel {
    /// Build the model for `src` at workspace-relative `path`.
    pub fn build(path: &str, src: &str) -> SourceModel {
        let lexed = lex(src);
        let toks = lexed.toks;
        let brace_match = match_braces(&toks);
        let fns = find_fns(&toks, &brace_match);
        let test_regions = find_test_regions(&toks, &brace_match);
        let unsafes = find_unsafes(&toks);
        SourceModel {
            path: path.to_string(),
            lines: src.lines().map(|l| l.to_string()).collect(),
            toks,
            comments: lexed.comments,
            fns,
            test_regions,
            brace_match,
            unsafes,
        }
    }

    /// Innermost fn enclosing token `i`, or `None` for file-level code.
    pub(crate) fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .rfind(|f| f.body_start < f.end && f.start <= i && i < f.end)
    }

    /// Name of the enclosing fn for diagnostics/keys (`(file)` at file
    /// level, matching the audit-orderings convention).
    pub(crate) fn enclosing_fn_name(&self, i: usize) -> String {
        self.enclosing_fn(i)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "(file)".to_string())
    }

    /// Whether token `i` sits in test-only code.
    pub(crate) fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= i && i < e)
    }

    /// Source line `line` (1-based), or empty.
    pub(crate) fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.saturating_sub(1))
            .map(|s| s.as_str())
            .unwrap_or("")
    }
}

/// Compute the matching `}` for every `{` (token indices). Unbalanced
/// input (can't happen for code rustc accepted) leaves `None`.
fn match_braces(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut out = vec![None; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => stack.push(i),
                "}" => {
                    if let Some(open) = stack.pop() {
                        out[open] = Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Locate every `fn name … { … }` item. The body `{` is found by
/// scanning forward from the name, skipping balanced `(..)` groups; a
/// `;` first means a bodyless declaration (trait method, extern).
fn find_fns(toks: &[Tok], brace_match: &[Option<usize>]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(...)` pointer type
        }
        let name = name_tok.text.clone();
        // Scan for the body `{`, skipping parens (params) and bracket
        // groups; stop at `;` (no body) or `{`.
        let mut j = i + 2;
        let mut depth_paren = 0i32;
        let mut body_start = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth_paren += 1,
                    ")" | "]" => depth_paren -= 1,
                    ";" if depth_paren == 0 => break,
                    "{" if depth_paren == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(bs) = body_start else {
            continue;
        };
        let end = brace_match[bs].unwrap_or(toks.len().saturating_sub(1));
        out.push(FnSpan {
            name,
            start: i,
            body_start: bs,
            end,
            line: toks[i].line,
        });
    }
    out
}

/// Token ranges under `#[cfg(test)]`-style attributes or inside a
/// `mod tests` item. An attribute whose argument tokens contain both
/// `cfg` and `test` marks the *next item's* block (or the item up to its
/// `;`). This over-approximates `#[cfg(all(test, not(loom)))]` and
/// friends correctly: all of them are test-only.
fn find_test_regions(toks: &[Tok], brace_match: &[Option<usize>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // `mod tests {` — conventional inline test module.
        if t.kind == TokKind::Ident
            && t.text == "mod"
            && toks.get(i + 1).is_some_and(|n| n.text == "tests")
            && toks.get(i + 2).is_some_and(|b| b.text == "{")
        {
            if let Some(end) = brace_match[i + 2] {
                out.push((i, end + 1));
                i = end + 1;
                continue;
            }
        }
        // `#[cfg(…test…)]` / `#[test]` / `#[bench]` attribute.
        if t.text == "#" && toks.get(i + 1).is_some_and(|n| n.text == "[") {
            // Find the closing `]` of the attribute.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut has_cfg_test = false;
            let mut is_test_attr = false;
            if toks
                .get(i + 2)
                .is_some_and(|n| n.text == "test" || n.text == "bench")
            {
                is_test_attr = true;
            }
            let mut saw_cfg = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "cfg" | "cfg_attr" => saw_cfg = true,
                    "test" | "miri" if saw_cfg => has_cfg_test = true,
                    _ => {}
                }
                j += 1;
            }
            if has_cfg_test || is_test_attr {
                // Mark the following item: up to the end of its first
                // balanced brace block, or its `;` for bodyless items.
                let mut k = j;
                let mut pdepth = 0i32;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "[" => pdepth += 1,
                        ")" | "]" => pdepth -= 1,
                        ";" if pdepth == 0 => {
                            out.push((i, k + 1));
                            break;
                        }
                        "{" if pdepth == 0 => {
                            let end = brace_match[k].unwrap_or(toks.len() - 1);
                            out.push((i, end + 1));
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Locate every `unsafe` keyword and classify what it introduces.
fn find_unsafes(toks: &[Tok]) -> Vec<UnsafeSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        let kind = match toks.get(i + 1).map(|n| n.text.as_str()) {
            Some("{") => "block",
            Some("impl") => "impl",
            Some("trait") => "trait",
            Some("extern") => "extern",
            // `unsafe fn`, `unsafe extern "C" fn`, plus qualifier runs
            // like `pub const unsafe fn` put `fn` right after.
            Some("fn") => "fn",
            _ => continue, // `unsafe` in a type position or doc text
        };
        out.push(UnsafeSite {
            tok: i,
            line: t.line,
            kind,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
/// Doc.
pub(crate) fn outer(x: usize) -> usize {
    let s = "fn not_a_fn() {";
    inner(x)
}

fn inner(x: usize) -> usize { x + 1 }

#[cfg(test)]
mod tests {
    fn helper() {}
}
"#;

    #[test]
    fn fn_spans_and_test_regions() {
        let m = SourceModel::build("t.rs", SRC);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "helper"]);
        let helper = m.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(m.in_test_region(helper.start));
        let outer = m.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(!m.in_test_region(outer.start));
        // The string literal must not have produced a phantom fn.
        assert_eq!(m.fns.len(), 3);
    }

    #[test]
    fn unsafe_sites_classified() {
        let m = SourceModel::build(
            "u.rs",
            "unsafe fn f() {}\nfn g() { unsafe { } }\nunsafe impl Send for X {}\n",
        );
        let kinds: Vec<&str> = m.unsafes.iter().map(|u| u.kind).collect();
        assert_eq!(kinds, ["fn", "block", "impl"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = SourceModel::build("l.rs", "fn f<'a>(x: &'a str) -> char { 'a' }");
        assert_eq!(m.fns.len(), 1);
        let lifetimes = m
            .toks
            .iter()
            .filter(|t| t.kind == crate::lex::TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
    }
}
