//! Rustc-style diagnostics for `cargo audit-orderings`: an `error[rule]`
//! header, a `-->` file:line locator, the offending source line, and
//! optional notes (the allowlist key to justify, …).

use std::fmt::Write as _;

/// One finding; every finding fails the run.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier shown in brackets (`orderings`).
    pub rule: &'static str,
    pub message: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (0 = whole-file / cross-file finding).
    pub line: usize,
    /// The offending source line, trimmed (empty to omit).
    pub snippet: String,
    /// Extra `= note:` lines (allowlist key, call chain, fix hint).
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn error(rule: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            message: message.into(),
            file: String::new(),
            line: 0,
            snippet: String::new(),
            notes: Vec::new(),
        }
    }

    pub fn at(mut self, file: impl Into<String>, line: usize) -> Diagnostic {
        self.file = file.into();
        self.line = line;
        self
    }

    pub(crate) fn snippet(mut self, s: impl Into<String>) -> Diagnostic {
        self.snippet = s.into();
        self
    }

    pub(crate) fn note(mut self, n: impl Into<String>) -> Diagnostic {
        self.notes.push(n.into());
        self
    }

    /// Render in rustc style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "error[{}]: {}", self.rule, self.message);
        if !self.file.is_empty() {
            if self.line > 0 {
                let _ = writeln!(out, "  --> {}:{}", self.file, self.line);
            } else {
                let _ = writeln!(out, "  --> {}", self.file);
            }
        }
        if !self.snippet.is_empty() {
            let _ = writeln!(out, "   |     {}", self.snippet.trim());
        }
        for n in &self.notes {
            let _ = writeln!(out, "   = note: {n}");
        }
        out
    }
}

/// Print `diags`; returns how many there are.
pub(crate) fn emit(diags: &[Diagnostic]) -> usize {
    for d in diags {
        eprint!("{}", d.render());
    }
    diags.len()
}
