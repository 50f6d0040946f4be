//! Rustc-style diagnostics for the workspace audits.
//!
//! One render path shared by `cargo xtask lint` and
//! `cargo audit-orderings`, so every tool in the crate reports findings
//! the same way: a severity + rule header, a `-->` file:line locator, the
//! offending source line, and optional notes (the allowlist key to
//! justify, the reachability chain, …).

use std::fmt::Write as _;

/// Finding severity. `Error` always fails the run; `Warn` fails only
/// under `-D` (deny-warnings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warn,
    Error,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Rule identifier shown in brackets (`determinism`, `lock-order`,
    /// `safety`, `hot-alloc`, `orderings`).
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
            severity: Severity::Error,
            rule,
            message: message.into(),
            file: String::new(),
            line: 0,
            snippet: String::new(),
            notes: Vec::new(),
        }
    }

    pub fn warn(rule: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warn,
            ..Diagnostic::error(rule, message)
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
        let sev = match self.severity {
            Severity::Warn => "warning",
            Severity::Error => "error",
        };
        let _ = writeln!(out, "{sev}[{}]: {}", self.rule, self.message);
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

/// Print `diags`; returns the number of findings that fail the run
/// (`Error` always, `Warn` too when `deny_warnings`).
pub(crate) fn emit(diags: &[Diagnostic], deny_warnings: bool) -> usize {
    for d in diags {
        eprint!("{}", d.render());
    }
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error || deny_warnings)
        .count()
}
