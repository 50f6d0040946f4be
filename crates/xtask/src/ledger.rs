//! The ledger and the size budget of the design documents, held by a
//! test in tier-1: `CHANGES.md` is a ledger of entries (`- PR N`,
//! `- FOUND`, `- MENDED`) of at most [`ENTRY_LINES`] lines, each line at
//! most [`LINE_CHARS`] characters, and [`DOCS`] together stay within
//! [`DOCS_BYTES`].

/// Lines an entry may run to, its first line included.
const ENTRY_LINES: usize = 15;
/// Characters a line of the ledger may hold.
const LINE_CHARS: usize = 120;
/// The documents under the size budget.
const DOCS: [&str; 3] = ["CHANGES.md", "DESIGN.md", "EXPERIMENTS.md"];
/// Bytes the three [`DOCS`] may hold together.
const DOCS_BYTES: usize = 252_000;

/// The name of the entry `line` opens (`PR 56`, `FOUND`, `MENDED`), if
/// it opens one.
fn entry_name(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("- ")?;
    let end = rest.find([':', ' ', '(']).unwrap_or(rest.len());
    match &rest[..end] {
        "PR" => {
            let digits = rest[3..].bytes().take_while(u8::is_ascii_digit).count();
            (digits > 0).then_some(&rest[..3 + digits])
        }
        name @ ("FOUND" | "MENDED") => Some(name),
        _ => None,
    }
}

/// What breaks the ledger's shape in `changes`, one message per fault,
/// naming the entry and the line.
fn ledger_faults(changes: &str) -> Vec<String> {
    let mut faults = Vec::new();
    // The open entry: its name, first line and last non-blank line.
    let mut open: Option<(&str, usize, usize)> = None;
    let close = |open: Option<(&str, usize, usize)>, faults: &mut Vec<String>| {
        let Some((name, first, last)) = open else {
            return;
        };
        let lines = last - first + 1;
        if lines > ENTRY_LINES {
            faults.push(format!(
                "CHANGES.md: line {first}: entry `{name}` runs {lines} lines (at most {ENTRY_LINES})"
            ));
        }
    };
    for (i, line) in changes.lines().enumerate() {
        let n = i + 1;
        if let Some(name) = entry_name(line) {
            close(open.take(), &mut faults);
            open = Some((name, n, n));
        } else if line.starts_with("- ") || line.starts_with('#') {
            close(open.take(), &mut faults);
        } else if let Some((_, _, last)) = &mut open {
            if !line.trim().is_empty() {
                *last = n;
            }
        }
        let chars = line.chars().count();
        if chars > LINE_CHARS {
            let within = open.map_or(String::new(), |(name, ..)| format!(" (entry `{name}`)"));
            faults.push(format!(
                "CHANGES.md: line {n}{within}: {chars} characters (at most {LINE_CHARS})"
            ));
        }
    }
    close(open, &mut faults);
    faults
}

/// The size fault of documents of `sizes` bytes (in [`DOCS`] order), if
/// they exceed [`DOCS_BYTES`].
fn size_fault(sizes: [usize; 3]) -> Option<String> {
    let total: usize = sizes.iter().sum();
    let each: Vec<String> = DOCS.iter().zip(sizes).map(|(d, b)| format!("{d} {b}")).collect();
    (total > DOCS_BYTES).then(|| {
        format!(
            "{} B together (at most {DOCS_BYTES}): {}",
            total,
            each.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in documents keep the ledger's shape and the budget.
    #[test]
    fn the_ledger_and_the_documents_keep_their_budgets() {
        let root = crate::walk::workspace_root();
        let read = |name: &str| {
            std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let docs = DOCS.map(read);
        let mut faults = ledger_faults(&docs[0]);
        faults.extend(size_fault(docs.each_ref().map(String::len)));
        assert!(faults.is_empty(), "\n{}", faults.join("\n"));
    }

    #[test]
    fn entries_are_named_by_their_first_line() {
        assert_eq!(entry_name("- PR 56 (ISSUE 56): the UD baseline"), Some("PR 56"));
        assert_eq!(entry_name("- PR 3: zero-allocation send path"), Some("PR 3"));
        assert_eq!(entry_name("- FOUND: `erpc::Endpoint`"), Some("FOUND"));
        assert_eq!(entry_name("- MENDED: `MrTable`"), Some("MENDED"));
        assert_eq!(entry_name("  - a sub-bullet"), None);
        assert_eq!(entry_name("- PR: no number"), None);
        assert_eq!(entry_name("- Pruned: item 28"), None);
    }

    #[test]
    fn a_long_entry_and_a_long_line_are_named() {
        let long = "x".repeat(LINE_CHARS + 1);
        let more = "  more\n".repeat(14);
        let text = format!("- PR 1: short\n- PR 2: long\n{more}\n- FOUND: {long}\n# heading\n{long}\n");
        assert_eq!(
            ledger_faults(&text),
            [
                "CHANGES.md: line 18 (entry `FOUND`): 130 characters (at most 120)",
                "CHANGES.md: line 20: 121 characters (at most 120)",
            ]
        );
        let over = format!("- PR 2: long\n{}", "  more\n".repeat(15));
        assert_eq!(
            ledger_faults(&over),
            ["CHANGES.md: line 1: entry `PR 2` runs 16 lines (at most 15)"]
        );
    }

    #[test]
    fn the_budget_counts_the_three_documents_together() {
        assert_eq!(size_fault([DOCS_BYTES - 2, 1, 1]), None);
        let fault = size_fault([DOCS_BYTES - 2, 2, 1]).expect("one byte over");
        assert!(fault.starts_with("252001 B together (at most 252000): CHANGES.md 251998"));
    }
}
