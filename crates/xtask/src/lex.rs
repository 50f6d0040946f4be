//! A minimal Rust lexer for the invariant linter.
//!
//! The build environment is fully offline (no `syn`/`proc-macro2` in the
//! registry — see `[patch.crates-io]`), so `cargo xtask lint` carries its
//! own token layer: enough of the Rust lexical grammar to walk real
//! source reliably — nested block comments, raw/byte strings, char
//! literals vs. lifetimes, `::` path separators — without pretending to
//! be a full parser. Comments are preserved out-of-band (the SAFETY rule
//! needs them); everything else becomes a flat token stream with line
//! numbers that `parse` turns into a structural model.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `Mutex`, …).
    Ident,
    /// Punctuation. `::` is fused into one token; everything else is a
    /// single character.
    Punct,
    /// String/char/numeric literal (content not preserved verbatim for
    /// strings; the linter never needs to look inside).
    Literal,
    /// A lifetime such as `'a` (kept distinct so `'a'` char literals
    /// and lifetimes can't be confused downstream).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

/// One comment (line or block), 1-based starting line, text without the
/// delimiters.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: usize,
    pub text: String,
}

/// Lexer output: the token stream plus all comments.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments. Never fails: unrecognized bytes
/// are skipped (the linter runs over code rustc already accepted).
pub(crate) fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = b.len();
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i + 2;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: b[start..i].iter().collect(),
                });
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: b[start..end].iter().collect(),
                });
            }
            '"' => {
                i = skip_string(&b, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("\"\""),
                    line,
                });
            }
            'r' | 'b' if is_raw_or_byte_string(&b, i) => {
                let l0 = line;
                i = skip_raw_or_byte_string(&b, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("\"\""),
                    line: l0,
                });
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is `'ident` NOT
                // followed by a closing quote; `'a'`, `'\n'`, `'('` are
                // char literals.
                if i + 1 < n && (b[i + 1].is_alphabetic() || b[i + 1] == '_') {
                    // Find the end of the ident run.
                    let mut j = i + 1;
                    while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' && j == i + 2 {
                        // `'x'` — a one-char literal.
                        out.toks.push(Tok {
                            kind: TokKind::Literal,
                            text: String::from("''"),
                            line,
                        });
                        i = j + 1;
                    } else {
                        out.toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text: b[i..j].iter().collect(),
                            line,
                        });
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: `'\n'`, `'('`.
                    let mut j = i + 1;
                    if j < n && b[j] == '\\' {
                        j += 2;
                        // `'\x7f'`, `'\u{...}'`: scan to the quote.
                        while j < n && b[j] != '\'' {
                            j += 1;
                        }
                    } else if j < n {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Literal,
                        text: String::from("''"),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                // `r#ident` raw identifiers come through the `r` branch
                // only when followed by a quote; `r#fn` lands here as
                // `r` — patch it up.
                let mut text: String = b[start..i].iter().collect();
                if text == "r"
                    && i + 1 < n
                    && b[i] == '#'
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                {
                    i += 1;
                    let s2 = i;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    text = b[s2..i].iter().collect();
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                while i < n && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Stop a float scan from eating a method call:
                    // `1.max(2)` — only consume '.' when followed by a
                    // digit.
                    if b[i] == '.' && !(i + 1 < n && b[i + 1].is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("0"),
                    line,
                });
            }
            ':' if i + 1 < n && b[i + 1] == ':' => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: String::from("::"),
                    line,
                });
                i += 2;
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Whether position `i` (at `r` or `b`) starts a raw or byte string:
/// `r"`, `r#`, `b"`, `br"`, `br#`, `b'`.
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let n = b.len();
    match b[i] {
        'r' => {
            let mut j = i + 1;
            while j < n && b[j] == '#' {
                j += 1;
            }
            // `r#ident` (raw identifier) has exactly one '#' and then an
            // ident char, not a quote.
            j < n && b[j] == '"'
        }
        'b' => {
            if i + 1 >= n {
                return false;
            }
            match b[i + 1] {
                '"' | '\'' => true,
                'r' => {
                    let mut j = i + 2;
                    while j < n && b[j] == '#' {
                        j += 1;
                    }
                    j < n && b[j] == '"'
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Skip a plain `"..."` string starting at the opening quote; returns
/// the index one past the closing quote.
fn skip_string(b: &[char], i: usize, line: &mut usize) -> usize {
    let n = b.len();
    let mut j = i + 1;
    while j < n {
        match b[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Skip `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, or `b'…'` starting at the
/// `r`/`b`; returns the index one past the closing delimiter.
fn skip_raw_or_byte_string(b: &[char], i: usize, line: &mut usize) -> usize {
    let n = b.len();
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j < n && b[j] == '\'' {
            // Byte char literal `b'x'` / `b'\n'`.
            j += 1;
            if j < n && b[j] == '\\' {
                j += 1;
            }
            while j < n && b[j] != '\'' {
                j += 1;
            }
            return (j + 1).min(n);
        }
    }
    let raw = j < n && b[j] == 'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < n && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < n && b[j] == '"');
    j += 1; // opening quote
    while j < n {
        match b[j] {
            '\\' if !raw => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => {
                // Need `hashes` trailing '#'s to close a raw string.
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < n && b[k] == '#' && seen < hashes {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return k;
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}
