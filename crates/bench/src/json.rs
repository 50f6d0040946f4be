//! The one JSON writer behind every `BENCH_*.json` (the offline
//! workspace has no serde). A document is a [`Value`] tree; rendering
//! owns commas and indentation, and every float carries its decimals, so
//! identical runs render byte-identical text and field order is the
//! order of construction.
//!
//! Objects and arrays render one member per line, two spaces per level;
//! an [`inline`] subtree renders on a single line — the row form of the
//! `points` / `tenants` / `crossover` tables.

use std::fmt::Write as _;

/// A JSON value with its layout.
#[derive(Debug)]
pub enum Value {
    Bool(bool),
    Int(u64),
    /// A float and the number of decimals it is printed with.
    Float(f64, usize),
    Str(String),
    Array(Vec<Value>),
    /// Fields in rendering order.
    Object(Vec<(&'static str, Value)>),
    /// The wrapped value, rendered on one line.
    Inline(Box<Value>),
}

/// `v` printed with exactly `decimals` decimals.
pub(crate) fn float(v: f64, decimals: usize) -> Value {
    Value::Float(v, decimals)
}

/// An object of `fields`, in that order.
pub(crate) fn object(fields: Vec<(&'static str, Value)>) -> Value {
    Value::Object(fields)
}

/// An array of `items`.
pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(items.into_iter().collect())
}

/// `v` on a single line.
pub fn inline(v: Value) -> Value {
    Value::Inline(Box::new(v))
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl Value {
    /// Render as a document: the value followed by a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `depth` is the indentation level of a multi-line value; `None`
    /// inside an inline subtree.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v, decimals) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            Value::Str(s) => write_str(out, s),
            Value::Inline(v) => v.write(out, None),
            Value::Array(items) => {
                let members = items.iter().map(|v| (None, v));
                write_members(out, depth, ['[', ']'], members);
            }
            Value::Object(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(*k), v));
                write_members(out, depth, ['{', '}'], members);
            }
        }
    }
}

/// The members of an array or object between `brackets`: one per line at
/// `depth + 1` when multi-line, `, `-separated when inline.
fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'static str>, &'a Value)>,
) {
    out.push(brackets[0]);
    let inner = depth.map(|d| d + 1);
    let last = members.len().saturating_sub(1);
    for (i, (key, v)) in members.enumerate() {
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        v.write(out, inner);
        if i < last {
            out.push_str(if inner.is_some() { "," } else { ", " });
        } else if let Some(d) = depth {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
    }
    out.push(brackets[1]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_objects_indent_and_the_last_member_has_no_comma() {
        let doc = object(vec![
            ("schema", "t/v1".into()),
            ("quick", true.into()),
            (
                "inner",
                object(vec![
                    ("a", 1u64.into()),
                    ("b", object(vec![("c", 2u64.into())])),
                ]),
            ),
            ("last", 3u64.into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"t/v1\",\n  \"quick\": true,\n  \"inner\": {\n    \"a\": 1,\n    \
             \"b\": {\n      \"c\": 2\n    }\n  },\n  \"last\": 3\n}\n"
        );
    }

    #[test]
    fn floats_print_with_exactly_their_decimals() {
        let doc = inline(array([
            float(2768805.4, 0),
            float(1.0, 2),
            float(0.12345, 3),
            float(2.0 / 3.0, 4),
        ]));
        assert_eq!(doc.render(), "[2768805, 1.00, 0.123, 0.6667]\n");
    }

    #[test]
    fn inline_rows_sit_one_per_line_inside_a_multi_line_array() {
        let row = |c: u64| {
            inline(object(vec![
                ("clients", c.into()),
                ("series", array([object(vec![("rpc", float(1.5, 0))])])),
            ]))
        };
        let doc = object(vec![
            ("points", array([row(4), row(16)])),
            ("n", 2u64.into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"points\": [\n    {\"clients\": 4, \"series\": [{\"rpc\": 2}]},\n    \
             {\"clients\": 16, \"series\": [{\"rpc\": 2}]}\n  ],\n  \"n\": 2\n}\n"
        );
    }

    #[test]
    fn empty_containers_and_escapes() {
        let doc = object(vec![
            ("none", array([])),
            ("also", object(vec![])),
            ("s", "a\"b\\c\n".into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"none\": [],\n  \"also\": {},\n  \"s\": \"a\\\"b\\\\c\\u000a\"\n}\n"
        );
    }
}
