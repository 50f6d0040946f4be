//! Span recorder for the traced run.
//!
//! Spans are taken by benchmark code only — around a call into a layer,
//! or inside a handler closure the benchmark itself registered — pushed
//! into memory reserved before the run, and written out after it.
//! Recording reads the virtual clock and never charges or yields, so a
//! traced run takes exactly the scheduling decisions of an untraced one.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One recorded interval, in virtual ns.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran (`layer.call`).
    pub name: &'static str,
    /// Name of the span that caused this one; empty for a request's root.
    pub parent: &'static str,
    /// Request id, shared by every span of one operation.
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

// Relaxed: the flag is set once before the lab starts and publishes no
// other data (the span buffer has its own mutex).
static ON: AtomicBool = AtomicBool::new(false);
// Uncontended by construction: the lab runs one task at a time and no
// task yields inside `span`.
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Turn recording on with room for `capacity` spans.
pub fn enable(capacity: usize) {
    SPANS
        .lock()
        .expect("no panic while recording")
        .reserve(capacity);
    ON.store(true, Ordering::Relaxed);
}

/// Whether this run records spans.
#[inline]
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Record one span (no-op when tracing is off).
#[inline]
pub fn span(name: &'static str, parent: &'static str, req: u64, start: u64, end: u64) {
    if on() {
        SPANS.lock().expect("no panic while recording").push(Span {
            name,
            parent,
            req,
            start,
            end,
        });
    }
}

/// Take every recorded span, in recording order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("no panic while recording"))
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"parent\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.parent, s.req, s.start, s.end
        )?;
    }
    w.flush()
}
