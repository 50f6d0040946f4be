//! Rule `hot-alloc`: the declared hot paths must not reach heap
//! allocations.
//!
//! PR 3 proved the steady-state send path allocation-free with a
//! counting global allocator; that proof is *dynamic* — it holds for the
//! workload the test runs. This rule makes it static: from each declared
//! entry point (TCQ join/publish, CQ poll, the dispatch inner loop, the
//! NIC lane step) it walks the local call graph and flags every
//! reachable allocation-shaped expression. Deliberate allocations
//! (one-time startup before the loop, cold error/teardown arms, pool
//! refills) are justified in `hotpath.allow`.
//!
//! Call-graph resolution is name-based — same-crate candidates first,
//! workspace-wide otherwise — and bounded to [`MAX_DEPTH`] hops, both
//! over-approximations documented in DESIGN.md §5f.

use crate::allowlist::Allowlist;
use crate::diag::Diagnostic;
use crate::lex::TokKind;
use crate::parse::SourceModel;
use crate::walk::crate_of;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Declared hot-path entry points: (file suffix, fn name).
pub(crate) const ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/core/src/tcq.rs", "join"),
    ("crates/core/src/tcq.rs", "join_with"),
    ("crates/core/src/tcq.rs", "complete"),
    // Both directions of every lane's ring protocol. The client leader's
    // flush is reachable from no other entry point: `join_with` returns
    // before it runs.
    ("crates/core/src/ring.rs", "try_send"),
    ("crates/core/src/ring.rs", "poll_into"),
    ("crates/fabric/src/cq.rs", "poll"),
    ("crates/fabric/src/cq.rs", "poll_one"),
    ("crates/fabric/src/cq.rs", "push"),
    // The service loops' bodies (`clock::spawn_stepper` steps): one
    // dispatch-shard sweep, one NIC lane verb.
    ("crates/core/src/server.rs", "step"),
    ("crates/fabric/src/nic.rs", "step"),
    // Elastic control plane: churn makes lease/release warm-path — a
    // reconnecting client must hit the pooled free-list, not the
    // allocator. Cold-path refills are justified in hotpath.allow.
    ("crates/fabric/src/fabric.rs", "lease_qp"),
    ("crates/fabric/src/fabric.rs", "release_qp"),
    // Gateway edge loop: every tenant request flows through the
    // decode/dispatch pump, making it hot-path by construction; the
    // session reuses its decode scratch, so steady-state pumping must
    // not allocate per request.
    ("crates/gateway/src/edge.rs", "pump"),
    // One-sided read loop: a READ + validate per GET — the whole point
    // is zero server CPU and one verb, so the client side must not pay
    // the allocator either (the reader owns its scratch MR slice and
    // the caller's landing buffer is reused).
    ("crates/core/src/onesided.rs", "read_slot"),
    // ALock acquire: a lock-service client takes this on every
    // critical section; local handoff is the fast path and must stay
    // allocation-free (the remote CAS leg's WR posting reuses TCQ
    // slots).
    ("crates/core/src/alock.rs", "acquire"),
    // Every state change a waiter looks for is announced, so a notify
    // runs as often as the hot paths above; under the lab it hands the
    // event's parked waiters back to the run queue, which must neither
    // allocate nor hash. (The lab's own scheduler, `crates/sim`, is left
    // out of call resolution: `notified` is scanned, its callees not.)
    ("crates/sync/src/clock.rs", "notify_all"),
    ("crates/sim/src/vtime.rs", "notified"),
];

/// Maximum call-graph depth explored from an entry point.
pub(crate) const MAX_DEPTH: usize = 4;

/// `prefix :: name` allocation constructors.
const QUALIFIED: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "from"),
    ("String", "new"),
];

/// Method calls / macros that allocate.
const METHODS: &[&str] = &["to_vec", "to_owned", "to_string"];
const MACROS: &[&str] = &["vec", "format"];

/// Callee names excluded from call-graph traversal: ubiquitous
/// container/trait names (`.push()` on a `Vec` must not resolve to
/// `CompletionQueue::push`) plus the clock seam's executor dispatch
/// (`charge`/`advance` lead into simulator bookkeeping, which allocates
/// by design and is not a production hot path). An allocation hidden
/// behind a fn with one of these names is out of scope — DESIGN.md §5f
/// records the under-approximation.
const CALLEE_BLOCKLIST: &[&str] = &[
    "drop",
    "fmt",
    "clone",
    "default",
    "eq",
    "hash",
    "from",
    "new",
    "with_capacity",
    "len",
    "is_empty",
    "clear",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "iter",
    "next",
    "take",
    "replace",
    "extend",
    "min",
    "max",
    "find",
    "count",
    "position",
    "charge",
    "flush_charge",
    "advance",
    // Atomic methods: `x.load(Ordering::…)` must not resolve to a
    // workspace fn named `load` (e.g. the kvstore bulk loader).
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One allocation site found in a hot fn.
struct AllocSite {
    key: String,
    file: String,
    line: usize,
    pattern: String,
    /// Entry point and call chain that reaches this fn.
    chain: String,
}

/// Scan one fn body for allocation-shaped expressions.
fn alloc_sites(
    model: &SourceModel,
    body: (usize, usize),
    fn_name: &str,
    chain: &str,
    ordinals: &mut BTreeMap<(String, String), usize>,
) -> Vec<AllocSite> {
    let toks = &model.toks;
    let mut out = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        let t = &toks[i];
        let pattern: Option<String> = if t.kind == TokKind::Ident {
            QUALIFIED
                .iter()
                .find(|(q, name)| {
                    t.text == *q
                        && toks.get(i + 1).is_some_and(|n| n.text == "::")
                        && toks.get(i + 2).is_some_and(|n| n.text == *name)
                })
                .map(|(q, name)| format!("{q}::{name}"))
                .or_else(|| {
                    (METHODS.contains(&t.text.as_str()) && i >= 1 && toks[i - 1].text == ".")
                        .then(|| t.text.clone())
                })
                .or_else(|| {
                    (MACROS.contains(&t.text.as_str())
                        && toks.get(i + 1).is_some_and(|n| n.text == "!"))
                    .then(|| format!("{}!", t.text))
                })
        } else {
            None
        };
        if let Some(pattern) = pattern {
            if !model.in_test_region(i) {
                let n = ordinals
                    .entry((fn_name.to_string(), pattern.clone()))
                    .or_insert(0);
                *n += 1;
                out.push(AllocSite {
                    key: format!("{}::{}::{}#{}", model.path, fn_name, pattern, n),
                    file: model.path.clone(),
                    line: t.line,
                    pattern,
                    chain: chain.to_string(),
                });
            }
        }
        i += 1;
    }
    out
}

/// Call sites (simple callee names) inside a fn body.
fn callees(model: &SourceModel, body: (usize, usize)) -> BTreeSet<String> {
    let toks = &model.toks;
    let mut out = BTreeSet::new();
    for i in body.0..body.1 {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !(i >= 1 && toks[i - 1].text == "fn")
            && !CALLEE_BLOCKLIST.contains(&t.text.as_str())
        {
            out.insert(t.text.clone());
        }
    }
    out
}

/// Check all models against the allowlist.
pub fn check(models: &[&SourceModel], allow: &Allowlist) -> (Vec<Diagnostic>, Vec<String>) {
    check_with_entries(models, allow, ENTRY_POINTS)
}

/// Entry-point-parameterized variant (fixtures use synthetic entries).
pub fn check_with_entries(
    models: &[&SourceModel],
    allow: &Allowlist,
    entries: &[(&str, &str)],
) -> (Vec<Diagnostic>, Vec<String>) {
    // Index: (crate, fn-name) -> (model idx, fn idx); name -> keys.
    // The simulator crate is excluded from resolution: it intentionally
    // allocates (event queues, task bookkeeping) and only runs under
    // VirtualLab, never on a production hot path.
    let mut index: BTreeMap<(String, String), Vec<(usize, usize)>> = BTreeMap::new();
    for (mi, model) in models.iter().enumerate() {
        if model.path.starts_with("crates/sim/") {
            continue;
        }
        let krate = crate_of(&model.path).to_string();
        for (fi, f) in model.fns.iter().enumerate() {
            if f.body_start >= f.end || model.in_test_region(f.start) {
                continue;
            }
            index
                .entry((krate.clone(), f.name.clone()))
                .or_default()
                .push((mi, fi));
        }
    }
    let resolve = |name: &str, from_crate: &str| -> Vec<(usize, usize)> {
        let same = index
            .get(&(from_crate.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        if !same.is_empty() {
            return same;
        }
        index
            .iter()
            .filter(|((_, n), _)| n == name)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect()
    };

    // BFS from each entry point.
    let mut sites: Vec<AllocSite> = Vec::new();
    let mut ordinals: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut seen_fn_site: BTreeSet<String> = BTreeSet::new();
    for (file_suffix, entry) in entries {
        let Some((mi0, fi0)) = models.iter().enumerate().find_map(|(mi, m)| {
            if !m.path.ends_with(file_suffix) {
                return None;
            }
            m.fns
                .iter()
                .position(|f| f.name == *entry && f.body_start < f.end)
                .map(|fi| (mi, fi))
        }) else {
            continue;
        };
        let mut queue: VecDeque<(usize, usize, usize, String)> = VecDeque::new();
        queue.push_back((mi0, fi0, 0, entry.to_string()));
        let mut visited: BTreeSet<(usize, usize)> = BTreeSet::new();
        visited.insert((mi0, fi0));
        while let Some((mi, fi, depth, chain)) = queue.pop_front() {
            let model = models[mi];
            let f = &model.fns[fi];
            let body = (f.body_start, f.end);
            // Each (fn, entry-chain) only reported once globally: two
            // entry points reaching the same alloc produce one finding.
            let fn_id = format!("{}::{}", model.path, f.name);
            if seen_fn_site.insert(fn_id) {
                sites.extend(alloc_sites(model, body, &f.name, &chain, &mut ordinals));
            }
            if depth >= MAX_DEPTH {
                continue;
            }
            let krate = crate_of(&model.path).to_string();
            for callee in callees(model, body) {
                for (cmi, cfi) in resolve(&callee, &krate) {
                    if visited.insert((cmi, cfi)) {
                        queue.push_back((cmi, cfi, depth + 1, format!("{chain} -> {callee}")));
                    }
                }
            }
        }
    }

    let mut diags = Vec::new();
    let mut missing = Vec::new();
    let mut all_keys = Vec::new();
    for s in &sites {
        all_keys.push(s.key.clone());
        match allow.get(&s.key) {
            None => {
                diags.push(
                    Diagnostic::error(
                        "hot-alloc",
                        format!("`{}` reachable from a hot-path entry point", s.pattern),
                    )
                    .at(&s.file, s.line)
                    .snippet(
                        models
                            .iter()
                            .find(|m| m.path == s.file)
                            .map(|m| m.line_text(s.line))
                            .unwrap_or(""),
                    )
                    .note(format!("reached via {}", s.chain))
                    .note(format!("key: {}", s.key))
                    .note("hoist the allocation out of the hot path or justify in hotpath.allow"),
                );
                missing.push(s.key.clone());
            }
            Some("TODO") => {
                diags.push(
                    Diagnostic::error(
                        "hot-alloc",
                        format!("TODO justification for `{}`", s.pattern),
                    )
                    .at(&s.file, s.line)
                    .note(format!("key: {}", s.key)),
                );
            }
            Some(_) => {}
        }
    }
    for key in allow.entries.keys() {
        if !all_keys.iter().any(|k| k == key) {
            diags.push(Diagnostic::warn(
                "hot-alloc",
                format!("stale hotpath.allow entry `{key}` (site no longer reachable)"),
            ));
        }
    }
    for (key, line) in &allow.duplicates {
        diags.push(Diagnostic::warn(
            "hot-alloc",
            format!("duplicate hotpath.allow entry `{key}` (line {line})"),
        ));
    }
    (diags, missing)
}
