//! Rule `lock-order`: the cross-crate lock acquisition graph must be
//! acyclic.
//!
//! Two tasks that take the same pair of locks in opposite orders can
//! deadlock; at workspace scale nobody holds the global order in their
//! head, so this rule extracts it. The analysis:
//!
//! 1. **Lock inventory** — every field/static/binding declared with a
//!    `Mutex<…>` or `RwLock<…>` type (or initialized via `Mutex::new`)
//!    contributes a lock *name*. Names are merged across crates: two
//!    fields both called `inner` become one graph node. That merging is
//!    the rule's deliberate over-approximation — it can only *add*
//!    edges, never hide one (see DESIGN.md §5f for the false-positive
//!    policy).
//! 2. **Acquisitions** — `recv.lock()`, `recv.read()`, `recv.write()`
//!    with *zero arguments* whose receiver's final identifier is a known
//!    lock name. (The zero-argument requirement keeps `MemoryRegion::
//!    write(offset, data)` and friends out.) `try_*` variants are
//!    ignored: a failed try-lock returns instead of blocking, so it
//!    cannot complete a deadlock cycle.
//! 3. **Held-set tracking** — a block-scoped walk of each fn body:
//!    `let g = x.lock()` holds `x` until `drop(g)` or the end of the
//!    enclosing block; an unbound `x.lock().f()` holds `x` to the end of
//!    the statement. Acquiring `B` while `A` is held adds edge `A → B`.
//! 4. **Interprocedural closure** — calling `g()` while holding `A`
//!    adds `A → L` for every lock `L` in `g`'s may-acquire set (computed
//!    to a fixpoint over a name-resolved call graph: same-crate
//!    candidates first, workspace-wide otherwise).
//! 5. **Cycle detection** — any strongly connected component with more
//!    than one lock (self-edges are excluded: re-acquiring the same
//!    name is usually a *different instance* — per-QP lanes — and a
//!    scope-insensitive self-edge would flag every drop-then-relock) is
//!    reported with its cycle path and one witness site per edge.
//!
//! Known-benign edges can be accepted in `lockorder.allow` with key
//! `edge::<A>-><B>`.

use crate::allowlist::Allowlist;
use crate::diag::Diagnostic;
use crate::lex::TokKind;
use crate::parse::SourceModel;
use crate::walk::crate_of;
use std::collections::{BTreeMap, BTreeSet};

/// Method names whose zero-arg calls acquire a lock.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Callee names never resolved through the call graph: trait plumbing
/// and container-shaped accessors implemented all over the workspace
/// that would wire unrelated code together by name (`.len()` on a `Vec`
/// must not resolve to `CompletionQueue::len`). A lock-taking helper
/// should not hide behind one of these names; DESIGN.md §5f records the
/// under-approximation.
const CALL_BLOCKLIST: &[&str] = &[
    "drop", "fmt", "clone", "default", "eq", "hash", "from", "len", "is_empty", "clear", "get",
    "get_mut", "next", "min", "max", "new", "find", "count", "contains",
];

/// One call site inside a fn body.
#[derive(Debug, Clone)]
struct Call {
    callee: String,
    line: usize,
    /// Locks held at the call.
    held: Vec<String>,
}

/// Per-function facts.
#[derive(Debug, Default)]
struct FnFacts {
    /// Edges (A held while acquiring B) with a witness line.
    edges: Vec<(String, String, usize)>,
    /// Locks this fn acquires directly.
    acquires: BTreeSet<String>,
    /// Calls made (with held-set context).
    calls: Vec<Call>,
}

/// A graph edge with one witness site.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    pub via: String,
}

/// Collect every declared lock name in `models`.
pub(crate) fn lock_names(models: &[&SourceModel]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for model in models {
        let toks = &model.toks;
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident
                || (toks[i].text != "Mutex" && toks[i].text != "RwLock")
            {
                continue;
            }
            // Walk back over path qualifiers (`parking_lot ::` etc.).
            let mut j = i;
            while j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
            }
            // `name : [path::]Mutex<…>` — field, static, or struct-literal
            // init (`lane: Mutex::new(..)`).
            if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].kind == TokKind::Ident {
                names.insert(toks[j - 2].text.clone());
                continue;
            }
            // `let name = [path::]Mutex::new(..)`.
            if j >= 3
                && toks[j - 1].text == "="
                && toks[j - 2].kind == TokKind::Ident
                && (toks[j - 3].text == "let" || toks[j - 3].text == "mut")
            {
                names.insert(toks[j - 2].text.clone());
            }
        }
    }
    names
}

/// Analyze one fn body: block-scoped held-set walk producing intra-fn
/// edges, the direct-acquire set, and call sites with held context.
fn analyze_fn(model: &SourceModel, body: (usize, usize), locks: &BTreeSet<String>) -> FnFacts {
    let toks = &model.toks;
    let mut facts = FnFacts::default();
    // Scope stack: each open block carries (bound, unbound) held locks.
    struct Scope {
        bound: Vec<(String, String)>, // (binding name, lock)
        unbound: Vec<String>,
    }
    let mut scopes: Vec<Scope> = vec![Scope {
        bound: Vec::new(),
        unbound: Vec::new(),
    }];
    let held = |scopes: &[Scope]| -> Vec<String> {
        scopes
            .iter()
            .flat_map(|s| {
                s.bound
                    .iter()
                    .map(|(_, l)| l.clone())
                    .chain(s.unbound.iter().cloned())
            })
            .collect()
    };
    let (start, end) = body;
    let mut i = start + 1;
    while i < end {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => scopes.push(Scope {
                bound: Vec::new(),
                unbound: Vec::new(),
            }),
            (TokKind::Punct, "}") if scopes.len() > 1 => {
                scopes.pop();
            }
            (TokKind::Punct, ";") => {
                // Statement end releases unbound guard temporaries in
                // the current scope.
                if let Some(s) = scopes.last_mut() {
                    s.unbound.clear();
                }
            }
            // `drop ( name )` releases a bound guard.
            (TokKind::Ident, "drop")
                if toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(i + 3).is_some_and(|t| t.text == ")") =>
            {
                let name = toks[i + 2].text.clone();
                for s in scopes.iter_mut() {
                    s.bound.retain(|(b, _)| *b != name);
                }
                i += 4;
                continue;
            }
            // `. lock ( )` / `. read ( )` / `. write ( )` acquisition.
            (TokKind::Ident, m)
                if ACQUIRE_METHODS.contains(&m)
                    && i >= 2
                    && toks[i - 1].text == "."
                    && toks[i - 2].kind == TokKind::Ident
                    && toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && toks.get(i + 2).is_some_and(|t| t.text == ")")
                    && locks.contains(&toks[i - 2].text) =>
            {
                let lock = toks[i - 2].text.clone();
                for h in held(&scopes) {
                    if h != lock {
                        facts.edges.push((h, lock.clone(), t.line));
                    }
                }
                facts.acquires.insert(lock.clone());
                // A chained guard — `m.lock().redistribute()` — is a
                // temporary dropped at the end of the statement, even
                // under `let r = …`: the binding captures the method's
                // result, not the guard.
                let chained = toks.get(i + 3).is_some_and(|t| t.text == ".");
                // Otherwise, bound by `let name = …`? Walk back across
                // the receiver chain to find the statement head.
                let mut j = i - 2;
                while j >= 2 && toks[j - 1].text == "." && toks[j - 2].kind == TokKind::Ident {
                    j -= 2;
                }
                let bound = if chained {
                    None
                } else if j >= 2 && toks[j - 1].text == "=" && toks[j - 2].kind == TokKind::Ident {
                    let name = toks[j - 2].text.clone();
                    let kw = if j >= 3 {
                        toks[j - 3].text.as_str()
                    } else {
                        ""
                    };
                    (kw == "let" || kw == "mut").then_some(name)
                } else {
                    None
                };
                let scope = scopes.last_mut().expect("scope stack never empty");
                match bound {
                    Some(b) => scope.bound.push((b, lock)),
                    None => scope.unbound.push(lock),
                }
                i += 3;
                continue;
            }
            // Plain or method call: `name (` not preceded by `fn`/`::<`.
            (TokKind::Ident, name)
                if toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && !CALL_BLOCKLIST.contains(&name)
                    && !is_keyword(name)
                    && (i == 0 || toks[i - 1].text != "fn") =>
            {
                let h = held(&scopes);
                if !h.is_empty() {
                    facts.calls.push(Call {
                        callee: name.to_string(),
                        line: t.line,
                        held: h,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "mut"
            | "move"
            | "in"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "Box"
            | "Vec"
            | "assert"
            | "debug_assert"
    )
}

/// Build the acquisition graph over all models and detect cycles.
pub fn check(models: &[&SourceModel], allow: &Allowlist) -> Vec<Diagnostic> {
    let locks = lock_names(models);
    // (crate, fn-name) -> facts; also fn-name -> [(crate, key)] index.
    let mut facts: BTreeMap<(String, String), FnFacts> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut edge_sites: BTreeMap<(String, String), Edge> = BTreeMap::new();

    for model in models {
        let krate = crate_of(&model.path).to_string();
        for f in &model.fns {
            if f.body_start >= f.end || model.in_test_region(f.start) {
                continue;
            }
            let ff = analyze_fn(model, (f.body_start, f.end), &locks);
            if ff.edges.is_empty() && ff.acquires.is_empty() && ff.calls.is_empty() {
                continue;
            }
            for (a, b, line) in &ff.edges {
                edge_sites.entry((a.clone(), b.clone())).or_insert(Edge {
                    from: a.clone(),
                    to: b.clone(),
                    file: model.path.clone(),
                    line: *line,
                    via: f.name.clone(),
                });
            }
            by_name
                .entry(f.name.clone())
                .or_default()
                .push((krate.clone(), f.name.clone()));
            // Calls need the model path for witness sites later.
            let key = (krate.clone(), f.name.clone());
            match facts.get_mut(&key) {
                Some(existing) => {
                    // Same fn name twice in a crate (impls for different
                    // types): merge conservatively.
                    existing.edges.extend(ff.edges);
                    existing.acquires.extend(ff.acquires);
                    existing.calls.extend(ff.calls);
                }
                None => {
                    facts.insert(key, ff);
                }
            }
        }
    }

    // May-acquire fixpoint: what locks can a call to (crate, fn) take,
    // transitively?
    let mut may: BTreeMap<(String, String), BTreeSet<String>> = facts
        .iter()
        .map(|(k, f)| (k.clone(), f.acquires.clone()))
        .collect();
    let resolve = |callee: &str, from_crate: &str| -> Vec<(String, String)> {
        let Some(cands) = by_name.get(callee) else {
            return Vec::new();
        };
        let same: Vec<_> = cands
            .iter()
            .filter(|(c, _)| c == from_crate)
            .cloned()
            .collect();
        if same.is_empty() {
            cands.clone()
        } else {
            same
        }
    };
    loop {
        let mut changed = false;
        for ((krate, name), f) in &facts {
            let mut add = BTreeSet::new();
            for call in &f.calls {
                for target in resolve(&call.callee, krate) {
                    if let Some(s) = may.get(&target) {
                        add.extend(s.iter().cloned());
                    }
                }
            }
            let entry = may.get_mut(&(krate.clone(), name.clone())).expect("seeded");
            let before = entry.len();
            entry.extend(add);
            if entry.len() != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Cross-fn edges: held A at a call whose target may-acquire B.
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for e in edge_sites.keys() {
        graph.entry(e.0.clone()).or_default().insert(e.1.clone());
    }
    for ((krate, name), f) in &facts {
        for call in &f.calls {
            for target in resolve(&call.callee, krate) {
                let Some(acq) = may.get(&target) else {
                    continue;
                };
                for h in &call.held {
                    for b in acq {
                        if h == b {
                            continue;
                        }
                        graph.entry(h.clone()).or_default().insert(b.clone());
                        edge_sites.entry((h.clone(), b.clone())).or_insert(Edge {
                            from: h.clone(),
                            to: b.clone(),
                            file: String::new(),
                            line: call.line,
                            via: format!("{name} -> {}", call.callee),
                        });
                    }
                }
            }
        }
    }

    // Drop allowlisted edges before cycle detection.
    for key in allow.entries.keys() {
        if let Some(rest) = key.strip_prefix("edge::") {
            if let Some((a, b)) = rest.split_once("->") {
                if let Some(set) = graph.get_mut(a.trim()) {
                    set.remove(b.trim());
                }
            }
        }
    }

    let mut diags = Vec::new();
    for cycle in find_cycles(&graph) {
        let path = cycle.join(" -> ");
        let mut d = Diagnostic::error(
            "lock-order",
            format!(
                "potential deadlock: lock acquisition cycle {path} -> {}",
                cycle[0]
            ),
        );
        for w in cycle.windows(2).chain(std::iter::once(
            &[cycle[cycle.len() - 1].clone(), cycle[0].clone()][..],
        )) {
            if let Some(e) = edge_sites.get(&(w[0].clone(), w[1].clone())) {
                let site = if e.file.is_empty() {
                    format!("via {}", e.via)
                } else {
                    format!("{}:{} in `{}`", e.file, e.line, e.via)
                };
                d = d.note(format!("{} -> {} ({site})", w[0], w[1]));
            }
        }
        d = d.note(
            "names are merged across crates (over-approximation); accept a benign edge \
             with `edge::A->B = why` in lockorder.allow",
        );
        diags.push(d);
    }
    for (key, line) in &allow.duplicates {
        diags.push(Diagnostic::warn(
            "lock-order",
            format!("duplicate lockorder.allow entry `{key}` (line {line})"),
        ));
    }
    diags
}

/// Minimal cycle enumeration: for each SCC of size > 1, report one cycle
/// through it (enough to act on; the graph is small).
fn find_cycles(graph: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    // Tarjan SCC.
    #[derive(Default)]
    struct St {
        index: BTreeMap<String, usize>,
        low: BTreeMap<String, usize>,
        on_stack: BTreeSet<String>,
        stack: Vec<String>,
        next: usize,
        sccs: Vec<Vec<String>>,
    }
    fn strong(v: &str, graph: &BTreeMap<String, BTreeSet<String>>, st: &mut St) {
        st.index.insert(v.to_string(), st.next);
        st.low.insert(v.to_string(), st.next);
        st.next += 1;
        st.stack.push(v.to_string());
        st.on_stack.insert(v.to_string());
        if let Some(succs) = graph.get(v) {
            for w in succs {
                if !st.index.contains_key(w) {
                    strong(w, graph, st);
                    let lw = st.low[w];
                    let lv = st.low.get_mut(v).expect("visited");
                    *lv = (*lv).min(lw);
                } else if st.on_stack.contains(w) {
                    let iw = st.index[w];
                    let lv = st.low.get_mut(v).expect("visited");
                    *lv = (*lv).min(iw);
                }
            }
        }
        if st.low[v] == st.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack.remove(&w);
                let done = w == v;
                scc.push(w);
                if done {
                    break;
                }
            }
            if scc.len() > 1 {
                scc.reverse();
                st.sccs.push(scc);
            }
        }
    }
    let mut st = St::default();
    let nodes: Vec<String> = graph.keys().cloned().collect();
    for v in &nodes {
        if !st.index.contains_key(v) {
            strong(v, graph, &mut st);
        }
    }
    st.sccs
}
