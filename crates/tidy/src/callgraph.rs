//! Intra-workspace call graph over the parsed `fn` items.
//!
//! Resolution is deliberately conservative — when the target of a call is
//! ambiguous the graph over-approximates reachability, never under:
//!
//! * bare `name(...)` — same module, else same crate, else any workspace
//!   fn with that name, else extern;
//! * `Type::name(...)` (uppercase qualifier) — methods of that type only;
//!   if the type is known nowhere in the workspace the call is extern.
//!   There is no global-name fallback here: a derived-impl call such as
//!   `ClusterMemo::default()` must not resolve to some other type's
//!   `default`;
//! * `path::name(...)` (lowercase qualifier) — workspace fns whose crate
//!   or module path matches the qualifier segments (`crate`, `self`,
//!   `super` and `std` roots are handled; `stem_par` ⇒ crate `par`);
//! * `.name(...)` method call — every workspace method with that name,
//!   whatever the type (trait-dispatch fallback: all impls are assumed
//!   reachable), else extern.
//!
//! Extern calls are kept on each node so rules can match impure leaf
//! primitives (`Instant::now`, `env::var`, …) and report full call paths.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::parse::{parse_file, CallSite, FnItem};

/// The built graph: nodes are workspace `fn` items, edges are resolved
/// calls; unresolved calls stay on the node as extern labels.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnItem>,
    /// Outgoing workspace edges per node: `(callee index, call line)`.
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Unresolved calls per node: the original call site.
    pub externs: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Parse and link every `(path, text)` source file.
    pub fn build(files: &[(String, String)]) -> CallGraph {
        let mut fns: Vec<FnItem> = Vec::new();
        for (path, text) in files {
            fns.extend(parse_file(path, text).fns);
        }
        // Deterministic node order regardless of walk order.
        fns.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut methods: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
            if let Some(t) = &f.type_name {
                methods
                    .entry((t.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
            }
        }

        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); fns.len()];
        let mut externs: Vec<Vec<CallSite>> = vec![Vec::new(); fns.len()];
        for i in 0..fns.len() {
            for call in fns[i].calls.clone() {
                let targets = resolve(&fns, &by_name, &methods, i, &call);
                if targets.is_empty() {
                    externs[i].push(call);
                } else {
                    for t in targets {
                        if !edges[i].contains(&(t, call.line)) {
                            edges[i].push((t, call.line));
                        }
                    }
                }
            }
        }
        CallGraph {
            fns,
            edges,
            externs,
        }
    }

    /// Indices of fns satisfying `pred`.
    pub fn find<F: Fn(&FnItem) -> bool>(&self, pred: F) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| pred(&self.fns[i]))
            .collect()
    }

    /// BFS from `roots`; returns for each visited node the edge it was
    /// first reached through: `visited[node] = Some((parent, line))`, with
    /// roots mapped to `None`. Deterministic: nodes expand in index order.
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, Option<(usize, u32)>> {
        let mut seen: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut roots = roots.to_vec();
        roots.sort_unstable();
        for r in roots {
            if seen.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            let mut outs = self.edges[n].clone();
            outs.sort_unstable();
            for (callee, line) in outs {
                seen.entry(callee).or_insert_with(|| {
                    queue.push_back(callee);
                    Some((n, line))
                });
            }
        }
        seen
    }

    /// Render the call path `root → … → node` using the BFS parents, as
    /// `file:line id` steps joined by ` → `.
    pub fn path_to(&self, visited: &BTreeMap<usize, Option<(usize, u32)>>, node: usize) -> String {
        let mut steps: Vec<String> = Vec::new();
        let mut cur = node;
        loop {
            match visited.get(&cur) {
                Some(Some((parent, line))) => {
                    steps.push(format!(
                        "{}:{} {}",
                        self.fns[cur].file,
                        line,
                        self.fns[cur].id()
                    ));
                    cur = *parent;
                }
                _ => {
                    steps.push(format!(
                        "{}:{} {}",
                        self.fns[cur].file,
                        self.fns[cur].line,
                        self.fns[cur].id()
                    ));
                    break;
                }
            }
        }
        steps.reverse();
        steps.join(" → ")
    }

    /// Deterministic text dump: one block per fn (sorted by id), listing
    /// resolved workspace callees. Extern calls are omitted — the dump
    /// documents the *workspace* graph the semantic rules traverse.
    pub fn dump(&self) -> String {
        let mut order: Vec<usize> = (0..self.fns.len()).collect();
        order.sort_by_key(|&i| self.fns[i].id());
        let mut out = String::new();
        for i in order {
            let f = &self.fns[i];
            out.push_str(&format!("fn {} ({}:{})\n", f.id(), f.file, f.line));
            let mut callees: Vec<String> = self.edges[i]
                .iter()
                .map(|&(c, _)| {
                    format!(
                        "  -> {} ({}:{})\n",
                        self.fns[c].id(),
                        self.fns[c].file,
                        self.fns[c].line
                    )
                })
                .collect();
            callees.sort();
            callees.dedup();
            for c in callees {
                out.push_str(&c);
            }
        }
        out
    }
}

/// Map a source-path qualifier segment to a crate short name:
/// `stem_par` → `par`, `gpu_sim` → `sim`, `stem_core` → `core`.
fn crate_short(seg: &str) -> String {
    let s = seg.replace('-', "_");
    for prefix in ["stem_", "gpu_"] {
        if let Some(rest) = s.strip_prefix(prefix) {
            return rest.to_string();
        }
    }
    s
}

fn resolve(
    fns: &[FnItem],
    by_name: &HashMap<&str, Vec<usize>>,
    methods: &HashMap<(&str, &str), Vec<usize>>,
    caller: usize,
    call: &CallSite,
) -> Vec<usize> {
    let name = call.name.as_str();
    if call.method {
        // `.m(...)`: all workspace methods named m (conservative trait
        // dispatch), else extern.
        let mut out: Vec<usize> = Vec::new();
        for (&(_, m), idxs) in methods.iter() {
            if m == name {
                out.extend(idxs.iter().copied());
            }
        }
        out.sort_unstable();
        return out;
    }
    if call.qual.is_empty() {
        // Bare `name(...)`: same module, then same crate, then workspace.
        let candidates = by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
        let me = &fns[caller];
        // Free functions only at module scope; methods need a qualifier.
        let free: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| fns[i].type_name.is_none())
            .collect();
        for scope in [
            free.iter()
                .copied()
                .filter(|&i| fns[i].module == me.module)
                .collect::<Vec<_>>(),
            free.iter()
                .copied()
                .filter(|&i| fns[i].krate == me.krate)
                .collect::<Vec<_>>(),
            free,
        ] {
            if !scope.is_empty() {
                return scope;
            }
        }
        return Vec::new();
    }
    let mut last = call.qual.last().expect("non-empty qual").as_str();
    if last == "Self" {
        // `Self::helper()` inside an impl block: the caller's type.
        last = fns[caller].type_name.as_deref().unwrap_or("Self");
    }
    if last.chars().next().is_some_and(|c| c.is_uppercase()) {
        // `Type::name(...)`. Known type without that method ⇒ extern
        // (derived impls); unknown type ⇒ extern (std / primitive).
        return methods.get(&(last, name)).cloned().unwrap_or_default();
    }
    // Module-qualified path. Strip relative roots, map the first segment
    // through crate-name normalization, and require every remaining
    // segment to appear in the candidate's crate/module path.
    let segs: Vec<String> = call
        .qual
        .iter()
        .filter(|s| {
            !matches!(
                s.as_str(),
                "crate" | "self" | "super" | "std" | "core" | "alloc"
            )
        })
        .map(|s| crate_short(s))
        .collect();
    let candidates = by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let mut out: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| {
            let f = &fns[i];
            segs.iter().all(|seg| {
                f.krate == *seg
                    || f.module.split("::").any(|m| m == seg)
                    || f.type_name.as_deref() == Some(seg.as_str())
            })
        })
        .collect();
    // `crate::foo` / `super::foo` with no module segments left: restrict
    // to the caller's crate rather than the whole workspace.
    if segs.is_empty() {
        out.retain(|&i| fns[i].krate == fns[caller].krate);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        CallGraph::build(&owned)
    }

    fn idx(g: &CallGraph, id: &str) -> usize {
        g.find(|f| f.id() == id)
            .pop()
            .unwrap_or_else(|| panic!("no fn {id}"))
    }

    #[test]
    fn cross_module_and_cross_crate_edges() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "pub mod m;\npub fn top() { m::leaf(); }\n",
            ),
            ("crates/a/src/m.rs", "pub fn leaf() {}\n"),
            ("crates/b/src/lib.rs", "pub fn user() { stem_a::top(); }\n"),
        ]);
        let top = idx(&g, "a::top");
        let leaf = idx(&g, "a::m::leaf");
        let user = idx(&g, "b::user");
        assert!(g.edges[top].iter().any(|&(c, _)| c == leaf));
        assert!(g.edges[user].iter().any(|&(c, _)| c == top));
    }

    #[test]
    fn method_calls_fan_out_to_all_impls() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
            pub trait W { fn draw(&self); }
            pub struct S; impl W for S { fn draw(&self) { s_only(); } }
            pub struct C; impl W for C { fn draw(&self) { c_only(); } }
            fn s_only() {}
            fn c_only() {}
            pub fn run(w: &dyn W) { w.draw(); }
            ",
        )]);
        let run = idx(&g, "a::run");
        let callees: Vec<usize> = g.edges[run].iter().map(|&(c, _)| c).collect();
        assert!(callees.contains(&idx(&g, "a::S::draw")));
        assert!(callees.contains(&idx(&g, "a::C::draw")));
    }

    #[test]
    fn derived_impl_calls_stay_extern() {
        // `Memo::default()` with no parsed `default` must NOT resolve to
        // some other type's `default`.
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
            pub struct Memo;
            pub struct Par;
            impl Par { pub fn default() -> Par { ambient(); Par } }
            fn ambient() {}
            pub fn clone_memo() -> Memo { Memo::default() }
            ",
        )]);
        let cm = idx(&g, "a::clone_memo");
        assert!(g.edges[cm].is_empty(), "resolved: {:?}", g.edges[cm]);
        assert_eq!(g.externs[cm].len(), 1);
        assert_eq!(g.externs[cm][0].label(), "Memo::default");
    }

    #[test]
    fn reach_reports_shortest_paths() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
            pub fn root() { mid(); }
            fn mid() { leaf(); }
            fn leaf() { std::time::Instant::now(); }
            ",
        )]);
        let root = idx(&g, "a::root");
        let leaf = idx(&g, "a::leaf");
        let seen = g.reach(&[root]);
        assert!(seen.contains_key(&leaf));
        let path = g.path_to(&seen, leaf);
        assert!(path.contains("a::root → "), "{path}");
        assert!(path.ends_with("a::leaf"), "{path}");
        assert!(g.externs[leaf].iter().any(|c| c.label() == "Instant::now"));
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn b() { a(); }\npub fn a() {}\n",
        )]);
        let d = g.dump();
        let a_pos = d.find("fn a::a ").expect("a listed");
        let b_pos = d.find("fn a::b ").expect("b listed");
        assert!(a_pos < b_pos, "{d}");
        assert!(d.contains("  -> a::a (crates/a/src/lib.rs:2)"), "{d}");
    }
}
