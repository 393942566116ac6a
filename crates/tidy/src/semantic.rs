//! The call-graph semantic rules: `memo-purity`, `rng-stream-discipline`
//! and `ordered-float-reduce`.
//!
//! These rules check the invariants DESIGN.md §7 promises — same seed +
//! same inputs ⇒ bit-identical output at every thread count, and memo-cache
//! hits that are indistinguishable from recomputation — properties no
//! per-line pattern can see because they live in *reachability*: a
//! `Instant::now()` three calls below a memoized compute closure poisons
//! the cache exactly as thoroughly as one written inline.
//!
//! All three rules are conservative over-approximations (see DESIGN.md
//! §10): method calls fan out to every workspace impl, unknown qualified
//! calls are treated as extern leaves, and expression analysis is
//! token-level. False positives go through `allowlist.toml` with a written
//! justification; false negatives are limited to code the parser cannot
//! attribute (macro bodies, function pointers passed as data).

use crate::callgraph::CallGraph;
use crate::parse::CallSite;
use crate::rules::{Violation, MEMO_PURITY, ORDERED_FLOAT_REDUCE, RNG_STREAM};

/// Names whose *call* marks the enclosing function as a memoization root:
/// `stem_par::Memo::get_or_compute`, the compute path behind every memo in
/// the workspace (timing cores, ground-truth totals, planning), and the
/// `get_or_insert` spelling of the same shape.
const MEMO_INSERT_FNS: [&str; 2] = ["get_or_insert", "get_or_compute"];

/// Run every semantic rule over the built graph.
pub fn check(graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    memo_purity(graph, &mut out);
    par_closure_rules(graph, &mut out);
    out
}

/// Extern leaf primitives that read ambient state. Returns a short label
/// when the call site is impure.
fn impure_extern(call: &CallSite) -> Option<String> {
    let qual = call.qual.last().map(String::as_str).unwrap_or("");
    let name = call.name.as_str();
    let hit = matches!(
        (qual, name),
        ("Instant" | "SystemTime", "now")
            | (
                "env",
                "var" | "var_os" | "vars" | "vars_os" | "args" | "args_os" | "temp_dir"
            )
            | ("OsRng", _)
            | (
                _,
                "thread_rng" | "from_entropy" | "getrandom" | "available_parallelism"
            )
    );
    hit.then(|| call.label())
}

/// `memo-purity`: everything reachable from a memo insert path must be
/// deterministic in its arguments — no clocks, no environment, no ambient
/// entropy, no `static mut`.
fn memo_purity(graph: &CallGraph, out: &mut Vec<Violation>) {
    let roots = graph.find(|f| {
        f.calls.iter().any(|c| {
            MEMO_INSERT_FNS.contains(&c.name.as_str())
                // Memoizing call sites pass a compute closure; this is what
                // separates them from same-named std methods such as
                // `Option::get_or_insert(value)`.
                && c.has_closure_arg
        })
            // The memo containers' own accessor methods are the mechanism,
            // not a computation being memoized.
            && !MEMO_INSERT_FNS.contains(&f.name.as_str())
    });
    if roots.is_empty() {
        return;
    }
    let visited = graph.reach(&roots);
    for (&node, _) in visited.iter() {
        let f = &graph.fns[node];
        let mut hits: Vec<(u32, String)> = Vec::new();
        for call in &graph.externs[node] {
            if let Some(label) = impure_extern(call) {
                hits.push((call.line, label));
            }
        }
        if f.has_static_mut {
            hits.push((f.line, "static mut".to_string()));
        }
        hits.sort();
        hits.dedup();
        for (line, label) in hits {
            out.push(Violation::new(
                &f.file,
                line as usize,
                MEMO_PURITY,
                format!(
                    "`{label}` is reachable from a memo-cache insert path; cached results must be \
                     pure in their fingerprint (call path: {} → {label})",
                    graph.path_to(&visited, node),
                ),
            ));
        }
    }
}

/// `rng-stream-discipline` + `ordered-float-reduce`: per-closure facts
/// collected by the parser at every `stem-par` primitive call site.
fn par_closure_rules(graph: &CallGraph, out: &mut Vec<Violation>) {
    for f in &graph.fns {
        // The par crate's own combinator bodies invoke each other
        // (`par_reduce_ordered` wraps `par_map_range`); the discipline
        // rules target *task* closures at use sites.
        if f.krate == "par" {
            continue;
        }
        for site in &f.par_sites {
            // Seed bindings chain: a binding is "blessed" when its
            // initializer goes through `split_seed` or an already-blessed
            // seed name.
            let mut blessed: Vec<String> = Vec::new();
            for s in &site.seed_lets {
                let chained = s.has_split_seed || s.idents.iter().any(|i| blessed.contains(i));
                if s.has_attempt {
                    out.push(Violation::new(
                        &f.file,
                        s.line as usize,
                        RNG_STREAM,
                        format!(
                            "seed `{}` in a `{}` task closure derives from the attempt counter; \
                             retried tasks must replay the *same* stream — derive from the task \
                             index via `stem_par::split_seed`",
                            s.name, site.primitive
                        ),
                    ));
                } else if !chained {
                    out.push(Violation::new(
                        &f.file,
                        s.line as usize,
                        RNG_STREAM,
                        format!(
                            "seed `{}` in a `{}` task closure is derived without \
                             `stem_par::split_seed`; ad-hoc arithmetic on a base seed risks \
                             stream collisions across tasks",
                            s.name, site.primitive
                        ),
                    ));
                } else {
                    blessed.push(s.name.clone());
                }
            }
            for c in &site.rng_ctors {
                let ok = c.has_split_seed || c.idents.iter().any(|i| blessed.contains(i));
                if c.has_attempt {
                    out.push(Violation::new(
                        &f.file,
                        c.line as usize,
                        RNG_STREAM,
                        format!(
                            "`{}` in a `{}` task closure seeds from the attempt counter; \
                             retries must replay the same stream",
                            c.name, site.primitive
                        ),
                    ));
                } else if !ok {
                    out.push(Violation::new(
                        &f.file,
                        c.line as usize,
                        RNG_STREAM,
                        format!(
                            "`{}` in a `{}` task closure does not derive its seed via \
                             `stem_par::split_seed(base, index)`",
                            c.name, site.primitive
                        ),
                    ));
                }
            }
            for (name, line) in &site.captured_assigns {
                out.push(Violation::new(
                    &f.file,
                    *line as usize,
                    ORDERED_FLOAT_REDUCE,
                    format!(
                        "compound assignment to captured `{name}` inside a `{}` task closure; \
                         parallel accumulation order is scheduling-dependent — return per-task \
                         values and fold them with `par_reduce_ordered` or a serial pass",
                        site.primitive
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        check(&CallGraph::build(&owned))
    }

    #[test]
    fn impure_reachable_from_memo_root_is_flagged_with_path() {
        let v = run(&[(
            "crates/sim/src/memo.rs",
            "
            pub fn warm(c: &Cache) -> f64 { c.get_or_insert(1, || compute(1)) }
            fn compute(k: u64) -> f64 { stamp() as f64 * k as f64 }
            fn stamp() -> u128 { std::time::Instant::now().elapsed().as_nanos() }
            ",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, MEMO_PURITY);
        assert_eq!(v[0].path, "crates/sim/src/memo.rs");
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("Instant::now"), "{}", v[0].message);
        assert!(v[0].message.contains(" → "), "{}", v[0].message);
    }

    #[test]
    fn pure_memo_chain_is_clean() {
        let v = run(&[(
            "crates/sim/src/memo.rs",
            "
            pub fn warm(c: &Cache) -> f64 { c.get_or_insert(1, || compute(1)) }
            fn compute(k: u64) -> f64 { (k as f64).sqrt() }
            pub fn unrelated() { std::time::Instant::now(); }
            ",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn seed_without_split_seed_in_task_closure() {
        let v = run(&[(
            "crates/core/src/eval.rs",
            "
            pub fn eval(base: u64, n: usize) {
                stem_par::par_map_range(p, 0, n, |r| {
                    let rep_seed = base.wrapping_add(r as u64);
                    rep_seed
                });
            }
            ",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RNG_STREAM);
        assert!(v[0].message.contains("split_seed"));
    }

    #[test]
    fn split_seed_chain_is_clean_and_attempt_is_not() {
        let v = run(&[(
            "crates/core/src/pipe.rs",
            "
            pub fn good(base: u64, n: usize) {
                stem_par::par_map_indexed(p, xs, |i, x| {
                    let seed = stem_par::split_seed(base, i as u64);
                    let rng_seed = seed ^ 1;
                    StdRng::seed_from_u64(rng_seed)
                });
            }
            pub fn bad(base: u64) {
                supervised_map_range(p, s, n, |ctx| {
                    let seed = stem_par::split_seed(base, ctx.attempt as u64);
                    seed
                });
            }
            ",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("attempt"), "{}", v[0].message);
    }

    #[test]
    fn captured_accumulation_in_par_closure() {
        let v = run(&[(
            "crates/cluster/src/pca.rs",
            "
            pub fn total(xs: &[f64]) -> f64 {
                let mut acc = 0.0;
                par_map_indexed(p, xs, |i, x| { acc += *x; *x });
                acc
            }
            pub fn fine(xs: &[f64]) -> Vec<f64> {
                par_map_indexed(p, xs, |i, x| { let mut row = 0.0; row += *x; row })
            }
            ",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, ORDERED_FLOAT_REDUCE);
        assert!(v[0].message.contains("`acc`"), "{}", v[0].message);
    }

    #[test]
    fn par_crate_combinator_bodies_exempt() {
        let v = run(&[(
            "crates/par/src/lib.rs",
            "
            pub fn par_reduce_ordered(p: P, n: usize) -> f64 {
                let mut acc = 0.0;
                par_map_range(p, 0, n, |i| i as f64);
                acc
            }
            ",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
