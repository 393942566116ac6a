//! Lightweight item parser over the `tokens` stream.
//!
//! Extracts exactly the facts the semantic rules need and nothing more:
//! every `fn` item with its module path and `impl`/`trait` context, the
//! calls its body makes (path calls and method calls), whether the body
//! touches `static mut`, and — for the parallel-closure rules — each
//! `stem-par` primitive call site together with the RNG constructions,
//! seed bindings and captured compound-assignments inside its closure
//! argument.
//!
//! Items under `#[cfg(test)]` / `#[test]` are skipped entirely: test code
//! is allowed to be impure. The attribute and item boundaries come from
//! `tokens::attribute` and `tokens::item_end`, the same pair that gives
//! the line rules their test regions, so both passes agree on what is
//! test code.

use crate::tokens::{
    attribute, item_end, seek_body_or_semi, skip_balanced, tokenize, Body, Tok, TokKind,
};

/// A single parsed source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub fns: Vec<FnItem>,
}

/// One `fn` item (free function, inherent method, trait method or trait
/// default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// `impl` target type or `trait` name, when inside one.
    pub type_name: Option<String>,
    /// Module path, e.g. `sim::memo` (crate short name first).
    pub module: String,
    /// Crate short name (`sim`, `core`, `par`, …; the facade crate is `stem`).
    pub krate: String,
    pub file: String,
    pub line: u32,
    pub calls: Vec<CallSite>,
    pub has_static_mut: bool,
    pub par_sites: Vec<ParSite>,
}

impl FnItem {
    /// Stable display id: `module::Type::name` / `module::name`.
    pub fn id(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{}::{}::{}", self.module, t, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments before the called name (`["std", "time", "Instant"]`
    /// for `std::time::Instant::now(...)`; empty for bare and method calls).
    pub qual: Vec<String>,
    pub name: String,
    /// True for `.name(...)` method syntax.
    pub method: bool,
    /// True when the argument list contains a `|…|` closure literal —
    /// how memo-insert roots (`get_or_insert(key, || compute())`) are told
    /// apart from same-named std methods (`Option::get_or_insert(value)`).
    pub has_closure_arg: bool,
    pub line: u32,
}

impl CallSite {
    /// Human-readable label for diagnostics (`Instant::now`, `.clone`).
    pub fn label(&self) -> String {
        if self.method {
            format!(".{}", self.name)
        } else if let Some(last) = self.qual.last() {
            format!("{}::{}", last, self.name)
        } else {
            self.name.clone()
        }
    }
}

/// A call to one of the `stem-par` task primitives, with the facts
/// extracted from its closure argument.
#[derive(Debug, Clone)]
pub struct ParSite {
    /// Primitive name (`par_map_indexed`, `supervised_map_range`, …).
    pub primitive: String,
    pub line: u32,
    /// RNG constructions (`seed_from_u64` / `from_seed`) inside the closure.
    pub rng_ctors: Vec<SeedExpr>,
    /// `let` bindings whose bound name contains `seed`.
    pub seed_lets: Vec<SeedExpr>,
    /// Compound assignments (`+=` et al., incl. through `*deref`) whose
    /// target chain head is not bound inside the closure.
    pub captured_assigns: Vec<(String, u32)>,
}

/// An expression that produces or stores a seed / RNG, reduced to the
/// facts the discipline rule checks.
#[derive(Debug, Clone)]
pub struct SeedExpr {
    /// Bound name for lets; constructor name for RNG constructions.
    pub name: String,
    pub line: u32,
    /// All identifiers referenced by the expression.
    pub idents: Vec<String>,
    pub has_split_seed: bool,
    pub has_attempt: bool,
}

/// The task primitives whose closure arguments are subject to the
/// `rng-stream-discipline` and `ordered-float-reduce` rules.
pub const PAR_PRIMITIVES: [&str; 6] = [
    "par_map_range",
    "par_map_indexed",
    "par_reduce_ordered",
    "par_map_grouped",
    "supervised_map_range",
    "supervised_map_indexed",
];

/// Derive `(crate_short_name, module_path)` from a workspace-relative
/// file path. `crates/sim/src/memo.rs` → `("sim", "sim::memo")`;
/// `src/lib.rs` (the facade crate) → `("stem", "stem")`.
pub fn module_of(path: &str) -> (String, String) {
    let (krate, rest) = if let Some(rest) = path.strip_prefix("crates/") {
        let mut it = rest.splitn(2, '/');
        let dir = it.next().unwrap_or_default();
        (dir.to_string(), it.next().unwrap_or_default().to_string())
    } else {
        ("stem".to_string(), path.to_string())
    };
    let mut module = krate.clone();
    if let Some(inner) = rest.strip_prefix("src/") {
        for seg in inner.split('/') {
            let seg = seg.trim_end_matches(".rs");
            if seg.is_empty() || seg == "lib" || seg == "main" || seg == "mod" {
                continue;
            }
            module.push_str("::");
            module.push_str(seg);
        }
    }
    (krate, module)
}

/// Parse one file into its `fn` items.
pub fn parse_file(path: &str, src: &str) -> ParsedFile {
    let toks = tokenize(src).toks;
    let (krate, module) = module_of(path);
    let mut fns = Vec::new();
    parse_items(
        &toks,
        0,
        toks.len(),
        &Ctx {
            path,
            krate: &krate,
            module,
            type_name: None,
        },
        &mut fns,
    );
    ParsedFile {
        path: path.to_string(),
        fns,
    }
}

struct Ctx<'a> {
    path: &'a str,
    krate: &'a str,
    module: String,
    type_name: Option<String>,
}

/// Walk the items in `toks[start..end]`, recursing into `mod`, `impl` and
/// `trait` bodies, collecting `fn` items into `out`.
fn parse_items(toks: &[Tok], start: usize, end: usize, ctx: &Ctx<'_>, out: &mut Vec<FnItem>) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('#') => {
                i = match attribute(toks, i) {
                    // Test code may be impure: the whole item stays out.
                    Some((after, true)) => item_end(toks, after, end),
                    Some((after, false)) => after,
                    None => i + 1,
                };
            }
            TokKind::Ident => match t.text.as_str() {
                "mod" => {
                    let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident);
                    match seek_body_or_semi(toks, i + 1, end) {
                        Body::Braced(open) => {
                            let close = skip_balanced(toks, open);
                            if let Some(name) = name {
                                let sub = Ctx {
                                    path: ctx.path,
                                    krate: ctx.krate,
                                    module: format!("{}::{}", ctx.module, name.text),
                                    type_name: None,
                                };
                                parse_items(toks, open + 1, close - 1, &sub, out);
                            }
                            i = close;
                        }
                        Body::Semi(after) => i = after,
                    }
                }
                "impl" | "trait" => {
                    let is_trait = t.text == "trait";
                    match seek_body_or_semi(toks, i + 1, end) {
                        Body::Braced(open) => {
                            let close = skip_balanced(toks, open);
                            let ty = if is_trait {
                                toks.get(i + 1)
                                    .filter(|t| t.kind == TokKind::Ident)
                                    .map(|t| t.text.clone())
                            } else {
                                impl_target(&toks[i + 1..open])
                            };
                            let sub = Ctx {
                                path: ctx.path,
                                krate: ctx.krate,
                                module: ctx.module.clone(),
                                type_name: ty,
                            };
                            parse_items(toks, open + 1, close - 1, &sub, out);
                            i = close;
                        }
                        Body::Semi(after) => i = after,
                    }
                }
                "fn" => {
                    let (item, after) = parse_fn(toks, i, end, ctx);
                    out.extend(item);
                    i = after;
                }
                // Items with bodies or terminators we step over wholesale.
                "struct" | "enum" | "union" | "use" | "static" | "const" | "type" | "extern"
                | "macro_rules" => {
                    // `const fn` / `extern "C" fn` qualifiers: don't swallow
                    // the fn keyword.
                    let mut j = i + 1;
                    if j < end && toks[j].kind == TokKind::Lit {
                        j += 1; // the ABI string in `extern "C"`
                    }
                    if j < end && toks[j].is_ident("fn") {
                        i = j;
                        continue;
                    }
                    i = item_end(toks, i + 1, end);
                }
                _ => i += 1,
            },
            TokKind::Open(_) => i = skip_balanced(toks, i),
            _ => i += 1,
        }
    }
}

/// Target type of an `impl` header (the tokens between `impl` and `{`):
/// the last path identifier before the body for `impl Type`, or the first
/// path identifier after `for` in `impl Trait for Type`.
fn impl_target(header: &[Tok]) -> Option<String> {
    let for_pos = header.iter().position(|t| t.is_ident("for"));
    match for_pos {
        Some(p) => header[p + 1..]
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.text != "dyn")
            .map(|t| t.text.clone()),
        None => {
            // Last ident at angle-depth 0 (skips generic params).
            let mut angle = 0i64;
            let mut last = None;
            for t in header {
                match t.kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Ident if angle == 0 && t.text != "where" => {
                        last = Some(t.text.clone());
                    }
                    TokKind::Ident if angle == 0 && t.text == "where" => break,
                    _ => {}
                }
            }
            last
        }
    }
}

/// Parse a `fn` item starting at the `fn` keyword. Returns the item (None
/// for body-less trait signatures) and the index just past the item.
fn parse_fn(toks: &[Tok], fn_idx: usize, end: usize, ctx: &Ctx<'_>) -> (Option<FnItem>, usize) {
    let Some(name_tok) = toks.get(fn_idx + 1).filter(|t| t.kind == TokKind::Ident) else {
        return (None, fn_idx + 1);
    };
    match seek_body_or_semi(toks, fn_idx + 2, end) {
        Body::Semi(after) => (None, after),
        Body::Braced(open) => {
            let close = skip_balanced(toks, open);
            let body = &toks[open + 1..close.saturating_sub(1)];
            let mut item = FnItem {
                name: name_tok.text.clone(),
                type_name: ctx.type_name.clone(),
                module: ctx.module.clone(),
                krate: ctx.krate.to_string(),
                file: ctx.path.to_string(),
                line: name_tok.line,
                calls: Vec::new(),
                has_static_mut: false,
                par_sites: Vec::new(),
            };
            scan_body(body, &mut item);
            (Some(item), close)
        }
    }
}

/// Extract calls, `static mut` use and par-primitive sites from a body
/// token slice. Nested closures and nested fns are attributed to the
/// enclosing item — conservative and exactly what reachability wants.
fn scan_body(body: &[Tok], item: &mut FnItem) {
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_ident("static") && body.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            item.has_static_mut = true;
            i += 2;
            continue;
        }
        if t.kind == TokKind::Ident {
            // Collect a path `a::b::c` and check whether a call follows.
            let (segs, after) = take_path(body, i);
            let call_at = after_turbofish(body, after);
            if body
                .get(call_at)
                .is_some_and(|t| t.kind == TokKind::Open('('))
            {
                let name = segs.last().expect("non-empty path").clone();
                let line = body[i].line;
                let qual: Vec<String> = segs[..segs.len() - 1].to_vec();
                let close = skip_balanced(body, call_at);
                let args = &body[call_at + 1..close.saturating_sub(1)];
                if PAR_PRIMITIVES.contains(&name.as_str()) {
                    item.par_sites.push(scan_par_site(&name, line, args));
                }
                let has_closure_arg = args.iter().any(|t| t.is_punct('|'));
                item.calls.push(CallSite {
                    qual,
                    name,
                    method: false,
                    has_closure_arg,
                    line,
                });
            }
            i = after;
            continue;
        }
        if t.is_punct('.') {
            if let Some(m) = body.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let call_at = after_turbofish(body, i + 2);
                if body
                    .get(call_at)
                    .is_some_and(|t| t.kind == TokKind::Open('('))
                {
                    let close = skip_balanced(body, call_at);
                    let args = &body[call_at + 1..close.saturating_sub(1)];
                    if PAR_PRIMITIVES.contains(&m.text.as_str()) {
                        item.par_sites.push(scan_par_site(&m.text, m.line, args));
                    }
                    item.calls.push(CallSite {
                        qual: Vec::new(),
                        name: m.text.clone(),
                        method: true,
                        has_closure_arg: args.iter().any(|t| t.is_punct('|')),
                        line: m.line,
                    });
                }
                i += 2;
                continue;
            }
        }
        i += 1;
    }
}

/// Collect `ident(::ident)*` starting at an ident; returns (segments,
/// index just past the path).
fn take_path(toks: &[Tok], start: usize) -> (Vec<String>, usize) {
    let mut segs = vec![toks[start].text.clone()];
    let mut i = start + 1;
    while i + 2 < toks.len() + 1
        && toks.get(i).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        segs.push(toks[i + 2].text.clone());
        i += 3;
    }
    (segs, i)
}

/// Step over a turbofish `::<...>` if present, returning the index of the
/// token that follows it (or `i` unchanged).
fn after_turbofish(toks: &[Tok], i: usize) -> usize {
    if toks.get(i).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i64;
        let mut j = i + 2;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                TokKind::Open(_) => {
                    j = skip_balanced(toks, j);
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        j
    } else {
        i
    }
}

/// Extract the per-closure facts from a par-primitive argument list.
fn scan_par_site(primitive: &str, line: u32, args: &[Tok]) -> ParSite {
    let mut site = ParSite {
        primitive: primitive.to_string(),
        line,
        rng_ctors: Vec::new(),
        seed_lets: Vec::new(),
        captured_assigns: Vec::new(),
    };
    // Find the closure argument: `|params| body` (optionally `move`).
    // Scan at top level of the argument list for a `|`.
    let mut i = 0usize;
    while i < args.len() {
        match args[i].kind {
            TokKind::Open(_) => i = skip_balanced(args, i),
            // First top-level `|` opens the closure argument (the par
            // primitives take the closure last and no earlier argument in
            // this workspace uses bitwise-or).
            TokKind::Punct('|') => {
                // Closure params run to the matching `|`.
                let params_end = if args.get(i + 1).is_some_and(|t| t.is_punct('|')) {
                    i + 1 // `||` zero-param closure
                } else {
                    let mut j = i + 1;
                    while j < args.len() && !args[j].is_punct('|') {
                        if let TokKind::Open(_) = args[j].kind {
                            j = skip_balanced(args, j);
                        } else {
                            j += 1;
                        }
                    }
                    j
                };
                let mut bound: Vec<String> = args[i + 1..params_end.min(args.len())]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                    .map(|t| t.text.clone())
                    .collect();
                let body = &args[(params_end + 1).min(args.len())..];
                collect_bindings(body, &mut bound);
                scan_closure(body, &bound, &mut site);
                break;
            }
            _ => i += 1,
        }
    }
    site
}

/// Add every identifier bound by `let` / `for` patterns in `body` to
/// `bound`. Over-collecting (type names in annotations, enum constructors
/// in patterns) only makes the captured-assign rule more conservative.
fn collect_bindings(body: &[Tok], bound: &mut Vec<String>) {
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_ident("let") {
            let mut j = i + 1;
            while j < body.len() && !body[j].is_punct('=') && !body[j].is_punct(';') {
                if let TokKind::Open(_) = body[j].kind {
                    j = skip_balanced(body, j);
                    continue;
                }
                if body[j].kind == TokKind::Ident {
                    bound.push(body[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.is_ident("for") {
            let mut j = i + 1;
            while j < body.len() && !body[j].is_ident("in") {
                if body[j].kind == TokKind::Ident {
                    bound.push(body[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Scan a closure body for RNG constructions, seed lets and captured
/// compound assignments.
fn scan_closure(body: &[Tok], bound: &[String], site: &mut ParSite) {
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        // `let <pat with a *seed* name> = <expr>;`
        if t.is_ident("let") {
            let mut j = i + 1;
            let mut names: Vec<(String, u32)> = Vec::new();
            while j < body.len() && !body[j].is_punct('=') && !body[j].is_punct(';') {
                if let TokKind::Open(_) = body[j].kind {
                    j = skip_balanced(body, j);
                    continue;
                }
                if body[j].kind == TokKind::Ident && body[j].text.to_lowercase().contains("seed") {
                    names.push((body[j].text.clone(), body[j].line));
                }
                j += 1;
            }
            if body.get(j).is_some_and(|t| t.is_punct('=')) && !names.is_empty() {
                let init_end = stmt_end(body, j + 1);
                let (name, line) = names[0].clone();
                site.seed_lets
                    .push(seed_expr(name, line, &body[j + 1..init_end]));
                i = init_end;
                continue;
            }
            i = j;
            continue;
        }
        // RNG construction: `seed_from_u64(...)` / `from_seed(...)`.
        if t.kind == TokKind::Ident && (t.text == "seed_from_u64" || t.text == "from_seed") {
            if let Some(open) = next_call_open(body, i + 1) {
                let close = skip_balanced(body, open);
                site.rng_ctors.push(seed_expr(
                    t.text.clone(),
                    t.line,
                    &body[open + 1..close.saturating_sub(1)],
                ));
                i = close;
                continue;
            }
        }
        // Compound assignment: Punct(op) '=' where op ∈ {+,-,*,/}.
        if let TokKind::Punct('+' | '-' | '*' | '/') = t.kind {
            if body.get(i + 1).is_some_and(|n| n.is_punct('=')) {
                if let Some(head) = assign_chain_head(body, i) {
                    // Chain head bound inside the closure (param or local
                    // let/for binding) is fine; anything else — including
                    // `self.field` — is a captured accumulator.
                    if !bound.contains(&head.0) {
                        site.captured_assigns.push(head);
                    }
                }
                i += 2;
                continue;
            }
        }
        i += 1;
    }
}

/// End of the statement starting at `i`: index of the terminating `;` (or
/// end of slice), skipping balanced regions.
fn stmt_end(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(';') => return i,
            TokKind::Open(_) => i = skip_balanced(toks, i),
            _ => i += 1,
        }
    }
    i
}

/// Skip a turbofish then expect `(`; returns the open-paren index.
fn next_call_open(toks: &[Tok], i: usize) -> Option<usize> {
    let at = after_turbofish(toks, i);
    toks.get(at)
        .filter(|t| t.kind == TokKind::Open('('))
        .map(|_| at)
}

/// Walk backwards from the compound-assign operator at `op_idx` to the
/// head identifier of the assigned place expression: `a.b[i].c += _` → `a`;
/// `*total.lock().unwrap() += _` → `total`.
fn assign_chain_head(toks: &[Tok], op_idx: usize) -> Option<(String, u32)> {
    let mut j = op_idx;
    let mut head: Option<(String, u32)> = None;
    loop {
        if j == 0 {
            break;
        }
        j -= 1;
        match toks[j].kind {
            TokKind::Close(c) => {
                // Skip backward over the balanced region ending here.
                let closer = c;
                let opener = match closer {
                    ')' => '(',
                    ']' => '[',
                    _ => return head,
                };
                let mut depth = 1i64;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match toks[j].kind {
                        TokKind::Close(c2) if c2 == closer => depth += 1,
                        TokKind::Open(o) if o == opener => depth -= 1,
                        _ => {}
                    }
                }
            }
            TokKind::Ident => {
                head = Some((toks[j].text.clone(), toks[j].line));
                // Continue only through a `.` chain.
                if !(j > 0 && toks[j - 1].is_punct('.')) {
                    break;
                }
            }
            TokKind::Punct('.') | TokKind::Punct('*') => {}
            _ => break,
        }
    }
    head
}

/// Reduce an expression token slice to the seed-discipline facts.
fn seed_expr(name: String, line: u32, expr: &[Tok]) -> SeedExpr {
    let idents: Vec<String> = expr
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    let has_split_seed = idents.iter().any(|s| s == "split_seed");
    let has_attempt = idents
        .iter()
        .any(|s| s == "attempt" || s.ends_with("_attempt"));
    SeedExpr {
        name,
        line,
        idents,
        has_split_seed,
        has_attempt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modules_from_paths() {
        assert_eq!(
            module_of("crates/sim/src/memo.rs"),
            ("sim".into(), "sim::memo".into())
        );
        assert_eq!(
            module_of("crates/core/src/lib.rs"),
            ("core".into(), "core".into())
        );
        assert_eq!(module_of("src/lib.rs"), ("stem".into(), "stem".into()));
        assert_eq!(
            module_of("crates/par/src/sub/mod.rs"),
            ("par".into(), "par::sub".into())
        );
    }

    #[test]
    fn fns_with_impl_and_module_context() {
        let src = "
            pub struct W;
            impl W { pub fn go(&self) { helper(); } }
            impl Clone for W { fn clone(&self) -> W { W } }
            fn helper() {}
            mod inner { pub fn deep() { crate::helper(); } }
        ";
        let f = parse_file("crates/sim/src/x.rs", src);
        let ids: Vec<String> = f.fns.iter().map(|f| f.id()).collect();
        assert_eq!(
            ids,
            [
                "sim::x::W::go",
                "sim::x::W::clone",
                "sim::x::helper",
                "sim::x::inner::deep"
            ]
        );
        assert_eq!(f.fns[0].calls[0].name, "helper");
        assert_eq!(f.fns[3].calls[0].qual, vec!["crate".to_string()]);
    }

    #[test]
    fn test_items_are_skipped() {
        let src = "
            fn lib() {}
            #[cfg(test)]
            mod tests { fn t() { bad(); } }
            #[test]
            fn t2() { worse(); }
            fn lib2() {}
        ";
        let f = parse_file("crates/sim/src/x.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["lib", "lib2"]);
    }

    #[test]
    fn method_and_path_calls_collected() {
        let src = "fn f(x: &T) { x.validate(); std::time::Instant::now(); cfg.clone(); }";
        let f = parse_file("crates/sim/src/x.rs", src);
        let labels: Vec<String> = f.fns[0].calls.iter().map(|c| c.label()).collect();
        assert_eq!(labels, [".validate", "Instant::now", ".clone"]);
    }

    #[test]
    fn par_site_facts_extracted() {
        let src = "
            fn f(base: u64, xs: &[f64]) -> f64 {
                let mut acc = 0.0;
                stem_par::par_map_indexed(p, xs, |i, x| {
                    let rep_seed = base.wrapping_add(i as u64);
                    let mut rng = StdRng::seed_from_u64(rep_seed ^ 1);
                    acc += *x;
                    let mut local = 0.0;
                    local += rng.next();
                    local
                });
                acc
            }
        ";
        let f = parse_file("crates/core/src/x.rs", src);
        let site = &f.fns[0].par_sites[0];
        assert_eq!(site.primitive, "par_map_indexed");
        assert_eq!(site.seed_lets.len(), 1);
        assert!(!site.seed_lets[0].has_split_seed);
        assert_eq!(site.rng_ctors.len(), 1);
        assert_eq!(site.captured_assigns, vec![("acc".to_string(), 7)]);
    }

    #[test]
    fn split_seed_and_attempt_facts() {
        let src = "
            fn f(base: u64) {
                supervised_map_range(p, s, n, |ctx| {
                    let seed = stem_par::split_seed(base, ctx.index as u64);
                    let bad_seed = base.wrapping_mul(ctx.attempt as u64);
                    seed ^ bad_seed
                });
            }
        ";
        let f = parse_file("crates/core/src/x.rs", src);
        let site = &f.fns[0].par_sites[0];
        assert_eq!(site.seed_lets.len(), 2);
        assert!(site.seed_lets[0].has_split_seed);
        assert!(!site.seed_lets[0].has_attempt);
        assert!(site.seed_lets[1].has_attempt);
    }

    #[test]
    fn deref_lock_assign_head() {
        let src = "
            fn f(total: &Mutex<f64>, xs: &[f64]) {
                par_map_range(p, 0, xs.len(), |i| {
                    *total.lock().unwrap() += xs[i];
                    0u32
                });
            }
        ";
        let f = parse_file("crates/core/src/x.rs", src);
        let site = &f.fns[0].par_sites[0];
        assert_eq!(site.captured_assigns.len(), 1);
        assert_eq!(site.captured_assigns[0].0, "total");
    }
}
