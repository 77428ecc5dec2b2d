//! The source rule families: R2 (NaN-safe comparisons), R6
//! (determinism), R7 (float-reduction order) and R8 (concurrency
//! discipline). All run over a [`FileContext`] — the lexed token stream
//! plus import resolution, binding tracking, statement extents and
//! parallel-region spans — so they see through line breaks, comments and
//! string literals.
//!
//! Why these rules exist: every speedup since the incremental-solver PR
//! is justified by bit-identity between optimized and reference paths. A
//! stray `HashMap` iteration feeding a float sum, a wall-clock read in a
//! decision path, or an ad-hoc lock in a worker closure silently breaks
//! that reproducibility in ways tests only catch when the thread schedule
//! happens to differ. These checks reject the *constructs*, so the
//! property holds by construction; deliberate exceptions go through the
//! R9 suppression ledger.

use crate::lexer::TokenKind;
use crate::scopes::{is_float_literal, FileContext};
use crate::RuleId;

/// One semantic finding before path/suppression filtering: 1-based line,
/// rule, message.
pub type SemFinding = (usize, RuleId, String);

/// Hash-collection methods that observe iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Tokens that make an iteration-order-dependent chain order-*independent*
/// again within the same statement: sorting, collecting into an ordered
/// container, or reducing with an order-insensitive operation.
const ORDER_NORMALIZERS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "len",
    "is_empty",
    "all",
    "any",
    "contains",
    "contains_key",
];

/// `std::sync` items whose presence outside the pool violates R8. `Arc`
/// and `Weak` are exempt: immutable sharing has no ordering side.
fn is_forbidden_sync_path(path: &str) -> bool {
    path.strip_prefix("std::sync::").is_some_and(|rest| {
        let head = rest.split("::").next().unwrap_or(rest);
        head != "Arc" && head != "Weak"
    })
}

/// Which rule families apply to the file being checked (R2 applies to
/// every file).
#[derive(Debug, Clone, Copy)]
pub struct Applicability {
    /// R6 hash/env and R7: decision-path crates and modules.
    pub decision_path: bool,
    /// R6 time: false inside the obs/bench timing whitelist.
    pub wall_clock_banned: bool,
    /// R8: false inside `bench::pool` (the one sanctioned home of
    /// std::sync primitives).
    pub concurrency_banned: bool,
}

/// Runs R2 + R6 + R7 + R8 over one analyzed file. Line-level exemptions
/// (test regions, allow markers) are applied by the caller.
pub fn check_file(ctx: &FileContext, app: Applicability) -> Vec<SemFinding> {
    let mut findings = Vec::new();
    // Statement ranges already claimed by an R7 finding: R6 skips these so
    // one defect yields the sharper diagnostic, not two overlapping ones.
    let mut r7_statements: Vec<(usize, usize)> = Vec::new();

    check_nan_safety(ctx, &mut findings);
    if app.decision_path {
        check_float_reductions(ctx, &mut findings, &mut r7_statements);
        check_hash_iteration(ctx, &r7_statements, &mut findings);
        check_env_dependence(ctx, &mut findings);
    }
    if app.wall_clock_banned {
        check_wall_clock(ctx, &mut findings);
    }
    if app.concurrency_banned {
        check_concurrency(ctx, &mut findings);
    }
    findings.sort_by(|a, b| (a.0, a.1.id()).cmp(&(b.0, b.1.id())));
    findings
}

/// Methods that collapse `partial_cmp`'s `Option<Ordering>` into an
/// ordering: `unwrap` panics on the `None` a NaN operand yields, the
/// other two substitute a fixed answer for it.
const UNWRAPS: &[&str] = &["unwrap", "unwrap_or", "unwrap_or_else"];

/// R2 — NaN-safety: a `partial_cmp` whose statement goes on to call
/// `unwrap`, `unwrap_or` or `unwrap_or_else` panics on, or silently
/// misorders, a NaN operand. Require `f64::total_cmp` or an explicit
/// finite-input guard. Reported at the `partial_cmp` line, wherever in the
/// statement the unwrap sits.
fn check_nan_safety(ctx: &FileContext, findings: &mut Vec<SemFinding>) {
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if sig[i].kind != TokenKind::Ident || sig[i].text != "partial_cmp" {
            continue;
        }
        let (_, end) = ctx.statement_range(i);
        let unwrapped = (i + 1..end).any(|j| {
            sig[j].text == "."
                && sig
                    .get(j + 1)
                    .is_some_and(|t| UNWRAPS.contains(&t.text.as_str()))
                && sig.get(j + 2).is_some_and(|t| t.text == "(")
        });
        if unwrapped {
            findings.push((
                sig[i].line,
                RuleId::NanSafety,
                "NaN-unsafe comparison: use `f64::total_cmp` (or guard inputs as finite) instead \
                 of `partial_cmp(..).unwrap*`"
                    .to_owned(),
            ));
        }
    }
}

/// Whether the sig token at `i` starts a hash-iteration call:
/// `<hash binding> . <iter method> (`.
fn hash_iteration_at(ctx: &FileContext, i: usize) -> bool {
    let sig = &ctx.sig;
    sig[i].kind == TokenKind::Ident
        && ctx.hash_bindings.contains(&sig[i].text)
        && sig.get(i + 1).is_some_and(|t| t.text == ".")
        && sig
            .get(i + 2)
            .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
        && sig.get(i + 3).is_some_and(|t| t.text == "(")
}

/// Whether the statement span contains an order normalizer after `from`.
fn normalized_after(ctx: &FileContext, from: usize, end: usize) -> bool {
    ctx.sig[from..end].iter().any(|t| {
        t.kind == TokenKind::Ident
            && (t.text.starts_with("sort") || ORDER_NORMALIZERS.contains(&t.text.as_str()))
    })
}

/// R6 — iteration over `std::collections::HashMap`/`HashSet` in
/// decision-path code, unless the same statement immediately
/// order-normalizes the result (sort, ordered collect, or an
/// order-insensitive reduction).
fn check_hash_iteration(
    ctx: &FileContext,
    r7_statements: &[(usize, usize)],
    findings: &mut Vec<SemFinding>,
) {
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if hash_iteration_at(ctx, i) {
            let (start, end) = ctx.statement_range(i);
            if r7_statements.contains(&(start, end)) {
                continue; // R7 reported the sharper float-order diagnostic
            }
            if normalized_after(ctx, i, end) {
                continue;
            }
            // The collect-then-sort idiom puts the normalizer on the next
            // statement: `let mut v: Vec<_> = m.keys().collect(); v.sort();`.
            if end < ctx.sig.len() {
                let (_, next_end) = ctx.statement_range(end);
                if normalized_after(ctx, end, next_end) {
                    continue;
                }
            }
            findings.push((
                sig[i + 2].line,
                RuleId::Determinism,
                format!(
                    "iteration over hash-ordered `{}` (`.{}()`): order is nondeterministic — \
                     sort, collect into a BTree container, or reduce order-insensitively",
                    sig[i].text,
                    sig[i + 2].text
                ),
            ));
        }
        // `for x in &map { … }`: the loop body observes hash order and
        // there is no same-statement normalizer to look for.
        if sig[i].kind == TokenKind::Ident && sig[i].text == "for" {
            let limit = (i + 30).min(sig.len());
            let Some(in_pos) = (i + 1..limit).find(|&j| sig[j].text == "in") else {
                continue;
            };
            for j in in_pos + 1..limit {
                let t = &sig[j];
                if t.text == "{" {
                    break;
                }
                if t.kind == TokenKind::Ident && ctx.hash_bindings.contains(&t.text) {
                    // Iterating a normalized view (`map.keys().collect::<
                    // BTreeSet<_>>()`) in the loop head is fine.
                    let head_end = (j..limit).find(|&k| sig[k].text == "{").unwrap_or(limit);
                    if !normalized_after(ctx, j, head_end) {
                        findings.push((
                            t.line,
                            RuleId::Determinism,
                            format!(
                                "`for` loop over hash-ordered `{}`: iteration order is \
                                 nondeterministic in decision-path code",
                                t.text
                            ),
                        ));
                    }
                    break;
                }
            }
        }
    }
}

/// R6 — wall-clock reads (`Instant::now`, `SystemTime::…`) outside the
/// obs/bench timing whitelist. Storing or passing an `Instant` is fine;
/// *reading the clock* is what diverges between runs.
fn check_wall_clock(ctx: &FileContext, findings: &mut Vec<SemFinding>) {
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if sig[i].kind != TokenKind::Ident {
            continue;
        }
        // Only association (`X::…`) reads the clock through the type.
        if !(sig.get(i + 1).is_some_and(|t| t.text == ":")
            && sig.get(i + 2).is_some_and(|t| t.text == ":"))
        {
            continue;
        }
        for time_type in ["std::time::Instant", "std::time::SystemTime"] {
            if ctx.resolves_to(i, time_type) {
                findings.push((
                    sig[i].line,
                    RuleId::Determinism,
                    format!(
                        "wall-clock read through `{time_type}`: decision paths must be \
                         reproducible — timing belongs in the obs/bench whitelist"
                    ),
                ));
            }
        }
    }
}

/// R6 — `std::env` reads and thread-identity branching in decision-path
/// code: decisions must be pure functions of their inputs.
fn check_env_dependence(ctx: &FileContext, findings: &mut Vec<SemFinding>) {
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if sig[i].kind != TokenKind::Ident {
            continue;
        }
        let assoc = sig.get(i + 1).is_some_and(|t| t.text == ":")
            && sig.get(i + 2).is_some_and(|t| t.text == ":");
        if !assoc {
            continue;
        }
        let in_use = {
            let (start, _) = ctx.statement_range(i);
            sig[start..i].iter().any(|t| t.text == "use")
        };
        if in_use {
            continue;
        }
        if sig[i].text == "env" && ctx.resolves_to(i, "std::env") {
            findings.push((
                sig[i].line,
                RuleId::Determinism,
                "process-environment read in decision-path code: decisions must be pure \
                 functions of their inputs"
                    .to_owned(),
            ));
        }
        if sig[i].text == "thread"
            && ctx.resolves_to(i, "std::thread")
            && sig.get(i + 3).is_some_and(|t| t.text == "current")
        {
            findings.push((
                sig[i].line,
                RuleId::Determinism,
                "thread-identity dependence in decision-path code: behavior must not vary \
                 with the executing thread"
                    .to_owned(),
            ));
        }
    }
}

/// R7 — order-sensitive f64 reductions: a float `sum`/`product`/`fold`
/// fed by hash iteration, or a captured float accumulator mutated inside
/// a `parallel_map`/`spawn` closure. Merges must go through the pool's
/// deterministic input-order result vector instead.
fn check_float_reductions(
    ctx: &FileContext,
    findings: &mut Vec<SemFinding>,
    r7_statements: &mut Vec<(usize, usize)>,
) {
    let sig = &ctx.sig;
    for i in 0..sig.len().saturating_sub(1) {
        if sig[i].text != "." {
            continue;
        }
        let method = &sig[i + 1];
        let float_reduce = match method.text.as_str() {
            "sum" | "product" => {
                // `.sum::<f64>()` turbofish names the element type.
                sig.get(i + 2).is_some_and(|t| t.text == ":")
                    && sig.get(i + 3).is_some_and(|t| t.text == ":")
                    && sig.get(i + 4).is_some_and(|t| t.text == "<")
                    && sig
                        .get(i + 5)
                        .is_some_and(|t| t.text == "f64" || t.text == "f32")
            }
            "fold" => {
                // `.fold(0.0, …)` with a float-literal seed.
                sig.get(i + 2).is_some_and(|t| t.text == "(")
                    && sig
                        .get(i + 3)
                        .is_some_and(|t| t.kind == TokenKind::Number && is_float_literal(&t.text))
            }
            _ => false,
        };
        if !float_reduce {
            continue;
        }
        let (start, end) = ctx.statement_range(i);
        if (start..end).any(|j| hash_iteration_at(ctx, j)) {
            findings.push((
                method.line,
                RuleId::FloatOrder,
                format!(
                    "float `.{}` over hash-ordered iteration: f64 reduction order changes the \
                     result bits — iterate an ordered view instead",
                    method.text
                ),
            ));
            r7_statements.push((start, end));
        }
    }

    for region in &ctx.parallel_regions {
        for i in region.start..region.end.min(sig.len()) {
            if sig[i].kind == TokenKind::Ident
                && ctx.float_bindings.contains(&sig[i].text)
                && !region.declared.contains(&sig[i].text)
                && sig
                    .get(i + 1)
                    .is_some_and(|t| matches!(t.text.as_str(), "+" | "-" | "*"))
                && sig.get(i + 2).is_some_and(|t| t.text == "=")
            {
                findings.push((
                    sig[i].line,
                    RuleId::FloatOrder,
                    format!(
                        "captured float accumulator `{}` mutated inside a `{}` closure: merge \
                         through the pool's input-order results, not shared state",
                        sig[i].text, region.callee
                    ),
                ));
            }
        }
    }
}

/// R8 — concurrency discipline: `std::sync` primitives (everything but
/// `Arc`/`Weak`), thread spawning, and lock acquisition in per-item
/// closures are confined to `bench::pool`, whose deterministic-merge
/// contract is the one audited home for shared-state concurrency.
fn check_concurrency(ctx: &FileContext, findings: &mut Vec<SemFinding>) {
    let sig = &ctx.sig;
    // `use` statements span to the `;`, including `{…}` groups — a plain
    // statement-range walk-back stops at the group's brace, so mark the
    // spans up front.
    let mut in_use_stmt = vec![false; sig.len()];
    let mut u = 0;
    while u < sig.len() {
        if sig[u].kind == TokenKind::Ident && sig[u].text == "use" {
            while u < sig.len() && sig[u].text != ";" {
                in_use_stmt[u] = true;
                u += 1;
            }
        }
        u += 1;
    }
    // (line → names) for grouped import findings, in first-seen order.
    let mut import_lines: Vec<(usize, Vec<String>)> = Vec::new();
    for i in 0..sig.len() {
        if sig[i].kind != TokenKind::Ident {
            continue;
        }
        let in_use = in_use_stmt[i];
        let resolved = ctx.resolve(i);
        let imported_leaf = ctx
            .imports
            .get(&sig[i].text)
            .is_some_and(|p| p == &resolved);

        if in_use && imported_leaf && is_forbidden_sync_path(&resolved) {
            // One grouped finding per `use` line.
            match import_lines.iter_mut().find(|(l, _)| *l == sig[i].line) {
                Some((_, names)) => names.push(sig[i].text.clone()),
                None => import_lines.push((sig[i].line, vec![sig[i].text.clone()])),
            }
            continue;
        }
        if !in_use && !imported_leaf && is_forbidden_sync_path(&resolved) && resolved.contains("::")
        {
            // Fully-qualified inline use (`std::sync::RwLock::new(…)`).
            // Only flag the type segment itself, not trailing method
            // segments resolved through it.
            if sig[i].text != "sync" && !resolved.ends_with(&format!("::{}", sig[i].text)) {
                continue;
            }
            // Flag the type segment exactly once: `std::sync::RwLock` or
            // `std::sync::atomic::AtomicU64`, not trailing associated-item
            // segments (`…AtomicU64::new`, `…Ordering::Relaxed`).
            let is_type_head = resolved
                .strip_prefix("std::sync::")
                .is_some_and(|rest| !rest.strip_prefix("atomic::").unwrap_or(rest).contains("::"))
                && sig[i].text != "sync"
                && sig[i].text != "atomic";
            if is_type_head {
                findings.push((
                    sig[i].line,
                    RuleId::Concurrency,
                    format!(
                        "`{resolved}` outside `bench::pool`: std::sync primitives are confined \
                         to the deterministic worker pool"
                    ),
                ));
            }
        }
        // Thread spawning outside the pool.
        if sig[i].text == "thread"
            && ctx.resolves_to(i, "std::thread")
            && sig.get(i + 1).is_some_and(|t| t.text == ":")
            && sig.get(i + 2).is_some_and(|t| t.text == ":")
            && sig
                .get(i + 3)
                .is_some_and(|t| matches!(t.text.as_str(), "spawn" | "scope" | "Builder"))
        {
            findings.push((
                sig[i].line,
                RuleId::Concurrency,
                format!(
                    "`std::thread::{}` outside `bench::pool`: worker threads are confined to \
                     the pool's deterministic-merge contract",
                    sig[i + 3].text
                ),
            ));
        }
    }
    for (line, names) in import_lines {
        findings.push((
            line,
            RuleId::Concurrency,
            format!(
                "std::sync primitive{} `{}` outside `bench::pool`: shared-state concurrency \
                 is confined to the deterministic worker pool",
                if names.len() > 1 { "s" } else { "" },
                names.join("`, `")
            ),
        ));
    }
    // Lock acquisition inside per-item closures: even a correctly-merged
    // cell must not serialize on shared state mid-item.
    for region in &ctx.parallel_regions {
        for i in region.start..region.end.min(sig.len()) {
            if sig[i].text == "."
                && sig.get(i + 1).is_some_and(|t| t.text == "lock")
                && sig.get(i + 2).is_some_and(|t| t.text == "(")
            {
                findings.push((
                    sig[i + 1].line,
                    RuleId::Concurrency,
                    format!(
                        "lock acquisition inside a `{}` per-item closure: cells must be pure \
                         functions of their inputs",
                        region.callee
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scopes::FileContext;

    const ALL: Applicability = Applicability {
        decision_path: true,
        wall_clock_banned: true,
        concurrency_banned: true,
    };

    fn check(text: &str) -> Vec<SemFinding> {
        check_file(&FileContext::analyze(text), ALL)
    }

    fn rules(text: &str) -> Vec<RuleId> {
        check(text).into_iter().map(|(_, r, _)| r).collect()
    }

    #[test]
    fn r2_flags_nan_unsafe_comparators() {
        for bad in [
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap());",
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));",
            "xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| Ordering::Less));",
            "v.sort_by(|a, b| { a.partial_cmp(b).unwrap() });",
        ] {
            let f = check(&format!("fn f() {{\n    {bad}\n}}\n"));
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!((f[0].0, f[0].1), (2, RuleId::NanSafety), "{bad}");
        }
    }

    #[test]
    fn r2_sees_the_unwrap_on_a_later_line() {
        // rustfmt puts each call of a long comparator chain on its own
        // line, so the unwrap can sit lines below its `partial_cmp`.
        let text = "fn pivot(a: &[[f64; 3]; 3], col: usize) -> Option<usize> {\n\
                    \x20   (col..3).max_by(|&i, &j| {\n\
                    \x20       a[i][col]\n\
                    \x20           .abs()\n\
                    \x20           .partial_cmp(&a[j][col].abs())\n\
                    \x20           .unwrap_or(std::cmp::Ordering::Equal)\n\
                    \x20   })\n\
                    }\n";
        let f = check(text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            (f[0].0, f[0].1),
            (5, RuleId::NanSafety),
            "at the partial_cmp line"
        );
    }

    #[test]
    fn r2_accepts_total_cmp_and_guarded_partial_cmp() {
        for ok in [
            "v.sort_by(f64::total_cmp);",
            "v.sort_by(|a, b| a.total_cmp(b));",
            "let ord = a.partial_cmp(&b)?;",
            "match a.partial_cmp(&b) { Some(o) => o, None => return Err(..) }",
            "let ord = a.partial_cmp(&b); let x = y.unwrap();",
        ] {
            let f = check(&format!("fn f() {{\n    {ok}\n}}\n"));
            assert!(f.is_empty(), "false positive: {ok}: {f:?}");
        }
    }

    #[test]
    fn r6_flags_unnormalized_hash_iteration() {
        let text = "use std::collections::HashMap;\n\
                    fn f(m: &HashMap<String, f64>) -> Vec<String> {\n\
                        m.keys().cloned().collect()\n\
                    }\n";
        assert_eq!(rules(text), vec![RuleId::Determinism]);
    }

    #[test]
    fn r6_accepts_normalized_iteration() {
        for body in [
            "m.iter().collect::<std::collections::BTreeMap<_, _>>()",
            "{ let mut v: Vec<_> = m.keys().collect(); v.sort(); v }",
            "m.keys().count()",
            "m.values().all(|v| v.is_finite())",
        ] {
            let text = format!(
                "use std::collections::HashMap;\nfn f(m: &HashMap<String, f64>) -> usize {{\n    {body}\n}}\n"
            );
            assert!(rules(&text).is_empty(), "{body}");
        }
    }

    #[test]
    fn r6_flags_for_loops_over_hash_bindings() {
        let text = "use std::collections::HashSet;\n\
                    fn f(s: &HashSet<u32>) -> u32 {\n\
                        let mut acc = 0;\n\
                        for v in s {\n\
                            acc ^= v;\n\
                        }\n\
                        acc\n\
                    }\n";
        let f = check(text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, RuleId::Determinism);
        assert_eq!(f[0].0, 4);
    }

    #[test]
    fn r6_flags_wall_clock_and_env() {
        let text = "use std::time::Instant;\n\
                    fn f() -> bool {\n\
                        let t = Instant::now();\n\
                        std::env::var(\"X\").is_ok()\n\
                    }\n";
        let f = check(text);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.1 == RuleId::Determinism));
        assert_eq!(f[0].0, 3);
        assert_eq!(f[1].0, 4);
    }

    #[test]
    fn r6_time_allows_duration_and_storage() {
        let text = "use std::time::{Duration, Instant};\n\
                    fn f(start: Instant, d: Duration) -> Duration {\n\
                        d + Duration::from_secs(1)\n\
                    }\n";
        assert!(check(text).is_empty());
    }

    #[test]
    fn r7_flags_float_reductions_over_hash_iteration() {
        let sum = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n";
        assert_eq!(rules(sum), vec![RuleId::FloatOrder], "sum, no extra R6");
        let fold = "use std::collections::HashMap;\n\
                    fn f(m: &HashMap<u32, f64>) -> f64 { m.values().fold(0.0, |a, b| a + b) }\n";
        assert_eq!(rules(fold), vec![RuleId::FloatOrder]);
    }

    #[test]
    fn r7_flags_captured_accumulator_in_parallel_closure() {
        let text = "fn f(items: &[f64]) -> f64 {\n\
                        let mut total = 0.0;\n\
                        parallel_map(items, 4, |_i, x| { total += x; });\n\
                        total\n\
                    }\n";
        let f = check(text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, RuleId::FloatOrder);
        assert_eq!(f[0].0, 3);
    }

    #[test]
    fn r7_accepts_input_order_merges() {
        let text = "fn f(items: &[f64]) -> f64 {\n\
                        let parts = parallel_map(items, 4, |i, x| x * 2.0);\n\
                        parts.iter().sum::<f64>()\n\
                    }\n";
        assert!(check(text).is_empty());
        let local = "fn f(items: &[f64]) -> Vec<f64> {\n\
                         parallel_map(items, 4, |_i, xs: &Vec<f64>| {\n\
                             let mut acc = 0.0;\n\
                             for x in xs { acc += x; }\n\
                             acc\n\
                         })\n\
                     }\n";
        assert!(check(local).is_empty(), "closure-local accumulator is fine");
    }

    #[test]
    fn r8_flags_sync_imports_grouped_per_line() {
        let text = "use std::sync::{Arc, Mutex};\n\
                    use std::sync::atomic::{AtomicU64, Ordering};\n\
                    fn f() {}\n";
        let f = check(text);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.1 == RuleId::Concurrency));
        assert!(
            f[0].2.contains("`Mutex`") && !f[0].2.contains("Arc"),
            "{}",
            f[0].2
        );
        assert!(f[1].2.contains("AtomicU64") && f[1].2.contains("Ordering"));
    }

    #[test]
    fn r8_flags_inline_paths_spawns_and_region_locks() {
        let inline = "fn f() { let l = std::sync::RwLock::new(0); }\n";
        assert_eq!(rules(inline), vec![RuleId::Concurrency]);
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules(spawn), vec![RuleId::Concurrency]);
        let lock = "fn f(items: &[u32], slots: &[M]) {\n\
                        parallel_map(items, 4, |i, x| { slots[i].lock(); });\n\
                    }\n";
        assert_eq!(rules(lock), vec![RuleId::Concurrency]);
    }

    #[test]
    fn r8_allows_arc_and_plain_code() {
        assert!(check("use std::sync::Arc;\nfn f(x: Arc<u32>) -> u32 { *x }\n").is_empty());
        assert!(check("fn f() { let d = std::time::Duration::from_secs(1); }\n").is_empty());
    }

    #[test]
    fn applicability_gates_families() {
        let text = "use std::sync::Mutex;\n\
                    use std::collections::HashMap;\n\
                    use std::time::Instant;\n\
                    fn f(m: &HashMap<u32, u32>) -> usize {\n\
                        let t = Instant::now();\n\
                        let l = Mutex::new(0);\n\
                        m.keys().collect::<Vec<_>>().len()\n\
                    }\n";
        let none = Applicability {
            decision_path: false,
            wall_clock_banned: false,
            concurrency_banned: false,
        };
        assert!(check_file(&FileContext::analyze(text), none).is_empty());
        let timing_only = Applicability {
            wall_clock_banned: true,
            ..none
        };
        let f = check_file(&FileContext::analyze(text), timing_only);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].1, RuleId::Determinism);
    }
}
