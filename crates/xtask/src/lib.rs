//! `cargo run -p xtask -- audit`: workspace-wide static analysis.
//!
//! Chamulteon is a *controller*: one panic on a degenerate queueing input
//! (ρ ≥ 1, NaN forecast, zero service rate) kills scaling for every service
//! in the chain — exactly the failure class the paper's reactive fallback
//! exists to avoid. And since the incremental-solver work, every speedup is
//! justified by bit-identity with the reference path, so *nondeterminism*
//! is a correctness bug too: a hash-ordered float sum or a wall-clock read
//! in a decision path silently breaks reproducibility. This crate enforces
//! repo-specific rules that no clippy or rustc lint expresses, with
//! `file:line` diagnostics and a nonzero exit code on violations:
//!
//! | Rule | Name          | Scope                     | What it rejects |
//! |------|---------------|---------------------------|-----------------|
//! | R2   | nan-safety    | all crate `src/`          | a `partial_cmp` whose statement goes on to `unwrap`/`unwrap_or`/`unwrap_or_else` |
//! | R4   | layering      | `crates/*/Cargo.toml`     | forbidden dependency edges |
//! | R6   | determinism   | decision path (+ all files for wall clocks) | hash-ordered iteration without normalization, `Instant`/`SystemTime` reads outside the timing whitelist, `std::env`/thread-identity dependence |
//! | R7   | float-order   | decision path             | f64 reductions over hash iteration; captured float accumulators in `parallel_map` closures |
//! | R8   | concurrency   | everywhere except `bench::pool` | `std::sync` primitives (minus `Arc`/`Weak`), thread spawning, locks in per-item closures |
//! | R9   | suppression   | everywhere                | `audit:allow` markers naming no known rule or carrying no justification |
//!
//! The numbers R1, R3 and R5 are retired and stay unused, so no marker or
//! baseline entry is renumbered: panicking calls and macros, bare numeric
//! `as` casts and undocumented public items are rejected by the
//! workspace's clippy and rustc lints instead (DESIGN.md §7).
//!
//! Code inside `#[cfg(test)]` modules is exempt from R2 and R6–R8. A
//! finding can be suppressed — one line at a time, with a justification —
//! by `audit:allow(<rule>): why` or `audit: allow(<rule>, "why")` in a
//! comment on the offending line or on a comment line directly above it.
//! Every well-formed marker lands in the reported suppression ledger; R9
//! flags malformed ones and is itself unsuppressible.
//!
//! Every source rule runs on the lossless token stream via
//! [`scopes::FileContext`], which resolves imports, tracks hash/float
//! bindings, delimits statements and worker-closure regions, and sees
//! through line breaks, comments and string literals.

pub mod jsonio;
pub mod ledger;
pub mod lexer;
pub mod manifest;
pub mod scopes;
pub mod semantic;
pub mod strip;

use std::fmt;
use std::path::{Path, PathBuf};

/// The decision-path crates R6 (determinism) and R7 (float-order) apply
/// to, by directory name under `crates/`. `workload` and `bench` are
/// experiment harness code; `xtask` is this tool.
pub const DECISION_PATH_CRATES: &[&str] = &[
    "core",
    "obs",
    "queueing",
    "demand",
    "perfmodel",
    "scalers",
    "sim",
    "timeseries",
    "metrics",
    "conformance",
];

/// Individual decision-path modules matched by path suffix. The bench
/// harness is mostly layer-4 plumbing, but its measurement loop executes
/// scaling decisions — under injected faults — so the fault-path files
/// carry the same determinism bar R6 and R7 apply to the decision-path
/// crates. The snapshot codec, the JSON codec it reads through and the
/// recovery oracle are listed even though their crates are already
/// covered by [`DECISION_PATH_CRATES`]: a restored run must decide
/// exactly as an uninterrupted one, so these pins survive any future
/// re-layering of the crate list. The simulation engine
/// (`sim/src/{engine,event,fluid,station}.rs`) and its scale runner are
/// pinned for the same reason: the hybrid regime switch executes inside
/// the measurement loop, and its conservation accounting must not depend
/// on iteration order. The cluster arbiter, its conformance oracle and
/// the multi-tenant loop join the list because they hold the shared
/// budget and the cross-tenant billing ledger, which must be bit-exact
/// run to run. The invocation graph, whose stored order Algorithm 1's
/// walk and the simulator's request path follow, and the topology
/// generators are pinned likewise.
pub const DECISION_PATH_MODULES: &[&str] = &[
    "bench/src/des_scale.rs",
    "bench/src/drivers.rs",
    "bench/src/experiment.rs",
    "bench/src/multi_tenant.rs",
    "bench/src/pool.rs",
    "bench/src/robustness.rs",
    "conformance/src/cluster.rs",
    "conformance/src/recovery.rs",
    "core/src/cluster.rs",
    "core/src/snapshot.rs",
    "obs/src/json.rs",
    "perfmodel/src/graph.rs",
    "perfmodel/src/topology.rs",
    "sim/src/engine.rs",
    "sim/src/event.rs",
    "sim/src/fluid.rs",
    "sim/src/station.rs",
];

/// Modules allowed to read the wall clock (R6), matched by path suffix:
/// the metrics recorder timestamps observations and the experiment binary
/// times its own phases — both outside the decision paths whose outputs
/// must be reproducible.
pub const TIMING_WHITELIST_MODULES: &[&str] =
    &["obs/src/metrics.rs", "bench/src/bin/chamulteon-exp.rs"];

/// Modules allowed to use `std::sync` primitives and spawn threads (R8),
/// matched by path suffix: the deterministic worker pool is the one
/// audited home for shared-state concurrency — everything else merges
/// through its input-order result vector.
pub const CONCURRENCY_WHITELIST_MODULES: &[&str] = &["bench/src/pool.rs"];

/// Identifier of an audit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R2: no NaN-unsafe float comparisons.
    NanSafety,
    /// R4: no forbidden inter-crate dependency edges.
    Layering,
    /// R6: no hash-order, wall-clock, environment or thread-identity
    /// dependence in decision paths.
    Determinism,
    /// R7: no order-sensitive float reductions in decision paths.
    FloatOrder,
    /// R8: std::sync primitives confined to the worker pool.
    Concurrency,
    /// R9: every `audit:allow` marker names a real rule and carries a
    /// justification.
    SuppressionLedger,
}

impl RuleId {
    /// All rules, in numbering order.
    pub const ALL: [RuleId; 6] = [
        RuleId::NanSafety,
        RuleId::Layering,
        RuleId::Determinism,
        RuleId::FloatOrder,
        RuleId::Concurrency,
        RuleId::SuppressionLedger,
    ];

    /// The short id (`"R2"`…`"R9"`).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::NanSafety => "R2",
            RuleId::Layering => "R4",
            RuleId::Determinism => "R6",
            RuleId::FloatOrder => "R7",
            RuleId::Concurrency => "R8",
            RuleId::SuppressionLedger => "R9",
        }
    }

    /// The rule's name, as used in `audit:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NanSafety => "nan-safety",
            RuleId::Layering => "layering",
            RuleId::Determinism => "determinism",
            RuleId::FloatOrder => "float-order",
            RuleId::Concurrency => "concurrency",
            RuleId::SuppressionLedger => "suppression",
        }
    }

    /// Resolves an `audit:allow` argument — either the short id or the
    /// name — to a rule.
    pub fn parse(text: &str) -> Option<RuleId> {
        let text = text.trim();
        RuleId::ALL
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(text) || r.name() == text)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.name())
    }
}

/// One rule violation, pointing at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// File path, relative to the audited workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// The audit of one source file: findings plus its slice of the
/// suppression ledger.
#[derive(Debug, Default)]
pub struct FileAudit {
    /// Violations, sorted by line then rule.
    pub findings: Vec<Finding>,
    /// Well-formed `audit:allow` markers, in line order.
    pub ledger: Vec<ledger::Suppression>,
}

/// The full workspace audit: every finding and every ledger entry, in
/// deterministic order.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Violations, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
    /// The suppression ledger, sorted by (file, line, rule).
    pub ledger: Vec<ledger::Suppression>,
}

/// A problem that prevented the audit itself from running (I/O, malformed
/// workspace) — distinct from findings, and also a nonzero exit.
#[derive(Debug)]
pub struct AuditError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit error: {}", self.message)
    }
}

impl std::error::Error for AuditError {}

impl AuditError {
    fn new(message: impl Into<String>) -> Self {
        AuditError {
            message: message.into(),
        }
    }
}

/// Runs every rule over the workspace rooted at `root` (the directory
/// containing `crates/`), returning findings and the suppression ledger.
///
/// # Errors
///
/// Returns [`AuditError`] when the workspace cannot be read — a missing
/// `crates/` directory, unreadable files, or I/O failures mid-walk.
pub fn run_audit_report(root: &Path) -> Result<AuditReport, AuditError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(AuditError::new(format!(
            "`{}` is not a workspace root: no crates/ directory",
            root.display()
        )));
    }

    let mut report = AuditReport::default();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| AuditError::new(format!("reading {}: {e}", crates_dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let crate_name = match crate_dir.file_name().and_then(|n| n.to_str()) {
            Some(name) => name.to_owned(),
            None => continue,
        };

        // R4 and the TOML side of R9 run on the manifest.
        let manifest = crate_dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = read(&manifest)?;
            let rel = relative(root, &manifest);
            report
                .findings
                .extend(manifest::check_layering(&crate_name, &rel, &text));
            let lines: Vec<&str> = text.lines().collect();
            let (r9, sups) = ledger::scan_file(&rel, &lines, ledger::CommentStyle::Toml);
            report.findings.extend(r9);
            report.ledger.extend(sups);
        }

        // Source rules run on src/ only: tests/, benches/ and examples/
        // are exempt by construction.
        let src = crate_dir.join("src");
        if src.is_dir() {
            for file in rust_files(&src)? {
                let text = read(&file)?;
                let rel = relative(root, &file);
                let audit = audit_source_full(&crate_name, &rel, &text);
                report.findings.extend(audit.findings);
                report.ledger.extend(audit.ledger);
            }
        }
    }

    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    report
        .ledger
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Runs the source rules (R2, R6–R8) and the ledger scan (R9) over one
/// source file belonging to `crate_name`, honoring test-region exemptions
/// and `audit:allow` markers.
pub fn audit_source_full(crate_name: &str, rel_path: &Path, text: &str) -> FileAudit {
    let stripped = strip::strip_source(text);
    let source_lines: Vec<&str> = text.lines().collect();

    let app = semantic::Applicability {
        decision_path: DECISION_PATH_CRATES.contains(&crate_name)
            || DECISION_PATH_MODULES.iter().any(|m| rel_path.ends_with(m)),
        wall_clock_banned: !TIMING_WHITELIST_MODULES
            .iter()
            .any(|m| rel_path.ends_with(m)),
        concurrency_banned: !CONCURRENCY_WHITELIST_MODULES
            .iter()
            .any(|m| rel_path.ends_with(m)),
    };

    // A finding in a test region, or under an `audit:allow` marker for its
    // rule, is not reported.
    let ctx = scopes::FileContext::analyze(text);
    let mut findings: Vec<Finding> = semantic::check_file(&ctx, app)
        .into_iter()
        .filter(|(line, rule, _)| {
            let idx = line.saturating_sub(1);
            !stripped.in_test_region.get(idx).copied().unwrap_or(false)
                && !allowed(&source_lines, idx, *rule)
        })
        .map(|(line, rule, message)| Finding {
            rule,
            file: rel_path.to_path_buf(),
            line,
            message,
        })
        .collect();

    // R9 + ledger collection, on the comment-only view so a marker quoted
    // inside a string literal is not mistaken for a real one. Markers in
    // doc comments are prose (the audit's own documentation quotes the
    // syntax), and test regions keep their blanket exemption; R9 findings
    // are never suppressible.
    let comment_text = lexer::comment_view(&ctx.tokens);
    let comment_lines: Vec<&str> = comment_text.lines().collect();
    let (mut r9, mut sups) =
        ledger::scan_file(rel_path, &comment_lines, ledger::CommentStyle::Rust);
    let exempt = |lineno: usize| {
        let idx = lineno.saturating_sub(1);
        stripped.doc_comment.get(idx).copied().unwrap_or(false)
            || stripped.in_test_region.get(idx).copied().unwrap_or(false)
    };
    r9.retain(|f| !exempt(f.line));
    sups.retain(|s| !exempt(s.line));
    findings.extend(r9);

    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    FileAudit {
        findings,
        ledger: sups,
    }
}

/// Whether a finding of `rule` on 0-based line `idx` is suppressed by an
/// `audit:allow(<rule>)` marker on that line or on the line directly above.
pub fn allowed(source_lines: &[&str], idx: usize, rule: RuleId) -> bool {
    let style = ledger::CommentStyle::Rust;
    if let Some(line) = source_lines.get(idx) {
        if ledger::line_allows(line, style, rule) {
            return true;
        }
    }
    if idx > 0 {
        if let Some(prev) = source_lines.get(idx - 1) {
            // Only a pure comment line above can carry the marker: an
            // allow trailing some other statement must not leak downward.
            if prev.trim_start().starts_with("//") && ledger::line_allows(prev, style, rule) {
                return true;
            }
        }
    }
    false
}

fn read(path: &Path) -> Result<String, AuditError> {
    std::fs::read_to_string(path)
        .map_err(|e| AuditError::new(format!("reading {}: {e}", path.display())))
}

fn relative(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, AuditError> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let entries = std::fs::read_dir(&current)
            .map_err(|e| AuditError::new(format!("reading {}: {e}", current.display())))?;
        for entry in entries {
            let path = entry
                .map_err(|e| AuditError::new(format!("walking {}: {e}", current.display())))?
                .path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.id()), Some(rule));
            assert_eq!(RuleId::parse(rule.name()), Some(rule));
            assert_eq!(RuleId::parse(&rule.id().to_lowercase()), Some(rule));
        }
        let ids: Vec<&str> = RuleId::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids, ["R2", "R4", "R6", "R7", "R8", "R9"]);
        // Retired numbers name no rule, so a marker citing one is an R9
        // finding rather than a silent no-op.
        for retired in [
            "R1",
            "R3",
            "R5",
            "panic-freedom",
            "lossy-cast",
            "doc-coverage",
        ] {
            assert_eq!(RuleId::parse(retired), None, "{retired}");
        }
        assert_eq!(RuleId::parse("R10"), None);
        assert_eq!(RuleId::parse("unwrap"), None);
    }

    #[test]
    fn allow_marker_scopes() {
        let lines = [
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // audit:allow(nan-safety): finite",
            "// audit:allow(R2): inputs are checked finite above",
            "let b = x.partial_cmp(&y).unwrap();",
            "let c = x.partial_cmp(&z).unwrap();",
        ];
        assert!(allowed(&lines, 0, RuleId::NanSafety));
        assert!(allowed(&lines, 2, RuleId::NanSafety));
        // Line 3 has no marker of its own; line 2 is not a comment line.
        assert!(!allowed(&lines, 3, RuleId::NanSafety));
        // The marker names R2, not R6.
        assert!(!allowed(&lines, 2, RuleId::Determinism));
    }

    #[test]
    fn inline_marker_syntax_suppresses_too() {
        let lines = ["let a = x.partial_cmp(&y).unwrap(); // audit: allow(R2, \"finite\")"];
        assert!(allowed(&lines, 0, RuleId::NanSafety));
        assert!(!allowed(&lines, 0, RuleId::Determinism));
    }

    #[test]
    fn r2_applies_to_every_crate() {
        let text = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        for crate_name in ["queueing", "bench", "workload"] {
            let findings = audit_source_full(crate_name, Path::new("x.rs"), text).findings;
            assert_eq!(findings.len(), 1, "{crate_name}: {findings:?}");
            assert_eq!(findings[0].rule, RuleId::NanSafety);
            assert_eq!(findings[0].line, 2);
        }
    }

    #[test]
    fn test_regions_are_exempt() {
        let text = "pub fn f() {}\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    \x20   fn g(a: f64) -> bool { a.partial_cmp(&1.0).unwrap().is_lt() }\n\
                    \x20   fn h() -> bool { std::env::var(\"X\").is_ok() }\n\
                    }\n";
        let findings = audit_source_full("sim", Path::new("x.rs"), text).findings;
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_decision_path_crates_skip_r6() {
        let text = "fn f() -> bool { std::env::var(\"X\").is_ok() }\n";
        assert!(audit_source_full("bench", Path::new("x.rs"), text)
            .findings
            .is_empty());
        assert_eq!(
            audit_source_full("core", Path::new("x.rs"), text)
                .findings
                .len(),
            1
        );
    }

    #[test]
    fn decision_path_modules_get_r6_by_suffix() {
        let text = "fn f() -> bool { std::env::var(\"X\").is_ok() }\n";
        for module in DECISION_PATH_MODULES {
            let rel = Path::new("crates").join(module);
            let findings = audit_source_full("bench", &rel, text).findings;
            assert_eq!(findings.len(), 1, "{module} should be decision-path");
            assert_eq!(findings[0].rule, RuleId::Determinism);
        }
        // Sibling bench files stay exempt.
        assert!(
            audit_source_full("bench", Path::new("crates/bench/src/paper.rs"), text)
                .findings
                .is_empty()
        );
    }

    #[test]
    fn module_lists_name_files_that_exist() {
        // A moved or deleted file must not silently drop out of the audit.
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for module in DECISION_PATH_MODULES
            .iter()
            .chain(TIMING_WHITELIST_MODULES)
            .chain(CONCURRENCY_WHITELIST_MODULES)
        {
            assert!(
                crates.join(module).is_file(),
                "crates/{module} does not exist"
            );
        }
    }

    #[test]
    fn semantic_findings_respect_allow_and_test_regions() {
        let suppressed = "use std::time::Instant;\n\
                          // audit:allow(R6): coarse staleness probe, not decision input\n\
                          fn f() { let t = Instant::now(); }\n";
        let audit = audit_source_full("core", Path::new("crates/core/src/x.rs"), suppressed);
        assert!(audit.findings.is_empty(), "{:?}", audit.findings);

        let in_tests = "#[cfg(test)]\n\
                        mod tests {\n\
                        \x20   fn f() { let t = std::time::Instant::now(); }\n\
                        }\n";
        let audit = audit_source_full("core", Path::new("crates/core/src/y.rs"), in_tests);
        assert!(audit.findings.is_empty(), "{:?}", audit.findings);
    }

    #[test]
    fn timing_and_concurrency_whitelists_match_by_suffix() {
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            audit_source_full("obs", Path::new("crates/obs/src/recorder.rs"), clock)
                .findings
                .len(),
            1
        );
        assert!(
            audit_source_full("obs", Path::new("crates/obs/src/metrics.rs"), clock)
                .findings
                .is_empty()
        );

        let lock = "fn f() { let m = std::sync::Mutex::new(0); }\n";
        assert_eq!(
            audit_source_full("bench", Path::new("crates/bench/src/paper.rs"), lock)
                .findings
                .len(),
            1
        );
        assert!(
            audit_source_full("bench", Path::new("crates/bench/src/pool.rs"), lock)
                .findings
                .is_empty()
        );
    }

    #[test]
    fn ledger_collects_markers_and_r9_is_unsuppressible() {
        let text = "fn f(a: f64, b: f64) -> bool {\n\
                    \x20   // audit:allow(R2): both operands are checked finite by the caller\n\
                    \x20   a.partial_cmp(&b).unwrap().is_lt()\n\
                    }\n\
                    // audit:allow(R2) audit:allow(R9): excuses itself\n\
                    fn g() {}\n\
                    // audit:allow(R1): names a retired rule\n\
                    fn h() {}\n";
        let audit = audit_source_full("core", Path::new("crates/core/src/z.rs"), text);
        assert_eq!(audit.ledger.len(), 2, "{:?}", audit.ledger);
        assert_eq!(audit.ledger[0].line, 2);
        assert_eq!(audit.ledger[0].rule, RuleId::NanSafety);
        // The reasonless R2 marker on line 5 is flagged despite the
        // adjacent allow(R9) attempt, and so is the retired R1 on line 7.
        let r9: Vec<usize> = audit
            .findings
            .iter()
            .filter(|f| f.rule == RuleId::SuppressionLedger)
            .map(|f| f.line)
            .collect();
        assert_eq!(r9, [5, 7], "{:?}", audit.findings);
    }
}
