//! Workspace task runner. Currently one task:
//!
//! ```text
//! cargo run -p xtask -- audit [--root DIR] [--out FILE]
//!                             [--baseline FILE] [--write-baseline]
//! ```
//!
//! Runs the repo's static-analysis rules (see [`xtask`] crate docs) and
//! exits nonzero when violations are found, so CI can gate on it.
//!
//! Exit codes: 0 — clean (or, with `--baseline`, no *new* findings);
//! 1 — violations (new findings, in baseline mode); 2 — the audit itself
//! could not run (bad root, unreadable baseline, I/O failure).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => audit(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo run -p xtask -- <command>\n\
         \n\
         commands:\n\
         \x20 audit [options]   run the workspace static-analysis rules\n\
         \x20                   (R2 nan-safety, R4 layering, R6 determinism,\n\
         \x20                    R7 float-order, R8 concurrency, R9 suppression)\n\
         \n\
         audit options:\n\
         \x20 --root DIR         workspace to audit (default: this repo's root)\n\
         \x20 --out FILE         also write the JSON report to FILE\n\
         \x20 --baseline FILE    fail only on findings not present in FILE;\n\
         \x20                    pre-existing findings are reported but tolerated\n\
         \x20 --write-baseline   write the report to the default baseline path\n\
         \x20                    (ROOT/audit-baseline.json) and exit 0"
    );
}

struct AuditOptions {
    root: Option<PathBuf>,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_options(args: &[String]) -> Result<AuditOptions, String> {
    let mut opts = AuditOptions {
        root: None,
        out: None,
        baseline: None,
        write_baseline: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => match iter.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return Err("--root requires a directory argument".to_owned()),
            },
            "--out" => match iter.next() {
                Some(file) => opts.out = Some(PathBuf::from(file)),
                None => return Err("--out requires a file argument".to_owned()),
            },
            "--baseline" => match iter.next() {
                Some(file) => opts.baseline = Some(PathBuf::from(file)),
                None => return Err("--baseline requires a file argument".to_owned()),
            },
            "--write-baseline" => opts.write_baseline = true,
            other => return Err(format!("unknown audit option `{other}`")),
        }
    }
    Ok(opts)
}

fn audit(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Under `cargo run`, the manifest dir is crates/xtask; the workspace
    // root is two levels up.
    let root = opts.root.clone().unwrap_or_else(|| {
        let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest_dir
            .parent()
            .and_then(std::path::Path::parent)
            .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf)
    });

    let report = match xtask::run_audit_report(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let json = xtask::jsonio::report_to_json(&report);

    if opts.write_baseline {
        let path = root.join("audit-baseline.json");
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("audit error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "audit: baseline written to {} ({} finding(s), {} ledger entr{})",
            path.display(),
            report.findings.len(),
            report.ledger.len(),
            if report.ledger.len() == 1 { "y" } else { "ies" }
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("audit error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    // Baseline mode: tolerate findings already accounted for, fail on the
    // rest.
    if let Some(path) = &opts.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("audit error: reading baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let keys = match xtask::jsonio::parse_baseline(&text) {
            Ok(keys) => keys,
            Err(message) => {
                eprintln!("audit error: baseline {}: {message}", path.display());
                return ExitCode::from(2);
            }
        };
        let fresh = xtask::jsonio::new_findings(&report.findings, &keys);
        for finding in &fresh {
            println!("{finding}");
        }
        println!(
            "audit: {} finding(s), {} new vs baseline {}, {} ledger entr{}",
            report.findings.len(),
            fresh.len(),
            path.display(),
            report.ledger.len(),
            if report.ledger.len() == 1 { "y" } else { "ies" }
        );
        return if fresh.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if report.findings.is_empty() {
        println!(
            "audit: clean ({} rules over {}, {} ledger entr{})",
            xtask::RuleId::ALL.len(),
            root.display(),
            report.ledger.len(),
            if report.ledger.len() == 1 { "y" } else { "ies" }
        );
        ExitCode::SUCCESS
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        println!("\naudit: {} violation(s)", report.findings.len());
        println!(
            "suppress a single line with `// audit:allow(<rule>): justification` \
             (see DESIGN.md, \"Semantic audit engine\")"
        );
        ExitCode::FAILURE
    }
}
