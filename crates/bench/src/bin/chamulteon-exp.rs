//! `chamulteon-exp` — command-line experiment runner.
//!
//! Runs one auto-scaler (or the full paper lineup) through a named setup or
//! a user-supplied CSV trace and prints the paper's metric table. The
//! subcommands capture a decision-provenance trace, run the differential
//! oracles, and run the shared-budget multi-tenant scenario.
//!
//! ```text
//! USAGE:
//!   chamulteon-exp [--setup NAME | --trace FILE.csv] [--scaler NAME | --all]
//!                  [--profile docker|vm] [--interval SECONDS] [--seed N]
//!                  [--slo SECONDS] [--series]
//!   chamulteon-exp trace [--setup NAME] [--scaler NAME] [--faults CLASS]
//!                  [--out FILE.jsonl] [--tail N]
//!   chamulteon-exp conformance [--seed N] [--cases N] [--replays N]
//!                  [--arrivals N] [--crash-points N] [--quick] [--out FILE.json]
//!   chamulteon-exp multi-tenant [--tenants N] [--policy NAME] [--budget N]
//!                  [--charging ec2|gcp] [--seed N] [--quick] [--out FILE.json]
//!
//! SETUPS:   wikipedia-docker  wikipedia-vm  bibsonomy-small  bibsonomy-large  smoke
//! SCALERS:  chamulteon  cham-reactive  cham-proactive  cham-fox-ec2
//!           cham-fox-gcp  react  adapt  hist  reg
//! ```
//!
//! Every command walks its flags with one [`Flags`] walker: a `--quick`
//! preset picks the base configuration first, then explicit flags apply
//! in any order. Timing lives in the standalone `benchmark/` package, not
//! here.
//!
//! Example: replay your own trace under Chamulteon and React:
//!
//! ```text
//! cargo run --release --bin chamulteon-exp -- --trace mytrace.csv --all
//! ```

// The bench crate is the experiment harness (layer 5, outside the
// decision path): casts size small loop/display counts from bounded
// trace durations.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]

use chamulteon::{ArbitrationPolicy, ChargingModel, RetryPolicy};
use chamulteon_bench::{
    run_experiment, run_experiment_observed, run_multi_tenant, setups, ExperimentSpec, FaultClass,
    MultiTenantSpec, ScalerKind,
};
use chamulteon_conformance::{self as conformance, ConformanceConfig};
use chamulteon_metrics::render_table;
use chamulteon_obs::{jsonl, EventKind, Obs, Winner, EVENT_KIND_CODES};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_sim::{DeploymentProfile, SloPolicy};
use chamulteon_workload::LoadTrace;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

/// The words after a command name, walked one flag at a time.
struct Flags<'a> {
    argv: &'a [String],
    next: usize,
}

impl<'a> Flags<'a> {
    fn new(argv: &'a [String]) -> Self {
        Flags { argv, next: 0 }
    }

    /// Whether `flag` appears anywhere, so a preset such as `--quick` can
    /// be applied before the explicit flags it must not overwrite.
    fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|word| word == flag)
    }

    /// The next unread word, or `None` once all have been read.
    fn next_flag(&mut self) -> Option<&'a str> {
        let word = self.argv.get(self.next)?;
        self.next += 1;
        Some(word)
    }

    /// Parses the word after `flag`; both errors name the flag.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let word = self
            .next_flag()
            .ok_or_else(|| format!("flag {flag} requires a value"))?;
        word.parse()
            .map_err(|e| format!("bad {flag} `{word}`: {e}"))
    }

    /// [`value`](Flags::value), rejected unless `ok` holds for it.
    fn value_where<T: FromStr + Display>(
        &mut self,
        flag: &str,
        rule: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value(flag)?;
        if ok(&value) {
            Ok(value)
        } else {
            Err(format!("{flag} must be {rule}, got {value}"))
        }
    }

    /// The word after `flag`, looked up by `find`.
    fn named<T>(&mut self, flag: &str, find: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let name: String = self.value(flag)?;
        find(&name).ok_or_else(|| format!("unknown {flag} `{name}`"))
    }
}

/// Parses `argv` and runs the command. The only code that prints usage:
/// on `--help`/`-h` (exit 0) and after a parse error (exit 1).
fn command<A>(
    argv: &[String],
    usage: &str,
    parse: fn(&mut Flags) -> Result<A, String>,
    run: fn(A) -> ExitCode,
) -> ExitCode {
    let mut flags = Flags::new(argv);
    if flags.has("--help") || flags.has("-h") {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    match parse(&mut flags) {
        Ok(args) => run(args),
        Err(msg) => {
            eprintln!("error: {msg}\n\n{usage}");
            ExitCode::FAILURE
        }
    }
}

fn scaler_by_name(name: &str) -> Option<ScalerKind> {
    Some(match name {
        "chamulteon" => ScalerKind::Chamulteon,
        "cham-reactive" => ScalerKind::ChamulteonReactiveOnly,
        "cham-proactive" => ScalerKind::ChamulteonProactiveOnly,
        "cham-fox-ec2" => ScalerKind::ChamulteonFoxEc2,
        "cham-fox-gcp" => ScalerKind::ChamulteonFoxGcp,
        "react" => ScalerKind::React,
        "adapt" => ScalerKind::Adapt,
        "hist" => ScalerKind::Hist,
        "reg" => ScalerKind::Reg,
        _ => return None,
    })
}

fn setup_by_name(name: &str) -> Option<ExperimentSpec> {
    Some(match name {
        "wikipedia-docker" => setups::wikipedia_docker(),
        "wikipedia-vm" => setups::wikipedia_vm(),
        "bibsonomy-small" => setups::bibsonomy_small(),
        "bibsonomy-large" => setups::bibsonomy_large(),
        "smoke" => setups::smoke_test(),
        _ => return None,
    })
}

const USAGE: &str = "chamulteon-exp — run a Chamulteon auto-scaling experiment

usage: chamulteon-exp [--setup NAME | --trace FILE.csv] [--scaler NAME | --all]
       [--profile docker|vm] [--interval SECONDS] [--seed N] [--slo SECONDS] [--series]

setups:  wikipedia-docker wikipedia-vm bibsonomy-small bibsonomy-large smoke
scalers: chamulteon cham-reactive cham-proactive cham-fox-ec2 cham-fox-gcp
         react adapt hist reg

--trace expects `time,rate` CSV (header optional); --series prints the
per-interval demand/supply series after the table. --interval must be
at least 1 s and --slo a positive response-time target in seconds.

See also: chamulteon-exp trace --help (decision-provenance JSONL traces),
chamulteon-exp conformance --help (differential-oracle verdict) and
chamulteon-exp multi-tenant --help (shared-budget cluster arbitration).";

struct ExperimentArgs {
    spec: ExperimentSpec,
    kinds: Vec<ScalerKind>,
    series: bool,
}

fn parse_experiment(flags: &mut Flags) -> Result<ExperimentArgs, String> {
    let (mut setup, mut trace) = (None, None);
    let (mut profile, mut interval, mut seed, mut slo) = (None, None, None, None);
    let mut kinds = vec![ScalerKind::Chamulteon];
    let (mut all, mut series) = (false, false);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--setup" => setup = Some(flags.named(flag, setup_by_name)?),
            "--trace" => trace = Some(flags.value::<String>(flag)?),
            "--scaler" => kinds = vec![flags.named(flag, scaler_by_name)?],
            "--all" => all = true,
            "--profile" => {
                profile = Some(flags.named(flag, |name| match name {
                    "docker" => Some(DeploymentProfile::docker()),
                    "vm" => Some(DeploymentProfile::vm()),
                    _ => None,
                })?)
            }
            "--interval" => {
                interval = Some(flags.value_where(flag, "finite and at least 1", |s: &f64| {
                    s.is_finite() && *s >= 1.0
                })?)
            }
            "--seed" => seed = Some(flags.value(flag)?),
            "--slo" => {
                slo = Some(flags.value_where(flag, "finite and above 0", |s: &f64| {
                    s.is_finite() && *s > 0.0
                })?)
            }
            "--series" => series = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let mut spec = match (setup, trace) {
        (Some(spec), None) => spec,
        (None, Some(path)) => csv_spec(&path)?,
        (None, None) => setups::smoke_test(),
        (Some(_), Some(_)) => return Err("--setup and --trace are mutually exclusive".to_owned()),
    };
    spec.profile = profile.unwrap_or(spec.profile);
    spec.scaling_interval = interval.unwrap_or(spec.scaling_interval);
    spec.seed = seed.unwrap_or(spec.seed);
    spec.slo = slo.map_or(spec.slo, |target| {
        SloPolicy::new(target, spec.slo.toleration_factor)
    });
    if all {
        kinds = ScalerKind::paper_lineup().to_vec();
    }
    Ok(ExperimentArgs {
        spec,
        kinds,
        series,
    })
}

/// The paper's application on Docker under a `time,rate` CSV trace.
fn csv_spec(path: &str) -> Result<ExperimentSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = LoadTrace::from_csv(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok(ExperimentSpec {
        name: format!("custom trace {path}"),
        trace,
        model: ApplicationModel::paper_benchmark(),
        profile: DeploymentProfile::docker(),
        slo: SloPolicy::default(),
        scaling_interval: 60.0,
        seed: 1,
        warmup_days: 2,
        hist_bucket: 300.0,
    })
}

fn experiment_main(args: ExperimentArgs) -> ExitCode {
    let spec = &args.spec;
    eprintln!(
        "running {} for {} scaler(s), {:.0} s simulated...",
        spec.name,
        args.kinds.len(),
        spec.trace.duration()
    );
    let outcomes: Vec<_> = args
        .kinds
        .iter()
        .map(|&k| run_experiment(spec, k))
        .collect();
    let reports: Vec<_> = outcomes.iter().map(|o| o.report.clone()).collect();
    println!("{}", render_table(&spec.name, &reports));
    if args.series {
        for (kind, outcome) in args.kinds.iter().zip(&outcomes) {
            println!("series for {}:", kind.name());
            println!("{:>8} per-service demand/supply pairs", "time_s");
            let steps = (outcome.result.duration / spec.scaling_interval) as usize;
            for k in 0..steps {
                let t = k as f64 * spec.scaling_interval;
                let mut row = format!("{t:>8.0}");
                for s in 0..spec.model.service_count() {
                    row.push_str(&format!(
                        " {:>4}/{:<4}",
                        outcome.demand[s].value_at(t),
                        outcome.result.supply_at(s, t)
                    ));
                }
                println!("{row}");
            }
            println!();
        }
    }
    ExitCode::SUCCESS
}

// --- `trace` subcommand -------------------------------------------------

const TRACE_USAGE: &str = "chamulteon-exp trace — capture a decision-provenance JSONL trace

usage: chamulteon-exp trace [--setup NAME] [--scaler NAME] [--faults CLASS]
       [--out FILE.jsonl] [--tail N]

Runs one scaler through the setup with the tracing recorder attached,
writes every control-loop event (cycle starts, forecasts, conflict
resolutions, per-service decision provenance, actuation outcomes,
injected faults) as one JSON object per line, validates the file
round-trips (emit -> parse -> re-emit is identity), and prints per-kind
event counts, the metrics snapshot and the last N decisions.

fault classes: clean (default)  drop-samples  corrupt-samples
               actuation-failures  instance-crashes  controller-crashes";

struct TraceArgs {
    spec: ExperimentSpec,
    kind: ScalerKind,
    /// `None` runs clean.
    faults: Option<FaultClass>,
    out: String,
    tail: usize,
}

fn parse_trace(flags: &mut Flags) -> Result<TraceArgs, String> {
    let mut args = TraceArgs {
        spec: setups::smoke_test(),
        kind: ScalerKind::Chamulteon,
        faults: None,
        out: "trace.jsonl".to_owned(),
        tail: 6,
    };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--setup" => args.spec = flags.named(flag, setup_by_name)?,
            "--scaler" => args.kind = flags.named(flag, scaler_by_name)?,
            "--faults" => {
                args.faults = flags.named(flag, |name| match name {
                    "clean" => Some(None),
                    _ => FaultClass::ALL
                        .into_iter()
                        .find(|c| c.name() == name)
                        .map(Some),
                })?
            }
            "--out" => args.out = flags.value(flag)?,
            "--tail" => args.tail = flags.value(flag)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Pretty-prints one decision-provenance event for the `--tail` report.
fn render_decision(event: &chamulteon_obs::Event) -> Option<String> {
    let EventKind::Decision(p) = &event.kind else {
        return None;
    };
    let service = event
        .service
        .map_or_else(|| "?".to_owned(), |s| s.to_string());
    let forecast = match (p.forecast_rate, p.forecast_generation, p.forecast_trusted) {
        (Some(rate), Some(generation), trusted) => format!(
            "{rate:.1} req/s (gen {generation}{})",
            match trusted {
                Some(true) => ", trusted",
                Some(false) => ", untrusted",
                None => "",
            }
        ),
        _ => "-".to_owned(),
    };
    let sizing = p.sizing.map_or("-", |sizing| sizing.as_code());
    let fox = match p.fox_suppressed {
        Some(true) => "suppressed",
        Some(false) => "passed",
        None => "-",
    };
    Some(format!(
        "t={:>7.0}  tick={:<4} s{} {}  {} -> {}  rate={:.1}  demand={:.4}  forecast={}  sizing={}  fox={}",
        event.time,
        p.tick,
        service,
        p.winner.as_code(),
        p.proposed,
        p.target,
        p.measured_rate,
        p.demand,
        forecast,
        sizing,
        fox,
    ))
}

fn trace_main(args: TraceArgs) -> ExitCode {
    let spec = &args.spec;
    let plan = args
        .faults
        .map(|class| class.plan(spec.seed, spec.trace.duration(), spec.scaling_interval));
    eprintln!(
        "tracing {} on {} ({}), {:.0} s simulated...",
        args.kind.name(),
        spec.name,
        args.faults.map_or("clean", |class| class.name()),
        spec.trace.duration()
    );
    let (obs, ring) = Obs::recording(1 << 20);
    let faulted = run_experiment_observed(spec, args.kind, plan, &RetryPolicy::default(), &obs);
    let events = ring.take();
    if ring.dropped() > 0 {
        eprintln!(
            "warning: ring buffer overflowed, {} oldest events dropped",
            ring.dropped()
        );
    }

    // Emit, then self-validate the schema: emit -> parse -> re-emit must
    // be the identity on the text.
    let text = jsonl::emit(&events);
    match jsonl::parse(&text) {
        Ok(parsed) => {
            if jsonl::emit(&parsed) != text {
                eprintln!("error: JSONL round-trip is not the identity");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("error: emitted JSONL does not parse back: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }

    println!(
        "trace: {} events, round-trip validated -> {}",
        events.len(),
        args.out
    );
    println!("event counts:");
    for code in EVENT_KIND_CODES {
        let n = events.iter().filter(|e| e.kind.code() == *code).count();
        if n > 0 {
            println!("  {code:<20} {n:>8}");
        }
    }
    let decisions: Vec<&chamulteon_obs::Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Decision(_)))
        .collect();
    let provenanced = decisions.len();
    let with_winner = |w: Winner| {
        decisions
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Decision(p) if p.winner == w))
            .count()
    };
    println!(
        "decisions: {provenanced} with provenance ({} proactive, {} reactive, {} hold)",
        with_winner(Winner::Proactive),
        with_winner(Winner::Reactive),
        with_winner(Winner::Hold),
    );
    println!(
        "outcome: {:.2}% SLO violations, {:.1} instance-hours, {} degradations, {} faults injected",
        faulted.outcome.report.slo_violations,
        faulted.outcome.report.instance_hours,
        faulted.degradation.len(),
        faulted.outcome.result.fault_log.len(),
    );
    if args.tail > 0 && !decisions.is_empty() {
        println!("last {} decisions:", args.tail.min(decisions.len()));
        for event in decisions.iter().rev().take(args.tail).rev() {
            if let Some(line) = render_decision(event) {
                println!("  {line}");
            }
        }
    }
    println!("metrics snapshot:");
    for line in obs.metrics().snapshot().lines() {
        println!("  {line}");
    }
    ExitCode::SUCCESS
}

// --- `conformance` subcommand -------------------------------------------

const CONFORMANCE_USAGE: &str =
    "chamulteon-exp conformance — cross-check the analytic spine against
independent oracles

usage: chamulteon-exp conformance [--seed N] [--cases N] [--replays N]
       [--arrivals N] [--crash-points N] [--quick] [--out FILE.json]

Runs six differential oracles: a brute-force Algorithm 1 grid
(bit-level agreement with the controller's decision path), a FOX
ledger replay (exact agreement on vetoes, lease books and billed
instance-seconds), a discrete-event M/M/n micro-simulator (Erlang-C
measures and capacity answers within batch-means confidence bands), a
crash-recovery differential (a controller restored from its encoded
snapshot must continue bit-identically to the uninterrupted run), a
statistical check of the simulation core and its hybrid fluid regime,
and a multi-tenant arbitration replay (budget invariant, bit-exact
per-tenant billing). Prints the verdict, optionally writes it as JSON,
and exits non-zero on any mismatch. --quick shrinks the grid for CI;
the other flags override it in any order.";

struct ConformanceArgs {
    config: ConformanceConfig,
    out: Option<String>,
}

fn parse_conformance(flags: &mut Flags) -> Result<ConformanceArgs, String> {
    let mut args = ConformanceArgs {
        config: if flags.has("--quick") {
            ConformanceConfig::quick()
        } else {
            ConformanceConfig::default()
        },
        out: None,
    };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => args.config.seed = flags.value(flag)?,
            "--cases" => args.config.algorithm1_cases = flags.value(flag)?,
            "--replays" => args.config.ledger_replays = flags.value(flag)?,
            "--arrivals" => args.config.sim_arrivals = flags.value(flag)?,
            "--crash-points" => args.config.recovery_crash_points = flags.value(flag)?,
            "--quick" => {}
            "--out" => args.out = Some(flags.value(flag)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn conformance_main(args: ConformanceArgs) -> ExitCode {
    eprintln!(
        "conformance: {} Algorithm 1 cases, {} ledger replays, {} arrivals/station, \
         {} crash points, seed {}...",
        args.config.algorithm1_cases,
        args.config.ledger_replays,
        args.config.sim_arrivals,
        args.config.recovery_crash_points,
        args.config.seed
    );
    let started = Instant::now();
    let report = conformance::run_all(&args.config);
    let elapsed = started.elapsed().as_secs_f64();
    for oracle in &report.oracles {
        println!(
            "  {:<14} {:>5} cases  {}",
            oracle.oracle,
            oracle.cases,
            if oracle.passed() {
                "ok".to_owned()
            } else {
                format!("{} MISMATCH(ES)", oracle.mismatches.len())
            }
        );
        for mismatch in &oracle.mismatches {
            println!("    {mismatch}");
        }
    }
    println!(
        "verdict: {} ({} cases, {} mismatches, {elapsed:.1} s)",
        if report.passed() { "PASS" } else { "FAIL" },
        report.total_cases(),
        report.total_mismatches()
    );
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            eprintln!("error: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// --- `multi-tenant` subcommand ------------------------------------------

const MULTI_TENANT_USAGE: &str =
    "chamulteon-exp multi-tenant — K coordinated controllers sharing one
cluster budget through the arbiter and its warm pool

usage: chamulteon-exp multi-tenant [--tenants N] [--policy NAME]
       [--budget N] [--charging ec2|gcp] [--seed N] [--quick]
       [--out FILE.json]

Runs K Chamulteon controllers over phase-offset diurnal traces, each
submitting its aggregated scale-up/-down to a shared cluster arbiter
every interval. Prints the per-tenant table (grants, warm transfers,
origin-attributed billing, SLO) and the cluster summary; optionally
writes the outcome as JSON. --quick runs the 10-minute CI smoke
scenario instead of the one-hour standard one; the other flags
override it in any order. --tenants must be at least 1.

policies: strict-priority  fair-share (default)  cost-greedy";

struct MultiTenantArgs {
    spec: MultiTenantSpec,
    out: Option<String>,
}

fn parse_multi_tenant(flags: &mut Flags) -> Result<MultiTenantArgs, String> {
    let policy = ArbitrationPolicy::WeightedFairShare;
    let mut args = MultiTenantArgs {
        spec: if flags.has("--quick") {
            MultiTenantSpec::smoke(policy)
        } else {
            MultiTenantSpec::standard(policy)
        },
        out: None,
    };
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--policy" => args.spec.policy = flags.named(flag, ArbitrationPolicy::from_name)?,
            "--tenants" => {
                args.spec.tenants = flags.value_where(flag, "at least 1", |&n: &usize| n >= 1)?
            }
            "--budget" => args.spec.budget = flags.value(flag)?,
            "--charging" => {
                args.spec.charging = flags.named(flag, |name| match name {
                    "ec2" => Some(ChargingModel::ec2_hourly()),
                    "gcp" => Some(ChargingModel::gcp_per_minute()),
                    _ => None,
                })?
            }
            "--seed" => args.spec.seed = flags.value(flag)?,
            "--quick" => {}
            "--out" => args.out = Some(flags.value(flag)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn multi_tenant_main(args: MultiTenantArgs) -> ExitCode {
    eprintln!(
        "multi-tenant: {} tenants, policy {}, budget {}, {:.0} s simulated...",
        args.spec.tenants,
        args.spec.policy.name(),
        args.spec.budget,
        args.spec.duration
    );
    let started = Instant::now();
    let outcome = run_multi_tenant(&args.spec, &Obs::disabled());
    let elapsed = started.elapsed().as_secs_f64();
    print!("{}", outcome.render());
    println!("({elapsed:.1} s wall)");
    if outcome.peak_in_use > outcome.budget {
        eprintln!(
            "error: budget invariant violated: peak in-use {} > budget {}",
            outcome.peak_in_use, outcome.budget
        );
        return ExitCode::FAILURE;
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, outcome.to_json()) {
            eprintln!("error: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("trace") => command(&argv[1..], TRACE_USAGE, parse_trace, trace_main),
        Some("conformance") => command(
            &argv[1..],
            CONFORMANCE_USAGE,
            parse_conformance,
            conformance_main,
        ),
        Some("multi-tenant") => command(
            &argv[1..],
            MULTI_TENANT_USAGE,
            parse_multi_tenant,
            multi_tenant_main,
        ),
        _ => command(&argv, USAGE, parse_experiment, experiment_main),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `parser` over the whitespace-separated words of `line`.
    fn parse<A>(parser: fn(&mut Flags) -> Result<A, String>, line: &str) -> Result<A, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parser(&mut Flags::new(&argv))
    }

    /// The error `parser` gives for `line`, which must be rejected.
    fn rejection<A>(parser: fn(&mut Flags) -> Result<A, String>, line: &str) -> String {
        parse(parser, line).err().expect(line)
    }

    #[test]
    fn explicit_conformance_flags_survive_the_quick_preset() {
        for line in ["--cases 7 --quick", "--quick --cases 7"] {
            let config = parse(parse_conformance, line).expect(line).config;
            assert_eq!(config.algorithm1_cases, 7, "{line}");
            assert_eq!(
                config.ledger_replays,
                ConformanceConfig::quick().ledger_replays,
                "{line}"
            );
        }
    }

    #[test]
    fn explicit_tenant_count_survives_the_quick_preset() {
        let spec = parse(parse_multi_tenant, "--tenants 5 --quick")
            .expect("parses")
            .spec;
        assert_eq!(spec.tenants, 5);
        assert_eq!(spec.budget, MultiTenantSpec::smoke(spec.policy).budget);
    }

    #[test]
    fn intervals_below_one_second_are_rejected() {
        for bad in ["0", "-5", "NaN"] {
            let err = rejection(parse_experiment, &format!("--interval {bad}"));
            assert!(err.contains("--interval"), "{err}");
        }
        let args = parse(parse_experiment, "--interval 1").expect("1 s is allowed");
        assert_eq!(args.spec.scaling_interval, 1.0);
    }

    #[test]
    fn non_positive_slo_targets_are_rejected() {
        for bad in ["-1", "0", "NaN"] {
            let err = rejection(parse_experiment, &format!("--slo {bad}"));
            assert!(err.contains("--slo"), "{err}");
        }
        let args = parse(parse_experiment, "--slo 0.25").expect("positive target");
        assert_eq!(args.spec.slo.response_time_target, 0.25);
    }

    #[test]
    fn an_empty_cluster_is_rejected() {
        let err = rejection(parse_multi_tenant, "--tenants 0");
        assert!(err.contains("--tenants"), "{err}");
    }

    #[test]
    fn usage_lists_every_fault_class_and_policy() {
        for class in FaultClass::ALL {
            assert!(TRACE_USAGE.contains(class.name()), "{}", class.name());
        }
        for policy in ArbitrationPolicy::all() {
            assert!(
                MULTI_TENANT_USAGE.contains(policy.name()),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn names_resolve_while_parsing() {
        let args = parse(parse_trace, "--faults controller-crashes --scaler react").expect("known");
        assert_eq!(args.faults, Some(FaultClass::ControllerCrashes));
        assert_eq!(args.kind, ScalerKind::React);
        assert!(parse(parse_trace, "--faults clean")
            .expect("clean")
            .faults
            .is_none());
        assert!(rejection(parse_trace, "--faults meteor").contains("--faults"));
        assert!(rejection(parse_experiment, "--profile lambda").contains("--profile"));
        assert!(rejection(parse_multi_tenant, "--charging azure").contains("--charging"));
    }

    #[test]
    fn retired_timers_are_unknown_flags() {
        for retired in ["bench", "des-scale"] {
            assert_eq!(
                rejection(parse_experiment, retired),
                format!("unknown flag `{retired}`")
            );
        }
    }
}
