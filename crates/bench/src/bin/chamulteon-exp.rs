//! `chamulteon-exp` — command-line experiment runner.
//!
//! Runs one auto-scaler (or the full paper lineup) through a named setup or
//! a user-supplied CSV trace and prints the paper's metric table.
//!
//! ```text
//! USAGE:
//!   chamulteon-exp [--setup NAME | --trace FILE.csv] [--scaler NAME | --all]
//!                  [--profile docker|vm] [--interval SECONDS] [--seed N]
//!                  [--slo SECONDS] [--series]
//!   chamulteon-exp bench [--setup NAME] [--iters N] [--threads N]
//!                  [--out FILE.json] [--quick]
//!   chamulteon-exp des-scale [--duration SECONDS] [--seed N]
//!                  [--out FILE.json] [--quick]
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
//! Example: replay your own trace under Chamulteon and React:
//!
//! ```text
//! cargo run --release --bin chamulteon-exp -- --trace mytrace.csv --all
//! ```

// The bench crate is the experiment harness (layer 5, outside the
// decision path): panics surface misconfiguration directly and casts
// size small loop/display counts from bounded trace durations.
#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately rejects NaN

use chamulteon::{ArbitrationPolicy, ChargingModel, RetryPolicy};
use chamulteon_bench::setups;
use chamulteon_bench::{
    default_threads, des_scale, evaluation_grid, evaluation_grid_seq, run_des_scale_case,
    run_experiment, run_experiment_observed, run_multi_tenant, DesScaleMeasures, ExperimentSpec,
    FaultClass, MultiTenantSpec, ScalerKind,
};
use chamulteon_conformance::{self as conformance, ConformanceConfig};
use chamulteon_metrics::{render_table, DEMAND_QUANTILE};
use chamulteon_obs::{jsonl, EventKind, MetricsRegistry, Obs, Winner, EVENT_KIND_CODES};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_queueing::{capacity, CapacityCache};
use chamulteon_sim::{DeploymentProfile, SloPolicy};
use chamulteon_workload::LoadTrace;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    setup: Option<String>,
    trace: Option<String>,
    scaler: Option<String>,
    all: bool,
    profile: Option<String>,
    interval: Option<f64>,
    seed: Option<u64>,
    slo: Option<f64>,
    series: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        setup: None,
        trace: None,
        scaler: None,
        all: false,
        profile: None,
        interval: None,
        seed: None,
        slo: None,
        series: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--setup" => args.setup = Some(value("--setup")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--scaler" => args.scaler = Some(value("--scaler")?),
            "--all" => args.all = true,
            "--profile" => args.profile = Some(value("--profile")?),
            "--interval" => {
                args.interval = Some(
                    value("--interval")?
                        .parse()
                        .map_err(|e| format!("bad --interval: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--slo" => {
                args.slo = Some(
                    value("--slo")?
                        .parse()
                        .map_err(|e| format!("bad --slo: {e}"))?,
                )
            }
            "--series" => args.series = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
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

fn usage() -> &'static str {
    "chamulteon-exp — run a Chamulteon auto-scaling experiment\n\
     \n\
     usage: chamulteon-exp [--setup NAME | --trace FILE.csv] [--scaler NAME | --all]\n\
            [--profile docker|vm] [--interval SECONDS] [--seed N] [--slo SECONDS] [--series]\n\
            chamulteon-exp bench [--setup NAME] [--iters N] [--threads N] [--out FILE.json] [--quick]\n\
     \n\
     setups:  wikipedia-docker wikipedia-vm bibsonomy-small bibsonomy-large smoke\n\
     scalers: chamulteon cham-reactive cham-proactive cham-fox-ec2 cham-fox-gcp\n\
              react adapt hist reg\n\
     \n\
     --trace expects `time,rate` CSV (header optional); --series prints the\n\
     per-interval demand/supply series after the table.\n\
     \n\
     See also: chamulteon-exp trace --help (decision-provenance JSONL traces),\n\
     chamulteon-exp bench --help (solver/grid timings),\n\
     chamulteon-exp des-scale --help (event-core pure-DES vs hybrid timings),\n\
     chamulteon-exp conformance --help (differential-oracle verdict) and\n\
     chamulteon-exp multi-tenant --help (shared-budget cluster arbitration)."
}

// --- `bench` subcommand -------------------------------------------------

struct BenchArgs {
    setup: String,
    iters: usize,
    threads: usize,
    out: String,
    quick: bool,
}

fn parse_bench_args(argv: &[String]) -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        setup: "wikipedia-docker".to_owned(),
        iters: 3,
        threads: default_threads(),
        out: "BENCH_3.json".to_owned(),
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--setup" => args.setup = value("--setup")?,
            "--iters" => {
                args.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown bench flag `{other}`")),
        }
    }
    if args.quick {
        args.setup = "smoke".to_owned();
        args.iters = args.iters.min(1);
    }
    args.iters = args.iters.max(1);
    Ok(args)
}

fn bench_usage() -> &'static str {
    "chamulteon-exp bench — time the capacity solvers and the lineup grid\n\
     \n\
     usage: chamulteon-exp bench [--setup NAME] [--iters N] [--threads N]\n\
            [--out FILE.json] [--quick]\n\
     \n\
     Times (a) the naive vs. incremental vs. memoized capacity solvers over\n\
     the setup's demand-curve workload and (b) the full lineup+robustness\n\
     evaluation grid, sequential baseline vs. checkpoint-forked parallel\n\
     runner, asserting both produce bit-identical reports. Writes the\n\
     measurements as JSON (default BENCH_3.json). --quick switches to the\n\
     smoke setup with a single iteration for CI."
}

/// Median/min/max of a sample in milliseconds.
struct Stat {
    median: f64,
    min: f64,
    max: f64,
}

fn stat(samples: &[f64]) -> Stat {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = if sorted.is_empty() {
        0.0
    } else {
        sorted[sorted.len() / 2]
    };
    Stat {
        median,
        min: sorted.first().copied().unwrap_or(0.0),
        max: sorted.last().copied().unwrap_or(0.0),
    }
}

fn time_iters(iters: usize, mut work: impl FnMut()) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn json_stat(s: &Stat) -> String {
    format!(
        "{{\"median\": {:.3}, \"min\": {:.3}, \"max\": {:.3}}}",
        s.median, s.min, s.max
    )
}

/// The per-(service, segment) capacity cells of the setup's demand-curve
/// workload: `(local arrival rate, service demand, per-visit SLO share)`,
/// with the same proportional SLO split `demand_curves` applies.
fn solver_cells(spec: &ExperimentSpec) -> (Vec<(f64, f64, f64)>, u32) {
    let demands: Vec<f64> = spec
        .model
        .services()
        .iter()
        .map(|s| s.nominal_demand())
        .collect();
    let visits = spec.model.visit_ratios();
    let max_instances = spec
        .model
        .services()
        .iter()
        .map(|s| s.max_instances())
        .max()
        .unwrap_or(200);
    let total: f64 = demands.iter().zip(&visits).map(|(d, v)| d * v).sum();
    let mut cells = Vec::new();
    for (&demand, &visit) in demands.iter().zip(&visits) {
        let share = if total > 0.0 {
            spec.slo.response_time_target * (demand * visit) / total
        } else {
            spec.slo.response_time_target
        };
        let per_visit = if visit > 0.0 { share / visit } else { share };
        for &rate in spec.trace.rates() {
            cells.push((rate * visit, demand, per_visit));
        }
    }
    (cells, max_instances)
}

fn bench_main(argv: &[String]) -> ExitCode {
    let args = match parse_bench_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", bench_usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", bench_usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(spec) = setup_by_name(&args.setup) else {
        eprintln!("error: unknown setup `{}`\n\n{}", args.setup, bench_usage());
        return ExitCode::FAILURE;
    };

    // (a) Capacity-solver microbench over the demand-curve workload.
    let (cells, max_instances) = solver_cells(&spec);
    eprintln!(
        "solver microbench: {} cells ({} services x {} segments), {} iter(s)",
        cells.len(),
        spec.model.service_count(),
        spec.trace.len(),
        args.iters
    );
    let naive_ms = time_iters(args.iters, || {
        for &(rate, demand, target) in &cells {
            let _ = black_box(capacity::naive::min_instances_for_response_time_quantile(
                black_box(rate),
                demand,
                target,
                DEMAND_QUANTILE,
                max_instances,
            ));
        }
    });
    let incremental_ms = time_iters(args.iters, || {
        for &(rate, demand, target) in &cells {
            let _ = black_box(capacity::min_instances_for_response_time_quantile(
                black_box(rate),
                demand,
                target,
                DEMAND_QUANTILE,
                max_instances,
            ));
        }
    });
    let cache = CapacityCache::new();
    for &(rate, demand, target) in &cells {
        // Prime the memo so the timed passes measure steady state.
        let _ = cache.min_instances_for_response_time_quantile(
            rate,
            demand,
            target,
            DEMAND_QUANTILE,
            max_instances,
        );
    }
    let cached_ms = time_iters(args.iters, || {
        for &(rate, demand, target) in &cells {
            let _ = black_box(cache.min_instances_for_response_time_quantile(
                black_box(rate),
                demand,
                target,
                DEMAND_QUANTILE,
                max_instances,
            ));
        }
    });
    let cache_stats = cache.stats();

    // (b) Full evaluation grid: sequential no-sharing baseline vs. the
    // checkpoint-forked parallel runner, in the same process and run.
    let retry = RetryPolicy::default();
    let lineup = ScalerKind::paper_lineup().len();
    let classes = chamulteon_bench::FaultClass::ALL.len();
    let runs_sequential = lineup + classes * lineup * 2;
    eprintln!(
        "lineup grid: {} sequential runs vs shared-checkpoint runner, {} thread(s), {} iter(s)",
        runs_sequential, args.threads, args.iters
    );
    let mut seq_grids = Vec::with_capacity(args.iters);
    let sequential_ms = time_iters(args.iters, || {
        seq_grids.push(evaluation_grid_seq(&spec, &retry));
    });
    let mut opt_grids = Vec::with_capacity(args.iters);
    let optimized_ms = time_iters(args.iters, || {
        opt_grids.push(evaluation_grid(&spec, &retry, args.threads));
    });
    let identical = seq_grids
        .iter()
        .zip(&opt_grids)
        .all(|(seq, opt)| seq == opt);
    if !identical {
        eprintln!("error: optimized grid diverged from the sequential baseline");
        return ExitCode::FAILURE;
    }

    // Report.
    let naive = stat(&naive_ms);
    let incremental = stat(&incremental_ms);
    let cached = stat(&cached_ms);
    let sequential = stat(&sequential_ms);
    let optimized = stat(&optimized_ms);
    let guard = |x: f64| x.max(1e-9);
    let speedup_incremental = naive.median / guard(incremental.median);
    let speedup_cached = naive.median / guard(cached.median);
    let speedup_grid = sequential.median / guard(optimized.median);
    println!("solver microbench ({} cells/iter):", cells.len());
    println!("  naive        {:>10.3} ms", naive.median);
    println!(
        "  incremental  {:>10.3} ms   ({speedup_incremental:.1}x)",
        incremental.median
    );
    println!(
        "  cached warm  {:>10.3} ms   ({speedup_cached:.1}x)",
        cached.median
    );
    println!("lineup grid ({runs_sequential} runs sequential):");
    println!("  sequential   {:>10.1} ms", sequential.median);
    println!(
        "  optimized    {:>10.1} ms   ({speedup_grid:.2}x, reports bit-identical)",
        optimized.median
    );

    let json = format!(
        "{{\n  \"bench\": \"chamulteon solver + lineup-grid timings\",\n  \"setup\": \"{}\",\n  \"iters\": {},\n  \"threads\": {},\n  \"solver_microbench\": {{\n    \"cells\": {},\n    \"naive_ms\": {},\n    \"incremental_ms\": {},\n    \"cached_warm_ms\": {},\n    \"cache_hits\": {},\n    \"cache_misses\": {},\n    \"speedup_incremental_vs_naive\": {:.2},\n    \"speedup_cached_vs_naive\": {:.2}\n  }},\n  \"lineup_grid\": {{\n    \"runs_sequential\": {},\n    \"sequential_ms\": {},\n    \"optimized_ms\": {},\n    \"speedup_optimized_vs_sequential\": {:.3},\n    \"reports_bit_identical\": {}\n  }}\n}}\n",
        args.setup,
        args.iters,
        args.threads,
        cells.len(),
        json_stat(&naive),
        json_stat(&incremental),
        json_stat(&cached),
        cache_stats.hits,
        cache_stats.misses,
        speedup_incremental,
        speedup_cached,
        runs_sequential,
        json_stat(&sequential),
        json_stat(&optimized),
        speedup_grid,
        identical,
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out);
    ExitCode::SUCCESS
}

// --- `des-scale` subcommand ---------------------------------------------

struct DesScaleArgs {
    seed: u64,
    duration: f64,
    out: String,
}

fn parse_des_scale_args(argv: &[String]) -> Result<DesScaleArgs, String> {
    let mut args = DesScaleArgs {
        seed: 7,
        duration: 300.0,
        out: "BENCH_5.json".to_owned(),
    };
    // Explicit duration wins over the `--quick` preset regardless of
    // flag order.
    let mut duration = None;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--duration" => {
                duration = Some(
                    value("--duration")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --duration: {e}"))?,
                )
            }
            "--out" => args.out = value("--out")?,
            "--quick" => quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown des-scale flag `{other}`")),
        }
    }
    args.duration = duration.unwrap_or(if quick { 60.0 } else { 300.0 });
    if !(args.duration > 0.0) {
        return Err("--duration needs a positive number of seconds".to_owned());
    }
    Ok(args)
}

fn des_scale_usage() -> &'static str {
    "chamulteon-exp des-scale — event-driven core at production load, pure DES vs hybrid\n\
     \n\
     usage: chamulteon-exp des-scale [--duration SECONDS] [--seed N]\n\
            [--out FILE.json] [--quick]\n\
     \n\
     Runs the synthetic Wikipedia day (scaled to 10k/100k/1M req/s peak and\n\
     compressed to --duration so the pure-request-level run stays tractable)\n\
     through the event-driven core twice per load: once with every request a\n\
     simulated entity, once with the hybrid fluid switch armed. Then runs the\n\
     headline configuration — the full uncompressed 86 400 s day at 1M req/s\n\
     peak — in hybrid mode, which a pure request-level simulation cannot\n\
     touch. Reports wall-clock, events processed, events/s, the speedup per\n\
     row, and checks the conservation identity sent = completed + in-flight\n\
     on every run. Writes BENCH_5.json.\n\
     --quick compresses the comparison day to 60 s for CI."
}

/// Times one des-scale case; returns the measures plus wall seconds.
fn time_des_case(case: &chamulteon_bench::DesScaleCase) -> Option<(DesScaleMeasures, f64)> {
    let started = Instant::now();
    let measures = run_des_scale_case(case)?;
    Some((measures, started.elapsed().as_secs_f64()))
}

fn json_des_run(m: &DesScaleMeasures, wall_s: f64, indent: &str) -> String {
    let events_per_sec = m.events as f64 / wall_s.max(1e-9);
    format!(
        "{indent}{{\n\
         {indent}  \"wall_ms\": {:.3},\n\
         {indent}  \"events\": {},\n\
         {indent}  \"events_per_sec\": {:.0},\n\
         {indent}  \"regime_switches\": {},\n\
         {indent}  \"sent\": {},\n\
         {indent}  \"completed\": {},\n\
         {indent}  \"in_flight\": {},\n\
         {indent}  \"mean_response_s\": {:.6},\n\
         {indent}  \"slo_violation_percent\": {:.3},\n\
         {indent}  \"conserved\": {}\n\
         {indent}}}",
        wall_s * 1e3,
        m.events,
        events_per_sec,
        m.regime_switches,
        m.sent,
        m.completed,
        m.in_flight,
        m.mean_response,
        m.slo_violation_percent,
        m.conserved,
    )
}

fn des_scale_main(argv: &[String]) -> ExitCode {
    let args = match parse_des_scale_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", des_scale_usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", des_scale_usage());
            return ExitCode::FAILURE;
        }
    };

    let metrics = MetricsRegistry::new();
    let mut broken = false;
    let mut row_blocks = Vec::new();
    eprintln!(
        "des-scale: Wikipedia day compressed to {:.0} s, seed {}",
        args.duration, args.seed
    );
    println!(
        "  {:<8} {:>14} {:>14} {:>15} {:>15} {:>9}",
        "peak", "pure wall ms", "hybrid wall ms", "pure events", "hybrid events", "speedup"
    );
    for (pure_case, hybrid_case) in des_scale::comparison_cases(args.seed, args.duration) {
        let label = pure_case.label.clone();
        eprintln!("  running {label} pure ...");
        let Some((pure, pure_wall)) = time_des_case(&pure_case) else {
            eprintln!("error: {label} pure run failed to build");
            return ExitCode::FAILURE;
        };
        eprintln!("  running {label} hybrid ...");
        let Some((hybrid, hybrid_wall)) = time_des_case(&hybrid_case) else {
            eprintln!("error: {label} hybrid run failed to build");
            return ExitCode::FAILURE;
        };
        broken |= !pure.conserved || !hybrid.conserved;
        let speedup = pure_wall / hybrid_wall.max(1e-9);
        println!(
            "  {:<8} {:>14.1} {:>14.1} {:>15} {:>15} {:>8.1}x",
            label,
            pure_wall * 1e3,
            hybrid_wall * 1e3,
            pure.events,
            hybrid.events,
            speedup
        );
        metrics.set_gauge(&format!("des_scale.{label}.pure_wall_ms"), pure_wall * 1e3);
        metrics.set_gauge(
            &format!("des_scale.{label}.hybrid_wall_ms"),
            hybrid_wall * 1e3,
        );
        metrics.set_gauge(&format!("des_scale.{label}.speedup"), speedup);
        row_blocks.push(format!(
            "    {{\n      \"label\": \"{}\",\n      \"peak_rps\": {},\n      \"duration_s\": {},\n      \"speedup_hybrid_vs_pure\": {:.3},\n      \"pure\":\n{},\n      \"hybrid\":\n{}\n    }}",
            label,
            pure_case.peak,
            pure_case.duration,
            speedup,
            json_des_run(&pure, pure_wall, "      "),
            json_des_run(&hybrid, hybrid_wall, "      "),
        ));
    }

    let headline_case = des_scale::headline_case(args.seed);
    eprintln!("  running 1M-day headline (full 86 400 s, hybrid) ...");
    let Some((headline, headline_wall)) = time_des_case(&headline_case) else {
        eprintln!("error: headline run failed to build");
        return ExitCode::FAILURE;
    };
    broken |= !headline.conserved;
    println!(
        "  1M req/s full day, hybrid: {:.1} ms wall, {} events, {} switches, {} requests completed",
        headline_wall * 1e3,
        headline.events,
        headline.regime_switches,
        headline.completed
    );
    metrics.set_gauge("des_scale.headline.wall_ms", headline_wall * 1e3);
    metrics.set_gauge("des_scale.headline.completed", headline.completed as f64);

    println!("metrics:");
    for line in metrics.snapshot().lines() {
        println!("  {line}");
    }
    if broken {
        eprintln!("error: a run violated the conservation identity sent = completed + in-flight");
        return ExitCode::FAILURE;
    }

    let json = format!(
        "{{\n  \"bench\": \"des-scale: event-driven core, pure DES vs hybrid fluid\",\n  \"seed\": {},\n  \"compare_duration_s\": {},\n  \"rows\": [\n{}\n  ],\n  \"headline\": {{\n    \"label\": \"{}\",\n    \"peak_rps\": {},\n    \"duration_s\": {},\n    \"run\":\n{}\n  }}\n}}\n",
        args.seed,
        args.duration,
        row_blocks.join(",\n"),
        headline_case.label,
        headline_case.peak,
        headline_case.duration,
        json_des_run(&headline, headline_wall, "    "),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out);
    ExitCode::SUCCESS
}

// --- `conformance` subcommand -------------------------------------------

struct ConformanceArgs {
    config: ConformanceConfig,
    out: Option<String>,
}

fn parse_conformance_args(argv: &[String]) -> Result<ConformanceArgs, String> {
    let mut config = ConformanceConfig::default();
    let mut out = None;
    let mut quick = false;
    // Explicit grid size wins over the `--quick` preset regardless of
    // flag order, so `--quick --crash-points N` does what it says.
    let mut crash_points = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--cases" => {
                config.algorithm1_cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?
            }
            "--replays" => {
                config.ledger_replays = value("--replays")?
                    .parse()
                    .map_err(|e| format!("bad --replays: {e}"))?
            }
            "--arrivals" => {
                config.sim_arrivals = value("--arrivals")?
                    .parse()
                    .map_err(|e| format!("bad --arrivals: {e}"))?
            }
            "--crash-points" => {
                crash_points = Some(
                    value("--crash-points")?
                        .parse()
                        .map_err(|e| format!("bad --crash-points: {e}"))?,
                )
            }
            "--quick" => quick = true,
            "--out" => out = Some(value("--out")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown conformance flag `{other}`")),
        }
    }
    if quick {
        let seed = config.seed;
        config = ConformanceConfig {
            seed,
            ..ConformanceConfig::quick()
        };
    }
    if let Some(points) = crash_points {
        config.recovery_crash_points = points;
    }
    Ok(ConformanceArgs { config, out })
}

fn conformance_usage() -> &'static str {
    "chamulteon-exp conformance — cross-check the analytic spine against\n\
     independent oracles\n\
     \n\
     usage: chamulteon-exp conformance [--seed N] [--cases N] [--replays N]\n\
            [--arrivals N] [--crash-points N] [--quick] [--out FILE.json]\n\
     \n\
     Runs four differential oracles: a brute-force Algorithm 1 grid\n\
     (bit-level agreement of the naive, exact and cached decision paths),\n\
     a FOX ledger replay (exact agreement on vetoes, lease books and\n\
     billed instance-seconds), a discrete-event M/M/n micro-simulator\n\
     (Erlang-C measures and capacity answers within batch-means confidence\n\
     bands), and a crash-recovery differential (a controller restored from\n\
     its encoded snapshot must continue bit-identically to the\n\
     uninterrupted run). Prints the verdict, optionally writes it as JSON,\n\
     and exits non-zero on any mismatch. --quick shrinks the grid for CI."
}

fn conformance_main(argv: &[String]) -> ExitCode {
    let args = match parse_conformance_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", conformance_usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", conformance_usage());
            return ExitCode::FAILURE;
        }
    };
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

struct MultiTenantArgs {
    spec: MultiTenantSpec,
    out: Option<String>,
}

fn parse_multi_tenant_args(argv: &[String]) -> Result<MultiTenantArgs, String> {
    let mut quick = false;
    let mut policy = ArbitrationPolicy::WeightedFairShare;
    let mut tenants = None;
    let mut budget = None;
    let mut charging = None;
    let mut seed = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--policy" => {
                let name = value("--policy")?;
                policy = ArbitrationPolicy::from_name(&name)
                    .ok_or_else(|| format!("unknown policy `{name}`"))?;
            }
            "--tenants" => {
                tenants = Some(
                    value("--tenants")?
                        .parse()
                        .map_err(|e| format!("bad --tenants: {e}"))?,
                )
            }
            "--budget" => {
                budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                )
            }
            "--charging" => {
                charging = Some(match value("--charging")?.as_str() {
                    "ec2" => ChargingModel::ec2_hourly(),
                    "gcp" => ChargingModel::gcp_per_minute(),
                    other => return Err(format!("unknown charging model `{other}` (ec2|gcp)")),
                })
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--quick" => quick = true,
            "--out" => out = Some(value("--out")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown multi-tenant flag `{other}`")),
        }
    }
    let mut spec = if quick {
        MultiTenantSpec::smoke(policy)
    } else {
        MultiTenantSpec::standard(policy)
    };
    if let Some(n) = tenants {
        spec.tenants = n;
    }
    if let Some(b) = budget {
        spec.budget = b;
    }
    if let Some(model) = charging {
        spec.charging = model;
    }
    if let Some(s) = seed {
        spec.seed = s;
    }
    Ok(MultiTenantArgs { spec, out })
}

fn multi_tenant_usage() -> &'static str {
    "chamulteon-exp multi-tenant — K coordinated controllers sharing one\n\
     cluster budget through the arbiter and its warm pool\n\
     \n\
     usage: chamulteon-exp multi-tenant [--tenants N] [--policy NAME]\n\
            [--budget N] [--charging ec2|gcp] [--seed N] [--quick]\n\
            [--out FILE.json]\n\
     \n\
     Runs K Chamulteon controllers over phase-offset diurnal traces, each\n\
     submitting its aggregated scale-up/-down to a shared cluster arbiter\n\
     every interval. Prints the per-tenant table (grants, warm transfers,\n\
     origin-attributed billing, SLO) and the cluster summary; optionally\n\
     writes the outcome as JSON. --quick runs the 10-minute CI smoke\n\
     scenario instead of the one-hour standard one.\n\
     \n\
     policies: strict-priority  fair-share  cost-greedy"
}

fn multi_tenant_main(argv: &[String]) -> ExitCode {
    let args = match parse_multi_tenant_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", multi_tenant_usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", multi_tenant_usage());
            return ExitCode::FAILURE;
        }
    };
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

// --- `trace` subcommand -------------------------------------------------

struct TraceArgs {
    setup: String,
    scaler: String,
    faults: Option<String>,
    out: String,
    tail: usize,
}

fn parse_trace_args(argv: &[String]) -> Result<TraceArgs, String> {
    let mut args = TraceArgs {
        setup: "smoke".to_owned(),
        scaler: "chamulteon".to_owned(),
        faults: None,
        out: "trace.jsonl".to_owned(),
        tail: 6,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--setup" => args.setup = value("--setup")?,
            "--scaler" => args.scaler = value("--scaler")?,
            "--faults" => args.faults = Some(value("--faults")?),
            "--out" => args.out = value("--out")?,
            "--tail" => {
                args.tail = value("--tail")?
                    .parse()
                    .map_err(|e| format!("bad --tail: {e}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown trace flag `{other}`")),
        }
    }
    Ok(args)
}

fn trace_usage() -> &'static str {
    "chamulteon-exp trace — capture a decision-provenance JSONL trace\n\
     \n\
     usage: chamulteon-exp trace [--setup NAME] [--scaler NAME] [--faults CLASS]\n\
            [--out FILE.jsonl] [--tail N]\n\
     \n\
     Runs one scaler through the setup with the tracing recorder attached,\n\
     writes every control-loop event (cycle starts, forecasts, conflict\n\
     resolutions, per-service decision provenance, actuation outcomes,\n\
     injected faults) as one JSON object per line, validates the file\n\
     round-trips (emit -> parse -> re-emit is identity), and prints per-kind\n\
     event counts, the metrics snapshot and the last N decisions.\n\
     \n\
     fault classes: clean (default)  drop-samples  corrupt-samples\n\
                    actuation-failures  instance-crashes"
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

fn trace_main(argv: &[String]) -> ExitCode {
    let args = match parse_trace_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", trace_usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", trace_usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(spec) = setup_by_name(&args.setup) else {
        eprintln!("error: unknown setup `{}`\n\n{}", args.setup, trace_usage());
        return ExitCode::FAILURE;
    };
    let Some(kind) = scaler_by_name(&args.scaler) else {
        eprintln!(
            "error: unknown scaler `{}`\n\n{}",
            args.scaler,
            trace_usage()
        );
        return ExitCode::FAILURE;
    };
    let plan = match args.faults.as_deref() {
        None | Some("clean") => None,
        Some(name) => match FaultClass::ALL.iter().find(|c| c.name() == name) {
            Some(class) => {
                Some(class.plan(spec.seed, spec.trace.duration(), spec.scaling_interval))
            }
            None => {
                eprintln!("error: unknown fault class `{name}`\n\n{}", trace_usage());
                return ExitCode::FAILURE;
            }
        },
    };

    eprintln!(
        "tracing {} on {} ({}), {:.0} s simulated...",
        args.scaler,
        spec.name,
        args.faults.as_deref().unwrap_or("clean"),
        spec.trace.duration()
    );
    let (obs, ring) = Obs::recording(1 << 20);
    let faulted = run_experiment_observed(&spec, kind, plan, &RetryPolicy::default(), &obs);
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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("bench") {
        return bench_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("des-scale") {
        return des_scale_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("trace") {
        return trace_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("conformance") {
        return conformance_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("multi-tenant") {
        return multi_tenant_main(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    // Build the spec.
    let mut spec = match (&args.setup, &args.trace) {
        (Some(name), None) => match setup_by_name(name) {
            Some(s) => s,
            None => {
                eprintln!("error: unknown setup `{name}`\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        },
        (None, Some(path)) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let trace = match LoadTrace::from_csv(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            ExperimentSpec {
                name: format!("custom trace {path}"),
                trace,
                model: ApplicationModel::paper_benchmark(),
                profile: DeploymentProfile::docker(),
                slo: SloPolicy::default(),
                scaling_interval: 60.0,
                seed: 1,
                warmup_days: 2,
                hist_bucket: 300.0,
            }
        }
        (None, None) => setups::smoke_test(),
        (Some(_), Some(_)) => {
            eprintln!("error: --setup and --trace are mutually exclusive");
            return ExitCode::FAILURE;
        }
    };
    if let Some(profile) = &args.profile {
        spec.profile = match profile.as_str() {
            "docker" => DeploymentProfile::docker(),
            "vm" => DeploymentProfile::vm(),
            other => {
                eprintln!("error: unknown profile `{other}` (docker|vm)");
                return ExitCode::FAILURE;
            }
        };
    }
    if let Some(interval) = args.interval {
        spec.scaling_interval = interval.max(1.0);
    }
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    if let Some(slo) = args.slo {
        spec.slo = SloPolicy::new(slo, spec.slo.toleration_factor);
    }

    // Pick the scalers.
    let kinds: Vec<ScalerKind> = if args.all {
        ScalerKind::paper_lineup().to_vec()
    } else {
        let name = args.scaler.as_deref().unwrap_or("chamulteon");
        match scaler_by_name(name) {
            Some(k) => vec![k],
            None => {
                eprintln!("error: unknown scaler `{name}`\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    };

    eprintln!(
        "running {} for {} scaler(s), {:.0} s simulated...",
        spec.name,
        kinds.len(),
        spec.trace.duration()
    );
    let outcomes: Vec<_> = kinds.iter().map(|&k| run_experiment(&spec, k)).collect();
    let reports: Vec<_> = outcomes.iter().map(|o| o.report.clone()).collect();
    println!("{}", render_table(&spec.name, &reports));

    if args.series {
        for (kind, outcome) in kinds.iter().zip(&outcomes) {
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
