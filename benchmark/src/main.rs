//! `chamulteon-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload: builds its inputs several times (`setup_s` is the
//! median), runs the correctness reference once, then times whole passes
//! for `--seconds` host seconds. `--trace 1` adds one traced pass and
//! reports per-layer metrics instead of the end-to-end ones. The last
//! line of standard output is the JSON result; the exit code is non-zero
//! when a correctness check fails or the command line is malformed.

use chamulteon::ControllerSnapshot;
use chamulteon_bench::{run_des_scale_case, run_experiment, ScalerKind};
use chamulteon_benchmark::args::{self, Args, Workload};
use chamulteon_benchmark::heap::{self, CountingAlloc};
use chamulteon_benchmark::spans::{self, Span, Tracer};
use chamulteon_benchmark::stats::{self, Summary};
use chamulteon_benchmark::{graph, hybrid, paper, rss, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Table III runs per paper-vm pass, each under its own simulator seed.
/// Re-forecasts are most of a Table III run and their number moves by
/// ±10 % with the simulator seed; four replications average that out of
/// the pass time.
const VM_REPLICATIONS: u64 = 4;
/// Fewest measured passes, whatever `--seconds` asks for: the identity
/// check needs two.
const MIN_PASSES: usize = 2;

/// The untraced pass times and, with `--trace 1`, the traced pass.
struct Measured {
    walls: Vec<f64>,
    traced: Option<(Vec<Span>, f64)>,
}

/// Runs measured passes until `args.seconds` have elapsed, then the
/// traced pass if asked. Every pass's output goes to `consume` (with
/// `true` for the traced one), outside the timed region. There is no
/// warm-up pass: on paper-* and graph-1000 the correctness reference runs
/// the same layers just before, and a hybrid-day warm-up would cost half
/// of a 20 s run.
fn measure<T>(
    args: &Args,
    mut pass: impl FnMut(&mut Tracer) -> T,
    mut consume: impl FnMut(T, bool),
) -> Measured {
    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let mut tracer = Tracer::disabled();
        let start = Instant::now();
        let out = black_box(pass(&mut tracer));
        walls.push(start.elapsed().as_secs_f64());
        consume(out, false);
    }
    let traced = args.trace.then(|| {
        let mut tracer = Tracer::enabled();
        tracer.enter("pass");
        let out = black_box(pass(&mut tracer));
        tracer.exit();
        consume(out, true);
        let spans = tracer.spans().to_vec();
        let wall = spans[0].duration_ns() as f64 * 1e-9;
        (spans, wall)
    });
    Measured { walls, traced }
}

/// The first pass's output, and whether every later pass matched it.
struct FirstPass<T> {
    first: Option<T>,
    identical: bool,
}

impl<T: PartialEq> FirstPass<T> {
    fn new() -> Self {
        FirstPass {
            first: None,
            identical: true,
        }
    }

    fn see(&mut self, out: T) {
        match &self.first {
            None => self.first = Some(out),
            Some(first) => self.identical &= *first == out,
        }
    }
}

/// Builds a workload's inputs [`SETUP_REPS`] times. Returns the last
/// inputs, every repetition's total seconds, and the median trace and
/// model seconds that `parts` reads off each repetition.
fn repeat_setup<S>(
    mut build: impl FnMut() -> S,
    parts: impl Fn(&S) -> (f64, f64),
) -> (S, Vec<f64>, f64, f64) {
    let mut totals = Vec::new();
    let mut traces = Vec::new();
    let mut models = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = black_box(build());
        totals.push(start.elapsed().as_secs_f64());
        let (trace_s, model_s) = parts(&built);
        traces.push(trace_s);
        models.push(model_s);
        last = Some(built);
    }
    let last = last.expect("SETUP_REPS > 0");
    (last, totals, stats::median(&traces), stats::median(&models))
}

/// Everything one run reports.
struct Report {
    setup_s: Vec<f64>,
    measured: Measured,
    checks: Vec<(&'static str, bool)>,
    attempted: u64,
    failed: u64,
    layers: BTreeMap<&'static str, f64>,
}

impl Report {
    fn new(
        setup_s: Vec<f64>,
        trace_s: f64,
        model_s: f64,
        reference_s: f64,
        measured: Measured,
    ) -> Self {
        let mut layers = BTreeMap::new();
        layers.insert("workload.trace_build_ms", trace_s * 1e3);
        layers.insert("perfmodel.topology_build_ms", model_s * 1e3);
        layers.insert("check.reference_s", reference_s);
        layers.insert("harness.passes", measured.walls.len() as f64);
        if let Some((spans, wall)) = &measured.traced {
            let layer = spans::layer_times(spans);
            let self_s = |name: &str| {
                layer
                    .iter()
                    .find(|l| l.name == name)
                    .map_or(0.0, |l| l.self_ns as f64 * 1e-9)
            };
            let count = |name: &str| {
                layer
                    .iter()
                    .find(|l| l.name == name)
                    .map_or(0.0, |l| l.count as f64)
            };
            for (metric, span, scale) in [
                ("sim.init_ms", "sim.init", 1e3),
                ("sim.advance_s", "sim.advance", 1.0),
                ("sim.observe_ms", "sim.observe", 1e3),
                ("sim.actuate_ms", "sim.actuate", 1e3),
                ("sim.finish_ms", "sim.finish", 1e3),
                ("controller.preload_ms", "controller.preload", 1e3),
                ("controller.tick_s", "controller.tick", 1.0),
                ("codec.snapshot_ms", "codec.snapshot", 1e3),
                ("codec.encode_ms", "codec.encode", 1e3),
                ("codec.decode_ms", "codec.decode", 1e3),
                ("codec.restore_ms", "codec.restore", 1e3),
                ("metrics.demand_curves_ms", "metrics.demand_curves", 1e3),
                ("metrics.scoring_ms", "metrics.score", 1e3),
                ("bench.des_case_s", "bench.des_case", 1.0),
            ] {
                layers.insert(metric, self_s(span) * scale);
            }
            layers.insert("sim.advance_calls", count("sim.advance"));
            let harness: f64 = ["pass", "setup", "family", "cycle"]
                .iter()
                .map(|n| self_s(n))
                .sum();
            layers.insert("trace.attributed_pct", 100.0 * (1.0 - harness / wall));
            layers.insert(
                "trace.overhead_pct",
                100.0 * (wall / stats::median(&measured.walls) - 1.0),
            );
        }
        Report {
            setup_s,
            measured,
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            layers,
        }
    }

    /// Durations, seconds, of the traced pass's spans named `name`.
    fn span_durations(&self, name: &str) -> Vec<f64> {
        self.measured
            .traced
            .as_ref()
            .map_or_else(Vec::new, |(spans, _)| {
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.duration_ns() as f64 * 1e-9)
                    .collect()
            })
    }

    /// Sets the tick-latency metrics from per-tick seconds and flags.
    fn tick_latencies(&mut self, ticks: &[f64], forecasted: &[bool]) {
        let pick = |want: bool| -> Vec<f64> {
            ticks
                .iter()
                .zip(forecasted)
                .filter(|(_, &f)| f == want)
                .map(|(&t, _)| t)
                .collect()
        };
        self.layers.insert(
            "controller.tick_plain_p50_us",
            stats::median(&pick(false)) * 1e6,
        );
        self.layers.insert(
            "controller.tick_forecast_p50_ms",
            stats::median(&pick(true)) * 1e3,
        );
        self.layers
            .insert("controller.decide_p50_ms", stats::median(ticks) * 1e3);
        self.layers.insert(
            "controller.decide_p90_ms",
            stats::percentile(ticks, 90.0).unwrap_or(0.0) * 1e3,
        );
    }
}

fn paper_workload(args: &Args, tables: &[paper::Table], replications: u64) -> Report {
    let (setup, setup_s, trace_s, model_s) = repeat_setup(
        || paper::setup(tables, args.seed, replications),
        |s| (s.trace_s, s.model_s),
    );

    let start = Instant::now();
    let reference: Vec<_> = setup
        .specs
        .iter()
        .map(|(_, spec)| run_experiment(spec, ScalerKind::Chamulteon))
        .collect();
    let reference_s = start.elapsed().as_secs_f64();

    let mut passes = FirstPass::new();
    let (mut attempted, mut failed) = (0, 0);
    let measured = measure(
        args,
        |tracer| {
            setup
                .specs
                .iter()
                .map(|(table, spec)| {
                    tracer.enter(&format!("setup:{}", table.name()));
                    let out = paper::run(spec, tracer);
                    tracer.exit();
                    out
                })
                .collect::<Vec<_>>()
        },
        |outs, _| {
            attempted += outs.iter().map(|o| o.actuations).sum::<u64>();
            failed += outs.iter().map(|o| o.actuation_failures).sum::<u64>();
            passes.see(outs);
        },
    );
    let identical = passes.identical;
    let first: Vec<paper::Outcome> = passes.first.expect("at least one pass ran");

    let mut report = Report::new(setup_s, trace_s, model_s, reference_s, measured);
    report.attempted = attempted;
    report.failed = failed;
    report.checks = vec![
        (
            "loop matches run_experiment bit for bit",
            first
                .iter()
                .zip(&reference)
                .all(|(o, r)| o.result == r.result && o.report == r.report),
        ),
        (
            "sent == completed + in_flight",
            first.iter().all(|o| {
                o.result.sent_per_second.iter().sum::<u64>()
                    == o.result.completed + o.result.in_flight_at_end
            }),
        ),
        ("every pass yields the identical report", identical),
    ];

    let requests: u64 = first.iter().map(|o| o.result.total_requests()).sum();
    let satisfied: u64 = first.iter().map(|o| o.result.satisfied).sum();
    let tolerating: u64 = first.iter().map(|o| o.result.tolerating).sum();
    let forecasted: Vec<bool> = first.iter().flat_map(|o| o.forecasted.clone()).collect();
    let total = |f: fn(&paper::Outcome) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let l = &mut report.layers;
    l.insert("sim.requests", requests as f64);
    l.insert("sim.actuate_calls", total(|o| o.actuations));
    l.insert("sim.actuate_failed", total(|o| o.actuation_failures));
    l.insert("controller.ticks", forecasted.len() as f64);
    l.insert(
        "controller.forecast_ticks",
        forecasted.iter().filter(|&&f| f).count() as f64,
    );
    l.insert("controller.degradations", total(|o| o.degradations));
    l.insert(
        "metrics.slo_violation_pct",
        100.0 * (requests - satisfied) as f64 / requests.max(1) as f64,
    );
    l.insert(
        "metrics.apdex_pct",
        100.0 * (satisfied as f64 + 0.5 * tolerating as f64) / requests.max(1) as f64,
    );
    l.insert(
        "metrics.instance_hours",
        first.iter().map(|o| o.report.instance_hours).sum(),
    );
    if report.measured.traced.is_some() {
        let advance_s = report.layers["sim.advance_s"];
        report.layers.insert(
            "sim.advance_ns_per_request",
            advance_s * 1e9 / requests.max(1) as f64,
        );
        let ticks = report.span_durations("controller.tick");
        report.tick_latencies(&ticks, &forecasted);
    }
    report
}

fn graph_workload(args: &Args) -> Report {
    let (setup, setup_s, trace_s, model_s) =
        repeat_setup(|| graph::setup(args.seed), |s| (s.trace_s, s.model_s));

    let start = Instant::now();
    let reference: Vec<u64> = setup
        .models
        .iter()
        .map(|(_, model)| {
            let mut lat = graph::Latencies::default();
            graph::run_family(model, &setup, false, &mut Tracer::disabled(), &mut lat).digest
        })
        .collect();
    let reference_s = start.elapsed().as_secs_f64();

    let mut passes = FirstPass::new();
    let mut lat = graph::Latencies::default();
    let (mut attempted, mut failed) = (0, 0);
    let measured = measure(
        args,
        |tracer| {
            let mut lat = graph::Latencies::default();
            let outs = setup
                .models
                .iter()
                .map(|(family, model)| {
                    tracer.enter(&format!("family:{}", family.name()));
                    let out = graph::run_family(model, &setup, true, tracer, &mut lat);
                    tracer.exit();
                    out
                })
                .collect::<Vec<_>>();
            (outs, lat)
        },
        |(outs, pass_lat), traced| {
            attempted += outs.iter().map(|o| o.ticks + o.restores).sum::<u64>();
            failed += outs
                .iter()
                .map(|o| o.restore_failures + o.sample_failures)
                .sum::<u64>();
            if !traced {
                lat.append(pass_lat);
            }
            passes.see(outs);
        },
    );
    let identical = passes.identical;
    let first: Vec<graph::FamilyOutcome> = passes.first.expect("at least one pass ran");

    let mut report = Report::new(setup_s, trace_s, model_s, reference_s, measured);
    report.attempted = attempted;
    report.failed = failed;
    report.checks = vec![
        (
            "restored run's target digest == uninterrupted run's",
            first.len() == reference.len()
                && first.iter().zip(&reference).all(|(o, &r)| o.digest == r),
        ),
        (
            "encode(decode(s)) == s on each family's last snapshot",
            first.iter().all(|o| {
                ControllerSnapshot::decode(&o.last_snapshot).map(|s| s.encode())
                    == Ok(o.last_snapshot.clone())
            }),
        ),
        ("every pass yields the identical digests", identical),
    ];

    let sum = |f: fn(&graph::FamilyOutcome) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let ticks = sum(|o| o.ticks);
    let l = &mut report.layers;
    l.insert("controller.ticks", ticks);
    l.insert("controller.forecast_ticks", sum(|o| o.forecast_ticks));
    l.insert("controller.degradations", sum(|o| o.degradations));
    l.insert(
        "codec.snapshot_bytes",
        sum(|o| o.snapshot_bytes) / ticks.max(1.0),
    );
    l.insert("codec.restores", sum(|o| o.restores));
    l.insert("codec.restore_failed", sum(|o| o.restore_failures));
    l.insert(
        "codec.checkpoint_p50_ms",
        stats::median(&lat.checkpoint) * 1e3,
    );
    l.insert("codec.restore_p50_ms", stats::median(&lat.restore) * 1e3);
    l.insert(
        "metrics.instance_hours",
        first.iter().map(|o| o.instance_hours).sum(),
    );
    report.tick_latencies(&lat.tick, &lat.forecasted);
    report
}

fn hybrid_workload(args: &Args) -> Report {
    let case = hybrid::case(args.seed);
    let (_, setup_s, _, _) = repeat_setup(|| hybrid::trace(&case), |_| (0.0, 0.0));
    let trace_s = stats::median(&setup_s);

    let mut passes = FirstPass::new();
    let (mut attempted, mut failed) = (0, 0);
    let measured = measure(
        args,
        |tracer| {
            tracer.enter("bench.des_case");
            let measures = run_des_scale_case(&case);
            tracer.exit();
            measures
        },
        |measures, _| {
            attempted += 1;
            failed += u64::from(measures.is_none());
            passes.see(measures);
        },
    );
    let identical = passes.identical;
    let measures = passes.first.flatten();

    let mut report = Report::new(setup_s, trace_s, 0.0, 0.0, measured);
    report.attempted = attempted;
    report.failed = failed;
    report.checks = vec![
        ("the case ran", measures.is_some()),
        (
            "sent == completed + in_flight",
            measures.is_some_and(|m| m.conserved),
        ),
        (
            "at least one regime switch",
            measures.is_some_and(|m| m.regime_switches >= 1),
        ),
        ("every pass yields identical measures", identical),
    ];
    if let Some(m) = measures {
        let l = &mut report.layers;
        l.insert("sim.requests", m.sent as f64);
        l.insert("sim.hybrid_events", m.events as f64);
        l.insert("sim.regime_switches", m.regime_switches as f64);
        l.insert("metrics.slo_violation_pct", m.slo_violation_percent);
        if report.measured.traced.is_some() {
            let case_s = report.layers["bench.des_case_s"];
            report.layers.insert(
                "sim.advance_ns_per_request",
                case_s * 1e9 / m.sent.max(1) as f64,
            );
        }
    }
    report
}

fn summary_line(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "{name:<12} median {:.6} {unit}  p25 {:.6}  p75 {:.6}  min {:.6}  max {:.6}  n {}",
        s.median, s.p25, s.p75, s.min, s.max, s.n
    )
}

/// A JSON number; the values reported are finite by construction, and a
/// non-finite one would make the line unparseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", args::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    println!(
        "chamulteon-benchmark {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = match args.workload {
        Workload::PaperDocker => paper_workload(
            &args,
            &[
                paper::Table::WikipediaDocker,
                paper::Table::BibsonomySmall,
                paper::Table::BibsonomyLarge,
            ],
            1,
        ),
        Workload::PaperVm => paper_workload(&args, &[paper::Table::WikipediaVm], VM_REPLICATIONS),
        Workload::Graph1000 => graph_workload(&args),
        Workload::HybridDay => hybrid_workload(&args),
    };
    let peak_heap_mb = heap::peak_bytes() as f64 / (1024.0 * 1024.0);
    let peak_rss_mb = rss::peak_rss_mib().unwrap_or(0.0);
    report.layers.insert("harness.peak_rss_mb", peak_rss_mb);

    let setup = stats::summarize(&report.setup_s).expect("SETUP_REPS > 0");
    let wall = stats::summarize(&report.measured.walls).expect("MIN_PASSES > 0");
    println!("{}", summary_line("setup_s", "s", &setup));
    println!("{}", summary_line("wall_s", "s", &wall));
    println!("peak_heap_mb {peak_heap_mb:.3} MiB  (resident peak {peak_rss_mb:.1} MiB)");
    let correct = report.checks.iter().all(|&(_, ok)| ok);
    for (name, ok) in &report.checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "operations attempted {} failed {}",
        report.attempted, report.failed
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if let Some((spans, pass_wall)) = &report.measured.traced {
        println!("traced pass {pass_wall:.6} s; self time by layer:");
        for layer in spans::layer_times(spans) {
            let self_s = layer.self_ns as f64 * 1e-9;
            println!(
                "  {:<22} {:>12.3} ms {:>6.2} %  {:>8} spans",
                layer.name,
                self_s * 1e3,
                100.0 * self_s / pass_wall,
                layer.count
            );
        }
        let jsonl = spans::to_jsonl(spans);
        let written = args
            .trace_file
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&args.trace_file, jsonl));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", args.trace_file.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} lines in {}",
            spans.len(),
            args.trace_file.display()
        );
        for (name, unit) in PER_LAYER {
            let value = report.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<32} {value} {unit}");
            metrics.push((name, unit, value));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => setup.median,
                "wall_s" => wall.median,
                _ => peak_heap_mb,
            };
            metrics.push((name, unit, value));
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
