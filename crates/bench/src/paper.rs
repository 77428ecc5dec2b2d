//! The paper's evaluation (§V) as text: Tables II–V beside the published
//! rows, the Figure 2/3 series, the clean load step, the §V-C scalability
//! deviation and the cycles, forecast, FOX and backpressure ablations.
//!
//! Each of [`SECTIONS`] renders one section; `chamulteon-exp paper`
//! writes every one to its own file under `experiments/`, which
//! EXPERIMENTS.md quotes and CI regenerates and diffs. Every run is
//! seeded and the worker pool returns results in input order, so a
//! section's text does not depend on the thread count.
//!
//! Only the *shape* is expected to match the published numbers (who wins,
//! by roughly what factor): the substrate here is a simulator, not the
//! authors' CloudStack/Kubernetes testbed.

#![allow(
    clippy::expect_used,
    reason = "section plumbing builds fixed, statically valid traces and models"
)]

use crate::drivers::ScalerKind;
use crate::experiment::{run_experiment, ExperimentOutcome, ExperimentSpec};
use crate::pool::parallel_map;
use crate::setups::{bibsonomy_large, bibsonomy_small, wikipedia_docker, wikipedia_vm};
use chamulteon::{proactive_decisions, ChamulteonConfig, ChargingModel};
use chamulteon_forecast::{
    mase, ArForecaster, DriftForecaster, Forecaster, HoltForecaster, HoltWintersForecaster,
    MeanForecaster, NaiveForecaster, SeasonalNaiveForecaster, SesForecaster, TelescopeForecaster,
    ThetaForecaster, TimeSeries,
};
use chamulteon_metrics::{render_table, ScalerReport};
use chamulteon_perfmodel::{ApplicationModel, ApplicationModelBuilder};
use chamulteon_sim::{DeploymentProfile, SloPolicy};
use chamulteon_workload::generators::{bibsonomy_like, wikipedia_like};
use chamulteon_workload::LoadTrace;
use std::fmt::Write;

/// One row set of a published table: scaler name and the seven reported
/// values (θ_U, θ_O, τ_U, τ_O, ς, SLO, Apdex), all in percent.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Scaler column name.
    pub scaler: &'static str,
    /// θ_U, θ_O, τ_U, τ_O, ς, SLO violations, Apdex.
    pub values: [f64; 7],
}

/// Paper Table II — Wikipedia trace, Docker.
pub const TABLE2: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [3.7, 29.3, 14.9, 84.4, 52.9, 6.2, 77.7],
    },
    PaperRow {
        scaler: "adapt",
        values: [12.6, 10.2, 34.7, 54.9, 50.6, 24.2, 51.6],
    },
    PaperRow {
        scaler: "hist",
        values: [7.0, 32.1, 25.6, 69.4, 58.1, 12.5, 67.8],
    },
    PaperRow {
        scaler: "reg",
        values: [15.3, 8.8, 52.2, 41.2, 52.9, 37.3, 31.1],
    },
    PaperRow {
        scaler: "react",
        values: [5.3, 13.1, 23.6, 69.7, 50.3, 11.2, 72.8],
    },
];

/// Paper Table III — Wikipedia trace, VM.
pub const TABLE3: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [0.9, 15.6, 3.0, 60.6, 37.0, 2.0, 83.2],
    },
    PaperRow {
        scaler: "adapt",
        values: [9.7, 6.0, 31.0, 15.7, 34.9, 19.1, 30.7],
    },
    PaperRow {
        scaler: "hist",
        values: [4.5, 23.9, 15.7, 38.7, 37.1, 5.1, 69.8],
    },
    PaperRow {
        scaler: "reg",
        values: [7.3, 10.2, 24.0, 24.0, 34.8, 12.6, 50.3],
    },
    PaperRow {
        scaler: "react",
        values: [0.2, 47.5, 0.8, 94.1, 57.8, 1.0, 92.0],
    },
];

/// Paper Table IV — BibSonomy trace, small setup.
pub const TABLE4: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [2.0, 19.1, 7.4, 78.8, 47.4, 7.3, 90.5],
    },
    PaperRow {
        scaler: "adapt",
        values: [9.7, 9.3, 40.6, 40.7, 50.1, 17.8, 79.8],
    },
    PaperRow {
        scaler: "hist",
        values: [5.43, 18.9, 23.8, 61.2, 48.7, 11.9, 84.6],
    },
    PaperRow {
        scaler: "reg",
        values: [11.0, 4.9, 42.7, 32.3, 48.7, 23.4, 71.2],
    },
    PaperRow {
        scaler: "react",
        values: [3.5, 14.9, 14.5, 68.5, 56.1, 10.5, 87.5],
    },
];

/// Paper Table V — BibSonomy trace, large setup.
pub const TABLE5: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [2.4, 19.5, 6.9, 89.7, 51.4, 9.6, 77.1],
    },
    PaperRow {
        scaler: "adapt",
        values: [17.5, 7.7, 50.8, 38.9, 55.8, 33.2, 42.8],
    },
    PaperRow {
        scaler: "hist",
        values: [5.9, 24.6, 28.3, 65.7, 56.1, 12.9, 75.4],
    },
    PaperRow {
        scaler: "reg",
        values: [15.4, 4.6, 55.4, 36.0, 59.1, 36.3, 35.2],
    },
    PaperRow {
        scaler: "react",
        values: [5.6, 9.4, 32.6, 55.1, 53.3, 15.3, 74.1],
    },
];

/// Renders a published table in the same layout as
/// [`chamulteon_metrics::render_table`].
pub fn render_paper_table(title: &str, rows: &[PaperRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = rows
        .iter()
        .map(|r| r.scaler.len())
        .max()
        .unwrap_or(8)
        .max(10);
    out.push_str(&format!("{:<8}", "Metric"));
    for r in rows {
        out.push_str(&format!(" {:>width$}", r.scaler));
    }
    out.push('\n');
    let names = [
        "theta_U", "theta_O", "tau_U", "tau_O", "sigma", "SLO", "Apdex",
    ];
    for (i, name) in names.iter().enumerate() {
        out.push_str(&format!("{name:<8}"));
        for r in rows {
            out.push_str(&format!(" {:>width$}", format!("{:.1}%", r.values[i])));
        }
        out.push('\n');
    }
    out
}

/// Runs the paper's five-scaler lineup through one experiment on up to
/// `threads` worker threads (1 runs it on the calling thread). Every cell
/// is deterministic in the spec's seed and the pool returns results in
/// input order, so the reports do not depend on `threads`.
pub fn run_lineup(spec: &ExperimentSpec, threads: usize) -> Vec<ScalerReport> {
    outcomes(spec, &ScalerKind::paper_lineup(), threads)
        .into_iter()
        .map(|run| run.report)
        .collect()
}

/// Runs each of `kinds` through one experiment on up to `threads` worker
/// threads, in input order.
fn outcomes(spec: &ExperimentSpec, kinds: &[ScalerKind], threads: usize) -> Vec<ExperimentOutcome> {
    parallel_map(kinds, threads, |_, &kind| run_experiment(spec, kind))
}

/// Renders one section on up to the given number of worker threads.
pub type Render = fn(usize) -> String;

/// Every section of the evaluation, in EXPERIMENTS.md's order: the stem
/// of the file it is written to (`<stem>.txt`) and its renderer.
pub const SECTIONS: [(&str, Render); 11] = [
    ("table2_wikipedia_docker", table2),
    ("table3_wikipedia_vm", table3),
    ("table4_bibsonomy_small", table4),
    ("table5_bibsonomy_large", table5),
    ("fig2_fig3_scaling_behavior", figures_2_and_3),
    ("bottleneck_shifting", load_step),
    ("scalability_deviation", scalability_deviation),
    ("ablation_cycles", ablation_cycles),
    ("ablation_backpressure", ablation_backpressure),
    ("ablation_forecast", ablation_forecast),
    ("ablation_fox", ablation_fox),
];

/// A measured table beside the published one.
fn table_section(
    spec: &ExperimentSpec,
    number: &str,
    caption: &str,
    paper: &[PaperRow],
    threads: usize,
) -> String {
    let measured = render_table(
        &format!("Table {number} (measured) — {caption}"),
        &run_lineup(spec, threads),
    );
    let published = render_paper_table(&format!("Table {number} (paper, for comparison)"), paper);
    format!("{measured}\n{published}\n")
}

/// Table II: all five scalers on the Wikipedia trace, Docker (1 h, 60 s
/// interval, peak ≈120 containers).
fn table2(threads: usize) -> String {
    let caption = "Wikipedia trace, Docker";
    table_section(&wikipedia_docker(), "II", caption, &TABLE2, threads)
}

/// Table III: the Wikipedia trace on VMs (6 h, 120 s interval, slow
/// provisioning, peak ≈20 VMs).
fn table3(threads: usize) -> String {
    let caption = "Wikipedia trace, VM";
    table_section(&wikipedia_vm(), "III", caption, &TABLE3, threads)
}

/// Table IV: the BibSonomy trace at the small scale (peak ≈60
/// containers).
fn table4(threads: usize) -> String {
    let caption = "BibSonomy trace, small setup";
    table_section(&bibsonomy_small(), "IV", caption, &TABLE4, threads)
}

/// Table V: the BibSonomy trace at the large scale (peak ≈120
/// containers).
fn table5(threads: usize) -> String {
    let caption = "BibSonomy trace, large setup";
    table_section(&bibsonomy_large(), "V", caption, &TABLE5, threads)
}

/// The first whole second at which `service` runs at least `instances`
/// instances, if it ever does.
fn first_reaches(outcome: &ExperimentOutcome, service: usize, instances: u32) -> Option<f64> {
    let mut t = 0.0;
    while t < outcome.result.duration {
        if outcome.result.supply_at(service, t) >= instances {
            return Some(t);
        }
        t += 1.0;
    }
    None
}

/// One row per scaling interval: each tier's demand and supply, then the
/// sent and SLO-conformant request rates averaged over the interval.
fn series(out: &mut String, title: &str, outcome: &ExperimentOutcome, interval: f64) {
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "time_s", "d1", "s1", "d2", "s2", "d3", "s3", "sent_rps", "slo_rps"
    );
    let result = &outcome.result;
    let steps = (result.duration / interval).round() as usize;
    for k in 0..steps {
        let t = k as f64 * interval;
        let _ = write!(out, "{t:>8.0}");
        for (service, demand) in outcome.demand.iter().enumerate() {
            let (d, s) = (demand.value_at(t), result.supply_at(service, t));
            let _ = write!(out, " {d:>8} {s:>8}");
        }
        let lo = t as usize;
        let hi = ((t + interval) as usize).min(result.sent_per_second.len());
        let span = (hi - lo).max(1) as f64;
        let sent: u64 = result.sent_per_second[lo..hi].iter().sum();
        let conformant: u64 = result.conformant_per_second[lo..hi].iter().sum();
        let (sent, conformant) = (sent as f64 / span, conformant as f64 / span);
        let _ = writeln!(out, " {sent:>10.1} {conformant:>10.1}");
    }
    out.push('\n');
}

/// Figures 2 and 3: the per-interval series for Reg (bottleneck shifting
/// and oscillation) and Chamulteon (neither) on the Wikipedia trace,
/// Docker, then the time each tier first reaches half its peak supply.
fn figures_2_and_3(threads: usize) -> String {
    let spec = wikipedia_docker();
    let kinds = [ScalerKind::Reg, ScalerKind::Chamulteon];
    let runs = outcomes(&spec, &kinds, threads);
    let mut out = String::new();
    series(
        &mut out,
        "Figure 2 (measured) — scaling behavior of Reg on the Wikipedia trace\n\
         (columns: per-service demand dN / supply sN, sent and SLO-conformant req/s)",
        &runs[0],
        spec.scaling_interval,
    );
    series(
        &mut out,
        "Figure 3 (measured) — scaling behavior of Chamulteon on the Wikipedia trace",
        &runs[1],
        spec.scaling_interval,
    );
    // Both scalers face the same demand curves, so each tier's threshold is
    // the same for both: a supply-based threshold would time each scaler
    // against its own provisioning.
    out.push_str(
        "Bottleneck-shifting check (time until each tier's supply first reaches 50% of its peak demand):\n",
    );
    for (kind, run) in kinds.iter().zip(&runs) {
        let times: Vec<String> = run
            .demand
            .iter()
            .enumerate()
            .map(|(service, demand)| {
                let peak = demand.points().iter().map(|&(_, d)| d).max().unwrap_or(1);
                first_reaches(run, service, (peak / 2).max(2))
                    .map_or_else(|| "never".to_owned(), |t| format!("{t:.0}s"))
            })
            .collect();
        let _ = writeln!(
            out,
            "  {:<12} service1 {} | service2 {} | service3 {}",
            kind.name(),
            times[0],
            times[1],
            times[2]
        );
    }
    out
}

/// A clean load step on the paper's chain: quiet at 20 req/s, then a
/// sustained jump to 300 req/s at t = 300 s. A step is unforecastable,
/// so no warm-up history: this isolates reaction.
fn load_step_spec() -> ExperimentSpec {
    let mut rates = vec![20.0; 5];
    rates.extend(vec![300.0; 15]);
    ExperimentSpec {
        name: "Load step".into(),
        trace: LoadTrace::new(60.0, rates).expect("valid trace"),
        model: ApplicationModel::paper_benchmark(),
        profile: DeploymentProfile::docker(),
        slo: SloPolicy::default(),
        scaling_interval: 60.0,
        seed: 11,
        warmup_days: 0,
        hist_bucket: 300.0,
    }
}

/// The §I/§V-A bottleneck shifting on a clean load step: when each tier
/// of Reg, React and Chamulteon first has the capacity the step needs
/// (300 req/s at 80 % utilization), and the spread between the first and
/// the last tier.
pub fn load_step(threads: usize) -> String {
    let spec = load_step_spec();
    let needed: Vec<u32> = spec
        .model
        .services()
        .iter()
        .map(|s| (300.0 * s.nominal_demand() / 0.8_f64).ceil() as u32)
        .collect();
    let kinds = [ScalerKind::Reg, ScalerKind::React, ScalerKind::Chamulteon];
    let mut out = String::new();
    let _ = writeln!(out, "Load step 20 -> 300 req/s at t = 300 s.");
    let _ = writeln!(out, "Adequate capacity per tier: {needed:?} instances.\n");
    for (kind, run) in kinds.iter().zip(outcomes(&spec, &kinds, threads)) {
        let _ = writeln!(out, "{}:", kind.name());
        let mut times = Vec::new();
        for (service, (tier, &n)) in spec.model.services().iter().zip(&needed).enumerate() {
            let name = tier.name();
            match first_reaches(&run, service, n) {
                Some(t) => {
                    let _ = writeln!(out, "  {name:<11} adequate at t = {t:>4.0} s");
                    times.push(t);
                }
                None => {
                    let _ = writeln!(out, "  {name:<11} never adequate");
                }
            }
        }
        if times.len() == needed.len() {
            let spread = times.iter().copied().fold(f64::MIN, f64::max)
                - times.iter().copied().fold(f64::MAX, f64::min);
            let _ = writeln!(out, "  staggering between tiers: {spread:.0} s");
        }
        let report = &run.report;
        let _ = writeln!(
            out,
            "  SLO violations {:.1}%, Apdex {:.1}%\n",
            report.slo_violations, report.apdex
        );
    }
    out.push_str(
        "Expected: the independent scalers stagger tier scale-ups (each waits for\n\
         its predecessor's throttle to lift); Chamulteon sizes every tier in the\n\
         same round, so its staggering is bounded by one provisioning delay.\n",
    );
    out
}

/// The §V-C scalability claim: the relative deviation of each scaler's
/// worst-case deviation ς between the small and large BibSonomy setups,
/// least first, beside the paper's values.
fn scalability_deviation(threads: usize) -> String {
    let small = run_lineup(&bibsonomy_small(), threads);
    let large = run_lineup(&bibsonomy_large(), threads);
    let mut rows: Vec<(&str, f64, f64, f64)> = small
        .iter()
        .zip(&large)
        .map(|(s, l)| {
            let (ss, sl) = (s.worst_case().sigma, l.worst_case().sigma);
            let rel = if ss > 0.0 {
                100.0 * (sl - ss).abs() / ss
            } else {
                0.0
            };
            (s.scaler.as_str(), ss, sl, rel)
        })
        .collect();
    rows.sort_by(|a, b| a.3.total_cmp(&b.3));
    let mut out =
        String::from("Scalability (relative deviation of sigma between small and large setup)\n");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12}",
        "scaler", "sigma_small", "sigma_large", "rel_dev"
    );
    for (name, ss, sl, rel) in rows {
        let _ = writeln!(out, "{name:<12} {ss:>11.1}% {sl:>11.1}% {rel:>11.2}%");
    }
    out.push_str(
        "\nPaper reference: chamulteon 8.97% (lowest), hist 13.57%, react 43.88% (highest).\n",
    );
    out
}

/// The two decision cycles on the VM scenario, where ~2-minute
/// provisioning makes forecasting ahead pay: full Chamulteon against
/// reactive-only and proactive-only.
fn ablation_cycles(threads: usize) -> String {
    let kinds = [
        ScalerKind::Chamulteon,
        ScalerKind::ChamulteonReactiveOnly,
        ScalerKind::ChamulteonProactiveOnly,
    ];
    let reports: Vec<ScalerReport> = outcomes(&wikipedia_vm(), &kinds, threads)
        .into_iter()
        .map(|run| run.report)
        .collect();
    let title = "Cycle ablation — full hybrid vs. reactive-only vs. proactive-only";
    format!(
        "{}\n\
         Expected shape: the hybrid matches reactive-only on user metrics while\n\
         the proactive cycle reduces under-provisioning during ramps; proactive-only\n\
         degrades whenever the forecast drifts (no fallback).\n",
        render_table(title, &reports)
    )
}

/// The §VI return-path extension: with the data tier capped at 6
/// instances (150 req/s), the instances Algorithm 1 sizes with and
/// without backpressure at rising loads. Delivered throughput is the same
/// in both modes, so the difference is saved instance time.
fn ablation_backpressure(_threads: usize) -> String {
    let model = ApplicationModelBuilder::new()
        .service("ui", 0.059, 1, 500, 1)
        .service("validation", 0.1, 1, 500, 1)
        .service("data", 0.04, 1, 6, 1)
        .call("ui", "validation", 1.0)
        .call("validation", "data", 1.0)
        .entry("ui")
        .build()
        .expect("valid model");
    let demands = [0.059, 0.1, 0.04];
    let mut out =
        String::from("Return-path ablation — data tier capped at 6 instances (150 req/s max)\n");
    let _ = writeln!(
        out,
        "{:>10} {:>22} {:>22} {:>10}",
        "load_rps", "plain [ui/val/data]", "backpressure", "saved"
    );
    let total = |v: &[u32]| i64::from(v.iter().sum::<u32>());
    for rate in [50.0, 100.0, 150.0, 250.0, 400.0, 800.0] {
        let size = |config: &ChamulteonConfig| {
            proactive_decisions(&model, rate, &demands, &[1, 1, 1], config)
        };
        let plain = size(&ChamulteonConfig::default());
        let aware = size(&ChamulteonConfig::with_backpressure());
        let _ = writeln!(
            out,
            "{:>10.0} {:>22} {:>22} {:>10}",
            rate,
            format!("{plain:?}"),
            format!("{aware:?}"),
            total(&plain) - total(&aware)
        );
    }
    out.push_str(
        "\nBelow the bottleneck capacity the two configurations are identical; past\n\
         it, backpressure stops paying for upstream instances whose output can only\n\
         queue at the capped tier. Delivered throughput is the same in both modes.\n",
    );
    out
}

/// Rolling-origin evaluation: forecast `horizon` steps from every origin in
/// the second half of the series, score with MASE against the training
/// prefix. Returns the mean MASE.
fn rolling_mase(method: &dyn Forecaster, series: &TimeSeries, horizon: usize) -> f64 {
    let n = series.len();
    let mut scores = Vec::new();
    let mut origin = n / 2;
    while origin + horizon <= n {
        let (train, rest) = series.split_at(origin);
        if let Ok(fc) = method.forecast(&train, horizon) {
            let actual = &rest.values()[..horizon];
            let m = mase(train.values(), actual, fc.values(), 1);
            if m.is_finite() {
                scores.push(m);
            }
        }
        origin += horizon;
    }
    if scores.is_empty() {
        f64::NAN
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    }
}

/// Four synthetic days of `generator` compressed into four hours, peak
/// 400 req/s, at 60 s resolution: one compressed day is 60 observations,
/// so even the latest rolling origin leaves two full seasons of training.
fn four_days(generator: fn(u64, f64, f64) -> LoadTrace) -> TimeSeries {
    let trace = generator(1, 60.0, 4.0 * 86_400.0)
        .compress_to(4.0 * 3600.0)
        .scale_to_peak(400.0)
        .resample(60.0)
        .expect("valid step");
    TimeSeries::from_values(60.0, trace.rates().to_vec()).expect("finite rates")
}

/// The forecast methods at the controller's horizon: rolling-origin MASE
/// of the Telescope hybrid and every baseline forecaster on both traces.
/// The paper adopts Telescope for "a reliable forecast accuracy and a
/// short time-to-result" (§III-A).
fn ablation_forecast(_threads: usize) -> String {
    let (wiki, bib) = (four_days(wikipedia_like), four_days(bibsonomy_like));
    let season = 60;
    let horizon = 8;
    let methods: [(&str, Box<dyn Forecaster>); 11] = [
        (
            "telescope (detected)",
            Box::new(TelescopeForecaster::default()),
        ),
        (
            "telescope (known season)",
            Box::new(TelescopeForecaster::with_season(season)),
        ),
        ("naive", Box::new(NaiveForecaster)),
        (
            "seasonal-naive",
            Box::new(SeasonalNaiveForecaster::new(season)),
        ),
        ("drift", Box::new(DriftForecaster)),
        (
            "mean (window 10)",
            Box::new(MeanForecaster::with_window(10)),
        ),
        ("ses", Box::new(SesForecaster::default())),
        ("holt (damped)", Box::new(HoltForecaster::default())),
        (
            "holt-winters",
            Box::new(HoltWintersForecaster::with_period(season).expect("valid period")),
        ),
        ("ar(3)", Box::new(ArForecaster::default())),
        ("theta", Box::new(ThetaForecaster::default())),
    ];
    let mut out = format!(
        "Forecast ablation — rolling-origin MASE at horizon {horizon} (lower is better)\n\
         {:<26} {:>14} {:>14}\n",
        "method", "wikipedia", "bibsonomy"
    );
    for (label, method) in &methods {
        let w = rolling_mase(method.as_ref(), &wiki, horizon);
        let b = rolling_mase(method.as_ref(), &bib, horizon);
        let _ = writeln!(out, "{label:<26} {w:>14.3} {b:>14.3}");
    }
    out.push_str(
        "\nExpected shape: the telescope hybrid (especially with the known season)\n\
         beats the naive family on the seasonal Wikipedia trace and stays\n\
         competitive on the noisy BibSonomy trace.\n",
    );
    out
}

/// Bills a supply timeline as if every instance start opened a fresh lease
/// under `model` — what the *cloud* charges for the measured behaviour.
fn bill_supply(outcome: &ExperimentOutcome, model: &ChargingModel) -> f64 {
    let mut total = 0.0;
    for timeline in &outcome.result.supply {
        // Track individual instance lifetimes from the step function.
        let mut stack: Vec<f64> = Vec::new();
        let mut prev = 0u32;
        for change in timeline {
            if change.running > prev {
                for _ in 0..(change.running - prev) {
                    stack.push(change.time);
                }
            } else {
                for _ in 0..(prev - change.running) {
                    if let Some(start) = stack.pop() {
                        total += model.billed_duration(change.time - start);
                    }
                }
            }
            prev = change.running;
        }
        for start in stack {
            total += model.billed_duration(outcome.result.duration - start);
        }
    }
    total
}

/// FOX (§III-A3) on the Wikipedia trace, Docker: Chamulteon without FOX
/// and with FOX under EC2 hourly and GCP per-minute billing, and what
/// each run would be billed under both models.
fn ablation_fox(threads: usize) -> String {
    let kinds = [
        ScalerKind::Chamulteon,
        ScalerKind::ChamulteonFoxEc2,
        ScalerKind::ChamulteonFoxGcp,
    ];
    let runs = outcomes(&wikipedia_docker(), &kinds, threads);
    let reports: Vec<ScalerReport> = runs.iter().map(|run| run.report.clone()).collect();
    let mut out = format!(
        "{}\nBilled instance hours (what the cloud would charge):\n\
         {:<16} {:>16} {:>16}\n",
        render_table("FOX ablation — elasticity and user metrics", &reports),
        "variant",
        "EC2-hourly [h]",
        "GCP-per-min [h]"
    );
    let (ec2, gcp) = (ChargingModel::ec2_hourly(), ChargingModel::gcp_per_minute());
    for (name, run) in ["no FOX", "FOX (EC2)", "FOX (GCP)"].iter().zip(&runs) {
        let _ = writeln!(
            out,
            "{:<16} {:>16.1} {:>16.1}",
            name,
            bill_supply(run, &ec2) / 3600.0,
            bill_supply(run, &gcp) / 3600.0
        );
    }
    out.push_str(
        "\nExpected shape: under hourly billing FOX avoids release/re-acquire churn,\n\
         so its EC2 bill is at or below the no-FOX bill despite higher tau_O;\n\
         under per-minute billing the reviewer is nearly neutral.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lineup_section_does_not_depend_on_the_thread_count() {
        assert_eq!(table4(1), table4(3));
    }

    #[test]
    fn chamulteon_has_the_best_slo_and_apdex_on_every_paper_table() {
        // The headline shape of Tables II–V, on the full setups: the
        // narrowest margins are SLO on Table V and Apdex on Table II.
        let mut all = Vec::new();
        for spec in [
            wikipedia_docker(),
            wikipedia_vm(),
            bibsonomy_small(),
            bibsonomy_large(),
        ] {
            let reports = run_lineup(&spec, crate::pool::default_threads());
            let (chamulteon, rest) = reports.split_first().expect("five scalers");
            assert_eq!(chamulteon.scaler, "chamulteon");
            for other in rest {
                assert!(
                    chamulteon.slo_violations < other.slo_violations,
                    "{}: SLO {} vs {} {}",
                    spec.name,
                    chamulteon.slo_violations,
                    other.scaler,
                    other.slo_violations
                );
                assert!(
                    chamulteon.apdex > other.apdex,
                    "{}: Apdex {} vs {} {}",
                    spec.name,
                    chamulteon.apdex,
                    other.scaler,
                    other.apdex
                );
            }
            all.extend(reports);
        }
        // FNV-1a over the twenty reports' `Debug` text, the `engine_golden`
        // scheme: every bit of every Table II–V report is pinned.
        let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
        for &byte in format!("{all:?}").as_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(
            digest, 0xb6ad_75fb_fede_f845,
            "Table II–V report digest changed: {digest:#018x}"
        );
    }

    #[test]
    fn paper_tables_have_five_scalers_each() {
        for table in [&TABLE2, &TABLE3, &TABLE4, &TABLE5] {
            assert_eq!(table.len(), 5);
            assert_eq!(table[0].scaler, "chamulteon");
        }
    }

    #[test]
    fn rendered_paper_table_contains_values() {
        let text = render_paper_table("Paper Table II", &TABLE2);
        assert!(text.contains("chamulteon"));
        assert!(text.contains("3.7%"));
        assert!(text.contains("77.7%"));
        assert!(text.contains("sigma"));
    }

    #[test]
    fn paper_findings_encoded_correctly() {
        // §V-D finding 1: Chamulteon has the best (lowest) SLO violations
        // in 3 of 4 experiments (all but Table III where React wins).
        for table in [&TABLE2, &TABLE4, &TABLE5] {
            let chamulteon_slo = table[0].values[5];
            for row in &table[1..] {
                assert!(chamulteon_slo <= row.values[5], "{}", row.scaler);
            }
        }
        // §V-D finding 4: Reg and Adapt have the worst user metrics.
        for table in [&TABLE2, &TABLE3, &TABLE4, &TABLE5] {
            let worst_apdex = table
                .iter()
                .min_by(|a, b| a.values[6].total_cmp(&b.values[6]))
                .unwrap();
            assert!(
                worst_apdex.scaler == "reg" || worst_apdex.scaler == "adapt",
                "worst is {}",
                worst_apdex.scaler
            );
        }
    }
}
