//! The graph-scale workload: Chamulteon with FOX on 1000-service graphs,
//! checkpointed after every tick and restored from its own snapshot every
//! tenth tick. No simulator: each tick's monitoring samples are
//! synthesized from the previous tick's targets (a closed loop).

use crate::paper::Table;
use crate::spans::Tracer;
use chamulteon::{Chamulteon, ChamulteonConfig, ChargingModel, ControllerSnapshot};
use chamulteon_demand::MonitoringSample;
use chamulteon_perfmodel::{topology, ApplicationModel, TopologyFamily};
use chamulteon_queueing::capacity::min_instances_for_utilization;
use std::time::Instant;

/// Services per graph.
pub const SERVICES: usize = 1000;
/// Scaling interval, seconds (the Table II interval).
pub const INTERVAL: f64 = 60.0;
/// Ticks per family: the compressed Table II day.
pub const TICKS: usize = 60;
/// A restore from the latest snapshot happens every this many ticks.
pub const RESTORE_EVERY: usize = 10;

/// The workload's inputs.
pub struct Setup {
    /// One model per topology family.
    pub models: Vec<(TopologyFamily, ApplicationModel)>,
    /// Entry rate of each tick's interval, req/s.
    pub rates: Vec<f64>,
    /// Two preloaded days of entry-rate history.
    pub history: Vec<f64>,
    /// Seconds spent building the entry-rate trace.
    pub trace_s: f64,
    /// Seconds spent building the four models.
    pub model_s: f64,
}

/// Topology seed of the four models. It stays fixed: the demand draws
/// and the scale-free wiring move instance counts, and with them FOX
/// leases and snapshot sizes, by several percent from seed to seed.
const TOPOLOGY_SEED: u64 = 0;

/// Builds the four 1000-service models and the Table II day (peak
/// ≈ 480 req/s at the entry) with its trace seed offset by `seed`.
pub fn setup(seed: u64) -> Setup {
    let start = Instant::now();
    let rates = Table::WikipediaDocker
        .trace(seed)
        .resample(INTERVAL)
        .map(|t| t.rates().to_vec())
        .unwrap_or_default();
    let history = [rates.as_slice(), rates.as_slice()].concat();
    let trace_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let models = TopologyFamily::ALL
        .into_iter()
        .filter_map(|family| {
            topology::model(family, SERVICES, TOPOLOGY_SEED)
                .ok()
                .map(|m| (family, m))
        })
        .collect();
    let model_s = start.elapsed().as_secs_f64();
    Setup {
        models,
        rates,
        history,
        trace_s,
        model_s,
    }
}

/// Per-call latencies, seconds, gathered across passes.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    /// Every `tick`.
    pub tick: Vec<f64>,
    /// Per tick, whether it produced a new forecast.
    pub forecasted: Vec<bool>,
    /// `snapshot()` + `encode()`.
    pub checkpoint: Vec<f64>,
    /// `decode()` + `restore()`.
    pub restore: Vec<f64>,
}

impl Latencies {
    /// Moves every sample of `other` into `self`.
    pub fn append(&mut self, other: Latencies) {
        self.tick.extend(other.tick);
        self.forecasted.extend(other.forecasted);
        self.checkpoint.extend(other.checkpoint);
        self.restore.extend(other.restore);
    }
}

/// What one family's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyOutcome {
    /// FNV-1a digest over every target vector and the final FOX bill.
    pub digest: u64,
    /// The last encoded snapshot (empty when not checkpointing).
    pub last_snapshot: String,
    /// Ticks run.
    pub ticks: u64,
    /// Ticks that produced a new forecast.
    pub forecast_ticks: u64,
    /// Restores attempted.
    pub restores: u64,
    /// Restores that failed (the run then continues on the live
    /// controller).
    pub restore_failures: u64,
    /// Samples that failed validation and were replaced by a quiet one.
    pub sample_failures: u64,
    /// Bytes encoded across all checkpoints, one per tick.
    pub snapshot_bytes: u64,
    /// Instance-hours of the decided targets.
    pub instance_hours: f64,
    /// Degraded decisions logged.
    pub degradations: u64,
}

fn fnv(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The monitoring sample a service reports over one interval at local
/// rate `rate` with `instances` instances of demand `demand`: Poisson-free
/// expected values, utilization capped at 1 and throughput at capacity.
fn sample(rate: f64, demand: f64, instances: u32) -> Option<MonitoringSample> {
    let n = instances.max(1);
    let rho = rate * demand / f64::from(n);
    let arrivals = (rate * INTERVAL).round() as u64;
    let capacity = (f64::from(n) / demand * INTERVAL).floor() as u64;
    let response = (rho < 1.0).then(|| demand / (1.0 - rho));
    MonitoringSample::new(INTERVAL, arrivals, rho.min(1.0), n, response)
        .ok()
        .map(|s| s.with_completions(arrivals.min(capacity)))
}

/// Runs one family for [`TICKS`] ticks. With `checkpoint`, the controller
/// is snapshotted and encoded after every tick and replaced by a restore
/// from that text every [`RESTORE_EVERY`] ticks; without, it runs
/// uninterrupted. Latencies of every call are appended to `lat`.
pub fn run_family(
    model: &ApplicationModel,
    setup: &Setup,
    checkpoint: bool,
    tracer: &mut Tracer,
    lat: &mut Latencies,
) -> FamilyOutcome {
    let config = ChamulteonConfig::default();
    let visits = model.visit_ratios();
    let demands: Vec<f64> = model
        .services()
        .iter()
        .map(|s| s.nominal_demand())
        .collect();
    let rate0 = setup.rates.first().copied().unwrap_or(0.0);
    let mut current: Vec<u32> = visits
        .iter()
        .zip(&demands)
        .map(|(&v, &d)| min_instances_for_utilization(rate0 * v, d, 0.6))
        .collect();

    tracer.enter("controller.preload");
    let mut controller =
        Chamulteon::new(model.clone(), config.clone()).with_fox(ChargingModel::gcp_per_minute());
    controller.preload_history(INTERVAL, &setup.history);
    tracer.exit();

    let mut out = FamilyOutcome {
        digest: 0xCBF2_9CE4_8422_2325,
        last_snapshot: String::new(),
        ticks: 0,
        forecast_ticks: 0,
        restores: 0,
        restore_failures: 0,
        sample_failures: 0,
        snapshot_bytes: 0,
        instance_hours: 0.0,
        degradations: 0,
    };
    let mut samples = Vec::with_capacity(model.service_count());
    for (k, &entry_rate) in setup.rates.iter().enumerate().take(TICKS) {
        tracer.begin_cycle();
        let t = (k + 1) as f64 * INTERVAL;
        samples.clear();
        for ((&v, &d), &n) in visits.iter().zip(&demands).zip(&current) {
            let s = sample(entry_rate * v, d, n).unwrap_or_else(|| {
                out.sample_failures += 1;
                MonitoringSample::zero(INTERVAL, n)
            });
            samples.push(s);
        }

        tracer.enter("controller.tick");
        let before = controller.forecasts_made();
        let start = Instant::now();
        let targets = controller.tick(t, &samples);
        let took = start.elapsed().as_secs_f64();
        let forecasted = controller.forecasts_made() > before;
        tracer.exit();
        lat.tick.push(took);
        lat.forecasted.push(forecasted);
        out.ticks += 1;
        out.forecast_ticks += u64::from(forecasted);
        for &n in &targets {
            fnv(&mut out.digest, u64::from(n));
            out.instance_hours += f64::from(n) * INTERVAL / 3600.0;
        }
        current = targets;

        if checkpoint {
            let start = Instant::now();
            tracer.enter("codec.snapshot");
            let snapshot = controller.snapshot();
            tracer.exit();
            tracer.enter("codec.encode");
            let text = snapshot.encode();
            tracer.exit();
            lat.checkpoint.push(start.elapsed().as_secs_f64());
            out.snapshot_bytes += text.len() as u64;
            if (k + 1) % RESTORE_EVERY == 0 {
                out.restores += 1;
                let start = Instant::now();
                tracer.enter("codec.decode");
                let decoded = ControllerSnapshot::decode(&text);
                tracer.exit();
                tracer.enter("codec.restore");
                let restored =
                    decoded.and_then(|s| Chamulteon::restore(model.clone(), config.clone(), &s));
                tracer.exit();
                lat.restore.push(start.elapsed().as_secs_f64());
                match restored {
                    Ok(restored) => controller = restored,
                    Err(_) => out.restore_failures += 1,
                }
            }
            out.last_snapshot = text;
        }
        tracer.end_cycle();
    }
    fnv(
        &mut out.digest,
        controller
            .billed_instance_seconds(TICKS as f64 * INTERVAL)
            .unwrap_or(0.0)
            .to_bits(),
    );
    out.degradations = controller.degradation().events().len() as u64;
    out
}
