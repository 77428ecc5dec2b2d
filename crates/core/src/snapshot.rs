//! Crash-recovery snapshots of the controller: a versioned, byte-stable,
//! std-only canonical encoding of every piece of state that can influence
//! a future scaling decision.
//!
//! The controller survives a process crash by periodically capturing a
//! [`ControllerSnapshot`] ([`Chamulteon::snapshot`]), persisting its
//! canonical text form ([`ControllerSnapshot::encode`]), and rebuilding an
//! equivalent controller after the restart
//! ([`ControllerSnapshot::decode`] + [`Chamulteon::restore`]). The
//! recovery-equivalence contract — enforced by the `recovery` conformance
//! oracle — is *bit-identity*: a controller restored from a snapshot
//! taken at cycle `k` makes exactly the same decisions (exact `f64`
//! equality, FOX ledger included) from cycle `k + 1` on as the
//! uninterrupted controller would have.
//!
//! # What is captured
//!
//! Per-service demand-estimator windows and smoothed estimates, the entry
//! arrival-rate history, the active forecast with its generation counters
//! and the proactive plan derived from it (decision time, row interval and
//! every row's targets — the only proactive decisions the controller
//! holds), the FOX lease books with open billing intervals (in exact book
//! order — the cheapest-lease selection observes it), spike-gate and
//! hold-last state, the 1-based cycle counter, and the degradation log.
//!
//! # What is deliberately *not* captured
//!
//! * the **forecaster** and **drift detector** — stateless beyond their
//!   configuration, rebuilt from [`ChamulteonConfig`];
//! * the **obs bundle** — instrumentation never changes a decision
//!   (pinned by the bit-identity tests); the restored controller starts
//!   with a disabled bundle and the caller re-attaches its sink.
//!
//! # Encoding
//!
//! The text form is one flat JSON object per line, written and read by
//! the [`chamulteon_obs::json`] codec that also carries the JSONL traces:
//! keys in a fixed schema order, finite `f64`s rendered with Rust's
//! shortest-round-trip `Display` (parse → re-render is the identity),
//! non-finite values as `null` (read back as NaN), optional fields
//! omitted — never `null` — and `f64` / `u32` arrays for history, plan
//! and lease vectors. Decoding reads one line at a time and sizes nothing
//! from a declared count before the records it counts have been read.
//! The first line is a header carrying [`SNAPSHOT_VERSION`]; any other
//! version is rejected with [`SnapshotError::UnsupportedVersion`] instead
//! of being guessed at. The cluster arbiter's snapshot
//! ([`ClusterArbiter::snapshot`]) uses the same records and the same
//! header check. Encoding is byte-stable: `encode ∘ decode ∘ encode`
//! equals `encode`.
//!
//! [`Chamulteon::snapshot`]: crate::controller::Chamulteon::snapshot
//! [`Chamulteon::restore`]: crate::controller::Chamulteon::restore
//! [`ChamulteonConfig`]: crate::config::ChamulteonConfig
//! [`ClusterArbiter::snapshot`]: crate::cluster::ClusterArbiter::snapshot

use crate::degradation::{DegradationEvent, DegradationReason};
use crate::fox::ChargingModel;
use chamulteon_demand::MonitoringSample;
use chamulteon_obs::json::{self, JsonError, Record, Writer};

/// The schema version this build writes and the only one it restores.
pub const SNAPSHOT_VERSION: u64 = 2;

/// The schema identifier on a snapshot's header line.
const SNAPSHOT_SCHEMA: &str = "chamulteon-snapshot";

/// Captured per-service demand-estimator state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EstimatorState {
    pub(crate) capacity: usize,
    pub(crate) smoothing: f64,
    pub(crate) current: f64,
    pub(crate) initialized: bool,
    /// Window samples, oldest first.
    pub(crate) window: Vec<MonitoringSample>,
}

/// Captured entry arrival-rate history.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistoryState {
    pub(crate) step: f64,
    pub(crate) start: f64,
    pub(crate) values: Vec<f64>,
}

/// Captured active forecast and its plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ForecastState {
    pub(crate) made_at: usize,
    pub(crate) generation: u64,
    pub(crate) trusted: bool,
    pub(crate) start: f64,
    pub(crate) interval: f64,
    pub(crate) values: Vec<f64>,
    /// One row of every service's target per value, row-major.
    pub(crate) plan: Vec<u32>,
}

/// Captured FOX reviewer state, lease books in exact order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FoxState {
    pub(crate) model: ChargingModel,
    pub(crate) release_window: f64,
    pub(crate) billed_released: f64,
    pub(crate) leases: Vec<Vec<f64>>,
}

/// A complete, decision-equivalent capture of a [`Chamulteon`]
/// controller's mutable state.
///
/// Obtain one with [`Chamulteon::snapshot`], persist it with
/// [`encode`](ControllerSnapshot::encode), read it back with
/// [`decode`](ControllerSnapshot::decode) and rebuild the controller with
/// [`Chamulteon::restore`].
///
/// [`Chamulteon`]: crate::controller::Chamulteon
/// [`Chamulteon::snapshot`]: crate::controller::Chamulteon::snapshot
/// [`Chamulteon::restore`]: crate::controller::Chamulteon::restore
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSnapshot {
    pub(crate) services: usize,
    pub(crate) ticks: u64,
    pub(crate) forecast_generation: u64,
    pub(crate) forecasts_made: u64,
    pub(crate) estimators: Vec<EstimatorState>,
    pub(crate) entry_history: Option<HistoryState>,
    pub(crate) active_forecast: Option<ForecastState>,
    pub(crate) fox: Option<FoxState>,
    /// Per-service `(last accepted rate, rejection streak)` gate state.
    pub(crate) spike_gates: Vec<(Option<f64>, u32)>,
    pub(crate) last_good_samples: Vec<Option<MonitoringSample>>,
    pub(crate) last_targets: Option<Vec<u32>>,
    pub(crate) degradation: Vec<DegradationEvent>,
}

/// Why a snapshot could not be decoded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header declares a schema version this build does not speak.
    UnsupportedVersion {
        /// The version found in the header.
        found: u64,
    },
    /// The text is not a well-formed snapshot document.
    Malformed {
        /// 1-based line the problem was detected on.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The snapshot disagrees with the model it is being restored into
    /// (or is internally inconsistent).
    Inconsistent {
        /// What disagrees.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Malformed { line, message } => {
                write!(f, "malformed snapshot at line {line}: {message}")
            }
            SnapshotError::Inconsistent { message } => {
                write!(f, "inconsistent snapshot: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Malformed {
            line: e.line,
            message: format!("column {}: {}", e.column, e.message),
        }
    }
}

// --- records shared with the cluster arbiter's snapshot -----------------

/// Appends one record line: `kind` first, then the members `fill` writes.
pub(crate) fn write_record(out: &mut String, kind: &str, fill: impl FnOnce(&mut Writer<'_>)) {
    let mut w = Writer::compact(out);
    w.str("kind", kind);
    fill(&mut w);
    w.finish();
    out.push('\n');
}

/// Reads the first record and checks it is the header of `schema` at
/// `version`.
pub(crate) fn read_header<'a>(
    records: &mut impl Iterator<Item = Result<Record<'a>, JsonError>>,
    schema: &str,
    version: u64,
) -> Result<Record<'a>, SnapshotError> {
    let Some(header) = records.next() else {
        return Err(SnapshotError::Malformed {
            line: 1,
            message: "empty snapshot".into(),
        });
    };
    let header = header?;
    if header.str("kind")? != "header" || header.str("schema")? != schema {
        return Err(header.error(format!("expected a `{schema}` header")).into());
    }
    let found = header.u64("version")?;
    if found != version {
        return Err(SnapshotError::UnsupportedVersion { found });
    }
    Ok(header)
}

fn write_sample(out: &mut String, kind: &str, service: usize, sample: &MonitoringSample) {
    write_record(out, kind, |w| {
        w.usize("service", service)
            .f64("duration", sample.duration())
            .u64("arrivals", sample.arrivals())
            .opt_u64("completions", sample.explicit_completions())
            .f64("utilization", sample.utilization())
            .u32("instances", sample.instances())
            .opt_f64("rt", sample.mean_response_time());
    });
}

fn read_sample(rec: &Record<'_>) -> Result<MonitoringSample, JsonError> {
    let sample = MonitoringSample::new(
        rec.f64("duration")?,
        rec.u64("arrivals")?,
        rec.f64("utilization")?,
        rec.u32("instances")?,
        rec.opt_f64("rt")?,
    )
    .map_err(|e| rec.error(format!("invalid sample: {e}")))?;
    Ok(match rec.opt_u64("completions")? {
        Some(completions) => sample.with_completions(completions),
        None => sample,
    })
}

// --- encode / decode ----------------------------------------------------

impl ControllerSnapshot {
    /// Serializes the snapshot to its canonical text form: one JSON
    /// object per line, header first, fixed key and section order.
    /// Byte-stable: decoding and re-encoding reproduces the exact bytes.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, "header", |w| {
            w.str("schema", SNAPSHOT_SCHEMA)
                .u64("version", SNAPSHOT_VERSION)
                .usize("services", self.services)
                .u64("ticks", self.ticks)
                .u64("forecast_generation", self.forecast_generation)
                .u64("forecasts_made", self.forecasts_made);
        });
        for (service, est) in self.estimators.iter().enumerate() {
            write_record(&mut out, "estimator", |w| {
                w.usize("service", service)
                    .usize("capacity", est.capacity)
                    .f64("smoothing", est.smoothing)
                    .f64("current", est.current)
                    .bool("initialized", est.initialized);
            });
            for sample in &est.window {
                write_sample(&mut out, "window_sample", service, sample);
            }
        }
        if let Some(history) = &self.entry_history {
            write_record(&mut out, "entry_history", |w| {
                w.f64("step", history.step)
                    .f64("start", history.start)
                    .f64_array("values", &history.values);
            });
        }
        if let Some(forecast) = &self.active_forecast {
            write_record(&mut out, "active_forecast", |w| {
                w.usize("made_at", forecast.made_at)
                    .u64("generation", forecast.generation)
                    .bool("trusted", forecast.trusted)
                    .f64("start", forecast.start)
                    .f64("interval", forecast.interval)
                    .f64_array("values", &forecast.values)
                    .u32_array("plan", &forecast.plan);
            });
        }
        if let Some(fox) = &self.fox {
            write_record(&mut out, "fox", |w| {
                w.str("model", &fox.model.name)
                    .f64("interval", fox.model.interval)
                    .f64("minimum", fox.model.minimum)
                    .f64("release_window", fox.release_window)
                    .f64("billed_released", fox.billed_released);
            });
            for (service, starts) in fox.leases.iter().enumerate() {
                write_record(&mut out, "fox_leases", |w| {
                    w.usize("service", service).f64_array("starts", starts);
                });
            }
        }
        for (service, &(last_rate, streak)) in self.spike_gates.iter().enumerate() {
            write_record(&mut out, "spike_gate", |w| {
                w.usize("service", service)
                    .opt_f64("last_rate", last_rate)
                    .u32("streak", streak);
            });
        }
        for (service, sample) in self.last_good_samples.iter().enumerate() {
            if let Some(sample) = sample {
                write_sample(&mut out, "held_sample", service, sample);
            }
        }
        if let Some(targets) = &self.last_targets {
            write_record(&mut out, "last_targets", |w| {
                w.u32_array("targets", targets);
            });
        }
        for event in &self.degradation {
            write_record(&mut out, "degradation", |w| {
                w.f64("time", event.time)
                    .str("code", event.reason.as_code());
                if let Some(service) = event.reason.service() {
                    w.usize("service", service);
                }
                w.opt_u32("attempt", event.reason.attempt());
            });
        }
        out
    }

    /// Parses a snapshot from its canonical text form, one line at a
    /// time.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] when the header declares a
    /// schema version other than [`SNAPSHOT_VERSION`];
    /// [`SnapshotError::Malformed`] for anything that is not a
    /// well-formed snapshot document (bad JSON, unknown record or field
    /// kinds, out-of-order or out-of-range service indices);
    /// [`SnapshotError::Inconsistent`] when the per-service sections
    /// disagree with the header's service count.
    pub fn decode(text: &str) -> Result<Self, SnapshotError> {
        let mut records = json::records(text);
        let header = read_header(&mut records, SNAPSHOT_SCHEMA, SNAPSHOT_VERSION)?;
        let services = header.usize("services")?;
        let mut snapshot = ControllerSnapshot {
            services,
            ticks: header.u64("ticks")?,
            forecast_generation: header.u64("forecast_generation")?,
            forecasts_made: header.u64("forecasts_made")?,
            estimators: Vec::new(),
            entry_history: None,
            active_forecast: None,
            fox: None,
            spike_gates: Vec::new(),
            last_good_samples: Vec::new(),
            last_targets: None,
            degradation: Vec::new(),
        };
        // Held samples are sparse; they are placed once the estimator
        // records have shown the declared service count is real.
        let mut held = Vec::new();
        let in_range = |rec: &Record<'_>| -> Result<usize, JsonError> {
            match rec.usize("service")? {
                s if s < services => Ok(s),
                s => Err(rec.error(format!("service {s} out of range (services: {services})"))),
            }
        };
        // Sections with one record per service come in service order.
        let in_order = |rec: &Record<'_>, expected: usize| -> Result<(), JsonError> {
            match in_range(rec)? {
                s if s == expected => Ok(()),
                s => Err(rec.error(format!("service {s} out of order (expected {expected})"))),
            }
        };

        for rec in records {
            let rec = rec?;
            match rec.str("kind")? {
                "estimator" => {
                    in_order(&rec, snapshot.estimators.len())?;
                    snapshot.estimators.push(EstimatorState {
                        capacity: rec.usize("capacity")?,
                        smoothing: rec.f64("smoothing")?,
                        current: rec.f64("current")?,
                        initialized: rec.bool("initialized")?,
                        window: Vec::new(),
                    });
                }
                "window_sample" => {
                    let service = in_range(&rec)?;
                    let sample = read_sample(&rec)?;
                    let before = || rec.error(format!("window sample before estimator {service}"));
                    let est = snapshot.estimators.get_mut(service).ok_or_else(before)?;
                    est.window.push(sample);
                }
                "entry_history" => {
                    snapshot.entry_history = Some(HistoryState {
                        step: rec.f64("step")?,
                        start: rec.f64("start")?,
                        values: rec.f64_array("values")?,
                    });
                }
                "active_forecast" => {
                    snapshot.active_forecast = Some(ForecastState {
                        made_at: rec.usize("made_at")?,
                        generation: rec.u64("generation")?,
                        trusted: rec.bool("trusted")?,
                        start: rec.f64("start")?,
                        interval: rec.f64("interval")?,
                        values: rec.f64_array("values")?,
                        plan: rec.u32_array("plan")?,
                    });
                }
                "fox" => {
                    snapshot.fox = Some(FoxState {
                        model: ChargingModel {
                            name: rec.str("model")?.to_owned(),
                            interval: rec.f64("interval")?,
                            minimum: rec.f64("minimum")?,
                        },
                        release_window: rec.f64("release_window")?,
                        billed_released: rec.f64("billed_released")?,
                        leases: Vec::new(),
                    });
                }
                "fox_leases" => {
                    let Some(fox) = snapshot.fox.as_mut() else {
                        return Err(rec.error("fox_leases before fox").into());
                    };
                    in_order(&rec, fox.leases.len())?;
                    fox.leases.push(rec.f64_array("starts")?);
                }
                "spike_gate" => {
                    in_order(&rec, snapshot.spike_gates.len())?;
                    snapshot
                        .spike_gates
                        .push((rec.opt_f64("last_rate")?, rec.u32("streak")?));
                }
                "held_sample" => held.push((in_range(&rec)?, read_sample(&rec)?)),
                "last_targets" => snapshot.last_targets = Some(rec.u32_array("targets")?),
                "degradation" => {
                    let code = rec.str("code")?;
                    let reason = DegradationReason::from_parts(
                        code,
                        rec.opt_usize("service")?,
                        rec.opt_u32("attempt")?,
                    )
                    .ok_or_else(|| rec.error(format!("unknown degradation code `{code}`")))?;
                    snapshot.degradation.push(DegradationEvent {
                        time: rec.f64("time")?,
                        reason,
                    });
                }
                other => {
                    return Err(rec.error(format!("unknown record kind `{other}`")).into());
                }
            }
        }

        let per_service = |what: &str, len: usize| -> Result<(), SnapshotError> {
            if len == services {
                return Ok(());
            }
            Err(SnapshotError::Inconsistent {
                message: format!("{len} {what} records for {services} services"),
            })
        };
        per_service("estimator", snapshot.estimators.len())?;
        per_service("spike_gate", snapshot.spike_gates.len())?;
        if let Some(fox) = &snapshot.fox {
            per_service("fox_leases", fox.leases.len())?;
        }
        if let Some(targets) = &snapshot.last_targets {
            per_service("last target", targets.len())?;
        }
        snapshot.last_good_samples = vec![None; services];
        for (service, sample) in held {
            snapshot.last_good_samples[service] = Some(sample);
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChamulteonConfig;
    use crate::controller::Chamulteon;
    use crate::degradation::Observation;
    use chamulteon_perfmodel::ApplicationModel;

    /// One synthetic cycle's observations: a mild sawtooth with a
    /// monitoring dropout every 9th cycle (so held/degraded state is in
    /// the snapshot) and a corrupt reading every 13th.
    fn observations_at(cycle: u64, services: usize) -> Vec<Observation> {
        (0..services)
            .map(|s| {
                if cycle % 9 == 5 {
                    return Observation::Missing;
                }
                let rate = 12.0 + ((cycle + s as u64) % 7) as f64 * 4.0;
                Observation::Raw {
                    duration: 60.0,
                    arrivals: (rate * 60.0).round(),
                    completions: (rate * 60.0).round(),
                    utilization: if cycle % 13 == 7 { f64::NAN } else { 0.55 },
                    instances: 2,
                    mean_response_time: Some(0.09),
                }
            })
            .collect()
    }

    fn controller_with_state() -> Chamulteon {
        let model = ApplicationModel::paper_benchmark();
        let mut c = Chamulteon::new(model, ChamulteonConfig::default())
            .with_fox(ChargingModel::gcp_per_minute());
        let services = c.model().service_count();
        // Stop at cycle 20: the first forecast lands at cycle 13, so the
        // snapshot carries an active forecast and its plan.
        for k in 0..20 {
            let t = 60.0 * (k + 1) as f64;
            let _ = c.tick_observed(t, &observations_at(k, services));
        }
        c
    }

    #[test]
    fn encode_decode_round_trips_and_is_byte_stable() {
        let snapshot = controller_with_state().snapshot();
        assert!(snapshot.forecasts_made > 0, "forecast state must be live");
        assert!(
            snapshot
                .active_forecast
                .as_ref()
                .is_some_and(|f| !f.plan.is_empty()),
            "the plan must be live"
        );
        assert!(!snapshot.degradation.is_empty(), "dropouts must be logged");
        let text = snapshot.encode();
        let decoded = ControllerSnapshot::decode(&text).expect("decodes");
        assert_eq!(decoded, snapshot, "decode is the inverse of encode");
        assert_eq!(decoded.encode(), text, "encoding is byte-stable");
    }

    #[test]
    fn restored_controller_continues_bit_identically() {
        let model = ApplicationModel::paper_benchmark();
        let config = ChamulteonConfig::default();
        let services = model.service_count();
        let mut reference =
            Chamulteon::new(model.clone(), config.clone()).with_fox(ChargingModel::ec2_hourly());
        let mut crashed =
            Chamulteon::new(model.clone(), config.clone()).with_fox(ChargingModel::ec2_hourly());
        // Crash cycle 23 lands right after the cycle-23 dropout (23 % 9 ==
        // 5), i.e. immediately after a degraded/held cycle, and 23·60 s is
        // mid-way through an EC2 billing hour.
        for k in 0..23 {
            let t = 60.0 * (k + 1) as f64;
            let a = reference.tick_observed(t, &observations_at(k, services));
            let b = crashed.tick_observed(t, &observations_at(k, services));
            assert_eq!(a, b);
        }
        let text = crashed.snapshot().encode();
        drop(crashed); // the crash
        let decoded = ControllerSnapshot::decode(&text).expect("decodes");
        let mut restored = Chamulteon::restore(model, config, &decoded).expect("restores");
        let mut last = 0.0;
        for k in 23..60 {
            let t = 60.0 * (k + 1) as f64;
            last = t;
            let a = reference.tick_observed(t, &observations_at(k, services));
            let b = restored.tick_observed(t, &observations_at(k, services));
            assert_eq!(a, b, "cycle {k} diverged after restore");
        }
        let billed_ref = reference.billed_instance_seconds(last);
        let billed_restored = restored.billed_instance_seconds(last);
        assert_eq!(
            billed_ref.map(f64::to_bits),
            billed_restored.map(f64::to_bits),
            "FOX ledgers diverged: {billed_ref:?} vs {billed_restored:?}"
        );
        assert_eq!(reference.forecasts_made(), restored.forecasts_made());
        assert_eq!(
            reference.degradation().events(),
            restored.degradation().events()
        );
    }

    #[test]
    fn unknown_versions_are_rejected_explicitly() {
        let text = controller_with_state().snapshot().encode();
        let current = format!("\"version\":{SNAPSHOT_VERSION}");
        // The previous format and a future one.
        for found in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
            let other = text.replacen(&current, &format!("\"version\":{found}"), 1);
            assert_eq!(
                ControllerSnapshot::decode(&other),
                Err(SnapshotError::UnsupportedVersion { found })
            );
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let good = controller_with_state().snapshot().encode();
        // Not JSON at all.
        assert!(matches!(
            ControllerSnapshot::decode("not json"),
            Err(SnapshotError::Malformed { .. })
        ));
        // Empty document.
        assert!(matches!(
            ControllerSnapshot::decode(""),
            Err(SnapshotError::Malformed { .. })
        ));
        // Unknown record kind.
        let with_junk = format!("{good}{{\"kind\":\"mystery\"}}\n");
        assert!(matches!(
            ControllerSnapshot::decode(&with_junk),
            Err(SnapshotError::Malformed { .. })
        ));
        // First line must be the header.
        let headless: String = good.lines().skip(1).flat_map(|l| [l, "\n"]).collect();
        assert!(matches!(
            ControllerSnapshot::decode(&headless),
            Err(SnapshotError::Malformed { .. })
        ));
        // Out-of-range service index.
        let shifted = good.replacen(
            "\"kind\":\"estimator\",\"service\":0",
            "\"kind\":\"estimator\",\"service\":99",
            1,
        );
        assert!(matches!(
            ControllerSnapshot::decode(&shifted),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn declared_counts_size_nothing_before_their_records() {
        // One header line declaring 10^15 services: no estimator records
        // follow, so the count is never trusted with an allocation.
        let header = format!(
            "{{\"kind\":\"header\",\"schema\":\"chamulteon-snapshot\",\
             \"version\":{SNAPSHOT_VERSION},\"services\":1000000000000000,\"ticks\":0,\
             \"forecast_generation\":0,\"forecasts_made\":0}}\n"
        );
        assert!(matches!(
            ControllerSnapshot::decode(&header),
            Err(SnapshotError::Inconsistent { .. })
        ));
    }

    #[test]
    fn restore_rejects_a_foreign_window_capacity() {
        let good = controller_with_state().snapshot().encode();
        let huge = good.replacen("\"capacity\":5", "\"capacity\":1000000000000000", 1);
        let decoded = ControllerSnapshot::decode(&huge).expect("capacity is well-formed");
        let model = ApplicationModel::paper_benchmark();
        assert!(matches!(
            Chamulteon::restore(model, ChamulteonConfig::default(), &decoded),
            Err(SnapshotError::Inconsistent { .. })
        ));
    }

    #[test]
    fn decode_rejects_floats_that_overflow_to_infinity() {
        let good = controller_with_state().snapshot().encode();
        let overflow = good.replacen("\"smoothing\":0.4", "\"smoothing\":1e400", 1);
        assert_ne!(overflow, good);
        assert!(matches!(
            ControllerSnapshot::decode(&overflow),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn restore_rejects_mismatched_models() {
        let snapshot = controller_with_state().snapshot();
        let wrong = chamulteon_perfmodel::ApplicationModelBuilder::new()
            .service("solo", 0.05, 1, 50, 1)
            .entry("solo")
            .build()
            .expect("valid single-service model");
        assert!(matches!(
            Chamulteon::restore(wrong, ChamulteonConfig::default(), &snapshot),
            Err(SnapshotError::Inconsistent { .. })
        ));
    }

    #[test]
    fn restore_rejects_a_forecast_the_controller_cannot_have_made() {
        let model = ApplicationModel::paper_benchmark();
        let config = ChamulteonConfig::default();
        let snapshot = controller_with_state().snapshot();
        let forecast = snapshot.active_forecast.clone().expect("forecast is live");
        let history = snapshot.entry_history.as_ref().expect("history is live");
        assert!(Chamulteon::restore(model.clone(), config.clone(), &snapshot).is_ok());
        let forge = |edit: &dyn Fn(&mut ControllerSnapshot, &mut ForecastState)| {
            let mut forged = snapshot.clone();
            let mut f = forecast.clone();
            edit(&mut forged, &mut f);
            forged.active_forecast = Some(f);
            forged
        };
        let made_late = history.values.len() + 40;
        let cases = [
            (
                "made past the end of the history",
                forge(&|_, f| f.made_at = made_late),
            ),
            (
                "without an entry history",
                forge(&|s, _| s.entry_history = None),
            ),
            ("of a later generation", forge(&|_, f| f.generation += 3)),
            ("of an earlier generation", forge(&|_, f| f.generation -= 1)),
            ("with NaN values", forge(&|_, f| f.values.fill(f64::NAN))),
            ("with negative values", forge(&|_, f| f.values.fill(-5.0))),
            // The plan holds one row of every service's target per value.
            (
                "with a target missing",
                forge(&|_, f| f.plan.truncate(f.plan.len() - 1)),
            ),
            ("with a target too many", forge(&|_, f| f.plan.push(1))),
            (
                "with a row missing",
                forge(&|_, f| f.plan.truncate(f.plan.len() - 3)),
            ),
            (
                "with a row too many",
                forge(&|_, f| f.plan.extend([1, 2, 3])),
            ),
        ];
        for (what, forged) in cases {
            let decoded = ControllerSnapshot::decode(&forged.encode()).expect("well-formed");
            assert!(
                matches!(
                    Chamulteon::restore(model.clone(), config.clone(), &decoded),
                    Err(SnapshotError::Inconsistent { .. })
                ),
                "a forecast {what} restored"
            );
        }
    }

    #[test]
    fn snapshot_is_a_pure_read() {
        // Same tick sequence with and without snapshots interleaved.
        let mut with_snapshots = controller_with_state();
        let mut without = controller_with_state();
        let services = with_snapshots.model().service_count();
        for k in 24..32 {
            let t = 60.0 * (k + 1) as f64;
            let _ = with_snapshots.snapshot().encode();
            let a = with_snapshots.tick_observed(t, &observations_at(k, services));
            let b = without.tick_observed(t, &observations_at(k, services));
            assert_eq!(a, b, "snapshotting changed behavior at cycle {k}");
        }
    }
}
