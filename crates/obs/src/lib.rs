//! `chamulteon-obs` — decision-provenance tracing, metrics and cycle
//! profiling for the Chamulteon reproduction.
//!
//! The crate has three parts, all std-only:
//!
//! * **Tracing** ([`event`], [`recorder`]): instrumented code holds a
//!   [`RecorderHandle`] and emits [`Event`]s through
//!   [`RecorderHandle::record_with`]. The schema follows one control
//!   cycle (`cycle_start` → `demand_estimate` → `forecast` →
//!   `capacity_solve` → `conflict_resolution` → `fox_verdict` →
//!   `decision`) plus harness-side `degradation`, `actuation` and
//!   `fault` records; every final target carries a full [`Provenance`].
//! * **Metrics** ([`metrics`]): a [`MetricsRegistry`] of counters,
//!   gauges and log-bucketed histograms with a plain-text snapshot,
//!   plus a [`PhaseTimer`] for per-phase wall-clock.
//! * **Export** ([`json`], [`jsonl`]): the workspace's one JSON codec —
//!   a streaming writer and a strict parser shared by every text format —
//!   and the canonical JSONL serialization of traces built on it, where
//!   emit → parse → re-emit is the identity.
//!
//! Everything defaults to *off*: [`Obs::default`] carries no recorder
//! and a disabled registry, so the instrumented hot paths pay one branch
//! per emission point. The bit-identity tests in `chamulteon-bench` pin
//! that attaching a recorder never changes a scaling decision.

#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod recorder;

pub use event::{
    ActuationOutcome, Event, EventKind, Provenance, Sizing, WarmAction, Winner, EVENT_KIND_CODES,
};
pub use json::JsonError;
pub use metrics::{Counter, Histogram, MetricsRegistry, PhaseTimer};
pub use recorder::{NoopRecorder, Recorder, RecorderHandle, RingRecorder};

use std::sync::Arc;

/// The observability bundle an instrumented component carries: an event
/// recorder plus a metrics registry. Cloning shares both.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    recorder: RecorderHandle,
    metrics: Arc<MetricsRegistry>,
}

impl Obs {
    /// A fully disabled bundle (the default): no recorder, disabled
    /// registry.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// A bundle feeding `recorder`, with a fresh enabled registry.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Obs {
        Obs {
            recorder: RecorderHandle::new(recorder),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// A recording bundle backed by a fresh [`RingRecorder`] of the given
    /// capacity; returns the bundle and the ring for later readout.
    pub fn recording(capacity: usize) -> (Obs, Arc<RingRecorder>) {
        let ring = Arc::new(RingRecorder::new(capacity));
        (Obs::with_recorder(ring.clone()), ring)
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.recorder.enabled()
    }

    /// Emits the event built by `make` when tracing is on (see
    /// [`RecorderHandle::record_with`]).
    #[inline]
    pub fn record_with(&self, make: impl FnOnce() -> Event) {
        self.recorder.record_with(make);
    }

    /// The metrics registry (disabled unless the bundle records).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bundle_is_fully_off() {
        let obs = Obs::default();
        assert!(!obs.tracing());
        assert!(!obs.metrics().enabled());
        let mut built = false;
        obs.record_with(|| {
            built = true;
            Event::cycle(
                0.0,
                EventKind::Fault {
                    code: "drop_sample".to_owned(),
                },
            )
        });
        assert!(!built, "disabled bundle must not build events");
        obs.metrics().increment("x");
        assert_eq!(obs.metrics().counter_value("x"), None);
    }

    #[test]
    fn recording_bundle_captures_events_and_metrics() {
        let (obs, ring) = Obs::recording(8);
        assert!(obs.tracing());
        assert!(obs.metrics().enabled());
        obs.record_with(|| {
            Event::cycle(
                1.0,
                EventKind::Fault {
                    code: "drop_sample".to_owned(),
                },
            )
        });
        obs.metrics().increment("x");
        assert_eq!(ring.len(), 1);
        assert_eq!(obs.metrics().counter_value("x"), Some(1));

        let clone = obs.clone();
        clone.record_with(|| {
            Event::cycle(
                2.0,
                EventKind::Fault {
                    code: "drop_sample".to_owned(),
                },
            )
        });
        assert_eq!(ring.len(), 2, "clones share the recorder");
        clone.metrics().increment("x");
        assert_eq!(obs.metrics().counter_value("x"), Some(2));
    }
}
