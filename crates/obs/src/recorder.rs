//! Recorders: where traced [`Event`]s go.
//!
//! The tracing core is a single indirection: instrumented code holds a
//! [`RecorderHandle`] and calls [`RecorderHandle::record_with`] with a
//! closure that *builds* the event. A disabled handle (the default) is
//! `None` inside, so the disabled path is one branch and the event is
//! never constructed — tracing compiles to ~nothing when off.

use crate::event::Event;
use std::collections::VecDeque;
// audit:allow(R8): shared trace sink; append-only, ordering restored at report time
use std::sync::{Arc, Mutex};

/// A sink for traced events.
///
/// Implementations must be cheap and must never panic: recorders run
/// inside the controller's decision path.
pub trait Recorder: std::fmt::Debug + Send + Sync {
    /// Accepts one event.
    fn record(&self, event: &Event);
}

/// A recorder that discards everything.
///
/// Prefer a default [`RecorderHandle`] (no recorder at all) for the
/// disabled path; `NoopRecorder` exists for call sites that need a
/// concrete `Arc<dyn Recorder>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: &Event) {}
}

/// The (possibly absent) recorder an instrumented component holds.
///
/// Cloning a handle shares the underlying recorder.
#[derive(Debug, Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl RecorderHandle {
    /// A disabled handle; [`RecorderHandle::record_with`] is a no-op.
    pub fn disabled() -> RecorderHandle {
        RecorderHandle(None)
    }

    /// A handle feeding the given recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> RecorderHandle {
        RecorderHandle(Some(recorder))
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event built by `make` — which only runs when the
    /// handle is enabled, so the disabled path pays one `Option` check.
    #[inline(always)]
    pub fn record_with(&self, make: impl FnOnce() -> Event) {
        if let Some(recorder) = &self.0 {
            recorder.record(&make());
        }
    }
}

/// State behind the ring recorder's mutex.
#[derive(Debug, Default)]
struct RingState {
    events: VecDeque<Event>,
    dropped: u64,
}

/// A bounded in-memory recorder: keeps the most recent `capacity` events,
/// counting (and dropping) the oldest ones past that.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    inner: Mutex<RingState>,
}

impl RingRecorder {
    /// Creates a ring holding at most `capacity` events (floored at 1).
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(RingState::default()),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let Ok(state) = self.inner.lock() else {
            return Vec::new();
        };
        state.events.iter().cloned().collect()
    }

    /// Drains and returns the retained events, oldest first.
    pub fn take(&self) -> Vec<Event> {
        let Ok(mut state) = self.inner.lock() else {
            return Vec::new();
        };
        state.events.drain(..).collect()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().map(|state| state.dropped).unwrap_or(0)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .map(|state| state.events.len())
            .unwrap_or(0)
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: &Event) {
        let Ok(mut state) = self.inner.lock() else {
            return;
        };
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn fault(time: f64) -> Event {
        Event::cycle(
            time,
            EventKind::Fault {
                code: "drop_sample".to_owned(),
            },
        )
    }

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let handle = RecorderHandle::disabled();
        assert!(!handle.enabled());
        let mut built = false;
        handle.record_with(|| {
            built = true;
            fault(0.0)
        });
        assert!(!built, "closure must not run on a disabled handle");
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let ring = Arc::new(RingRecorder::new(3));
        let handle = RecorderHandle::new(ring.clone());
        assert!(handle.enabled());
        for t in 0..5 {
            handle.record_with(|| fault(f64::from(t)));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let times: Vec<f64> = ring.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);

        let taken = ring.take();
        assert_eq!(taken.len(), 3);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drop count survives take()");
    }

    #[test]
    fn zero_capacity_is_floored_to_one() {
        let ring = RingRecorder::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(&fault(1.0));
        ring.record(&fault(2.0));
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].time, 2.0);
    }
}
