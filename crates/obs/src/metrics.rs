//! Metrics registry: monotonic counters and log-bucketed histograms with
//! a plain-text [`MetricsRegistry::snapshot`] render.
//!
//! The registry is either *enabled* or *disabled*; every mutation on a
//! disabled registry returns after one branch, so instrumented code can
//! call it unconditionally.

use std::collections::BTreeMap;
use std::fmt::Write as _;
// audit:allow(R8): lock-free counters observe the decision path without perturbing it
use std::sync::atomic::{AtomicU64, Ordering};
// audit:allow(R8): registry interior mutability; never held across a decision
use std::sync::Mutex;
use std::time::Instant;

/// A monotonic counter, safe to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter starting at `value`.
    pub const fn new(value: u64) -> Counter {
        Counter(AtomicU64::new(value))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn increment(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Counter {
        Counter::new(self.get())
    }
}

/// A histogram with power-of-two buckets: an observation `v` lands in the
/// bucket indexed by `floor(log2(v))`, read straight from the float's
/// exponent bits (no float→int casts). Tracks count, sum, min and max
/// alongside the buckets. Non-finite and negative observations are
/// ignored; zero lands in the denormal bucket (index −1023).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// The bucket index (binary exponent) an observation falls into.
fn bucket_of(v: f64) -> i32 {
    // IEEE-754 biased exponent, bits 62..52; bias 1023. Lossless: the
    // shifted value fits in 11 bits.
    let biased = (v.to_bits() >> 52) & 0x7ff;
    i32::try_from(biased).unwrap_or(0) - 1023
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation; non-finite or negative values are dropped.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded observations; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            // audit:allow(lossy-cast): counts fit f64's 53-bit integer range
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `(exponent, count)` buckets in ascending exponent order.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&e, &c)| (e, c))
    }
}

/// A registry of named counters and histograms.
///
/// Names are free-form dotted strings (`"decisions.proactive"`,
/// `"cycle.resolve_us"`). All methods take `&self` and are thread-safe; a
/// poisoned lock silently drops the operation (observability must never
/// take the controller down).
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::disabled()
    }
}

impl MetricsRegistry {
    /// Creates an enabled, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: true,
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Creates a disabled registry: every mutation is a single-branch
    /// no-op and every read sees an empty registry.
    pub const fn disabled() -> MetricsRegistry {
        MetricsRegistry {
            enabled: false,
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to the named counter.
    ///
    /// The enabled check is inlined into every caller, the work behind it
    /// is not, so the disabled path costs one branch even unoptimised.
    #[inline(always)]
    pub fn count(&self, name: &str, n: u64) {
        if self.enabled {
            self.count_enabled(name, n);
        }
    }

    /// The locked update behind [`count`](Self::count).
    #[inline(never)]
    fn count_enabled(&self, name: &str, n: u64) {
        let Ok(mut counters) = self.counters.lock() else {
            return;
        };
        match counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Adds one to the named counter.
    #[inline(always)]
    pub fn increment(&self, name: &str) {
        self.count(name, 1);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        let Ok(mut histograms) = self.histograms.lock() else {
            return;
        };
        match histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// Current value of a counter, when it exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let Ok(counters) = self.counters.lock() else {
            return None;
        };
        counters.get(name).copied()
    }

    /// A copy of the named histogram, when it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let Ok(histograms) = self.histograms.lock() else {
            return None;
        };
        histograms.get(name).cloned()
    }

    /// Renders every metric as sorted plain text, one line per metric:
    /// counters, then histograms (count/mean/min/max).
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        if let Ok(counters) = self.counters.lock() {
            for (name, value) in counters.iter() {
                let _ = writeln!(out, "counter {name} = {value}");
            }
        }
        if let Ok(histograms) = self.histograms.lock() {
            for (name, h) in histograms.iter() {
                let _ = writeln!(
                    out,
                    "histogram {name}: count={} mean={:.3} min={:.3} max={:.3}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max()
                );
            }
        }
        out
    }
}

/// Measures successive phases of a cycle, feeding one histogram per phase.
///
/// Constructed with [`PhaseTimer::start`]; each [`PhaseTimer::lap`]
/// records the microseconds since the previous lap (or start) into the
/// named histogram and restarts the clock. When the registry is disabled
/// the timer never reads the clock at all.
#[derive(Debug)]
pub struct PhaseTimer {
    last: Option<Instant>,
}

impl PhaseTimer {
    /// Starts a timer; pass `enabled = false` to make every lap a no-op.
    pub fn start(enabled: bool) -> PhaseTimer {
        PhaseTimer {
            last: enabled.then(Instant::now),
        }
    }

    /// Records the elapsed phase into `metrics` under `name`
    /// (microseconds) and restarts the clock.
    pub fn lap(&mut self, metrics: &MetricsRegistry, name: &str) {
        let Some(last) = self.last else {
            return;
        };
        let now = Instant::now();
        metrics.observe(name, now.duration_since(last).as_secs_f64() * 1e6);
        self.last = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.increment("a");
        m.count("a", 4);
        m.increment("b");
        assert_eq!(m.counter_value("a"), Some(5));
        assert_eq!(m.counter_value("b"), Some(1));
        assert_eq!(m.counter_value("absent"), None);
    }

    #[test]
    fn histogram_buckets_by_binary_exponent() {
        let mut h = Histogram::new();
        h.observe(1.5); // exponent 0
        h.observe(3.0); // exponent 1
        h.observe(2.0); // exponent 1
        h.observe(f64::NAN); // dropped
        h.observe(-1.0); // dropped
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
        assert_eq!(h.min(), 1.5);
        assert_eq!(h.max(), 3.0);
        assert!((h.mean() - 6.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::disabled();
        assert!(!m.enabled());
        m.increment("a");
        m.observe("h", 1.0);
        assert_eq!(m.counter_value("a"), None);
        assert!(m.histogram("h").is_none());
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn snapshot_renders_sorted_sections() {
        let m = MetricsRegistry::new();
        m.increment("z.counter");
        m.increment("a.counter");
        m.observe("lat", 10.0);
        let snap = m.snapshot();
        let a = snap.find("counter a.counter").unwrap_or(usize::MAX);
        let z = snap.find("counter z.counter").unwrap_or(usize::MAX);
        assert!(a < z, "{snap}");
        assert!(snap.contains("histogram lat: count=1"), "{snap}");
    }

    #[test]
    fn phase_timer_observes_laps() {
        let m = MetricsRegistry::new();
        let mut t = PhaseTimer::start(m.enabled());
        t.lap(&m, "phase.one_us");
        t.lap(&m, "phase.two_us");
        let h = m.histogram("phase.one_us").unwrap_or_default();
        assert_eq!(h.count(), 1);
        assert!(h.min() >= 0.0);

        let disabled = MetricsRegistry::disabled();
        let mut t = PhaseTimer::start(disabled.enabled());
        t.lap(&disabled, "phase.one_us");
        assert!(disabled.histogram("phase.one_us").is_none());
    }
}
