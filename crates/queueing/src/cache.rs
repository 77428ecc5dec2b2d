//! Quantized-key memoization for the capacity solvers.
//!
//! The evaluation pipeline asks the same capacity questions over and over:
//! every scaler scored against a trace re-derives the same ground-truth
//! demand curve. [`CapacityCache`] memoizes that curve's solver —
//! [`min_instances_for_response_time_quantile`], a sweep over Erlang-C
//! tail bounds — behind a *quantized* key so that float inputs differing
//! only in the last few mantissa bits share one entry. (Algorithm 1's
//! utilization inversion is a handful of float operations and is never
//! memoized: a probe would cost more than the solve.)
//!
//! # Keying and error bound
//!
//! Each float input is bucketed by masking the low [`QUANT_BITS`] mantissa
//! bits, i.e. buckets are `2^QUANT_BITS` ulps wide — a relative width of
//! `2^(QUANT_BITS − 52) = 2^-40`. The bucket corner is chosen
//! *conservatively* per dimension: arrival rate and service demand round
//! **up**, the response-time target rounds **down**, the quantile rounds
//! **up**. Every rounding direction makes the sizing problem harder, so
//! the cached instance count is always sufficient for every exact input in
//! the bucket (never an undersized answer), and it exceeds the exact
//! answer only when the exact input sits within `2^-40` relative of a
//! solver decision boundary.
//!
//! # Determinism
//!
//! A cached result is a pure function of the quantized key — the solver is
//! always evaluated at the bucket corner, never at the first-seen exact
//! input. Lookup order therefore cannot change any value the cache
//! returns: sharing one cache across runs or worker threads could not
//! change any report. Each experiment run scores through a fresh cache of
//! its own.

use std::collections::HashMap;
// audit:allow(R8): cache interior mutability; hits return memoized bit-identical values
use std::sync::Mutex;

use chamulteon_obs::Counter;

use crate::capacity::min_instances_for_response_time_quantile;
use crate::error::QueueingError;

/// Number of low mantissa bits masked off when bucketing a float key:
/// buckets are `2^12` ulps ≈ `2^-40` relative wide.
pub const QUANT_BITS: u32 = 12;

const MANTISSA_MASK: u64 = (1u64 << QUANT_BITS) - 1;

/// Largest bucket corner at or below `x` (positive finite `x`): masks the
/// low mantissa bits, which for positive floats rounds toward zero.
#[inline]
fn quantize_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() & !MANTISSA_MASK)
}

/// Smallest bucket corner at or above `x` (positive finite `x`). Stepping
/// a positive float's bit pattern up is monotone, so adding one bucket
/// width to the masked pattern lands on the next corner; if the carry
/// overflows to infinity the input is returned unchanged.
#[inline]
fn quantize_up(x: f64) -> f64 {
    let bits = x.to_bits();
    if bits & MANTISSA_MASK == 0 {
        return x;
    }
    let up = f64::from_bits((bits & !MANTISSA_MASK) + (MANTISSA_MASK + 1));
    if up.is_finite() {
        up
    } else {
        x
    }
}

/// [`quantize_down`] that never collapses a (subnormal) positive value to
/// zero — the solvers treat exact zero as invalid.
fn positive_quantize_down(x: f64) -> f64 {
    let down = quantize_down(x);
    if down > 0.0 {
        down
    } else {
        x
    }
}

/// A quantized cache key: the bit patterns of the bucket-corner inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CapacityKey {
    arrival_rate: u64,
    service_demand: u64,
    target: u64,
    quantile: u64,
    max_instances: u32,
}

/// Multiply-rotate hasher for [`CapacityKey`] (FxHash-style). The keys
/// are fixed-width integers the caller cannot choose adversarially (they
/// are quantized solver inputs, not attacker-controlled strings), so the
/// DoS resistance of the standard SipHash buys nothing here — but its
/// cost dominates a warm cache hit, which is the whole point of the memo.
#[derive(Debug, Default, Clone)]
struct CapacityHasher(u64);

impl CapacityHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }

    /// Zero-extends a platform-width integer's native bytes into a `u64`
    /// lane (portable across 16/32/64-bit `usize` without numeric casts).
    fn extend_native<const N: usize>(bytes: [u8; N]) -> u64 {
        let mut lane = [0u8; 8];
        lane[..N.min(8)].copy_from_slice(&bytes[..N.min(8)]);
        u64::from_ne_bytes(lane)
    }
}

impl std::hash::Hasher for CapacityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut lane = [0u8; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_ne_bytes(lane));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(Self::extend_native(i.to_ne_bytes()));
    }

    fn write_isize(&mut self, i: isize) {
        self.add(Self::extend_native(i.to_ne_bytes()));
    }
}

/// Builder producing [`CapacityHasher`]s for the cache map.
#[derive(Debug, Default, Clone)]
struct CapacityHashBuilder;

impl std::hash::BuildHasher for CapacityHashBuilder {
    type Hasher = CapacityHasher;

    fn build_hasher(&self) -> CapacityHasher {
        CapacityHasher::default()
    }
}

/// Hit/miss counters of a [`CapacityCache`], as captured by
/// [`CapacityCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that ran the underlying solver and stored the result.
    pub misses: u64,
}

/// A thread-safe memo cache over the demand curve's capacity solver
/// ([`min_instances_for_response_time_quantile`]), keyed by quantized
/// inputs (see the module docs for the bucketing scheme and error bound).
///
/// Degenerate inputs (non-positive, NaN, out-of-range quantiles) bypass
/// the cache entirely and are answered by the underlying solver's own
/// validation, so cached and uncached error behavior agree.
///
/// # Examples
///
/// ```
/// use chamulteon_queueing::CapacityCache;
///
/// let cache = CapacityCache::new();
/// let first = cache.min_instances_for_response_time_quantile(100.0, 0.1, 0.5, 0.9, 1000)?;
/// let again = cache.min_instances_for_response_time_quantile(100.0, 0.1, 0.5, 0.9, 1000)?;
/// assert_eq!(first, again);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// # Ok::<(), chamulteon_queueing::QueueingError>(())
/// ```
#[derive(Debug, Default)]
pub struct CapacityCache {
    map: Mutex<HashMap<CapacityKey, Result<u32, QueueingError>, CapacityHashBuilder>>,
    hits: Counter,
    misses: Counter,
}

impl Clone for CapacityCache {
    /// Clones the cached entries; the clone starts with the same counters.
    /// (Entries are pure functions of their keys, so sharing or splitting
    /// a cache never changes any result.)
    fn clone(&self) -> Self {
        let map = match self.map.lock() {
            Ok(guard) => guard.clone(),
            // A poisoned lock means a panic elsewhere; start empty rather
            // than propagate — the cache is only ever an accelerator.
            Err(_) => HashMap::default(),
        };
        CapacityCache {
            map: Mutex::new(map),
            hits: self.hits.clone(),
            misses: self.misses.clone(),
        }
    }
}

impl CapacityCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CapacityCache::default()
    }

    /// Current hit/miss counters. (Thin shim over the obs
    /// [`Counter`]s the cache keeps internally.)
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Number of distinct quantized keys currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared lookup-or-compute on the quantized key.
    fn lookup<F>(&self, key: CapacityKey, solve: F) -> Result<u32, QueueingError>
    where
        F: FnOnce() -> Result<u32, QueueingError>,
    {
        if let Ok(mut map) = self.map.lock() {
            if let Some(found) = map.get(&key) {
                self.hits.increment();
                return found.clone();
            }
            let computed = solve();
            self.misses.increment();
            map.insert(key, computed.clone());
            return computed;
        }
        // Poisoned lock: degrade to uncached computation.
        solve()
    }

    // Each `!(x > 0.0)` term in the body deliberately treats NaN as
    // degenerate; clippy's "simplified" conjunction would obscure that.
    /// Memoized [`min_instances_for_response_time_quantile`] — the demand
    /// curve's solver, and the cache's hottest entry point.
    ///
    /// # Errors
    ///
    /// Same contract as the underlying solver (evaluated at the bucket
    /// corner for valid inputs; validation errors come from the exact
    /// inputs, uncached).
    #[allow(clippy::nonminimal_bool)]
    pub fn min_instances_for_response_time_quantile(
        &self,
        arrival_rate: f64,
        service_demand: f64,
        response_time_target: f64,
        p: f64,
        max_instances: u32,
    ) -> Result<u32, QueueingError> {
        if !(arrival_rate > 0.0)
            || !(service_demand > 0.0)
            || !(response_time_target > 0.0)
            || !(p > 0.0 && p < 1.0)
        {
            return min_instances_for_response_time_quantile(
                arrival_rate,
                service_demand,
                response_time_target,
                p,
                max_instances,
            );
        }
        let lambda = quantize_up(arrival_rate);
        let demand = quantize_up(service_demand);
        let target = positive_quantize_down(response_time_target);
        // Rounding p up makes the tail bound harder (conservative); fall
        // back to the exact p in the measure-zero corner where the bucket
        // step would cross 1.0.
        let quantile = {
            let up = quantize_up(p);
            if up < 1.0 {
                up
            } else {
                p
            }
        };
        let key = CapacityKey {
            arrival_rate: lambda.to_bits(),
            service_demand: demand.to_bits(),
            target: target.to_bits(),
            quantile: quantile.to_bits(),
            max_instances,
        };
        self.lookup(key, || {
            min_instances_for_response_time_quantile(
                lambda,
                demand,
                target,
                quantile,
                max_instances,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_conservative_and_tight() {
        for &x in &[0.1, 0.059, 1.0, 85.3, 1234.5678, 1e-3, 1e6] {
            let down = quantize_down(x);
            let up = quantize_up(x);
            assert!(down <= x && x <= up, "x={x}");
            // Bucket width is ~2^-40 relative.
            assert!((x - down) / x < 1e-11, "x={x} down={down}");
            assert!((up - x) / x < 1e-11, "x={x} up={up}");
        }
        // Exact bucket corners are fixed points of both directions.
        let corner = quantize_down(0.1);
        assert_eq!(quantize_down(corner), corner);
        assert_eq!(quantize_up(corner), corner);
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let cache = CapacityCache::new();
        assert_eq!(cache.stats(), CacheStats::default());
        let a = cache
            .min_instances_for_response_time_quantile(100.0, 0.1, 0.5, 0.9, 1000)
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        let b = cache
            .min_instances_for_response_time_quantile(100.0, 0.1, 0.5, 0.9, 1000)
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn nearby_inputs_share_a_bucket() {
        let cache = CapacityCache::new();
        // Two rates a few ulps apart on the same side of a bucket corner
        // round up to the same corner: one miss, then a hit.
        let low = f64::from_bits(100.0_f64.to_bits() + 3);
        let high = f64::from_bits(100.0_f64.to_bits() + 7);
        let first = cache
            .min_instances_for_response_time_quantile(low, 0.1, 0.5, 0.9, 1000)
            .unwrap();
        let second = cache
            .min_instances_for_response_time_quantile(high, 0.1, 0.5, 0.9, 1000)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_never_undersizes() {
        // Conservative rounding: the cached count meets the SLO for the
        // exact inputs too, across a sweep of awkward values.
        let cache = CapacityCache::new();
        for i in 1..60u32 {
            let lambda = f64::from(i) * 7.3 + 0.011;
            let n = cache
                .min_instances_for_response_time_quantile(lambda, 0.1, 0.4, 0.9, 10_000)
                .unwrap();
            let exact = crate::capacity::min_instances_for_response_time_quantile(
                lambda, 0.1, 0.4, 0.9, 10_000,
            )
            .unwrap();
            assert!(n >= exact, "λ={lambda}: cached {n} < exact {exact}");
            assert!(n <= exact + 1, "λ={lambda}: cached {n} ≫ exact {exact}");
        }
    }

    #[test]
    fn degenerate_inputs_bypass_cache() {
        let cache = CapacityCache::new();
        assert!(cache
            .min_instances_for_response_time_quantile(10.0, 0.1, 0.5, 1.5, 100)
            .is_err());
        assert!(cache
            .min_instances_for_response_time_quantile(10.0, -0.1, 0.5, 0.9, 100)
            .is_err());
        assert_eq!(
            cache
                .min_instances_for_response_time_quantile(0.0, 0.1, 0.5, 0.9, 100)
                .unwrap(),
            1
        );
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = CapacityCache::new();
        for _ in 0..2 {
            match cache.min_instances_for_response_time_quantile(1000.0, 0.1, 0.11, 0.9, 50) {
                Err(QueueingError::Infeasible {
                    required: Some(req),
                    ..
                }) => {
                    // `required` is the true minimal count (> the 101
                    // stability bound for this target), see the solver's
                    // round-trip contract.
                    assert!(req > 101, "required={req}");
                }
                other => panic!("expected Infeasible, got {other:?}"),
            }
        }
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn clone_carries_entries() {
        let cache = CapacityCache::new();
        let _ = cache.min_instances_for_response_time_quantile(100.0, 0.1, 0.5, 0.9, 1000);
        let copy = cache.clone();
        assert_eq!(copy.len(), 1);
        let _ = copy.min_instances_for_response_time_quantile(100.0, 0.1, 0.5, 0.9, 1000);
        assert_eq!(copy.stats().hits, 1);
        // The original's counters are unaffected by the clone's lookups.
        assert_eq!(cache.stats().hits, 0);
    }
}
