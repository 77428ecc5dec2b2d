//! Crate-private checked numeric conversions, so request counts and bucket
//! indices derived from float rate arithmetic narrow in exactly one place.

/// Converts a non-negative bucket index computed in `f64` to `usize`,
/// saturating at the bounds (non-positive and NaN map to 0).
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "NaN, non-positive and out-of-range values saturate before the cast"
)]
pub(crate) fn usize_from_f64(value: f64) -> usize {
    if value.is_nan() || value <= 0.0 {
        0
    } else if value >= usize::MAX as f64 {
        usize::MAX
    } else {
        value as usize
    }
}

/// Converts a request count computed in `f64` to `u64`, saturating at the
/// bounds (non-positive and NaN map to 0).
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "NaN, non-positive and out-of-range values saturate before the cast"
)]
pub(crate) fn u64_from_f64(value: f64) -> u64 {
    if value.is_nan() || value <= 0.0 {
        0
    } else if value >= u64::MAX as f64 {
        u64::MAX
    } else {
        value as u64
    }
}

/// Converts an instance delta computed in `f64` to `i64`, saturating at
/// the bounds (NaN maps to 0).
#[allow(
    clippy::cast_possible_truncation,
    reason = "NaN and out-of-range values saturate before the cast"
)]
pub(crate) fn i64_from_f64(value: f64) -> i64 {
    if value.is_nan() {
        0
    } else if value >= i64::MAX as f64 {
        i64::MAX
    } else if value <= i64::MIN as f64 {
        i64::MIN
    } else {
        value as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_saturates() {
        assert_eq!(usize_from_f64(-2.0), 0);
        assert_eq!(usize_from_f64(3.7), 3);
        assert_eq!(usize_from_f64(f64::INFINITY), usize::MAX);
    }

    #[test]
    fn u64_saturates() {
        assert_eq!(u64_from_f64(f64::NAN), 0);
        assert_eq!(u64_from_f64(41.9), 41);
        assert_eq!(u64_from_f64(1e30), u64::MAX);
    }

    #[test]
    fn i64_saturates_both_ways() {
        assert_eq!(i64_from_f64(-3.2), -3);
        assert_eq!(i64_from_f64(5.9), 5);
        assert_eq!(i64_from_f64(-1e30), i64::MIN);
        assert_eq!(i64_from_f64(1e30), i64::MAX);
    }
}
