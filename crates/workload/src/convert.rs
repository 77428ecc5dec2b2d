//! Crate-private checked numeric conversions, so sample counts and bucket
//! indices derived from float time arithmetic narrow in exactly one place.

/// Converts a sample count or index computed in `f64` to `usize`,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_and_truncates() {
        assert_eq!(usize_from_f64(-1.0), 0);
        assert_eq!(usize_from_f64(f64::NAN), 0);
        assert_eq!(usize_from_f64(0.0), 0);
        assert_eq!(usize_from_f64(2.9), 2);
        assert_eq!(usize_from_f64(f64::INFINITY), usize::MAX);
    }
}
