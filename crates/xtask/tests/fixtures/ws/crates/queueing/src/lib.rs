//! Fixture: one seeded R2 violation, plus a suppressed twin.

/// Compares floats the NaN-unsafe way (R2 seed).
pub fn nan_unsafe(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).unwrap() == std::cmp::Ordering::Less
}

/// Same construct as `nan_unsafe`, but suppressed by an allow marker.
pub fn suppressed(a: f64, b: f64) -> bool {
    // audit:allow(nan-safety): fixture demonstrates suppression
    a.partial_cmp(&b).unwrap() == std::cmp::Ordering::Less
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let ord = 1.0_f64.partial_cmp(&2.0).unwrap();
        assert!(super::nan_unsafe(1.0, 2.0) && ord.is_lt());
    }
}
