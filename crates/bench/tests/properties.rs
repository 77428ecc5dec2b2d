//! Property tests for the bench harness's parallel runner: fanning work
//! out over threads must never change what is computed, only when.

use chamulteon_bench::parallel_map;
use proptest::prelude::*;

proptest! {
    /// The pool returns exactly the sequential results in exactly the
    /// input order, for any item count and any thread count (including
    /// the degenerate 0/1-thread fast path).
    #[test]
    fn parallel_map_matches_sequential(
        items in prop::collection::vec(0u32..u32::MAX, 0..48),
        threads in 0usize..9,
    ) {
        let f = |i: usize, &x: &u32| u64::from(x).wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let sequential: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        prop_assert_eq!(parallel_map(&items, threads, f), sequential);
    }

    /// Pool results are independent of the thread count: any two worker
    /// configurations agree bit-for-bit.
    #[test]
    fn parallel_map_thread_count_invariant(
        items in prop::collection::vec(-1_000_000i64..1_000_000, 1..32),
        a in 1usize..7,
        b in 1usize..7,
    ) {
        let f = |i: usize, &x: &i64| x.wrapping_mul(31).wrapping_sub(i as i64);
        prop_assert_eq!(parallel_map(&items, a, f), parallel_map(&items, b, f));
    }
}
