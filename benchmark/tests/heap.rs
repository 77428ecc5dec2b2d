//! The counting allocator, installed as this test binary's allocator. One
//! test only, so no other thread allocates while it runs.

use chamulteon_benchmark::heap::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;

#[test]
fn peak_counts_allocations_reallocations_and_frees() {
    let base = heap::peak_bytes();
    let zeroed = vec![0u8; 4 * MIB];
    assert!(heap::peak_bytes() >= 4 * MIB);
    drop(zeroed);

    let mut grown: Vec<u8> = Vec::with_capacity(MIB);
    grown.reserve_exact(16 * MIB);
    let peak = heap::peak_bytes();
    assert!(peak >= 16 * MIB, "peak {peak}");
    grown.shrink_to(MIB);
    drop(grown);

    // Freed blocks leave the high-water mark alone, and live bytes came
    // back down: a fresh 1 MiB block does not raise it.
    let small = vec![1u8; MIB];
    assert_eq!(heap::peak_bytes(), peak);
    drop(small);
    assert!(peak < base + 24 * MIB, "peak {peak}, base {base}");
}
