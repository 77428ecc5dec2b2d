//! The hybrid-day workload: the full 86 400 s day at 1M req/s peak on the
//! hybrid fluid core, statically provisioned.

use chamulteon_bench::des_scale::headline_case;
use chamulteon_bench::DesScaleCase;
use chamulteon_workload::{generators, LoadTrace};

/// The des-scale headline seed the committed BENCH_5 numbers used.
const BASE_SEED: u64 = 7;

/// The case at seed offset `seed`.
pub fn case(seed: u64) -> DesScaleCase {
    headline_case(BASE_SEED.wrapping_add(seed))
}

/// The day trace `run_des_scale_case` builds inside itself for `case`.
/// The case owns its inputs, so set-up time is measured on this copy: a
/// change that moves work into trace generation still shows in `setup_s`.
pub fn trace(case: &DesScaleCase) -> LoadTrace {
    generators::wikipedia_like(case.seed, 60.0, 86_400.0).scale_to_peak(case.peak)
}
