//! Property test pinning `core`'s Algorithm 1 to the brute-force oracle
//! on every synthetic topology family: for any family, size, entry rate
//! and current deployment, `proactive_decisions` returns exactly the
//! targets of `algorithm1::oracle_decisions`, which shares no code with
//! the implementation.

use chamulteon::{proactive_decisions, ChamulteonConfig};
use chamulteon_conformance::algorithm1::oracle_decisions;
use chamulteon_perfmodel::{topology, TopologyFamily};
use proptest::prelude::*;

proptest! {
    #[test]
    fn proactive_decisions_match_oracle_on_topology_families(
        fam_index in 0usize..4,
        n in 1usize..48,
        seed in 0u64..500,
        rate in 0.0f64..10_000.0,
        current in prop::collection::vec(0u32..200, 0..48),
    ) {
        let fam = TopologyFamily::ALL[fam_index];
        let model = topology::model(fam, n, seed).expect("generated model is valid");
        let config = ChamulteonConfig::default();
        prop_assert_eq!(
            proactive_decisions(&model, rate, &[], &current, &config),
            oracle_decisions(&model, rate, &[], &current, &config)
        );
    }
}
