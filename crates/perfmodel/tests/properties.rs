//! Property tests pinning the arena-compiled model to the graph it was
//! compiled from.
//!
//! The arena (cached topological order, CSR edge arrays) exists purely as
//! a faster *representation* — it must never change what is computed.
//! Algorithm 1's walk reads exactly two things from it: the canonical
//! topological order and each caller's outgoing calls. These properties
//! sweep all four synthetic topology families plus hand-rolled edge lists
//! with degenerate multiplicities (duplicate edges that accumulate,
//! near-denormal weights) and assert that both equal what the public
//! graph API computes on its own.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use chamulteon_perfmodel::{
    topology, ApplicationModel, InvocationGraph, ServiceSpec, TopologyFamily,
};
use proptest::prelude::*;

/// The arena's topological order and per-caller calls equal the graph's,
/// edge for edge and bit for bit.
fn assert_arena_mirrors_graph(model: &ApplicationModel) -> Result<(), TestCaseError> {
    let arena = model.arena();
    let graph = model.graph();
    let order = graph
        .topological_order()
        .expect("validated models are acyclic");
    prop_assert_eq!(arena.topo_order(), order.as_slice());
    for node in 0..model.service_count() {
        let flat: Vec<(usize, u64)> = arena
            .calls_from(node)
            .map(|(to, m)| (to, m.to_bits()))
            .collect();
        let nested: Vec<(usize, u64)> = graph
            .calls_from(node)
            .iter()
            .map(|&(to, m)| (to, m.to_bits()))
            .collect();
        prop_assert_eq!(flat, nested);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena's order and CSR edges mirror the graph over every
    /// topology family.
    #[test]
    fn arena_mirrors_graph_over_families(
        fam_index in 0usize..4,
        n in 1usize..60,
        seed in 0u64..1_000,
    ) {
        let fam = TopologyFamily::ALL[fam_index];
        let model = topology::model(fam, n, seed).expect("generated model is valid");
        assert_arena_mirrors_graph(&model)?;
    }

    /// Bulk `from_edges` construction is indistinguishable from the
    /// incremental `add_call` loop: same adjacency (order and accumulated
    /// multiplicities) and same canonical topological order.
    #[test]
    fn from_edges_matches_add_call_loop(
        fam_index in 0usize..4,
        n in 1usize..48,
        seed in 0u64..1_000,
    ) {
        let fam = TopologyFamily::ALL[fam_index];
        let edges = topology::edges(fam, n, seed);
        let bulk = InvocationGraph::from_edges(n, edges.clone()).expect("acyclic");
        let mut incremental = InvocationGraph::new(n);
        for (from, to, multiplicity) in edges {
            incremental.add_call(from, to, multiplicity).expect("valid edge");
        }
        for node in 0..n {
            prop_assert_eq!(bulk.calls_from(node), incremental.calls_from(node));
        }
        prop_assert_eq!(bulk.topological_order(), incremental.topological_order());
    }

    /// The arena's cached visit ratios agree with the graph's on-demand
    /// computation for every family.
    #[test]
    fn cached_visit_ratios_match_graph(
        fam_index in 0usize..4,
        n in 1usize..60,
        seed in 0u64..1_000,
    ) {
        let fam = TopologyFamily::ALL[fam_index];
        let model = topology::model(fam, n, seed).expect("generated model is valid");
        prop_assert_eq!(model.visit_ratios(), model.graph().visit_ratios(model.entry()));
    }

    /// Degenerate multiplicities: duplicate edges accumulate, and
    /// near-denormal weights survive compilation identically in arena and
    /// graph form.
    #[test]
    fn arena_mirrors_graph_with_degenerate_multiplicities(
        n in 2usize..24,
        seed in 0u64..1_000,
        raw_edges in prop::collection::vec((0usize..24, 0usize..24, 0usize..4), 1..64),
    ) {
        const PALETTE: [f64; 4] = [1e-300, 0.25, 0.5, 1.0];
        // Force index-topological edges (from < to) so the set is acyclic;
        // duplicates are kept so accumulation is exercised.
        let edges: Vec<(usize, usize, f64)> = raw_edges
            .into_iter()
            .filter_map(|(a, b, m)| {
                let (from, to) = ((a.min(b)) % n, (a.max(b)) % n);
                (from < to).then_some((from, to, PALETTE[m]))
            })
            .collect();
        let graph = InvocationGraph::from_edges(n, edges).expect("index-topological is acyclic");
        let mut rng = seed;
        let services: Vec<ServiceSpec> = (0..n)
            .map(|i| {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let demand = 0.01 + f64::from(u32::try_from(rng >> 40).unwrap_or(0) % 100) / 400.0;
                ServiceSpec::new(format!("s{i}"), demand, 1, 10_000, 1).expect("valid spec")
            })
            .collect();
        let model = ApplicationModel::new(services, graph, 0).expect("valid model");
        assert_arena_mirrors_graph(&model)?;
    }
}
