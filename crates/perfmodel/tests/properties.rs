//! Property tests pinning the arena-compiled hot path to an independent
//! reimplementation written directly against the public graph API.
//!
//! The arena (cached topological order, CSR edge arrays) exists purely as
//! a faster *representation* — it must never change what is computed. These properties sweep all four synthetic topology
//! families plus hand-rolled edge lists with degenerate multiplicities
//! (duplicate edges that accumulate, near-denormal weights) and assert
//! bit-identical agreement with a deliberately naive reference that shares
//! no code with the arena.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use chamulteon_perfmodel::{
    topology, ApplicationModel, InvocationGraph, ServiceSpec, TopologyFamily,
};
use proptest::prelude::*;

/// Reference propagation over the public graph API: per-call topological
/// sort, Vec-of-Vec adjacency, spec lookups through `model.service(i)`.
/// Deliberately shares nothing with `ModelArena::propagate_arrivals_into`
/// so a CSR layout or cached-order bug cannot hide in common code.
fn reference_propagation(
    model: &ApplicationModel,
    entry_rate: f64,
    instances: &[u32],
    demands: &[f64],
) -> Vec<f64> {
    let n = model.service_count();
    let mut offered = vec![0.0; n];
    if n == 0 {
        return offered;
    }
    offered[model.entry()] = entry_rate.max(0.0);
    let order = model
        .graph()
        .topological_order()
        .expect("validated models are acyclic");
    for node in order {
        let inst = instances
            .get(node)
            .copied()
            .unwrap_or_else(|| model.service(node).initial_instances());
        let demand = demands
            .get(node)
            .copied()
            .filter(|d| d.is_finite() && *d > 0.0)
            .unwrap_or_else(|| model.service(node).nominal_demand());
        let completed = offered[node].min(f64::from(inst) / demand);
        for &(to, multiplicity) in model.graph().calls_from(node) {
            offered[to] += completed * multiplicity;
        }
    }
    offered
}

/// Decodes a `(healthy value, selector)` pair into a demand estimate
/// mixing in every degenerate class the sanitizer must catch.
fn decode_demand((value, selector): (f64, usize)) -> f64 {
    match selector {
        0 => f64::NAN,
        1 => 0.0,
        2 => -1.0,
        3 => f64::INFINITY,
        _ => value,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena propagation is bit-identical to the graph-API reference over
    /// every topology family, including short/degenerate instance and
    /// demand slices (which must fall back to spec values identically).
    #[test]
    fn arena_propagation_matches_reference(
        fam_index in 0usize..4,
        n in 1usize..60,
        seed in 0u64..1_000,
        entry_rate in -5.0f64..5_000.0,
        instances in prop::collection::vec(0u32..50, 0..60),
        raw_demands in prop::collection::vec((0.001f64..0.5, 0usize..8), 0..60),
    ) {
        let fam = TopologyFamily::ALL[fam_index];
        let demands: Vec<f64> = raw_demands.into_iter().map(decode_demand).collect();
        let model = topology::model(fam, n, seed).expect("generated model is valid");
        let expected = reference_propagation(&model, entry_rate, &instances, &demands);
        let got = model.propagate_arrivals(entry_rate, &instances, &demands);
        prop_assert_eq!(got, expected);
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
    /// near-denormal weights survive propagation identically in arena and
    /// reference form.
    #[test]
    fn degenerate_multiplicities_propagate_identically(
        n in 2usize..24,
        seed in 0u64..1_000,
        entry_rate in 0.0f64..2_000.0,
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
        let expected = reference_propagation(&model, entry_rate, &[], &[]);
        prop_assert_eq!(model.propagate_arrivals(entry_rate, &[], &[]), expected);
    }
}
