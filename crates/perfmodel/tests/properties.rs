//! Property tests of the invocation graph: the one stored order, edge
//! accumulation, cycle rejection and the visit-ratio fold.
//!
//! Every generated topology family is index-topological, so on those
//! graphs a walk in plain index order is indistinguishable from one in
//! topological order. The inputs here are relabelled by a seeded
//! permutation, so index order is generally not topological, and carry
//! extra forward edges with duplicates and near-denormal multiplicities.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: panics are acceptable here"
)]

use chamulteon_perfmodel::{
    topology, ApplicationModel, InvocationGraph, ModelError, ServiceSpec, TopologyFamily,
};
use proptest::prelude::*;

/// Multiplicities of the extra edges, near-denormal included.
const PALETTE: [f64; 4] = [1e-300, 0.25, 0.5, 1.0];

/// A family index, a service count, a seed and extra edges as
/// `(endpoint, endpoint, palette index)`.
type EdgeInput = (usize, usize, u64, Vec<(usize, usize, usize)>);

fn edge_inputs() -> impl Strategy<Value = EdgeInput> {
    (
        0usize..4,
        1usize..40,
        0u64..1_000,
        prop::collection::vec((0usize..40, 0usize..40, 0usize..4), 0..32),
    )
}

/// An acyclic edge list over `n` services: a topology family's edges plus
/// the extra forward edges (duplicates kept), relabelled by a permutation
/// drawn from `seed`. Also returns `n` and the new label of service 0, the
/// families' root.
fn relabelled_edges(input: &EdgeInput) -> (Vec<(usize, usize, f64)>, usize, usize) {
    let (fam_index, n, seed, extra) = (input.0, input.1, input.2, &input.3);
    let mut edges = topology::edges(TopologyFamily::ALL[fam_index], n, seed);
    edges.extend(extra.iter().filter_map(|&(a, b, m)| {
        let (from, to) = (a.min(b) % n, a.max(b) % n);
        (from < to).then_some((from, to, PALETTE[m]))
    }));
    let mut label: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = usize::try_from((state >> 33) % (i as u64 + 1)).unwrap();
        label.swap(i, j);
    }
    let edges = edges
        .into_iter()
        .map(|(from, to, m)| (label[from], label[to], m))
        .collect();
    (edges, n, label[0])
}

/// The reference order: repeatedly take the smallest-index service whose
/// callers have all been taken.
fn smallest_index_ready_order(n: usize, edges: &[(usize, usize, f64)]) -> Vec<usize> {
    let mut taken = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let next = (0..n)
            .find(|&s| !taken[s] && edges.iter().all(|&(from, to, _)| to != s || taken[from]))
            .expect("an acyclic graph always has a ready service");
        taken[next] = true;
        order.push(next);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The stored order is a permutation in which every edge points
    /// forward, and it is the smallest-index-ready order.
    #[test]
    fn stored_order_is_the_smallest_index_ready_order(
        input in edge_inputs(),
    ) {
        let (edges, n, _) = relabelled_edges(&input);
        let graph = InvocationGraph::from_edges(n, edges.clone()).expect("acyclic");
        let order = graph.topological_order();
        let mut position = vec![usize::MAX; n];
        for (pos, &s) in order.iter().enumerate() {
            prop_assert_eq!(position[s], usize::MAX, "service {} twice in the order", s);
            position[s] = pos;
        }
        prop_assert_eq!(order.len(), n);
        for &(from, to, _) in &edges {
            prop_assert!(position[from] < position[to], "edge {}->{} points back", from, to);
        }
        prop_assert_eq!(order, smallest_index_ready_order(n, &edges).as_slice());
    }

    /// Duplicate edges accumulate onto their first occurrence, and each
    /// caller keeps its calls in insertion order.
    #[test]
    fn duplicate_edges_accumulate_onto_their_first_occurrence(
        input in edge_inputs(),
    ) {
        let (edges, n, _) = relabelled_edges(&input);
        let graph = InvocationGraph::from_edges(n, edges.clone()).expect("acyclic");
        let mut expected: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        for &(from, to, m) in &edges {
            match expected[from].iter_mut().find(|(t, _)| *t == to) {
                Some(slot) => slot.1 = (f64::from_bits(slot.1) + m).to_bits(),
                None => expected[from].push((to, m.to_bits())),
            }
        }
        for (node, calls) in expected.iter().enumerate() {
            let stored: Vec<(usize, u64)> = graph
                .calls_from(node)
                .iter()
                .map(|&(to, m)| (to, m.to_bits()))
                .collect();
            prop_assert_eq!(&stored, calls);
        }
    }

    /// Adding any edge in reverse closes a cycle, which `from_edges`
    /// rejects.
    #[test]
    fn any_reversed_edge_makes_the_graph_cyclic(
        input in edge_inputs(),
    ) {
        let (edges, n, _) = relabelled_edges(&input);
        for &(from, to, m) in &edges {
            let mut cyclic = edges.clone();
            cyclic.push((to, from, m));
            prop_assert_eq!(
                InvocationGraph::from_edges(n, cyclic),
                Err(ModelError::CyclicInvocation)
            );
        }
    }

    /// The model's visit ratios are `ratio[to] += ratio[from]·m` folded in
    /// the reference order, bit for bit.
    #[test]
    fn visit_ratios_fold_along_the_stored_order(
        input in edge_inputs(),
    ) {
        let (edges, n, entry) = relabelled_edges(&input);
        let graph = InvocationGraph::from_edges(n, edges.clone()).expect("acyclic");
        let mut expected = vec![0.0f64; n];
        expected[entry] = 1.0;
        for node in smallest_index_ready_order(n, &edges) {
            for &(to, m) in graph.calls_from(node) {
                expected[to] += expected[node] * m;
            }
        }
        let services = (0..n)
            .map(|i| ServiceSpec::new(format!("s{i}"), 0.1, 1, 10, 1).expect("valid spec"))
            .collect();
        let model = ApplicationModel::new(services, graph, entry).expect("valid model");
        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&model.visit_ratios()), bits(&expected));
    }
}
