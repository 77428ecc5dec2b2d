//! The invocation graph: who calls whom, how many times per request.

use crate::error::ModelError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A validated, directed acyclic invocation graph over service indices,
/// together with its canonical topological order.
///
/// Edge `(from, to, multiplicity)` means: every request processed by
/// service `from` issues `multiplicity` calls to service `to` (1.0 for the
/// paper's plain chain; fractional values model conditional control flow,
/// values above 1 model fan-out).
///
/// [`from_edges`](InvocationGraph::from_edges) is the only constructor: it
/// validates every edge and sorts the graph once, so a graph that exists
/// is acyclic and its order is stored.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationGraph {
    /// Adjacency list: `edges[from] = [(to, multiplicity), …]`, in
    /// per-caller insertion order.
    edges: Vec<Vec<(usize, f64)>>,
    /// The canonical (smallest-index-first Kahn) topological order.
    order: Vec<usize>,
}

impl InvocationGraph {
    /// Builds a graph over `service_count` services from an edge list,
    /// checking acyclicity once for the whole set. Duplicate `(from, to)`
    /// edges accumulate their multiplicities onto the first occurrence.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownService`] for out-of-range indices,
    /// [`ModelError::InvalidField`] for a non-positive or non-finite
    /// multiplicity or a self-call, and [`ModelError::CyclicInvocation`]
    /// if the edge set contains a cycle.
    pub fn from_edges(
        service_count: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, ModelError> {
        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); service_count];
        for (from, to, multiplicity) in edges {
            for index in [from, to] {
                if index >= service_count {
                    return Err(ModelError::UnknownService {
                        name: format!("#{index}"),
                    });
                }
            }
            if from == to {
                let value = from as f64;
                return Err(ModelError::InvalidField {
                    field: "self_call",
                    value,
                });
            }
            if !(multiplicity > 0.0) || !multiplicity.is_finite() {
                return Err(ModelError::InvalidField {
                    field: "multiplicity",
                    value: multiplicity,
                });
            }
            match adjacency[from].iter_mut().find(|(t, _)| *t == to) {
                Some(existing) => existing.1 += multiplicity,
                None => adjacency[from].push((to, multiplicity)),
            }
        }
        let order = canonical_order(&adjacency).ok_or(ModelError::CyclicInvocation)?;
        Ok(InvocationGraph {
            edges: adjacency,
            order,
        })
    }

    /// The number of services the graph spans.
    #[inline]
    pub fn service_count(&self) -> usize {
        self.edges.len()
    }

    /// The outgoing calls of a service.
    #[inline]
    pub fn calls_from(&self, service: usize) -> &[(usize, f64)] {
        self.edges.get(service).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The **canonical** topological order of the services: the
    /// lexicographically smallest one, computed once at construction.
    ///
    /// Every consumer that folds floats along the graph (visit ratios,
    /// Algorithm 1, the simulator's request path) walks this one order, so
    /// their accumulation order — and therefore their bit-exact results —
    /// never depends on edge insertion history. For an
    /// *index-topological* graph (every edge `from < to`, which all
    /// generated topology families guarantee) it is exactly `0, 1, …, n−1`.
    #[inline]
    pub fn topological_order(&self) -> &[usize] {
        &self.order
    }

    /// Visit ratios per external request entering at `entry`: how many
    /// times each service is invoked per external request, ignoring
    /// capacity limits. The entry itself has ratio 1; `ratio[to] +=
    /// ratio[from]·m` is folded along the stored order.
    pub fn visit_ratios(&self, entry: usize) -> Vec<f64> {
        let mut ratios = vec![0.0; self.service_count()];
        if entry >= ratios.len() {
            return ratios;
        }
        ratios[entry] = 1.0;
        for &node in &self.order {
            let flow = ratios[node];
            if flow == 0.0 {
                continue;
            }
            for &(to, m) in &self.edges[node] {
                ratios[to] += flow * m;
            }
        }
        ratios
    }
}

/// Kahn's algorithm with a smallest-index-first frontier, or `None` if the
/// adjacency list has a cycle.
fn canonical_order(edges: &[Vec<(usize, f64)>]) -> Option<Vec<usize>> {
    let mut indegree = vec![0usize; edges.len()];
    for outs in edges {
        for &(to, _) in outs {
            indegree[to] += 1;
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> = (0..edges.len())
        .filter(|&i| indegree[i] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(edges.len());
    while let Some(Reverse(node)) = ready.pop() {
        order.push(node);
        for &(to, _) in &edges[node] {
            indegree[to] -= 1;
            if indegree[to] == 0 {
                ready.push(Reverse(to));
            }
        }
    }
    (order.len() == edges.len()).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> InvocationGraph {
        InvocationGraph::from_edges(n, (1..n).map(|i| (i - 1, i, 1.0))).unwrap()
    }

    #[test]
    fn chain_order_and_calls() {
        let g = chain(4);
        assert_eq!(g.topological_order(), &[0, 1, 2, 3]);
        assert_eq!(g.calls_from(0), &[(1, 1.0)]);
        assert!(g.calls_from(3).is_empty());
        assert!(g.calls_from(9).is_empty());
    }

    #[test]
    fn order_follows_edges_not_indices() {
        // 2 → 0 → 1: index order is not topological.
        let g = InvocationGraph::from_edges(3, [(2, 0, 1.0), (0, 1, 1.0)]).unwrap();
        assert_eq!(g.topological_order(), &[2, 0, 1]);
        assert_eq!(g.visit_ratios(2), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn cycle_rejected() {
        let edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)];
        assert_eq!(
            InvocationGraph::from_edges(3, edges),
            Err(ModelError::CyclicInvocation)
        );
    }

    #[test]
    fn self_call_rejected() {
        assert!(matches!(
            InvocationGraph::from_edges(2, [(0, 0, 1.0)]),
            Err(ModelError::InvalidField {
                field: "self_call",
                ..
            })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        for edge in [(0, 5, 1.0), (5, 0, 1.0)] {
            assert!(matches!(
                InvocationGraph::from_edges(2, [edge]),
                Err(ModelError::UnknownService { .. })
            ));
        }
    }

    #[test]
    fn invalid_multiplicity_rejected() {
        for m in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert!(matches!(
                InvocationGraph::from_edges(2, [(0, 1, m)]),
                Err(ModelError::InvalidField {
                    field: "multiplicity",
                    ..
                })
            ));
        }
    }

    #[test]
    fn duplicate_edge_accumulates() {
        let g = InvocationGraph::from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (0, 1, 0.5)]).unwrap();
        assert_eq!(g.calls_from(0), &[(1, 1.5), (2, 1.0)]);
    }

    #[test]
    fn visit_ratios_chain() {
        let g = chain(3);
        assert_eq!(g.visit_ratios(0), vec![1.0, 1.0, 1.0]);
        // Entering at the middle service, the UI is never visited.
        assert_eq!(g.visit_ratios(1), vec![0.0, 1.0, 1.0]);
        assert_eq!(g.visit_ratios(7), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn visit_ratios_fan_out() {
        // 0 calls 1 twice and 2 once; 1 calls 2 three times.
        let g = InvocationGraph::from_edges(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 3.0)]).unwrap();
        let r = g.visit_ratios(0);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], 2.0);
        // 2 is reached once directly and 2·3 times via 1.
        assert_eq!(r[2], 7.0);
    }

    #[test]
    fn diamond_is_acyclic() {
        let edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)];
        let g = InvocationGraph::from_edges(4, edges).unwrap();
        assert_eq!(g.topological_order(), &[0, 1, 2, 3]);
        assert_eq!(g.visit_ratios(0)[3], 2.0);
    }
}
