//! The invocation graph: who calls whom, how many times per request.

use crate::error::ModelError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A directed acyclic invocation graph over service indices.
///
/// Edge `(from, to, multiplicity)` means: every request processed by
/// service `from` issues `multiplicity` calls to service `to` (1.0 for the
/// paper's plain chain; fractional values model conditional control flow,
/// values above 1 model fan-out).
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationGraph {
    service_count: usize,
    /// Adjacency list: `edges[from] = [(to, multiplicity), …]`.
    edges: Vec<Vec<(usize, f64)>>,
}

impl InvocationGraph {
    /// Creates a graph over `service_count` services with no edges.
    pub fn new(service_count: usize) -> Self {
        InvocationGraph {
            service_count,
            edges: vec![Vec::new(); service_count],
        }
    }

    /// Creates the plain chain `0 → 1 → … → n−1` with multiplicity 1 — the
    /// paper's benchmark topology.
    pub fn chain(service_count: usize) -> Self {
        let mut g = InvocationGraph::new(service_count);
        for i in 1..service_count {
            // Indices are in range and a chain is acyclic by construction,
            // so this edge insertion cannot fail.
            let _ = g.add_call(i - 1, i, 1.0);
        }
        g
    }

    /// The number of services the graph spans.
    #[inline]
    pub fn service_count(&self) -> usize {
        self.service_count
    }

    /// Adds (or accumulates onto) a call edge.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownService`] for out-of-range indices,
    /// [`ModelError::InvalidField`] for a non-positive multiplicity or a
    /// self-call, and [`ModelError::CyclicInvocation`] if the edge would
    /// close a cycle.
    pub fn add_call(
        &mut self,
        from: usize,
        to: usize,
        multiplicity: f64,
    ) -> Result<(), ModelError> {
        // Tentatively add, then verify acyclicity.
        if self.push_edge(from, to, multiplicity)? {
            return Ok(()); // accumulating cannot create a cycle
        }
        if self.topological_order().is_none() {
            self.edges[from].pop();
            return Err(ModelError::CyclicInvocation);
        }
        Ok(())
    }

    /// Builds a graph from a bulk edge list with **one** acyclicity check
    /// at the end, instead of [`add_call`](InvocationGraph::add_call)'s
    /// per-edge re-validation — O(V + E) total instead of O(E·(V + E)),
    /// which is what makes thousand-service graph construction cheap.
    /// Duplicate `(from, to)` edges accumulate their multiplicities onto
    /// the first occurrence, exactly as repeated `add_call`s would.
    ///
    /// # Errors
    ///
    /// Returns the same per-edge errors as
    /// [`add_call`](InvocationGraph::add_call)
    /// ([`ModelError::UnknownService`], [`ModelError::InvalidField`]) and
    /// [`ModelError::CyclicInvocation`] if the finished edge set contains
    /// a cycle.
    pub fn from_edges(
        service_count: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, ModelError> {
        let mut graph = InvocationGraph::new(service_count);
        for (from, to, multiplicity) in edges {
            graph.push_edge(from, to, multiplicity)?;
        }
        if graph.topological_order().is_none() {
            return Err(ModelError::CyclicInvocation);
        }
        Ok(graph)
    }

    /// Validates one edge and inserts it (or accumulates onto an existing
    /// one) WITHOUT checking acyclicity. Returns `true` when the edge
    /// accumulated onto an existing one (which cannot create a cycle).
    fn push_edge(&mut self, from: usize, to: usize, multiplicity: f64) -> Result<bool, ModelError> {
        if from >= self.service_count {
            return Err(ModelError::UnknownService {
                name: format!("#{from}"),
            });
        }
        if to >= self.service_count {
            return Err(ModelError::UnknownService {
                name: format!("#{to}"),
            });
        }
        if from == to {
            // audit:allow(lossy-cast): small index reported in a diagnostic
            #[allow(clippy::cast_precision_loss)]
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
        if let Some(existing) = self.edges[from].iter_mut().find(|(t, _)| *t == to) {
            existing.1 += multiplicity;
            return Ok(true);
        }
        self.edges[from].push((to, multiplicity));
        Ok(false)
    }

    /// The outgoing calls of a service.
    #[inline]
    pub fn calls_from(&self, service: usize) -> &[(usize, f64)] {
        self.edges.get(service).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The **canonical** topological order of the services, or `None` if
    /// the graph has a cycle.
    ///
    /// Kahn's algorithm with a smallest-index-first frontier, which makes
    /// the result the lexicographically smallest topological order. Every
    /// consumer that folds floats along the graph (arrival propagation,
    /// visit ratios, Algorithm 1) walks this one order, so their
    /// accumulation order — and therefore their bit-exact results — never
    /// depends on edge insertion history. For an *index-topological* graph
    /// (every edge `from < to`, which all generated topology families
    /// guarantee) the canonical order is exactly `0, 1, …, n−1`.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree = vec![0usize; self.service_count];
        for outs in &self.edges {
            for &(to, _) in outs {
                indegree[to] += 1;
            }
        }
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.service_count)
            .filter(|&i| indegree[i] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.service_count);
        while let Some(Reverse(node)) = ready.pop() {
            order.push(node);
            for &(to, _) in &self.edges[node] {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    ready.push(Reverse(to));
                }
            }
        }
        if order.len() == self.service_count {
            Some(order)
        } else {
            None
        }
    }

    /// Visit ratios per external request entering at `entry`: how many
    /// times each service is invoked per external request, ignoring
    /// capacity limits. The entry itself has ratio 1.
    pub fn visit_ratios(&self, entry: usize) -> Vec<f64> {
        let mut ratios = vec![0.0; self.service_count];
        if entry >= self.service_count {
            return ratios;
        }
        ratios[entry] = 1.0;
        if let Some(order) = self.topological_order() {
            for &node in &order {
                let flow = ratios[node];
                if flow == 0.0 {
                    continue;
                }
                for &(to, m) in &self.edges[node] {
                    ratios[to] += flow * m;
                }
            }
        }
        ratios
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_structure() {
        let g = InvocationGraph::chain(3);
        assert_eq!(g.calls_from(0), &[(1, 1.0)]);
        assert_eq!(g.calls_from(1), &[(2, 1.0)]);
        assert!(g.calls_from(2).is_empty());
    }

    #[test]
    fn topological_order_of_chain() {
        let g = InvocationGraph::chain(4);
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|&x| x == i).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_rejected() {
        let mut g = InvocationGraph::chain(3);
        assert_eq!(g.add_call(2, 0, 1.0), Err(ModelError::CyclicInvocation));
        // Graph unchanged after the rejected insert.
        assert!(g.calls_from(2).is_empty());
    }

    #[test]
    fn self_call_rejected() {
        let mut g = InvocationGraph::new(2);
        assert!(matches!(
            g.add_call(0, 0, 1.0),
            Err(ModelError::InvalidField { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = InvocationGraph::new(2);
        assert!(matches!(
            g.add_call(0, 5, 1.0),
            Err(ModelError::UnknownService { .. })
        ));
        assert!(matches!(
            g.add_call(5, 0, 1.0),
            Err(ModelError::UnknownService { .. })
        ));
    }

    #[test]
    fn invalid_multiplicity_rejected() {
        let mut g = InvocationGraph::new(2);
        assert!(g.add_call(0, 1, 0.0).is_err());
        assert!(g.add_call(0, 1, -1.0).is_err());
        assert!(g.add_call(0, 1, f64::INFINITY).is_err());
    }

    #[test]
    fn duplicate_edge_accumulates() {
        let mut g = InvocationGraph::new(2);
        g.add_call(0, 1, 1.0).unwrap();
        g.add_call(0, 1, 0.5).unwrap();
        assert_eq!(g.calls_from(0), &[(1, 1.5)]);
    }

    #[test]
    fn visit_ratios_chain() {
        let g = InvocationGraph::chain(3);
        assert_eq!(g.visit_ratios(0), vec![1.0, 1.0, 1.0]);
        // Entering at the middle service, the UI is never visited.
        assert_eq!(g.visit_ratios(1), vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn visit_ratios_fan_out() {
        // 0 calls 1 twice and 2 once; 1 calls 2 three times.
        let mut g = InvocationGraph::new(3);
        g.add_call(0, 1, 2.0).unwrap();
        g.add_call(0, 2, 1.0).unwrap();
        g.add_call(1, 2, 3.0).unwrap();
        let r = g.visit_ratios(0);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], 2.0);
        // 2 is reached once directly and 2·3 times via 1.
        assert_eq!(r[2], 7.0);
    }

    #[test]
    fn diamond_is_acyclic() {
        let mut g = InvocationGraph::new(4);
        g.add_call(0, 1, 1.0).unwrap();
        g.add_call(0, 2, 1.0).unwrap();
        g.add_call(1, 3, 1.0).unwrap();
        g.add_call(2, 3, 1.0).unwrap();
        assert!(g.topological_order().is_some());
        assert_eq!(g.visit_ratios(0)[3], 2.0);
    }
}
