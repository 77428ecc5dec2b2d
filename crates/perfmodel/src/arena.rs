//! Arena-compiled application model: flat, index-based, allocation-free hot
//! paths for thousand-service graphs.
//!
//! [`ApplicationModel`](crate::ApplicationModel) keeps the validated,
//! JSON-round-trippable description; [`ModelArena`] is its compiled form:
//!
//! * the **canonical topological order** precomputed once (no per-call
//!   Kahn re-sort),
//! * the edge set flattened into **CSR-style arrays** (`edge_offsets` /
//!   `edge_targets` / `edge_multiplicities`) preserving per-caller
//!   insertion order, so every float fold visits edges in exactly the
//!   order the nested-`Vec` graph would,
//! * **visit ratios cached** (the per-node demand-multiplier prefix),
//! * per-service bounds and demands in flat arrays for cache locality.
//!
//! Everything here is a pure re-indexing of the validated model: compiling
//! never changes a result bit, only where the bytes live.

use crate::graph::InvocationGraph;
use crate::service::ServiceSpec;

/// Compiled, index-based form of a validated application model.
///
/// Built by [`ModelArena::compile`]; owned by
/// [`ApplicationModel`](crate::ApplicationModel) and exposed through
/// [`ApplicationModel::arena`](crate::ApplicationModel::arena).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArena {
    node_count: usize,
    entry: usize,
    /// The canonical (smallest-index-first Kahn) topological order.
    topo: Vec<usize>,
    /// CSR row offsets: edges of caller `i` live at
    /// `edge_offsets[i]..edge_offsets[i + 1]`.
    edge_offsets: Vec<usize>,
    /// Flattened callee indices, per-caller insertion order preserved.
    edge_targets: Vec<usize>,
    /// Call multiplicities parallel to `edge_targets`.
    edge_multiplicities: Vec<f64>,
    /// Cached visit ratios from the entry (capacity-ignoring call counts
    /// per external request).
    visit_ratios: Vec<f64>,
    nominal_demands: Vec<f64>,
    min_instances: Vec<u32>,
    max_instances: Vec<u32>,
    initial_instances: Vec<u32>,
}

impl ModelArena {
    /// Compiles the validated `(services, graph, entry)` triple into its
    /// arena form. Returns `None` when the inputs are inconsistent (cyclic
    /// graph, size mismatch, entry out of range) — the validating
    /// [`ApplicationModel::new`](crate::ApplicationModel::new) rejects all
    /// of those before ever calling this.
    pub fn compile(
        services: &[ServiceSpec],
        graph: &InvocationGraph,
        entry: usize,
    ) -> Option<Self> {
        let n = services.len();
        if graph.service_count() != n || entry >= n {
            return None;
        }
        let topo = graph.topological_order()?;

        // CSR flattening, per-caller insertion order preserved.
        let mut edge_offsets = Vec::with_capacity(n + 1);
        let mut edge_targets = Vec::new();
        let mut edge_multiplicities = Vec::new();
        edge_offsets.push(0);
        for from in 0..n {
            for &(to, m) in graph.calls_from(from) {
                edge_targets.push(to);
                edge_multiplicities.push(m);
            }
            edge_offsets.push(edge_targets.len());
        }

        // Visit ratios along the canonical order — same fold, same order,
        // same bits as `InvocationGraph::visit_ratios`.
        let mut visit_ratios = vec![0.0; n];
        visit_ratios[entry] = 1.0;
        for &node in &topo {
            let flow = visit_ratios[node];
            if flow == 0.0 {
                continue;
            }
            for e in edge_offsets[node]..edge_offsets[node + 1] {
                visit_ratios[edge_targets[e]] += flow * edge_multiplicities[e];
            }
        }

        let nominal_demands = services.iter().map(ServiceSpec::nominal_demand).collect();
        let min_instances = services.iter().map(ServiceSpec::min_instances).collect();
        let max_instances = services.iter().map(ServiceSpec::max_instances).collect();
        let initial_instances = services
            .iter()
            .map(ServiceSpec::initial_instances)
            .collect();

        Some(ModelArena {
            node_count: n,
            entry,
            topo,
            edge_offsets,
            edge_targets,
            edge_multiplicities,
            visit_ratios,
            nominal_demands,
            min_instances,
            max_instances,
            initial_instances,
        })
    }

    /// Number of services in the compiled model.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Index of the entry (user-facing) service.
    #[inline]
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// The canonical topological order the arena was compiled with.
    #[inline]
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// Total number of call edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_targets.len()
    }

    /// The outgoing calls of `node` as `(callee, multiplicity)` pairs, in
    /// the same per-caller order as
    /// [`InvocationGraph::calls_from`](crate::InvocationGraph::calls_from).
    #[inline]
    pub fn calls_from(&self, node: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.edge_offsets.get(node).copied().unwrap_or(0);
        let hi = self.edge_offsets.get(node + 1).copied().unwrap_or(lo);
        self.edge_targets[lo..hi]
            .iter()
            .copied()
            .zip(self.edge_multiplicities[lo..hi].iter().copied())
    }

    /// Cached visit ratios from the entry — bit-identical to
    /// [`InvocationGraph::visit_ratios`](crate::InvocationGraph::visit_ratios)
    /// at the entry, without recomputation.
    #[inline]
    pub fn visit_ratios(&self) -> &[f64] {
        &self.visit_ratios
    }

    /// Nominal (profiled) service demand of `node` in seconds.
    #[inline]
    pub fn nominal_demand(&self, node: usize) -> f64 {
        self.nominal_demands.get(node).copied().unwrap_or(f64::NAN)
    }

    /// All nominal service demands, indexed by node. Every entry is
    /// finite and positive ([`ServiceSpec`] validates demands at
    /// construction), so a decision pass with no demand estimates can
    /// borrow this slice directly instead of copying it.
    #[inline]
    pub fn nominal_demands(&self) -> &[f64] {
        &self.nominal_demands
    }

    /// Minimum allowed instances of `node`.
    #[inline]
    pub fn min_instances(&self, node: usize) -> u32 {
        self.min_instances.get(node).copied().unwrap_or(1)
    }

    /// Maximum allowed instances of `node`.
    #[inline]
    pub fn max_instances(&self, node: usize) -> u32 {
        self.max_instances.get(node).copied().unwrap_or(u32::MAX)
    }

    /// Initially deployed instances of `node`.
    #[inline]
    pub fn initial_instances(&self, node: usize) -> u32 {
        self.initial_instances.get(node).copied().unwrap_or(1)
    }

    /// Arrival-rate propagation with capacity throttling, written into a
    /// caller-owned buffer so the per-cycle hot loop allocates nothing.
    ///
    /// Semantics are exactly those of
    /// [`ApplicationModel::propagate_arrivals`](crate::ApplicationModel::propagate_arrivals):
    /// short `instances`/`demands` slices and non-finite or non-positive
    /// demand entries fall back to the spec's initial instances / nominal
    /// demand, the entry rate is clamped at zero, and a service forwards at
    /// most its saturation throughput `n/D`. The walk follows the canonical
    /// topological order, so results are bit-identical to the legacy path.
    ///
    /// `offered` is cleared and resized to the node count; on return
    /// `offered[i]` is the arrival rate *offered to* service `i`.
    pub fn propagate_arrivals_into(
        &self,
        entry_rate: f64,
        instances: &[u32],
        demands: &[f64],
        offered: &mut Vec<f64>,
    ) {
        offered.clear();
        offered.resize(self.node_count, 0.0);
        if self.node_count == 0 {
            return;
        }
        offered[self.entry] = entry_rate.max(0.0);
        for &node in &self.topo {
            let inst = instances
                .get(node)
                .copied()
                .unwrap_or_else(|| self.initial_instances(node));
            let demand = demands
                .get(node)
                .copied()
                .filter(|d| d.is_finite() && *d > 0.0)
                .unwrap_or_else(|| self.nominal_demand(node));
            let capacity = f64::from(inst) / demand;
            let completed = offered[node].min(capacity);
            for e in self.edge_offsets[node]..self.edge_offsets[node + 1] {
                offered[self.edge_targets[e]] += completed * self.edge_multiplicities[e];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApplicationModel;

    fn paper_arena() -> (ApplicationModel, ModelArena) {
        let model = ApplicationModel::paper_benchmark();
        let arena = ModelArena::compile(model.services(), model.graph(), model.entry())
            .expect("benchmark model compiles");
        (model, arena)
    }

    #[test]
    fn compile_rejects_inconsistent_inputs() {
        let model = ApplicationModel::paper_benchmark();
        // Entry out of range.
        assert!(ModelArena::compile(model.services(), model.graph(), 9).is_none());
        // Graph size mismatch.
        assert!(ModelArena::compile(model.services(), &InvocationGraph::new(7), 0).is_none());
    }

    #[test]
    fn csr_preserves_edge_order() {
        let (model, arena) = paper_arena();
        for node in 0..model.service_count() {
            let flat: Vec<(usize, f64)> = arena.calls_from(node).collect();
            assert_eq!(flat.as_slice(), model.graph().calls_from(node));
        }
        assert_eq!(arena.edge_count(), 2);
    }

    #[test]
    fn visit_ratios_match_graph() {
        let (model, arena) = paper_arena();
        assert_eq!(arena.visit_ratios(), model.visit_ratios().as_slice());
    }

    #[test]
    fn propagation_matches_legacy_bitwise() {
        let (model, arena) = paper_arena();
        let cases: [(f64, &[u32], &[f64]); 4] = [
            (50.0, &[10, 10, 10], &[0.059, 0.1, 0.04]),
            (100.0, &[20, 5, 10], &[0.059, 0.1, 0.04]),
            (100.0, &[], &[]),
            (100.0, &[1, 1, 1], &[f64::NAN, -1.0, 0.0]),
        ];
        let mut buffer = Vec::new();
        for (rate, instances, demands) in cases {
            let legacy = model.propagate_arrivals(rate, instances, demands);
            arena.propagate_arrivals_into(rate, instances, demands, &mut buffer);
            let legacy_bits: Vec<u64> = legacy.iter().map(|v| v.to_bits()).collect();
            let arena_bits: Vec<u64> = buffer.iter().map(|v| v.to_bits()).collect();
            assert_eq!(legacy_bits, arena_bits);
        }
    }

    #[test]
    fn spec_arrays_mirror_services() {
        let (model, arena) = paper_arena();
        for (i, spec) in model.services().iter().enumerate() {
            assert_eq!(
                arena.nominal_demand(i).to_bits(),
                spec.nominal_demand().to_bits()
            );
            assert_eq!(arena.min_instances(i), spec.min_instances());
            assert_eq!(arena.max_instances(i), spec.max_instances());
            assert_eq!(arena.initial_instances(i), spec.initial_instances());
        }
        // Out-of-range accessors fall back instead of panicking.
        assert!(arena.nominal_demand(99).is_nan());
        assert_eq!(arena.min_instances(99), 1);
        assert_eq!(arena.max_instances(99), u32::MAX);
        assert_eq!(arena.initial_instances(99), 1);
    }
}
