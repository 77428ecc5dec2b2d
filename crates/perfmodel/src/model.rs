//! The complete application model: services + invocation graph + entry.

use crate::error::ModelError;
use crate::graph::InvocationGraph;
use crate::service::ServiceSpec;

/// The descriptive application model Chamulteon operates on — the stand-in
/// for a DML instance.
///
/// Construct with [`ApplicationModelBuilder`](crate::ApplicationModelBuilder)
/// or [`ApplicationModel::new`].
///
/// The graph carries its topological order, and the visit ratios from the
/// entry are folded once at construction, so no walk re-sorts the graph or
/// recomputes them.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationModel {
    services: Vec<ServiceSpec>,
    graph: InvocationGraph,
    entry: usize,
    visit_ratios: Vec<f64>,
}

impl ApplicationModel {
    /// Assembles and validates a model. Prefer the builder for ergonomic
    /// construction by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for zero services,
    /// [`ModelError::DuplicateService`] for repeated names, and
    /// [`ModelError::UnknownService`] when the entry index or the graph
    /// size does not match. The graph itself is acyclic by construction
    /// ([`InvocationGraph::from_edges`]).
    pub fn new(
        services: Vec<ServiceSpec>,
        graph: InvocationGraph,
        entry: usize,
    ) -> Result<Self, ModelError> {
        if services.is_empty() {
            return Err(ModelError::Empty);
        }
        // Sort-based duplicate detection: O(n log n) on index permutations
        // instead of the former all-pairs scan, which dominated validation
        // time at a thousand services.
        let mut by_name: Vec<usize> = (0..services.len()).collect();
        by_name.sort_unstable_by(|&a, &b| services[a].name().cmp(services[b].name()));
        for pair in by_name.windows(2) {
            if services[pair[0]].name() == services[pair[1]].name() {
                return Err(ModelError::DuplicateService {
                    name: services[pair[0]].name().to_owned(),
                });
            }
        }
        if entry >= services.len() {
            return Err(ModelError::UnknownService {
                name: format!("#{entry}"),
            });
        }
        if graph.service_count() != services.len() {
            return Err(ModelError::UnknownService {
                name: format!("graph size {}", graph.service_count()),
            });
        }
        let visit_ratios = graph.visit_ratios(entry);
        Ok(ApplicationModel {
            services,
            graph,
            entry,
            visit_ratios,
        })
    }

    /// The paper's benchmark application (§IV-B): a chain of a UI service
    /// (0.059 s), a validation service (0.1 s) and a data service (0.04 s),
    /// each allowed 1–200 instances and starting at 1.
    #[allow(
        clippy::expect_used,
        reason = "constants in try_paper_benchmark are statically valid"
    )]
    pub fn paper_benchmark() -> Self {
        Self::try_paper_benchmark().expect("benchmark model is valid")
    }

    /// Fallible construction of the benchmark model, kept separate so the
    /// public constructor carries the only (statically unreachable) panic.
    fn try_paper_benchmark() -> Result<Self, ModelError> {
        let services = vec![
            ServiceSpec::new("ui", 0.059, 1, 200, 1)?,
            ServiceSpec::new("validation", 0.1, 1, 200, 1)?,
            ServiceSpec::new("data", 0.04, 1, 200, 1)?,
        ];
        let graph = InvocationGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])?;
        ApplicationModel::new(services, graph, 0)
    }

    /// The services in index order.
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// The service at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn service(&self, index: usize) -> &ServiceSpec {
        &self.services[index]
    }

    /// The invocation graph, with its topological order.
    pub fn graph(&self) -> &InvocationGraph {
        &self.graph
    }

    /// Index of the user-facing (entry) service.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Visit ratios per external request (see
    /// [`InvocationGraph::visit_ratios`]) — a copy of the ones folded at
    /// construction.
    pub fn visit_ratios(&self) -> Vec<f64> {
        self.visit_ratios.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_benchmark_shape() {
        let m = ApplicationModel::paper_benchmark();
        assert_eq!(m.service_count(), 3);
        assert_eq!(m.entry(), 0);
        assert_eq!(m.service(0).name(), "ui");
        assert_eq!(m.service(1).name(), "validation");
        assert_eq!(m.visit_ratios(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn validation_catches_duplicates_and_bad_entry() {
        let dup = vec![
            ServiceSpec::new("a", 0.1, 1, 10, 1).unwrap(),
            ServiceSpec::new("a", 0.1, 1, 10, 1).unwrap(),
        ];
        let edgeless = |n| InvocationGraph::from_edges(n, []).unwrap();
        let chain = InvocationGraph::from_edges(2, [(0, 1, 1.0)]).unwrap();
        assert!(matches!(
            ApplicationModel::new(dup, chain, 0),
            Err(ModelError::DuplicateService { .. })
        ));

        let one = vec![ServiceSpec::new("a", 0.1, 1, 10, 1).unwrap()];
        assert!(matches!(
            ApplicationModel::new(one.clone(), edgeless(1), 5),
            Err(ModelError::UnknownService { .. })
        ));
        assert!(matches!(
            ApplicationModel::new(one, edgeless(2), 0),
            Err(ModelError::UnknownService { .. })
        ));
        assert!(matches!(
            ApplicationModel::new(vec![], edgeless(0), 0),
            Err(ModelError::Empty)
        ));
    }
}
