//! Ergonomic, name-based model construction.

use crate::error::ModelError;
use crate::graph::InvocationGraph;
use crate::model::ApplicationModel;
use crate::service::ServiceSpec;

/// Non-consuming builder for [`ApplicationModel`].
///
/// Services are referenced by name; validation happens at
/// [`build`](ApplicationModelBuilder::build).
///
/// # Examples
///
/// ```
/// use chamulteon_perfmodel::ApplicationModelBuilder;
///
/// let model = ApplicationModelBuilder::new()
///     .service("ui", 0.059, 1, 120, 1)
///     .service("validation", 0.1, 1, 120, 1)
///     .service("data", 0.04, 1, 120, 1)
///     .call("ui", "validation", 1.0)
///     .call("validation", "data", 1.0)
///     .entry("ui")
///     .build()?;
/// assert_eq!(model.service_count(), 3);
/// # Ok::<(), chamulteon_perfmodel::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ApplicationModelBuilder {
    services: Vec<(String, f64, u32, u32, u32)>,
    calls: Vec<(String, String, f64)>,
    entry: Option<String>,
}

impl ApplicationModelBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ApplicationModelBuilder::default()
    }

    /// Adds a service with its nominal demand (seconds/request) and
    /// instance bounds.
    pub fn service(
        mut self,
        name: impl Into<String>,
        nominal_demand: f64,
        min_instances: u32,
        max_instances: u32,
        initial_instances: u32,
    ) -> Self {
        self.services.push((
            name.into(),
            nominal_demand,
            min_instances,
            max_instances,
            initial_instances,
        ));
        self
    }

    /// Declares that `from` calls `to` with the given multiplicity per
    /// request.
    pub fn call(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        multiplicity: f64,
    ) -> Self {
        self.calls.push((from.into(), to.into(), multiplicity));
        self
    }

    /// Declares the user-facing entry service. Defaults to the first
    /// declared service.
    pub fn entry(mut self, name: impl Into<String>) -> Self {
        self.entry = Some(name.into());
        self
    }

    /// Validates and assembles the model.
    ///
    /// # Errors
    ///
    /// Propagates all validation errors of [`ServiceSpec::new`],
    /// [`InvocationGraph::from_edges`] and [`ApplicationModel::new`], plus
    /// [`ModelError::UnknownService`] for call or entry names that were
    /// never declared.
    pub fn build(self) -> Result<ApplicationModel, ModelError> {
        if self.services.is_empty() {
            return Err(ModelError::Empty);
        }
        let mut specs = Vec::with_capacity(self.services.len());
        for (name, demand, min, max, initial) in &self.services {
            specs.push(ServiceSpec::new(
                name.clone(),
                *demand,
                *min,
                *max,
                *initial,
            )?);
        }
        let index_of = |name: &str| -> Result<usize, ModelError> {
            specs
                .iter()
                .position(|s| s.name() == name)
                .ok_or_else(|| ModelError::UnknownService {
                    name: name.to_owned(),
                })
        };
        let mut edges = Vec::with_capacity(self.calls.len());
        for (from, to, m) in &self.calls {
            edges.push((index_of(from)?, index_of(to)?, *m));
        }
        let graph = InvocationGraph::from_edges(specs.len(), edges)?;
        let entry = match &self.entry {
            Some(name) => index_of(name)?,
            None => 0,
        };
        ApplicationModel::new(specs, graph, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_chain_model() {
        let m = ApplicationModelBuilder::new()
            .service("a", 0.1, 1, 10, 1)
            .service("b", 0.2, 1, 10, 1)
            .call("a", "b", 1.0)
            .entry("a")
            .build()
            .unwrap();
        assert_eq!(m.service_count(), 2);
        assert_eq!(m.entry(), 0);
        assert_eq!(m.graph().calls_from(0), &[(1, 1.0)]);
    }

    #[test]
    fn entry_defaults_to_first_service() {
        let m = ApplicationModelBuilder::new()
            .service("a", 0.1, 1, 10, 1)
            .build()
            .unwrap();
        assert_eq!(m.entry(), 0);
    }

    #[test]
    fn unknown_names_rejected() {
        let err = ApplicationModelBuilder::new()
            .service("a", 0.1, 1, 10, 1)
            .call("a", "ghost", 1.0)
            .build();
        assert!(matches!(err, Err(ModelError::UnknownService { name }) if name == "ghost"));

        let err = ApplicationModelBuilder::new()
            .service("a", 0.1, 1, 10, 1)
            .entry("ghost")
            .build();
        assert!(matches!(err, Err(ModelError::UnknownService { .. })));
    }

    #[test]
    fn empty_builder_rejected() {
        assert!(matches!(
            ApplicationModelBuilder::new().build(),
            Err(ModelError::Empty)
        ));
    }

    #[test]
    fn cycle_rejected_at_build() {
        let err = ApplicationModelBuilder::new()
            .service("a", 0.1, 1, 10, 1)
            .service("b", 0.1, 1, 10, 1)
            .call("a", "b", 1.0)
            .call("b", "a", 1.0)
            .build();
        assert!(matches!(err, Err(ModelError::CyclicInvocation)));
    }

    #[test]
    fn invalid_service_spec_rejected_at_build() {
        let err = ApplicationModelBuilder::new()
            .service("a", -0.1, 1, 10, 1)
            .build();
        assert!(matches!(err, Err(ModelError::InvalidField { .. })));
    }
}
