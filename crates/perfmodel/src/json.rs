//! JSON encode/decode for [`ApplicationModel`], on the workspace's
//! [`chamulteon_obs::json`] codec.
//!
//! The DML-instance stand-in format is an indented document whose schema
//! is exactly what [`encode_model`] emits:
//!
//! ```json
//! {
//!   "services": [ { "name", "nominal_demand", "min_instances",
//!                   "max_instances", "initial_instances" }, … ],
//!   "graph": { "service_count": N, "edges": [[[to, multiplicity], …], …] },
//!   "entry": 0
//! }
//! ```
//!
//! Decoding rebuilds the model through the validating constructors
//! ([`ServiceSpec::new`], [`InvocationGraph::add_call`],
//! [`ApplicationModel::new`]), so a well-formed document describing an
//! inconsistent model is rejected, never materialized.

use crate::error::ModelError;
use crate::graph::InvocationGraph;
use crate::model::ApplicationModel;
use crate::service::ServiceSpec;
use chamulteon_obs::json::{self, JsonError, Writer};

/// Serializes a model to an indented JSON document.
pub(crate) fn encode_model(model: &ApplicationModel) -> String {
    let mut out = String::with_capacity(256 * model.service_count().max(1));
    let mut w = Writer::indented(&mut out);
    w.begin_array("services");
    for s in model.services() {
        w.push_object()
            .str("name", s.name())
            .f64("nominal_demand", s.nominal_demand())
            .u32("min_instances", s.min_instances())
            .u32("max_instances", s.max_instances())
            .u32("initial_instances", s.initial_instances())
            .end_object();
    }
    w.end_array()
        .begin_object("graph")
        .usize("service_count", model.service_count())
        .begin_array("edges");
    for from in 0..model.service_count() {
        w.push_array();
        for &(to, mult) in model.graph().calls_from(from) {
            w.push_array().push_usize(to).push_f64(mult).end_array();
        }
        w.end_array();
    }
    w.end_array().end_object().usize("entry", model.entry());
    w.finish();
    out
}

fn parse_error(message: impl Into<String>) -> ModelError {
    ModelError::Parse {
        message: message.into(),
    }
}

impl From<JsonError> for ModelError {
    fn from(e: JsonError) -> Self {
        parse_error(e.to_string())
    }
}

/// Parses and re-validates a model from its JSON representation.
pub(crate) fn decode_model(text: &str) -> Result<ApplicationModel, ModelError> {
    let doc = json::parse(text)?;
    let root = doc
        .as_object()
        .ok_or_else(|| parse_error("the document root must be an object"))?;

    let mut services = Vec::new();
    for (i, item) in root.array("services")?.iter().enumerate() {
        let fields = item
            .as_object()
            .ok_or_else(|| parse_error(format!("service #{i} must be an object")))?;
        let spec = ServiceSpec::new(
            fields.str("name")?,
            fields.f64("nominal_demand")?,
            fields.u32("min_instances")?,
            fields.u32("max_instances")?,
            fields.u32("initial_instances")?,
        )
        .map_err(|e| parse_error(format!("service #{i}: {e}")))?;
        services.push(spec);
    }

    let graph = root.object("graph")?;
    let service_count = graph.usize("service_count")?;
    let edges = graph.array("edges")?;
    if edges.len() != service_count {
        return Err(parse_error("`edges` length must equal `service_count`"));
    }
    let mut edge_list = Vec::new();
    for (from, outs) in edges.iter().enumerate() {
        let outs = outs
            .as_array()
            .ok_or_else(|| parse_error(format!("`edges[{from}]` must be an array")))?;
        for edge in outs {
            let pair = match edge.as_array() {
                Some([to, mult]) => to.as_uint().zip(mult.as_f64()),
                _ => None,
            };
            let (to, mult) = pair.ok_or_else(|| {
                parse_error(format!(
                    "edge from {from} must be a `[to, multiplicity]` pair"
                ))
            })?;
            edge_list.push((from, to, mult));
        }
    }
    // Bulk construction: per-edge field validation plus a single
    // acyclicity check for the whole document.
    let graph = InvocationGraph::from_edges(service_count, edge_list).map_err(|e| match e {
        ModelError::CyclicInvocation => ModelError::CyclicInvocation,
        other => parse_error(format!("graph: {other}")),
    })?;

    let entry = root.usize("entry")?;
    // Final structural validation (duplicate names, entry range, acyclicity).
    ApplicationModel::new(services, graph, entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_fields_read_back_through_the_shared_codec() {
        let model = ApplicationModel::paper_benchmark();
        let text = encode_model(&model);
        let doc = json::parse(&text).unwrap();
        let root = doc.as_object().unwrap();
        let services = root.array("services").unwrap();
        assert_eq!(services.len(), model.service_count());
        for (value, spec) in services.iter().zip(model.services()) {
            let fields = value.as_object().unwrap();
            assert_eq!(fields.str("name"), Ok(spec.name()));
            assert_eq!(
                fields.f64("nominal_demand").map(f64::to_bits),
                Ok(spec.nominal_demand().to_bits())
            );
            assert_eq!(fields.u32("min_instances"), Ok(spec.min_instances()));
            assert_eq!(fields.u32("max_instances"), Ok(spec.max_instances()));
            assert_eq!(
                fields.u32("initial_instances"),
                Ok(spec.initial_instances())
            );
        }
        let graph = root.object("graph").unwrap();
        assert_eq!(graph.usize("service_count"), Ok(model.service_count()));
        let edges = graph.array("edges").unwrap();
        for (from, outs) in edges.iter().enumerate() {
            let pairs: Vec<(usize, f64)> = outs
                .as_array()
                .unwrap()
                .iter()
                .map(|pair| match pair.as_array().unwrap() {
                    [to, mult] => (to.as_uint().unwrap(), mult.as_f64().unwrap()),
                    other => panic!("not a pair: {other:?}"),
                })
                .collect();
            assert_eq!(pairs, model.graph().calls_from(from));
        }
        assert_eq!(root.usize("entry"), Ok(model.entry()));
    }

    #[test]
    fn escaped_names_round_trip() {
        let spec = ServiceSpec::new("a\"b\\c\nd", 0.1, 1, 5, 1).unwrap();
        let model = ApplicationModel::new(vec![spec], InvocationGraph::new(1), 0).unwrap();
        let back = decode_model(&encode_model(&model)).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn decode_rejects_inconsistent_documents() {
        let model = ApplicationModel::paper_benchmark();
        let json = encode_model(&model);
        // Edge list length disagreeing with service_count.
        let bad = json.replace("\"service_count\": 3", "\"service_count\": 2");
        assert!(decode_model(&bad).is_err());
        // Non-integral instance count.
        let bad = json.replace("\"min_instances\": 1", "\"min_instances\": 1.5");
        assert!(decode_model(&bad).is_err());
    }
}
