//! Layering: every crate under `crates/` has a row in `LAYERS`, and its
//! `[dependencies]` point strictly down the table. In particular the
//! foundations (`queueing`, `timeseries`, `workload`) and estimators
//! (`demand`, `perfmodel`) never depend on `core` or `sim`, and nothing
//! but the harness depends on `bench`. Only `[dependencies]` edges are
//! checked (a minimal, line-oriented reading of section headers and
//! `key = value` pairs): dev-dependencies exercise test scaffolding and
//! may reach sideways.

use std::path::Path;

/// Layer assignment by crate directory name.
const LAYERS: &[(&str, u8)] = &[
    ("obs", 0),
    ("queueing", 1),
    ("timeseries", 1),
    ("workload", 1),
    ("demand", 2),
    ("perfmodel", 2),
    ("scalers", 3),
    ("sim", 3),
    ("metrics", 3),
    ("core", 4),
    ("conformance", 5),
    ("bench", 6),
];

fn layer_of(crate_dir: &str) -> Option<u8> {
    LAYERS
        .iter()
        .find(|(name, _)| *name == crate_dir)
        .map(|&(_, layer)| layer)
}

/// Maps a dependency *package* name to its crate directory name, for
/// first-party packages (`chamulteon`, `chamulteon-forecast`,
/// `chamulteon-<dir>`). Third-party (vendored) packages map to `None`.
fn dep_crate_dir(package: &str) -> Option<&str> {
    match package {
        "chamulteon" => Some("core"),
        "chamulteon-forecast" => Some("timeseries"),
        _ => package.strip_prefix("chamulteon-"),
    }
}

/// The violations in one crate's manifest, each with its 1-based line
/// (0 when the crate has no row in the layer table).
fn violations(crate_dir: &str, manifest: &str) -> Vec<(usize, String)> {
    let Some(crate_layer) = layer_of(crate_dir) else {
        return vec![(0, format!("`{crate_dir}` has no row in the layer table"))];
    };
    let mut found = Vec::new();
    let mut in_dependencies = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            // `[dependencies]` and `[target.….dependencies]`, but not
            // `[dev-dependencies]` or `[build-dependencies]`.
            let header = line.trim_matches(['[', ']']);
            in_dependencies = header == "dependencies" || header.ends_with(".dependencies");
            continue;
        }
        if !in_dependencies || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line
            .split(['=', '.', ' ', '\t'])
            .next()
            .unwrap_or_default()
            .trim_matches('"');
        let Some(dep_dir) = dep_crate_dir(key) else {
            continue;
        };
        let Some(dep_layer) = layer_of(dep_dir) else {
            continue;
        };
        if dep_layer >= crate_layer {
            found.push((
                idx + 1,
                format!(
                    "`{crate_dir}` (layer {crate_layer}) must not depend on `{dep_dir}` \
                     (layer {dep_layer}): dependencies must point strictly downward"
                ),
            ));
        }
    }
    found
}

#[test]
fn every_crate_is_layered_and_depends_only_downward() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry is readable").path())
        .filter(|path| path.is_dir())
        .collect();
    dirs.sort();
    assert_eq!(dirs.len(), LAYERS.len(), "{dirs:?}");
    let mut found = Vec::new();
    for dir in dirs {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("crates/{name}/Cargo.toml: {e}"));
        for (line, message) in violations(&name, &manifest) {
            found.push(format!("crates/{name}/Cargo.toml:{line}: {message}"));
        }
    }
    assert!(found.is_empty(), "{found:#?}");
}

fn manifest(deps: &str) -> String {
    format!("[package]\nname = \"x\"\n\n[dependencies]\n{deps}\n[dev-dependencies]\nchamulteon.workspace = true\n")
}

#[test]
fn upward_edge_rejected_with_line_number() {
    let found = violations("queueing", &manifest("chamulteon.workspace = true\n"));
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, 5);
    assert!(found[0].1.contains("`queueing`"));
    assert!(found[0].1.contains("`core`"));
}

#[test]
fn sideways_edge_rejected_downward_accepted() {
    let text = manifest("chamulteon-sim = { path = \"../sim\" }\n");
    assert_eq!(
        violations("metrics", &text).len(),
        1,
        "same-layer edge must be rejected"
    );
    let text = manifest("chamulteon-queueing.workspace = true\nrand.workspace = true\n");
    assert!(violations("metrics", &text).is_empty());
}

#[test]
fn dev_dependencies_are_exempt() {
    assert!(violations("queueing", &manifest("")).is_empty());
}

#[test]
fn bench_may_depend_on_everything_but_nothing_on_bench() {
    let every = manifest(
        "chamulteon.workspace = true\nchamulteon-sim.workspace = true\nchamulteon-queueing.workspace = true\n",
    );
    assert!(violations("bench", &every).is_empty());
    let text = manifest("chamulteon-bench.workspace = true\n");
    assert_eq!(violations("core", &text).len(), 1);
}

#[test]
fn every_edge_of_a_manifest_is_checked() {
    let text = manifest("chamulteon.workspace = true\nchamulteon-sim.workspace = true\n");
    let found = violations("demand", &text);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[1].1.contains("`sim`"));
}

#[test]
fn conformance_sits_between_core_and_bench() {
    // The oracles may read the whole decision path...
    let deps = manifest(
        "chamulteon.workspace = true\nchamulteon-queueing.workspace = true\nchamulteon-perfmodel.workspace = true\n",
    );
    assert!(violations("conformance", &deps).is_empty());
    // ...the harness may invoke the oracles...
    let harness = manifest("chamulteon-conformance.workspace = true\n");
    assert!(violations("bench", &harness).is_empty());
    // ...but the decision path must never depend on its own auditors.
    assert_eq!(violations("core", &harness).len(), 1);
    let upward = manifest("chamulteon-bench.workspace = true\n");
    assert_eq!(violations("conformance", &upward).len(), 1);
}

#[test]
fn unlisted_crates_are_rejected() {
    let found = violations("xtask", &manifest(""));
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].1.contains("no row in the layer table"));
}
