//! The benchmark's own loops reproduce the library's runners.

use chamulteon_bench::{run_experiment, setups, ScalerKind};
use chamulteon_benchmark::graph::{self, Latencies, Setup};
use chamulteon_benchmark::paper::{self, Table};
use chamulteon_benchmark::spans::Tracer;
use chamulteon_perfmodel::{topology, TopologyFamily};

#[test]
fn smoke_setup_loop_matches_run_experiment() {
    let spec = setups::smoke_test();
    let reference = run_experiment(&spec, ScalerKind::Chamulteon);
    let plain = paper::run(&spec, &mut Tracer::disabled());
    assert_eq!(plain.result, reference.result);
    assert_eq!(plain.report, reference.report);
    assert_eq!(plain.actuation_failures, 0);

    // Tracing records spans around the same calls and changes nothing.
    let mut tracer = Tracer::enabled();
    let traced = paper::run(&spec, &mut tracer);
    assert_eq!(traced, plain);
    let ticks = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "controller.tick")
        .count();
    assert_eq!(ticks, plain.forecasted.len());
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn seed_zero_specs_match_setups() {
    for (table, reference) in [
        (Table::WikipediaDocker, setups::wikipedia_docker()),
        (Table::WikipediaVm, setups::wikipedia_vm()),
        (Table::BibsonomySmall, setups::bibsonomy_small()),
        (Table::BibsonomyLarge, setups::bibsonomy_large()),
    ] {
        let built = paper::setup(&[table], 0, 1);
        let (_, spec) = &built.specs[0];
        assert_eq!(spec.trace, reference.trace, "{table:?}");
        assert_eq!(spec.model, reference.model, "{table:?}");
        assert_eq!(spec.name, reference.name);
        assert_eq!(spec.profile, reference.profile);
        assert_eq!(spec.slo, reference.slo);
        assert_eq!(spec.scaling_interval, reference.scaling_interval);
        assert_eq!(spec.seed, reference.seed);
        assert_eq!(spec.warmup_days, reference.warmup_days);
        assert_eq!(spec.hist_bucket, reference.hist_bucket);

        // Other offsets move only the simulator seed, one per replication.
        let shifted = paper::setup(&[table], 2, 4);
        let seeds: Vec<u64> = shifted.specs.iter().map(|(_, s)| s.seed).collect();
        assert_eq!(
            seeds,
            (8..12).map(|r| reference.seed + r).collect::<Vec<_>>()
        );
        assert!(shifted
            .specs
            .iter()
            .all(|(_, s)| s.trace == reference.trace));
    }
}

#[test]
fn restored_graph_run_matches_uninterrupted_run() {
    let full = graph::setup(3);
    let model = topology::model(TopologyFamily::ScaleFree, 40, 3).expect("valid model");
    let setup = Setup {
        models: vec![(TopologyFamily::ScaleFree, model.clone())],
        ..full
    };
    let mut lat = Latencies::default();
    let restored = graph::run_family(&model, &setup, true, &mut Tracer::disabled(), &mut lat);
    let plain = graph::run_family(
        &model,
        &setup,
        false,
        &mut Tracer::disabled(),
        &mut Latencies::default(),
    );
    assert_eq!(restored.digest, plain.digest);
    assert_eq!(restored.ticks, graph::TICKS as u64);
    assert_eq!(
        restored.restores,
        (graph::TICKS / graph::RESTORE_EVERY) as u64
    );
    assert_eq!(restored.restore_failures + restored.sample_failures, 0);
    assert_eq!(lat.checkpoint.len(), graph::TICKS);
    assert_eq!(lat.restore.len(), graph::TICKS / graph::RESTORE_EVERY);
    assert!(!restored.last_snapshot.is_empty());
}
