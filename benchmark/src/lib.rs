//! Outside-in benchmark of the Chamulteon reproduction.
//!
//! The `chamulteon-benchmark` binary runs one workload per process on one
//! thread, drives each layer from its own loop through the public API and
//! times every call from outside. See `README.md` for the workloads, the
//! metrics and the public items relied on.

pub mod args;
pub mod graph;
pub mod heap;
pub mod hybrid;
pub mod paper;
pub mod rss;
pub mod spans;
pub mod stats;

/// End-to-end metrics, `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_heap_mb", "MiB")];

/// Per-layer metrics, `(name, unit)`, reported with `--trace 1`. A
/// metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workload.trace_build_ms", "ms"),
    ("perfmodel.topology_build_ms", "ms"),
    ("sim.init_ms", "ms"),
    ("sim.advance_s", "s"),
    ("sim.advance_calls", "count"),
    ("sim.requests", "count"),
    ("sim.advance_ns_per_request", "ns"),
    ("sim.observe_ms", "ms"),
    ("sim.actuate_ms", "ms"),
    ("sim.actuate_calls", "count"),
    ("sim.actuate_failed", "count"),
    ("sim.finish_ms", "ms"),
    ("sim.hybrid_events", "count"),
    ("sim.regime_switches", "count"),
    ("controller.preload_ms", "ms"),
    ("controller.tick_s", "s"),
    ("controller.ticks", "count"),
    ("controller.forecast_ticks", "count"),
    ("controller.tick_plain_p50_us", "us"),
    ("controller.tick_forecast_p50_ms", "ms"),
    ("controller.decide_p50_ms", "ms"),
    ("controller.decide_p90_ms", "ms"),
    ("controller.degradations", "count"),
    ("codec.snapshot_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.snapshot_bytes", "B"),
    ("codec.checkpoint_p50_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.restore_ms", "ms"),
    ("codec.restores", "count"),
    ("codec.restore_failed", "count"),
    ("codec.restore_p50_ms", "ms"),
    ("metrics.demand_curves_ms", "ms"),
    ("metrics.scoring_ms", "ms"),
    ("metrics.slo_violation_pct", "%"),
    ("metrics.apdex_pct", "%"),
    ("metrics.instance_hours", "h"),
    ("bench.des_case_s", "s"),
    ("harness.passes", "count"),
    ("harness.peak_rss_mb", "MiB"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("check.reference_s", "s"),
];
