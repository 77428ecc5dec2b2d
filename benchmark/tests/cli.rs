//! Command-line hygiene and agreement with `BENCHMARK.json`.

use chamulteon_benchmark::args::{parse, Workload};
use chamulteon_benchmark::{END_TO_END, PER_LAYER};
use std::process::Command;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_owned).collect()
}

#[test]
fn parses_a_full_command_line() {
    let args = parse(&argv(
        "--workload graph-1000 --seed 7 --seconds 20 --trace 1",
    ))
    .expect("valid")
    .expect("not help");
    assert_eq!(args.workload, Workload::Graph1000);
    assert_eq!((args.seed, args.seconds, args.trace), (7, 20.0, true));
    assert_eq!(
        args.trace_file.to_str(),
        Some("benchmark/traces/graph-1000-seed7.jsonl")
    );
    let defaults = parse(&argv("--workload hybrid-day"))
        .expect("valid")
        .expect("not help");
    assert_eq!(
        (defaults.seed, defaults.seconds, defaults.trace),
        (0, 20.0, false)
    );
    assert_eq!(parse(&argv("--help")), Ok(None));
}

#[test]
fn rejects_malformed_command_lines() {
    for line in [
        "",
        "--workload",
        "--workload paper-xl",
        "--workload paper-vm --seed -1",
        "--workload paper-vm --seed 1.5",
        "--workload paper-vm --seconds 0",
        "--workload paper-vm --seconds nan",
        "--workload paper-vm --trace 2",
        "--workload paper-vm --bogus 1",
        "paper-vm",
    ] {
        assert!(parse(&argv(line)).is_err(), "{line:?} accepted");
    }
}

#[test]
fn binary_exits_non_zero_without_a_result_on_a_bad_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_chamulteon-benchmark"))
        .args([
            "--workload",
            "paper-xl",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').map_or(json.len(), |e| start + e);
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or_default().to_owned())
            .collect()
    };
    let names = |list: &[(&str, &str)]| -> Vec<String> {
        list.iter().map(|(n, _)| (*n).to_owned()).collect()
    };
    assert_eq!(section("end_to_end"), names(&END_TO_END));
    assert_eq!(section("per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(section("workloads"), workloads);
}
