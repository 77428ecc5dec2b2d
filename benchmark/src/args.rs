//! Command-line parsing. Every malformed or unknown flag is an error.

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables II, IV and V through the Chamulteon control loop.
    PaperDocker,
    /// Table III through the same loop.
    PaperVm,
    /// The controller alone on four 1000-service graph families.
    Graph1000,
    /// The full 1M req/s day on the hybrid fluid core.
    HybridDay,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperDocker,
        Workload::PaperVm,
        Workload::Graph1000,
        Workload::HybridDay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDocker => "paper-docker",
            Workload::PaperVm => "paper-vm",
            Workload::Graph1000 => "graph-1000",
            Workload::HybridDay => "hybrid-day",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Offset added to every trace, topology and simulator seed.
    pub seed: u64,
    /// Host seconds of measured passes.
    pub seconds: f64,
    /// Whether to add a traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the traced pass's spans go.
    pub trace_file: PathBuf,
}

/// Usage text.
pub const USAGE: &str = "usage: chamulteon-benchmark --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--trace-file FILE]
  workloads: paper-docker, paper-vm, graph-1000, hybrid-day
  --seed N         offset for every trace and simulator seed (default 0)
  --seconds S      host seconds of measured passes (default 20)
  --trace 0|1      1 adds a traced pass and reports per-layer metrics (default 0)
  --trace-file F   span dump of the traced pass
                   (default benchmark/traces/<workload>-seed<N>.jsonl)";

/// Parses `argv` (without the program name). `Ok(None)` asks for help.
pub fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut trace_file = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(w);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got {value:?}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| {
                        format!("--seconds takes a number in (0, 3600], got {value:?}")
                    })?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace_file = trace_file.unwrap_or_else(|| {
        PathBuf::from(format!(
            "benchmark/traces/{}-seed{seed}.jsonl",
            workload.name()
        ))
    });
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_file,
    }))
}
