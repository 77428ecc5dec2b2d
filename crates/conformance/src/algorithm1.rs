//! Brute-force Algorithm 1 oracle.
//!
//! Re-derives the paper's per-service capacity decision by naive linear
//! search over `n` straight from the formulas — no [`ErlangSweep`], no
//! closed-form `ceil` — and asserts **bit-level agreement** with `core`'s
//! one decision path across a seeded grid of generated topologies,
//! demands, SLAs, and band configurations.
//!
//! The only tolerance the oracle shares with the implementation is the
//! *documented* `1e-9` integer-boundary snap of the utilization solver
//! (`ceil(λ·D/ρ)` with values within `1e-9` of an integer treated as that
//! integer); everything else is independently re-expressed.
//!
//! [`ErlangSweep`]: chamulteon_queueing::ErlangSweep

use crate::config::ConformanceConfig;
use crate::report::OracleReport;
use chamulteon::algorithm::proactive_decisions;
use chamulteon::ChamulteonConfig;
use chamulteon_perfmodel::{ApplicationModel, ApplicationModelBuilder, TopologyFamily};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The paper's while-loop, literally: grow `n` from 1 until the
/// utilization `ρ = λ·D/n` no longer exceeds the target, honoring the
/// solver's documented `1e-9` integer-boundary snap. Degenerate-input
/// policy mirrors the spec: non-positive load needs one instance, an
/// invalid target means full utilization.
pub fn naive_min_instances_for_utilization(
    arrival_rate: f64,
    service_demand: f64,
    target_utilization: f64,
) -> u32 {
    if !(arrival_rate > 0.0) || !(service_demand > 0.0) {
        return 1;
    }
    let target = if target_utilization.is_finite() && target_utilization > 0.0 {
        target_utilization.min(1.0)
    } else {
        1.0
    };
    let raw = arrival_rate * service_demand / target;
    let mut n: u32 = 1;
    while f64::from(n) < raw - 1e-9 {
        if n == u32::MAX {
            break;
        }
        n = n.saturating_add(1);
    }
    n
}

/// The canonical topological order, re-derived by brute force: repeatedly
/// take the smallest-index service whose callers have all been taken.
fn smallest_index_ready_order(model: &ApplicationModel) -> Vec<usize> {
    let n = model.service_count();
    let graph = model.graph();
    // Calls still to come from callers not yet taken, per callee.
    let mut pending = vec![0usize; n];
    for from in 0..n {
        for &(to, _) in graph.calls_from(from) {
            pending[to] += 1;
        }
    }
    let mut taken = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while let Some(next) = (0..n).find(|&s| !taken[s] && pending[s] == 0) {
        taken[next] = true;
        order.push(next);
        for &(to, _) in graph.calls_from(next) {
            pending[to] -= 1;
        }
    }
    order
}

/// Naive re-derivation of the full Algorithm 1 pass
/// ([`proactive_decisions`]) for one point in time: walk the services in
/// the brute-force canonical order, apply the band check and the naive
/// sizing loop, clamp into the model bounds, and forward the
/// capacity-throttled rate.
pub fn oracle_decisions(
    model: &ApplicationModel,
    forecast_entry_rate: f64,
    estimated_demands: &[f64],
    current_instances: &[u32],
    config: &ChamulteonConfig,
) -> Vec<u32> {
    let n = model.service_count();
    let demands: Vec<f64> = (0..n)
        .map(|i| {
            estimated_demands
                .get(i)
                .copied()
                .filter(|d| d.is_finite() && *d > 0.0)
                .unwrap_or_else(|| model.service(i).nominal_demand())
        })
        .collect();
    let mut targets: Vec<u32> = (0..n)
        .map(|i| {
            current_instances
                .get(i)
                .copied()
                .unwrap_or_else(|| model.service(i).initial_instances())
                .max(1)
        })
        .collect();
    let mut offered = vec![0.0; n];
    if let Some(slot) = offered.get_mut(model.entry()) {
        *slot = forecast_entry_rate.max(0.0);
    }
    for node in smallest_index_ready_order(model) {
        let spec = model.service(node);
        let rate = offered[node].max(0.0);
        let demand = demands[node].max(0.0);
        let rho = rate * demand / f64::from(targets[node]);
        let desired = if rho >= config.rho_upper || rho < config.rho_lower {
            naive_min_instances_for_utilization(rate, demand, config.rho_target)
        } else {
            targets[node]
        };
        targets[node] = desired.clamp(spec.min_instances(), spec.max_instances());
        let capacity = f64::from(targets[node]) / demands[node];
        let completed = offered[node].min(capacity);
        for &(to, multiplicity) in model.graph().calls_from(node) {
            offered[to] += completed * multiplicity;
        }
    }
    targets
}

/// One generated differential case.
struct Case {
    model: ApplicationModel,
    entry_rate: f64,
    estimated_demands: Vec<f64>,
    current: Vec<u32>,
    config: ChamulteonConfig,
}

/// Draws one case. Half the grid uses the original ad-hoc shape (a 1–5
/// service chain spine plus random skip edges), declared to the builder
/// in a seeded shuffled index order, so index order is generally not the
/// call order; the other half draws one of the perfmodel
/// [`TopologyFamily`] generators (chain, fan, diamond, scale-free) at 2–8
/// services, so every structural family the 1000-service benchmark
/// workload uses is oracle-covered. The rest of the case is random
/// demands/bounds/current counts, a valid `ρ_lower < ρ_target < ρ_upper`
/// band, and an entry rate that every few cases is crafted to land
/// `λ·D/ρ_target` exactly on an integer — the float boundary where a
/// naive search and a `ceil` most easily diverge.
fn generate_case(rng: &mut StdRng) -> Option<Case> {
    let model = if rng.gen_bool(0.5) {
        let family = TopologyFamily::ALL[rng.gen_range(0..TopologyFamily::ALL.len())];
        let n = rng.gen_range(2..=8usize);
        let topology_seed = rng.next_u64();
        chamulteon_perfmodel::topology::model(family, n, topology_seed).ok()?
    } else {
        let services = rng.gen_range(1..=5usize);
        let mut declared: Vec<(usize, f64, u32, u32)> = (0..services)
            .map(|i| {
                let demand = rng.gen_range(0.01..0.4);
                let max = rng.gen_range(50..=400u32);
                let initial = rng.gen_range(1..=10u32);
                (i, demand, max, initial)
            })
            .collect();
        for i in (1..services).rev() {
            declared.swap(i, rng.gen_range(0..=i));
        }
        let mut builder = ApplicationModelBuilder::new();
        for (i, demand, max, initial) in declared {
            builder = builder.service(format!("s{i}"), demand, 1, max, initial);
        }
        // Chain spine keeps every service reachable; skip edges add fan-out.
        for i in 1..services {
            let multiplicity = [0.5, 1.0, 1.0, 1.5, 2.0][rng.gen_range(0..5usize)];
            builder = builder.call(format!("s{}", i - 1), format!("s{i}"), multiplicity);
            if i >= 2 && rng.gen_bool(0.3) {
                let from = rng.gen_range(0..i - 1);
                builder = builder.call(format!("s{from}"), format!("s{i}"), 0.5);
            }
        }
        builder.entry("s0").build().ok()?
    };
    let services = model.service_count();
    let demands: Vec<f64> = model
        .services()
        .iter()
        .map(chamulteon_perfmodel::ServiceSpec::nominal_demand)
        .collect();

    let rho_target = rng.gen_range(0.35..0.9);
    let config = ChamulteonConfig {
        rho_target,
        rho_upper: (rho_target + rng.gen_range(0.05..0.3)).min(0.99),
        rho_lower: rho_target * rng.gen_range(0.3..0.9),
        ..ChamulteonConfig::default()
    };

    let entry_rate = match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 => {
            // Exact-boundary craft: make raw = λ·D/ρ_target an integer.
            let k = f64::from(rng.gen_range(1..=50u32));
            k * rho_target / demands[model.entry()]
        }
        _ => rng.gen_range(0.0..500.0),
    };

    let estimated_demands = match rng.gen_range(0..3u32) {
        0 => Vec::new(), // fall back to nominal demands
        1 => demands
            .iter()
            .map(|d| d * rng.gen_range(0.5..1.5))
            .collect(),
        _ => demands
            .iter()
            .map(|d| {
                // Some estimates are garbage; both paths must fall back.
                if rng.gen_bool(0.2) {
                    [f64::NAN, 0.0, -1.0][rng.gen_range(0..3usize)]
                } else {
                    *d
                }
            })
            .collect(),
    };

    let current = (0..services).map(|_| rng.gen_range(1..=40u32)).collect();
    Some(Case {
        model,
        entry_rate,
        estimated_demands,
        current,
        config,
    })
}

/// Runs the differential grid: for every generated case the naive oracle
/// and `core`'s Algorithm-1 walk must return identical target vectors.
pub fn run(config: &ConformanceConfig) -> OracleReport {
    let mut report = OracleReport::new("algorithm1");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA160_0001);
    for case_index in 0..config.algorithm1_cases {
        let Some(case) = generate_case(&mut rng) else {
            report.mismatch(format!("case {case_index}: model generation failed"));
            continue;
        };
        report.count_case();
        let expected = oracle_decisions(
            &case.model,
            case.entry_rate,
            &case.estimated_demands,
            &case.current,
            &case.config,
        );
        let decided = proactive_decisions(
            &case.model,
            case.entry_rate,
            &case.estimated_demands,
            &case.current,
            &case.config,
        );
        if decided != expected {
            report.mismatch(format!(
                "case {case_index}: Algorithm 1 {decided:?} != oracle {expected:?} \
                 (rate {:.6}, services {}, rho_target {:.4})",
                case.entry_rate,
                case.model.service_count(),
                case.config.rho_target
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_solver_matches_closed_form_on_known_points() {
        use chamulteon_queueing::capacity::min_instances_for_utilization;
        for &(rate, demand, target) in &[
            (200.0, 0.1, 0.8),
            (80.0, 0.1, 0.8), // exact boundary: 10 instances
            (85.0, 0.1, 0.8),
            (17.0, 0.059, 0.85),
            (0.0, 0.1, 0.8),
            (100.0, 0.1, -0.5), // invalid target => full utilization
            (100.0, 0.1, f64::NAN),
        ] {
            assert_eq!(
                naive_min_instances_for_utilization(rate, demand, target),
                min_instances_for_utilization(rate, demand, target),
                "λ={rate} D={demand} ρ={target}"
            );
        }
    }

    #[test]
    fn oracle_matches_paper_benchmark_decision() {
        let model = ApplicationModel::paper_benchmark();
        let config = ChamulteonConfig::default();
        let oracle = oracle_decisions(&model, 100.0, &[0.059, 0.1, 0.04], &[1, 1, 1], &config);
        assert_eq!(oracle, vec![10, 17, 7]);
    }

    #[test]
    fn small_grid_is_clean() {
        let config = ConformanceConfig {
            algorithm1_cases: 100,
            ..ConformanceConfig::quick()
        };
        let report = run(&config);
        assert_eq!(report.cases, 100);
        assert!(report.passed(), "{:?}", report.mismatches);
    }
}
