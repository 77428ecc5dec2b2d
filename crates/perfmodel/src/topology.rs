//! Synthetic topology generators for large-graph evaluation.
//!
//! The paper evaluates Chamulteon on a 3-tier chain; production
//! applications are DAGs of hundreds to thousands of services. These
//! generators produce the four structural families the 1000-service
//! benchmark workload and the conformance oracle sweep:
//!
//! * **chain** — the paper's shape stretched to `n` tiers,
//! * **fan** — a shallow root fanning out to independent leaves,
//! * **diamond** — repeated branch/join blocks (the bottleneck-shifting
//!   stressor),
//! * **scale-free** — preferential attachment, the long-tailed in-degree
//!   profile of real microservice traces.
//!
//! Every generated edge satisfies `from < to` (the graphs are
//! *index-topological*), so the canonical topological order is exactly
//! `0, 1, …, n−1` and the brute-force conformance oracle's index-order
//! walk agrees bit-for-bit with the optimized paths.
//!
//! Generation is fully deterministic from `(family, n, seed)` via an
//! internal splitmix64 stream — no external randomness, no global state.

use crate::error::ModelError;
use crate::graph::InvocationGraph;
use crate::model::ApplicationModel;
use crate::service::ServiceSpec;

/// The structural families the generators cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// Linear chain `0 → 1 → … → n−1`, multiplicity 1 — the paper's shape.
    Chain,
    /// Service 0 calls every other service directly (width = n−1).
    Fan,
    /// Repeated 4-node branch/join diamonds chained end to end.
    Diamond,
    /// Preferential attachment: each new service is called by 1–3 earlier
    /// services chosen with probability proportional to degree + 1.
    ScaleFree,
}

impl TopologyFamily {
    /// All families, in a fixed order (for sweeps).
    pub const ALL: [TopologyFamily; 4] = [
        TopologyFamily::Chain,
        TopologyFamily::Fan,
        TopologyFamily::Diamond,
        TopologyFamily::ScaleFree,
    ];

    /// Stable lowercase name, used in benchmark reports and case labels.
    pub fn name(self) -> &'static str {
        match self {
            TopologyFamily::Chain => "chain",
            TopologyFamily::Fan => "fan",
            TopologyFamily::Diamond => "diamond",
            TopologyFamily::ScaleFree => "scale_free",
        }
    }
}

/// Deterministic splitmix64 stream — the same tiny generator the sim crate
/// uses for fault rolls; kept private so perfmodel stays dependency-free.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform pick in `0..len` (`len` must be non-zero).
    fn pick(&mut self, len: usize) -> usize {
        let len64 = u64::try_from(len).unwrap_or(u64::MAX).max(1);
        usize::try_from(self.next_u64() % len64).unwrap_or(0)
    }
}

/// Call multiplicities drawn for non-chain edges. All values are ≤ 1.0 so
/// visit ratios stay bounded on deep or high-in-degree graphs (a palette
/// above 1 would overflow to `inf` within a few hundred tiers).
const MULTIPLICITY_PALETTE: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Service-demand palette (seconds). Deliberately small — about 8 classes —
/// so large graphs repeat (rate, demand) pairs and capacity-solve
/// deduplication has something to merge, mirroring how real fleets share a
/// handful of service archetypes.
const DEMAND_PALETTE: [f64; 8] = [0.02, 0.04, 0.059, 0.08, 0.1, 0.15, 0.2, 0.25];

/// Generates the edge list of `family` over `n` services.
///
/// Every edge satisfies `from < to`; the list is valid input for
/// [`InvocationGraph::from_edges`]. `n == 0` or `n == 1` yields no edges.
pub fn edges(family: TopologyFamily, n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = SplitMix64::new(seed ^ 0xC0A1_E5CA_1E00_0001_u64.rotate_left(17));
    let mut out = Vec::new();
    if n < 2 {
        return out;
    }
    match family {
        TopologyFamily::Chain => {
            for i in 1..n {
                out.push((i - 1, i, 1.0));
            }
        }
        TopologyFamily::Fan => {
            for i in 1..n {
                let m = MULTIPLICITY_PALETTE[rng.pick(MULTIPLICITY_PALETTE.len())];
                out.push((0, i, m));
            }
        }
        TopologyFamily::Diamond => {
            // Blocks of entry → {left, right} → join, chained: the join of
            // one block is the entry of the next. The fork splits requests
            // evenly (0.5/0.5, conditional control flow) and the join sees
            // both halves, so each block conserves the offered rate —
            // chaining hundreds of blocks neither inflates nor underflows
            // the deep-node rates. A tail shorter than a full block
            // degrades to a chain.
            let mut head = 0usize;
            while head + 3 < n {
                out.push((head, head + 1, 0.5));
                out.push((head, head + 2, 0.5));
                out.push((head + 1, head + 3, 1.0));
                out.push((head + 2, head + 3, 1.0));
                head += 3;
            }
            for i in (head + 1)..n {
                out.push((i - 1, i, 1.0));
            }
        }
        TopologyFamily::ScaleFree => {
            // Preferential attachment: service i is called by 1–3 earlier
            // services chosen with probability ∝ degree + 1. Edges always
            // point old → new, so the graph is index-topological.
            let mut degree = vec![0usize; n];
            for i in 1..n {
                let parents = 1 + rng.pick(3.min(i));
                let mut chosen: Vec<usize> = Vec::with_capacity(parents);
                while chosen.len() < parents {
                    let total: usize = degree[..i].iter().map(|d| d + 1).sum();
                    let mut ticket = rng.pick(total);
                    let mut parent = 0usize;
                    for (candidate, &d) in degree[..i].iter().enumerate() {
                        let weight = d + 1;
                        if ticket < weight {
                            parent = candidate;
                            break;
                        }
                        ticket -= weight;
                    }
                    if chosen.contains(&parent) {
                        // Collision: fall back to the lowest unchosen index
                        // so the loop always terminates.
                        parent = (0..i).find(|c| !chosen.contains(c)).unwrap_or(parent);
                        if chosen.contains(&parent) {
                            break;
                        }
                    }
                    chosen.push(parent);
                }
                chosen.sort_unstable();
                for parent in chosen {
                    let m = MULTIPLICITY_PALETTE[rng.pick(MULTIPLICITY_PALETTE.len())];
                    out.push((parent, i, m));
                    degree[parent] += 1;
                    degree[i] += 1;
                }
            }
        }
    }
    out
}

/// Generates a complete validated [`ApplicationModel`] of `family` over
/// `n` services: names `s0…s{n−1}`, demands drawn from a small palette,
/// bounds 1–10 000 starting at 1 instance, entry at service 0.
///
/// # Errors
///
/// Returns [`ModelError::Empty`] for `n == 0`; generation itself cannot
/// produce an invalid model for `n ≥ 1`.
pub fn model(family: TopologyFamily, n: usize, seed: u64) -> Result<ApplicationModel, ModelError> {
    let mut rng = SplitMix64::new(seed.rotate_left(32) ^ 0x5EED_5EED_5EED_5EED);
    let mut services = Vec::with_capacity(n);
    for i in 0..n {
        let demand = DEMAND_PALETTE[rng.pick(DEMAND_PALETTE.len())];
        services.push(ServiceSpec::new(format!("s{i}"), demand, 1, 10_000, 1)?);
    }
    let graph = InvocationGraph::from_edges(n, edges(family, n, seed))?;
    ApplicationModel::new(services, graph, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_index_topological_and_deterministic() {
        for family in TopologyFamily::ALL {
            for n in [1usize, 2, 5, 17, 64] {
                let a = edges(family, n, 42);
                let b = edges(family, n, 42);
                assert_eq!(a, b, "{} n={n} not deterministic", family.name());
                for &(from, to, m) in &a {
                    assert!(
                        from < to,
                        "{} edge {from}->{to} not index-topological",
                        family.name()
                    );
                    assert!(m > 0.0 && m <= 1.0);
                }
                let graph = InvocationGraph::from_edges(n, a).expect("acyclic");
                // Index-topological ⇒ canonical order is identity.
                let identity: Vec<usize> = (0..n).collect();
                assert_eq!(graph.topological_order(), identity.as_slice());
            }
        }
    }

    #[test]
    fn different_seeds_differ_for_random_families() {
        let a = edges(TopologyFamily::ScaleFree, 32, 1);
        let b = edges(TopologyFamily::ScaleFree, 32, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn every_service_is_reachable_from_entry() {
        for family in TopologyFamily::ALL {
            let m = model(family, 40, 7).expect("valid model");
            let ratios = m.visit_ratios();
            for (i, r) in ratios.iter().enumerate() {
                assert!(
                    r.is_finite() && *r > 0.0,
                    "{} service {i} unreachable or unbounded (ratio {r})",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn deep_graphs_keep_finite_ratios() {
        for family in TopologyFamily::ALL {
            let m = model(family, 1000, 3).expect("valid model");
            assert!(m.visit_ratios().iter().all(|r| r.is_finite()));
        }
    }

    #[test]
    fn model_rejects_zero_services() {
        assert!(model(TopologyFamily::Chain, 0, 1).is_err());
    }

    #[test]
    fn family_names_are_stable() {
        let names: Vec<&str> = TopologyFamily::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["chain", "fan", "diamond", "scale_free"]);
    }
}
