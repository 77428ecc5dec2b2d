//! Multi-service deployment of single-service scalers.
//!
//! The competing auto-scalers "are not designed to scale applications with
//! multiple services", so the paper deploys one scaler instance per
//! service and adjusts the arrival rate each downstream scaler sees with
//! (§IV-C):
//!
//! ```text
//! r(i) = measured arrival rate                     if i = 0
//! r(i) = min(r(i−1), n(i−1) · s(i−1))              if i > 0
//! ```
//!
//! where `n(i)` is the instance count and `s(i)` the per-instance service
//! rate of service `i`. [`chain_rates`] applies the rule along the
//! model's invocation graph, of which the paper's chain is one case.

use crate::input::{AutoScaler, ScalerInput};
use chamulteon_perfmodel::InvocationGraph;

/// The interval policy shared with [`ScalerInput::new`]: non-finite or
/// non-positive intervals mean "one second", never a near-zero divisor.
fn sanitize_interval(interval: f64) -> f64 {
    if interval.is_finite() && interval > 0.0 {
        interval
    } else {
        1.0
    }
}

/// Computes the per-service input rates from the measured entry rate —
/// the paper's `r(i)` formula, walked along `graph`.
///
/// `instances[i]` and `service_demands[i]` describe service `i`; the
/// per-instance service rate is `s(i) = 1 / demand`. The `entry` service
/// is offered the measured rate, and in the graph's topological order
/// every service passes on what its instances can serve, `min(r, n/D)`,
/// times each call's multiplicity. A service is therefore offered the sum
/// over its callers `c` of `m(c→s)·min(r_c, n_c/D_c)`, which on a chain
/// of single calls is `r(i) = min(r(i−1), n(i−1)·s(i−1))`. The returned
/// vector has one rate per service of the graph; a service the entry
/// does not reach is offered 0.
///
/// Degenerate tiers must not poison the graph: a non-finite or negative
/// measured rate is zero load, and a non-finite or non-positive demand,
/// or a missing demand or instance count, is treated as unlimited
/// capacity (the tier imposes no cap) — the same forgiving validation
/// [`ScalerInput::new`] applies to its tuple. Without that, an `inf`
/// demand would zero every downstream rate and an `inf` measured rate
/// would propagate to every tier.
///
/// # Examples
///
/// ```
/// use chamulteon_perfmodel::InvocationGraph;
/// use chamulteon_scalers::chain_rates;
///
/// // Validation (10 req/s/instance, 5 instances) caps the data tier at 50.
/// let chain = InvocationGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
/// let rates = chain_rates(&chain, 0, 100.0, &[20, 5, 10], &[0.059, 0.1, 0.04]);
/// assert_eq!(rates[0], 100.0);
/// assert!((rates[2] - 50.0).abs() < 1e-9);
/// ```
pub fn chain_rates(
    graph: &InvocationGraph,
    entry: usize,
    measured_rate: f64,
    instances: &[u32],
    service_demands: &[f64],
) -> Vec<f64> {
    let mut rates = vec![0.0; graph.service_count()];
    if let Some(rate) = rates.get_mut(entry) {
        *rate = if measured_rate.is_finite() {
            measured_rate.max(0.0)
        } else {
            0.0
        };
    }
    for &service in graph.topological_order() {
        let capacity = match (instances.get(service), service_demands.get(service)) {
            (Some(&n), Some(&demand)) if demand.is_finite() && demand > 0.0 => {
                f64::from(n) / demand
            }
            _ => f64::INFINITY,
        };
        let passed = rates[service].min(capacity);
        for &(callee, multiplicity) in graph.calls_from(service) {
            rates[callee] += multiplicity * passed;
        }
    }
    rates
}

/// One single-service auto-scaler per service plus the chain-rate input
/// adjustment — the paper's extension of the open-source scalers to
/// multi-service applications.
pub struct IndependentScalers {
    graph: InvocationGraph,
    entry: usize,
    scalers: Vec<Box<dyn AutoScaler + Send>>,
    service_demands: Vec<f64>,
}

impl Clone for IndependentScalers {
    fn clone(&self) -> Self {
        IndependentScalers {
            graph: self.graph.clone(),
            entry: self.entry,
            scalers: self.scalers.iter().map(|s| s.clone_box()).collect(),
            service_demands: self.service_demands.clone(),
        }
    }
}

impl std::fmt::Debug for IndependentScalers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndependentScalers")
            .field("graph", &self.graph)
            .field("entry", &self.entry)
            .field(
                "scalers",
                &self.scalers.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .field("service_demands", &self.service_demands)
            .finish()
    }
}

impl IndependentScalers {
    /// Creates the deployment over the application's invocation graph and
    /// entry service from one scaler per service and the nominal
    /// per-service demands (used for the capacity term of the chain
    /// formula when no estimate is supplied).
    ///
    /// Non-finite or non-positive nominal demands are sanitized to the
    /// same 0.001 s floor [`ScalerInput::new`] uses, so a degenerate
    /// config cannot later poison the chain-capacity term.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length or from the graph's
    /// service count, or are empty.
    pub fn new(
        graph: InvocationGraph,
        entry: usize,
        scalers: Vec<Box<dyn AutoScaler + Send>>,
        service_demands: Vec<f64>,
    ) -> Self {
        assert_eq!(
            scalers.len(),
            service_demands.len(),
            "one scaler per service required"
        );
        assert_eq!(
            scalers.len(),
            graph.service_count(),
            "one scaler per service of the graph required"
        );
        assert!(!scalers.is_empty(), "at least one service required");
        let service_demands = service_demands
            .into_iter()
            .map(|d| if d.is_finite() && d > 0.0 { d } else { 0.001 })
            .collect();
        IndependentScalers {
            graph,
            entry,
            scalers,
            service_demands,
        }
    }

    /// Convenience: the same scaler type for every service, built by a
    /// factory closure.
    pub fn homogeneous<F>(
        graph: InvocationGraph,
        entry: usize,
        service_demands: Vec<f64>,
        factory: F,
    ) -> Self
    where
        F: Fn() -> Box<dyn AutoScaler + Send>,
    {
        let scalers = (0..service_demands.len()).map(|_| factory()).collect();
        IndependentScalers::new(graph, entry, scalers, service_demands)
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.scalers.len()
    }

    /// The name of the underlying scaler (they are homogeneous in the
    /// paper's experiments; heterogeneous deployments report the first).
    pub fn name(&self) -> &str {
        self.scalers[0].name()
    }

    /// One scaling round: distributes the measured entry rate along the
    /// graph ([`chain_rates`]), invokes every per-service scaler, and returns the instance
    /// deltas.
    ///
    /// `estimated_demands` are the per-service demand estimates fed to the
    /// scalers (the paper uses LibReDE's estimates, "as used in
    /// Chamulteon"); the chain capacities use the same estimates.
    pub fn decide(
        &mut self,
        time: f64,
        interval: f64,
        entry_requests: u64,
        instances: &[u32],
        estimated_demands: &[f64],
    ) -> Vec<i64> {
        // Sanitize the interval with the same policy as `ScalerInput::new`
        // (non-finite or ≤ 0 becomes 1 s) *before* deriving the rate: a
        // NaN interval used to hit `.max(1e-9)` and turn a modest request
        // count into a rate of billions of req/s.
        let interval = sanitize_interval(interval);
        let measured_rate = entry_requests as f64 / interval;
        self.decide_rate(time, interval, measured_rate, instances, estimated_demands)
    }

    /// Like [`decide`](IndependentScalers::decide), but takes the measured
    /// entry *rate* directly — the form experiment harnesses use when the
    /// rate comes from a validated (possibly held) monitoring sample
    /// rather than a raw request count. Non-finite or negative rates are
    /// treated as zero load.
    pub fn decide_rate(
        &mut self,
        time: f64,
        interval: f64,
        entry_rate: f64,
        instances: &[u32],
        estimated_demands: &[f64],
    ) -> Vec<i64> {
        let interval = sanitize_interval(interval);
        let measured_rate = if entry_rate.is_finite() {
            entry_rate.max(0.0)
        } else {
            0.0
        };
        let demands: Vec<f64> = (0..self.scalers.len())
            .map(|i| {
                estimated_demands
                    .get(i)
                    .copied()
                    .filter(|d| d.is_finite() && *d > 0.0)
                    .unwrap_or(self.service_demands[i])
            })
            .collect();
        let rates = chain_rates(&self.graph, self.entry, measured_rate, instances, &demands);
        self.scalers
            .iter_mut()
            .enumerate()
            .map(|(i, scaler)| {
                let requests = crate::convert::u64_from_f64((rates[i] * interval).round());
                let input = ScalerInput::new(
                    time,
                    interval,
                    requests,
                    demands[i],
                    instances.get(i).copied().unwrap_or(1),
                );
                scaler.decide(&input)
            })
            .collect()
    }

    /// Resets every per-service scaler.
    pub fn reset(&mut self) {
        for s in &mut self.scalers {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::react::React;
    use chamulteon_perfmodel::topology::{self, TopologyFamily};

    /// `0 → 1 → … → n−1`, single calls: the paper's chain.
    fn chain(n: usize) -> InvocationGraph {
        InvocationGraph::from_edges(n, (1..n).map(|i| (i - 1, i, 1.0))).unwrap()
    }

    /// The paper's three tiers, one React per service.
    fn paper_reacts() -> IndependentScalers {
        IndependentScalers::homogeneous(chain(3), 0, vec![0.059, 0.1, 0.04], || {
            Box::new(React::default())
        })
    }

    #[test]
    fn chain_rates_pass_through_without_bottleneck() {
        let rates = chain_rates(&chain(3), 0, 50.0, &[10, 10, 10], &[0.059, 0.1, 0.04]);
        assert_eq!(rates, vec![50.0, 50.0, 50.0]);
    }

    #[test]
    fn chain_rates_throttle_downstream() {
        // UI with 1 instance caps at ~16.9.
        let rates = chain_rates(&chain(3), 0, 100.0, &[1, 10, 10], &[0.059, 0.1, 0.04]);
        assert_eq!(rates[0], 100.0);
        assert!((rates[1] - 1.0 / 0.059).abs() < 1e-9);
        assert!((rates[2] - 1.0 / 0.059).abs() < 1e-9);
    }

    #[test]
    fn chain_rates_monotone_nonincreasing() {
        let rates = chain_rates(&chain(3), 0, 500.0, &[3, 7, 2], &[0.059, 0.1, 0.04]);
        for w in rates.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn chain_rates_degenerate_inputs() {
        assert!(chain_rates(&chain(1), 0, -10.0, &[1], &[0.1])
            .iter()
            .all(|&r| r == 0.0));
        assert_eq!(chain_rates(&chain(0), 0, 10.0, &[], &[]).len(), 0);
        // Zero demand treated as unlimited capacity.
        let rates = chain_rates(&chain(2), 0, 10.0, &[1, 1], &[0.0, 0.1]);
        assert_eq!(rates[1], 10.0);
        // An entry outside the graph offers nothing to anyone.
        assert_eq!(
            chain_rates(&chain(2), 5, 10.0, &[1, 1], &[0.1, 0.1]),
            [0.0; 2]
        );
    }

    #[test]
    fn chain_rates_degenerate_tiers_do_not_poison_the_chain() {
        // Regression: a non-finite measured rate used to flow through
        // `.max(0.0)` untouched, forwarding `inf` to every tier.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let rates = chain_rates(&chain(2), 0, bad, &[5, 5], &[0.1, 0.1]);
            assert!(
                rates.iter().all(|&r| r == 0.0),
                "rate {bad} leaked into the chain: {rates:?}"
            );
        }
        // Regression: an `inf` demand used to compute capacity n/inf = 0,
        // silently zeroing every downstream rate. An invalid demand now
        // means "no cap from this tier", like zero demand already did.
        for bad in [f64::INFINITY, f64::NAN, -0.1] {
            let rates = chain_rates(&chain(3), 0, 40.0, &[5, 5, 5], &[0.1, bad, 0.1]);
            assert!(
                rates.iter().all(|r| r.is_finite()),
                "demand {bad} produced non-finite rates: {rates:?}"
            );
            assert_eq!(rates[2], 40.0, "demand {bad} starved the data tier");
        }
    }

    #[test]
    fn relabelling_the_paper_chain_permutes_its_rates() {
        // The paper chain declared as `data, ui, validation`: ui (1) calls
        // validation (2), which calls data (0); the entry is ui. Its one
        // instance lets 1/0.059 ≈ 16.9 req/s through to both tiers below.
        let relabelled = InvocationGraph::from_edges(3, [(1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let rates = chain_rates(&relabelled, 1, 100.0, &[10, 1, 10], &[0.04, 0.059, 0.1]);
        let declared = chain_rates(&chain(3), 0, 100.0, &[1, 10, 10], &[0.059, 0.1, 0.04]);
        assert_eq!(rates, [declared[2], declared[0], declared[1]]);
        assert_eq!(rates[1], 100.0);
        assert!((rates[0] - 1.0 / 0.059).abs() < 1e-9, "{rates:?}");
    }

    /// The offered rate of `service`, straight from the definition: the
    /// measured rate at the entry plus, over every edge into it, the
    /// multiplicity times what the caller passes on. Recursive, no order.
    fn offered_oracle(
        edges: &[(usize, usize, f64)],
        entry: usize,
        measured: f64,
        capacity: &[f64],
        service: usize,
    ) -> f64 {
        let own = if service == entry { measured } else { 0.0 };
        own + edges
            .iter()
            .filter(|&&(_, to, _)| to == service)
            .map(|&(from, _, m)| {
                m * offered_oracle(edges, entry, measured, capacity, from).min(capacity[from])
            })
            .sum::<f64>()
    }

    #[test]
    fn fan_and_diamond_rates_match_the_brute_force_oracle() {
        for family in [TopologyFamily::Fan, TopologyFamily::Diamond] {
            for seed in 0..4u64 {
                let n = 10;
                // Relabel by reversing the indices, so the stored order is
                // not the index order and the entry is the last service.
                let edges: Vec<(usize, usize, f64)> = topology::edges(family, n, seed)
                    .into_iter()
                    .map(|(from, to, m)| (n - 1 - from, n - 1 - to, m))
                    .collect();
                let graph = InvocationGraph::from_edges(n, edges.iter().copied()).unwrap();
                let entry = n - 1;
                let instances: Vec<u32> = (0..10).map(|i| 1 + (i * 7 + 3) % 5).collect();
                let demands: Vec<f64> = (0..10).map(|i| 0.02 + 0.03 * f64::from(i % 4)).collect();
                let capacity: Vec<f64> = instances
                    .iter()
                    .zip(&demands)
                    .map(|(&k, &d)| f64::from(k) / d)
                    .collect();
                for measured in [5.0, 80.0, 400.0] {
                    let got = chain_rates(&graph, entry, measured, &instances, &demands);
                    for (s, &rate) in got.iter().enumerate() {
                        let want = offered_oracle(&edges, entry, measured, &capacity, s);
                        assert!(
                            (rate - want).abs() <= 1e-9 * want.max(1.0),
                            "{} seed {seed} at {measured} req/s: service {s} offered {rate}, oracle {want}",
                            family.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nominal_demands_are_sanitized_at_construction() {
        let mut multi = IndependentScalers::new(
            chain(3),
            0,
            vec![
                Box::new(React::default()),
                Box::new(React::default()),
                Box::new(React::default()),
            ],
            vec![0.059, f64::NAN, -1.0],
        );
        // 100 req/s; no estimates, so the (sanitized) nominals drive both
        // the chain capacities and the per-scaler demand. All deltas must
        // be sane (finite math end to end; broken tiers look tiny, not
        // infinite).
        let deltas = multi.decide(0.0, 60.0, 6000, &[1, 1, 1], &[]);
        assert_eq!(deltas.len(), 3);
        assert_eq!(deltas[0], 7, "healthy entry tier sizes as usual");
        assert!(deltas[1] <= 1 && deltas[2] <= 1, "floor demand ≈ no load");
    }

    #[test]
    fn nan_interval_behaves_like_one_second() {
        let mut bad = paper_reacts();
        let mut good = paper_reacts();
        // Regression: a NaN interval used to become `1e-9`, inflating 100
        // requests into 1e11 req/s. It now follows the ScalerInput policy
        // (1 s), making the two calls identical.
        let a = bad.decide(0.0, f64::NAN, 100, &[1, 1, 1], &[]);
        let b = good.decide(0.0, 1.0, 100, &[1, 1, 1], &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn independent_scalers_scale_each_tier() {
        let mut multi = paper_reacts();
        assert_eq!(multi.service_count(), 3);
        assert_eq!(multi.name(), "react");
        // 100 req/s at the entry; all tiers start at 1.
        let deltas = multi.decide(0.0, 60.0, 6000, &[1, 1, 1], &[0.059, 0.1, 0.04]);
        // Tier 0 sees 100 req/s => needs ceil(100·0.059/0.8)=8 => +7.
        assert_eq!(deltas[0], 7);
        // Tier 1 sees min(100, 1/0.059 ≈ 16.9) => needs ceil(1.695/0.8)=3.
        assert_eq!(deltas[1], 2);
        // Tier 2 sees min(16.9, 10) = 10 => needs 1 => no change.
        assert_eq!(deltas[2], 0);
    }

    #[test]
    fn demand_estimates_override_nominal() {
        let mut multi =
            IndependentScalers::homogeneous(chain(1), 0, vec![0.1], || Box::new(React::default()));
        // Estimated demand twice the nominal: double the instances needed.
        let with_estimate = multi.decide(0.0, 60.0, 600, &[1], &[0.2]);
        multi.reset();
        let with_nominal = multi.decide(0.0, 60.0, 600, &[1], &[]);
        assert!(with_estimate[0] > with_nominal[0]);
    }

    #[test]
    #[should_panic(expected = "one scaler per service")]
    fn mismatched_lengths_panic() {
        let _ = IndependentScalers::new(
            chain(2),
            0,
            vec![Box::new(React::default())],
            vec![0.1, 0.2],
        );
    }

    #[test]
    #[should_panic(expected = "one scaler per service of the graph")]
    fn a_graph_of_another_size_panics() {
        let _ = IndependentScalers::new(chain(2), 0, vec![Box::new(React::default())], vec![0.1]);
    }

    #[test]
    fn decide_rate_matches_decide_and_sanitizes() {
        let mut by_count = paper_reacts();
        let mut by_rate = paper_reacts();
        let a = by_count.decide(0.0, 60.0, 6000, &[1, 1, 1], &[]);
        let b = by_rate.decide_rate(0.0, 60.0, 100.0, &[1, 1, 1], &[]);
        assert_eq!(a, b);
        // Garbage rates are zero load, not a panic.
        by_rate.reset();
        let quiet = by_rate.decide_rate(60.0, 60.0, f64::NAN, &[5, 5, 5], &[]);
        assert!(
            quiet.iter().all(|&d| d <= 0),
            "NaN rate scales down: {quiet:?}"
        );
        let quiet = by_rate.decide_rate(120.0, 60.0, -50.0, &[5, 5, 5], &[]);
        assert!(quiet.iter().all(|&d| d <= 0));
    }
}
