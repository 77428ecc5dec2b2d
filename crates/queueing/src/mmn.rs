//! The M/M/n/∞ station model used for every micro-service.
//!
//! The paper (§III-B) maps each service instance to exactly one resource
//! instance, so "number of servers" and "number of running service
//! instances" coincide. [`MmnQueue`] bundles the three quantities Chamulteon
//! works with — arrival rate, per-instance service demand, instance count —
//! and derives the standard steady-state measures from them.

use crate::erlang::erlang_c;
use crate::error::QueueingError;

/// An M/M/n/∞ station: Poisson arrivals at rate `λ`, `n` parallel servers,
/// exponential service times with mean `s` (the *service demand*).
///
/// Constructed via [`MmnQueue::new`], which validates the inputs once; the
/// accessors are then infallible except where stability is required.
///
/// # Examples
///
/// The paper's validation service (demand 0.1 s) with 12 instances under
/// 100 req/s:
///
/// ```
/// use chamulteon_queueing::MmnQueue;
///
/// let q = MmnQueue::new(100.0, 0.1, 12)?;
/// assert!((q.utilization() - 100.0 * 0.1 / 12.0).abs() < 1e-12);
/// assert!(q.is_stable());
/// let r = q.mean_response_time()?;
/// assert!(r > 0.1); // response time always exceeds the bare demand
/// # Ok::<(), chamulteon_queueing::QueueingError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmnQueue {
    arrival_rate: f64,
    service_demand: f64,
    servers: u32,
}

impl MmnQueue {
    /// Creates a station from an arrival rate (req/s), a per-request service
    /// demand (seconds), and a number of servers/instances.
    ///
    /// The arrival rate may be zero (an idle station); the service demand
    /// and the server count must be strictly positive.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::NonPositive`] for a negative/NaN arrival
    /// rate or a non-positive/NaN service demand, and
    /// [`QueueingError::OutOfRange`] for zero servers.
    pub fn new(
        arrival_rate: f64,
        service_demand: f64,
        servers: u32,
    ) -> Result<Self, QueueingError> {
        if !(arrival_rate >= 0.0) {
            return Err(QueueingError::NonPositive {
                name: "arrival_rate",
                value: arrival_rate,
            });
        }
        if !(service_demand > 0.0) {
            return Err(QueueingError::NonPositive {
                name: "service_demand",
                value: service_demand,
            });
        }
        if servers == 0 {
            return Err(QueueingError::OutOfRange {
                name: "servers",
                value: 0.0,
            });
        }
        Ok(MmnQueue {
            arrival_rate,
            service_demand,
            servers,
        })
    }

    /// The arrival rate `λ` in requests per second.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// The mean service demand `s` in seconds per request.
    pub fn service_demand(&self) -> f64 {
        self.service_demand
    }

    /// The number of servers (= running service instances), `n`.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// The per-server service rate `μ = 1/s` in requests per second.
    pub fn service_rate(&self) -> f64 {
        1.0 / self.service_demand
    }

    /// The offered load `a = λ·s` in Erlangs.
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate * self.service_demand
    }

    /// The average utilization `ρ = λ·s / n` — line 6 of the paper's
    /// Algorithm 1 (`ρ = λ / (μ·n)`).
    ///
    /// Note that this is the *theoretical* utilization and may exceed 1 for
    /// an overloaded station; Chamulteon uses exactly this property to
    /// detect how far over capacity a service is.
    pub fn utilization(&self) -> f64 {
        self.offered_load() / f64::from(self.servers)
    }

    /// Whether the station has a steady state (`ρ < 1`).
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Erlang-C probability that an arriving request must wait.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::Unstable`] if `ρ ≥ 1`.
    pub fn wait_probability(&self) -> Result<f64, QueueingError> {
        erlang_c(self.servers, self.offered_load())
    }

    /// Mean time spent waiting in the queue, `E[W_q] = C(n,a) / (n·μ − λ)`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::Unstable`] if `ρ ≥ 1`.
    pub fn mean_waiting_time(&self) -> Result<f64, QueueingError> {
        let c = self.wait_probability()?;
        let n_mu = f64::from(self.servers) * self.service_rate();
        Ok(c / (n_mu - self.arrival_rate))
    }

    /// Mean end-to-end sojourn (response) time at this station,
    /// `E[R] = E[W_q] + s`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::Unstable`] if `ρ ≥ 1`.
    pub fn mean_response_time(&self) -> Result<f64, QueueingError> {
        Ok(self.mean_waiting_time()? + self.service_demand)
    }

    /// Mean number of requests waiting in the queue,
    /// `L_q = λ·E[W_q]` (Little's law).
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::Unstable`] if `ρ ≥ 1`.
    pub fn mean_queue_length(&self) -> Result<f64, QueueingError> {
        Ok(self.arrival_rate * self.mean_waiting_time()?)
    }

    /// Approximate `p`-quantile of the waiting time: from
    /// `P(W > t) = C(n,a)·e^{−(nμ−λ)t}`, the quantile is
    /// `ln(C/(1−p)) / (nμ−λ)`, clamped at 0 when `C ≤ 1−p` (most requests
    /// do not wait at all).
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::Unstable`] if `ρ ≥ 1` and
    /// [`QueueingError::OutOfRange`] for `p` outside `(0, 1)`.
    pub fn waiting_time_quantile(&self, p: f64) -> Result<f64, QueueingError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(QueueingError::OutOfRange {
                name: "quantile",
                value: p,
            });
        }
        let c = self.wait_probability()?;
        if c <= 1.0 - p {
            return Ok(0.0);
        }
        let drain = f64::from(self.servers) * self.service_rate() - self.arrival_rate;
        Ok((c / (1.0 - p)).ln() / drain)
    }

    /// Approximate `p`-quantile of the response time: the waiting-time
    /// quantile plus the mean service demand. Slightly optimistic about
    /// the service-time tail, which is acceptable for capacity planning
    /// (the waiting tail dominates near saturation).
    ///
    /// # Errors
    ///
    /// Same as [`MmnQueue::waiting_time_quantile`].
    pub fn response_time_quantile(&self, p: f64) -> Result<f64, QueueingError> {
        Ok(self.waiting_time_quantile(p)? + self.service_demand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn q(lambda: f64, s: f64, n: u32) -> MmnQueue {
        MmnQueue::new(lambda, s, n).unwrap()
    }

    #[test]
    fn mm1_response_time_matches_closed_form() {
        // M/M/1: E[R] = s / (1 - rho)
        let station = q(8.0, 0.1, 1);
        let rho = station.utilization();
        let expect = 0.1 / (1.0 - rho);
        assert!((station.mean_response_time().unwrap() - expect).abs() < EPS);
    }

    #[test]
    fn mm1_queue_length_matches_closed_form() {
        // M/M/1: L_q = rho^2 / (1 - rho)
        let station = q(5.0, 0.1, 1);
        let rho = station.utilization();
        let expect = rho * rho / (1.0 - rho);
        assert!((station.mean_queue_length().unwrap() - expect).abs() < EPS);
    }

    #[test]
    fn littles_law_consistency() {
        let station = q(42.0, 0.059, 4);
        // L = λ·E[R].
        let l = station.arrival_rate() * station.mean_response_time().unwrap();
        let lq = station.mean_queue_length().unwrap();
        // L = L_q + a (expected number in service equals the offered load).
        assert!((l - (lq + station.offered_load())).abs() < 1e-9);
    }

    #[test]
    fn utilization_can_exceed_one_for_overload() {
        let station = q(100.0, 0.1, 5);
        assert!(station.utilization() > 1.0);
        assert!(!station.is_stable());
        assert!(station.mean_response_time().is_err());
    }

    #[test]
    fn idle_station_has_zero_wait() {
        let station = q(0.0, 0.1, 3);
        assert_eq!(station.wait_probability().unwrap(), 0.0);
        assert_eq!(station.mean_waiting_time().unwrap(), 0.0);
        assert!((station.mean_response_time().unwrap() - 0.1).abs() < EPS);
    }

    #[test]
    fn response_time_decreases_with_more_servers() {
        let mut last = f64::INFINITY;
        for n in 2..10 {
            let r = q(15.0, 0.1, n).mean_response_time().unwrap();
            assert!(r < last, "n={n}");
            last = r;
        }
    }

    #[test]
    fn response_time_increases_with_load() {
        let mut last = 0.0;
        for k in 1..10 {
            let lambda = f64::from(k) * 5.0;
            let r = q(lambda, 0.1, 6).mean_response_time().unwrap();
            assert!(r > last, "lambda={lambda}");
            last = r;
        }
    }

    #[test]
    fn paper_service_capacities() {
        // §IV-B: UI handles ~17 req/s/instance, validation 10, data 25.
        assert!((q(1.0, 0.059, 1).service_rate() - 16.949).abs() < 1e-2);
        assert!((q(1.0, 0.1, 1).service_rate() - 10.0).abs() < EPS);
        assert!((q(1.0, 0.04, 1).service_rate() - 25.0).abs() < EPS);
    }

    #[test]
    fn waiting_quantile_zero_when_most_do_not_wait() {
        // Very low load: P(wait) tiny, 90th percentile of waiting is 0.
        let station = q(1.0, 0.1, 10);
        assert_eq!(station.waiting_time_quantile(0.9).unwrap(), 0.0);
    }

    #[test]
    fn waiting_quantile_mm1_matches_closed_form() {
        // M/M/1: P(W > t) = rho·e^{−(μ−λ)t}; quantile = ln(rho/(1−p))/(μ−λ).
        let station = q(8.0, 0.1, 1);
        let rho = station.utilization();
        let expect = (rho / 0.1_f64).ln() / (10.0 - 8.0);
        assert!((station.waiting_time_quantile(0.9).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn response_quantile_exceeds_mean_near_saturation() {
        let station = q(9.0, 0.1, 1);
        let mean = station.mean_response_time().unwrap();
        let p90 = station.response_time_quantile(0.9).unwrap();
        assert!(p90 > mean);
    }

    #[test]
    fn quantile_increases_with_p() {
        let station = q(50.0, 0.1, 6);
        let p50 = station.response_time_quantile(0.5).unwrap();
        let p90 = station.response_time_quantile(0.9).unwrap();
        let p99 = station.response_time_quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn quantile_rejects_bad_p() {
        let station = q(5.0, 0.1, 2);
        assert!(station.waiting_time_quantile(0.0).is_err());
        assert!(station.waiting_time_quantile(1.0).is_err());
        assert!(station.waiting_time_quantile(f64::NAN).is_err());
    }

    #[test]
    fn constructor_rejects_bad_inputs() {
        assert!(MmnQueue::new(-1.0, 0.1, 1).is_err());
        assert!(MmnQueue::new(1.0, 0.0, 1).is_err());
        assert!(MmnQueue::new(1.0, -0.1, 1).is_err());
        assert!(MmnQueue::new(1.0, 0.1, 0).is_err());
        assert!(MmnQueue::new(f64::NAN, 0.1, 1).is_err());
        assert!(MmnQueue::new(1.0, f64::NAN, 1).is_err());
    }
}
