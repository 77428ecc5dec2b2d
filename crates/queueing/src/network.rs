//! Open tandem networks of M/M/n stations.
//!
//! The benchmark application of the paper is a chain UI → validation → data;
//! every request visits every tier once. Under the product-form assumption
//! (§III-B) the chain decomposes into independent M/M/n stations fed by the
//! same Poisson rate, so the end-to-end mean response time is the sum of
//! the stations' sojourn times. The simulator's analytical-consistency
//! tests compare against exactly that sum.

use crate::error::QueueingError;
use crate::mmn::MmnQueue;

/// Static description of one station in a tandem network: its service
/// demand and how many instances are currently running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationSpec {
    /// Mean service demand in seconds per request.
    pub service_demand: f64,
    /// Number of running instances.
    pub servers: u32,
}

impl StationSpec {
    /// Creates a station spec.
    pub fn new(service_demand: f64, servers: u32) -> Self {
        StationSpec {
            service_demand,
            servers,
        }
    }
}

/// An open tandem network of M/M/n stations fed by a single external
/// arrival stream.
///
/// # Examples
///
/// The paper's three-tier application at 50 req/s:
///
/// ```
/// use chamulteon_queueing::{StationSpec, TandemNetwork};
///
/// let net = TandemNetwork::new(vec![
///     StationSpec::new(0.059, 5), // UI
///     StationSpec::new(0.1, 8),   // validation
///     StationSpec::new(0.04, 3),  // data
/// ])?;
/// let r = net.mean_response_time(50.0)?;
/// assert!(r > 0.199); // end to end at least the summed demands
/// # Ok::<(), chamulteon_queueing::QueueingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TandemNetwork {
    stations: Vec<StationSpec>,
}

impl TandemNetwork {
    /// Creates a network from station specs.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::NonPositive`] if any station has a
    /// non-positive service demand, and
    /// [`QueueingError::OutOfRange`] if any has zero servers or the network
    /// is empty.
    pub fn new(stations: Vec<StationSpec>) -> Result<Self, QueueingError> {
        if stations.is_empty() {
            return Err(QueueingError::OutOfRange {
                name: "stations",
                value: 0.0,
            });
        }
        for s in &stations {
            if !(s.service_demand > 0.0) {
                return Err(QueueingError::NonPositive {
                    name: "service_demand",
                    value: s.service_demand,
                });
            }
            if s.servers == 0 {
                return Err(QueueingError::OutOfRange {
                    name: "servers",
                    value: 0.0,
                });
            }
        }
        Ok(TandemNetwork { stations })
    }

    /// Mean end-to-end response time at the given external arrival rate:
    /// the sum of the per-station sojourn times.
    ///
    /// # Errors
    ///
    /// Returns [`QueueingError::Unstable`] if any station is at or over
    /// capacity.
    pub fn mean_response_time(&self, arrival_rate: f64) -> Result<f64, QueueingError> {
        let mut total = 0.0;
        for s in &self.stations {
            let station = MmnQueue::new(arrival_rate.max(0.0), s.service_demand, s.servers)?;
            total += station.mean_response_time()?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_net(n1: u32, n2: u32, n3: u32) -> TandemNetwork {
        TandemNetwork::new(vec![
            StationSpec::new(0.059, n1),
            StationSpec::new(0.1, n2),
            StationSpec::new(0.04, n3),
        ])
        .unwrap()
    }

    #[test]
    fn empty_network_rejected() {
        assert!(TandemNetwork::new(vec![]).is_err());
    }

    #[test]
    fn invalid_station_rejected() {
        assert!(TandemNetwork::new(vec![StationSpec::new(0.0, 1)]).is_err());
        assert!(TandemNetwork::new(vec![StationSpec::new(0.1, 0)]).is_err());
    }

    #[test]
    fn response_time_sums_tiers() {
        let net = paper_net(50, 50, 50);
        // Nearly idle: response ≈ sum of demands.
        let r = net.mean_response_time(1.0).unwrap();
        assert!((r - 0.199).abs() < 1e-3);
    }

    #[test]
    fn response_time_unstable_when_any_tier_overloaded() {
        let net = paper_net(10, 1, 6);
        assert!(net.mean_response_time(50.0).is_err());
    }
}
