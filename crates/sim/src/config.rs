//! Simulation configuration: deployment profiles, SLO policy, global knobs.

/// How resources are provisioned — the knob that distinguishes the paper's
/// Docker and VM scenarios (§IV-A, §V-B).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentProfile {
    /// Human-readable profile name (`"docker"`, `"vm"`, …).
    pub name: String,
    /// Seconds between a scale-up command and the new instances serving.
    pub provisioning_delay: f64,
    /// Seconds between a scale-down command and idle instances leaving the
    /// supply (busy instances additionally drain their current request).
    pub deprovisioning_delay: f64,
}

impl DeploymentProfile {
    /// Container-style provisioning: instances are ready in ~10 s.
    ///
    /// "Due to the fast provisioning times of Docker containers,
    /// measurements covering one hour are sufficient" — the paper scales
    /// this setup every 60 s.
    pub fn docker() -> Self {
        DeploymentProfile {
            name: "docker".into(),
            provisioning_delay: 10.0,
            deprovisioning_delay: 1.0,
        }
    }

    /// Virtual-machine provisioning: instances take ~2 minutes to boot; the
    /// paper scales this setup every 120 s over a 6 h experiment.
    pub fn vm() -> Self {
        DeploymentProfile {
            name: "vm".into(),
            provisioning_delay: 120.0,
            deprovisioning_delay: 5.0,
        }
    }

    /// A profile with custom delays (both clamped to ≥ 0).
    pub fn custom(
        name: impl Into<String>,
        provisioning_delay: f64,
        deprovisioning_delay: f64,
    ) -> Self {
        DeploymentProfile {
            name: name.into(),
            provisioning_delay: provisioning_delay.max(0.0),
            deprovisioning_delay: deprovisioning_delay.max(0.0),
        }
    }
}

/// The service-level objective on end-to-end response time, plus the Apdex
/// toleration band.
///
/// The paper does not state its numeric SLO; we default to 0.5 s (≈2.5× the
/// 0.199 s summed service demand) with the standard Apdex toleration of 4×
/// the satisfaction threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// End-to-end response-time target in seconds; a request within this is
    /// *satisfied*.
    pub response_time_target: f64,
    /// Requests within `toleration_factor × response_time_target` count as
    /// *tolerating* for Apdex (half credit).
    pub toleration_factor: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            response_time_target: 0.5,
            toleration_factor: 4.0,
        }
    }
}

impl SloPolicy {
    /// Creates a policy; non-positive inputs fall back to the defaults.
    pub fn new(response_time_target: f64, toleration_factor: f64) -> Self {
        let d = SloPolicy::default();
        SloPolicy {
            response_time_target: if response_time_target.is_finite() && response_time_target > 0.0
            {
                response_time_target
            } else {
                d.response_time_target
            },
            toleration_factor: if toleration_factor.is_finite() && toleration_factor >= 1.0 {
                toleration_factor
            } else {
                d.toleration_factor
            },
        }
    }

    /// The absolute toleration bound in seconds.
    pub fn toleration_bound(&self) -> f64 {
        self.response_time_target * self.toleration_factor
    }

    /// Whether a response time satisfies the SLO.
    pub fn is_satisfied(&self, response_time: f64) -> bool {
        response_time <= self.response_time_target
    }

    /// Whether a response time is merely tolerating (violates the SLO but
    /// stays within the toleration bound).
    pub fn is_tolerating(&self, response_time: f64) -> bool {
        !self.is_satisfied(response_time) && response_time <= self.toleration_bound()
    }
}

/// Knobs of the hybrid fluid regime of [`crate::Simulation`]: when a
/// service's *offered load* (its deterministic trace-driven arrival rate ×
/// service demand, in Erlangs) crosses `threshold_erlangs`, the engine
/// stops simulating that service per-request and switches to an analytic
/// M/M/n fluid approximation; it switches back only once the offered load
/// falls below `hysteresis_ratio × threshold_erlangs`, so a load hovering
/// at the threshold cannot make the regime ping-pong every evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Offered load (Erlangs) above which a service turns fluid.
    pub threshold_erlangs: f64,
    /// Fraction of the threshold the offered load must fall below before a
    /// fluid service turns discrete again, in `(0, 1]`.
    pub hysteresis_ratio: f64,
    /// Analytic sojourn samples drawn per monitoring interval to classify
    /// fluid-mode completions against the SLO.
    pub tail_samples: u32,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            // 32 busy servers of offered load: far past the regime where
            // individual tails matter, and small enough that the paper's
            // heavy-traffic scenarios all run fluid.
            threshold_erlangs: 32.0,
            hysteresis_ratio: 0.5,
            tail_samples: 256,
        }
    }
}

impl HybridConfig {
    /// Creates a config, sanitizing degenerate inputs: a non-finite or
    /// non-positive threshold, ratio, or sample count falls back to the
    /// default; the ratio is clamped into `(0, 1]`.
    pub fn new(threshold_erlangs: f64, hysteresis_ratio: f64, tail_samples: u32) -> Self {
        let d = HybridConfig::default();
        HybridConfig {
            threshold_erlangs: if threshold_erlangs.is_finite() && threshold_erlangs > 0.0 {
                threshold_erlangs
            } else {
                d.threshold_erlangs
            },
            hysteresis_ratio: if hysteresis_ratio.is_finite() && hysteresis_ratio > 0.0 {
                hysteresis_ratio.min(1.0)
            } else {
                d.hysteresis_ratio
            },
            tail_samples: if tail_samples == 0 {
                d.tail_samples
            } else {
                tail_samples
            },
        }
    }

    /// The offered load below which a fluid service turns discrete again.
    pub fn lower_threshold(&self) -> f64 {
        self.threshold_erlangs * self.hysteresis_ratio
    }
}

/// Global simulation knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Deployment profile (provisioning delays).
    pub profile: DeploymentProfile,
    /// SLO policy for request accounting.
    pub slo: SloPolicy,
    /// Monitoring aggregation interval in seconds.
    pub monitoring_interval: f64,
    /// RNG seed; the simulation is deterministic in it.
    pub seed: u64,
    /// Optional nested deployment: containers boot into a shared VM pool
    /// and stall when no slot is free (see [`crate::nested`]).
    pub vm_pool: Option<crate::nested::VmPoolConfig>,
    /// Optional deterministic fault injection (see [`crate::fault`]).
    pub fault_plan: Option<crate::fault::FaultPlan>,
    /// Optional hybrid fluid regime; `None` keeps [`crate::Simulation`] a
    /// pure discrete-event simulation.
    pub hybrid: Option<HybridConfig>,
}

impl SimulationConfig {
    /// Creates a config with a 60 s monitoring interval and a flat
    /// (non-nested) deployment.
    pub fn new(profile: DeploymentProfile, slo: SloPolicy, seed: u64) -> Self {
        SimulationConfig {
            profile,
            slo,
            monitoring_interval: 60.0,
            seed,
            vm_pool: None,
            fault_plan: None,
            hybrid: None,
        }
    }

    /// Enables the nested deployment: containers boot into a shared VM
    /// pool.
    pub fn with_vm_pool(mut self, pool: crate::nested::VmPoolConfig) -> Self {
        self.vm_pool = Some(pool);
        self
    }

    /// Attaches a deterministic fault-injection plan: the engine then
    /// drops/delays/corrupts monitoring samples, fails or slows
    /// actuations, and crashes instances as the plan dictates.
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the hybrid fluid regime of [`crate::Simulation`].
    pub fn with_hybrid(mut self, hybrid: HybridConfig) -> Self {
        self.hybrid = Some(hybrid);
        self
    }

    /// Overrides the monitoring interval (clamped to ≥ 1 s).
    pub fn with_monitoring_interval(mut self, interval: f64) -> Self {
        self.monitoring_interval = if interval.is_finite() {
            interval.max(1.0)
        } else {
            60.0
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn docker_faster_than_vm() {
        assert!(
            DeploymentProfile::docker().provisioning_delay
                < DeploymentProfile::vm().provisioning_delay
        );
    }

    #[test]
    fn custom_profile_clamps_negative() {
        let p = DeploymentProfile::custom("x", -5.0, -1.0);
        assert_eq!(p.provisioning_delay, 0.0);
        assert_eq!(p.deprovisioning_delay, 0.0);
    }

    #[test]
    fn slo_classification() {
        let slo = SloPolicy::default();
        assert!(slo.is_satisfied(0.4));
        assert!(slo.is_satisfied(0.5));
        assert!(!slo.is_satisfied(0.51));
        assert!(slo.is_tolerating(0.51));
        assert!(slo.is_tolerating(2.0));
        assert!(!slo.is_tolerating(2.01));
        assert!(!slo.is_tolerating(0.3));
        assert!((slo.toleration_bound() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slo_invalid_inputs_fall_back() {
        let slo = SloPolicy::new(-1.0, 0.5);
        assert_eq!(slo, SloPolicy::default());
        let slo = SloPolicy::new(1.0, f64::NAN);
        assert_eq!(slo.toleration_factor, 4.0);
    }

    #[test]
    fn hybrid_config_sanitizes_degenerate_inputs() {
        let d = HybridConfig::default();
        assert_eq!(HybridConfig::new(f64::NAN, -1.0, 0), d);
        assert_eq!(HybridConfig::new(-5.0, f64::INFINITY, 0), d);
        let h = HybridConfig::new(100.0, 2.0, 16);
        assert_eq!(h.threshold_erlangs, 100.0);
        assert_eq!(h.hysteresis_ratio, 1.0); // clamped into (0, 1]
        assert_eq!(h.tail_samples, 16);
        let h = HybridConfig::new(64.0, 0.25, 8);
        assert!((h.lower_threshold() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn monitoring_interval_clamped() {
        let c = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 1)
            .with_monitoring_interval(0.1);
        assert_eq!(c.monitoring_interval, 1.0);
        let c = c.with_monitoring_interval(f64::NAN);
        assert_eq!(c.monitoring_interval, 60.0);
    }
}
