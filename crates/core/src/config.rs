//! Chamulteon configuration.

/// All tunables of the Chamulteon controller.
///
/// The defaults reflect the paper's configuration notes: utilization
/// thresholds that keep the system *slightly over-provisioned* ("Due to the
/// configuration of Chamulteon, the system is always allocated slightly
/// more than the required amount of resources", §V-A), a reactive cycle
/// every scaling interval, a proactive cycle forecasting a window of future
/// intervals, and a MASE-based trust threshold for the conflict
/// resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChamulteonConfig {
    /// Scale up when the (predicted) utilization reaches this value
    /// (`ρ_upper` of Algorithm 1).
    pub rho_upper: f64,
    /// Scale down when the (predicted) utilization falls below this value
    /// (`ρ_lower`).
    pub rho_lower: f64,
    /// Target utilization used when computing the new instance count —
    /// sits between the thresholds so fresh decisions land inside the band.
    pub rho_target: f64,
    /// Proactive decisions are *trustable* when the forecast's holdout MASE
    /// is at or below this threshold (§III-C1).
    pub trust_threshold: f64,
    /// Enable the reactive cycle (disable for the proactive-only ablation).
    pub reactive_enabled: bool,
    /// Enable the proactive cycle (disable for the reactive-only ablation).
    pub proactive_enabled: bool,
    /// Return-path awareness (the paper's second future-work item, §VI):
    /// when a *downstream* service is pinned at its maximum capacity,
    /// scale upstream services down to the rate the bottleneck can
    /// actually serve instead of provisioning them for traffic that will
    /// only queue behind it — "the auto-scaler could scale down to the
    /// maximum capacity of the bottleneck resource and save instance
    /// time". Off by default, matching the published system.
    pub backpressure_enabled: bool,
}

impl Default for ChamulteonConfig {
    fn default() -> Self {
        ChamulteonConfig {
            rho_upper: 0.75,
            rho_lower: 0.45,
            rho_target: 0.6,
            trust_threshold: 1.0,
            reactive_enabled: true,
            proactive_enabled: true,
            backpressure_enabled: false,
        }
    }
}

impl ChamulteonConfig {
    /// Validates and sanitizes the configuration: thresholds are forced
    /// into `0 < ρ_lower < ρ_target ≤ ρ_upper ≤ 1` and the trust threshold
    /// to a positive finite value. Invalid fields fall back to the
    /// defaults.
    pub fn sanitized(mut self) -> Self {
        let d = ChamulteonConfig::default();
        if !(self.rho_upper > 0.0 && self.rho_upper <= 1.0) {
            self.rho_upper = d.rho_upper;
        }
        if !(self.rho_lower > 0.0 && self.rho_lower < self.rho_upper) {
            self.rho_lower = (self.rho_upper / 2.0).min(d.rho_lower);
        }
        if !(self.rho_target > self.rho_lower && self.rho_target <= self.rho_upper) {
            self.rho_target = (self.rho_lower + self.rho_upper) / 2.0;
        }
        if !(self.trust_threshold > 0.0) || !self.trust_threshold.is_finite() {
            self.trust_threshold = d.trust_threshold;
        }
        self
    }

    /// The reactive-only ablation configuration.
    pub fn reactive_only() -> Self {
        ChamulteonConfig {
            proactive_enabled: false,
            ..ChamulteonConfig::default()
        }
    }

    /// The proactive-only ablation configuration.
    pub fn proactive_only() -> Self {
        ChamulteonConfig {
            reactive_enabled: false,
            ..ChamulteonConfig::default()
        }
    }

    /// The return-path-aware extension configuration (§VI future work).
    pub fn with_backpressure() -> Self {
        ChamulteonConfig {
            backpressure_enabled: true,
            ..ChamulteonConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_self_consistent() {
        let c = ChamulteonConfig::default();
        assert!(c.rho_lower < c.rho_target);
        assert!(c.rho_target <= c.rho_upper);
        assert!(c.rho_upper <= 1.0);
        assert_eq!(c.clone().sanitized(), c);
    }

    #[test]
    fn sanitize_fixes_inverted_thresholds() {
        let c = ChamulteonConfig {
            rho_upper: 0.5,
            rho_lower: 0.9,
            rho_target: 2.0,
            ..ChamulteonConfig::default()
        }
        .sanitized();
        assert!(c.rho_lower < c.rho_target && c.rho_target <= c.rho_upper);
    }

    #[test]
    fn sanitize_fixes_degenerate_numbers() {
        let c = ChamulteonConfig {
            rho_upper: f64::NAN,
            trust_threshold: -1.0,
            ..ChamulteonConfig::default()
        }
        .sanitized();
        assert_eq!(c.rho_upper, 0.75);
        assert!(c.trust_threshold > 0.0);
    }

    #[test]
    fn ablation_presets() {
        assert!(!ChamulteonConfig::reactive_only().proactive_enabled);
        assert!(ChamulteonConfig::reactive_only().reactive_enabled);
        assert!(!ChamulteonConfig::proactive_only().reactive_enabled);
        assert!(ChamulteonConfig::proactive_only().proactive_enabled);
    }
}
