//! Per-service station state of the simulation engine.

use std::collections::VecDeque;

use crate::fluid::Carry;

/// Which regime a station currently runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Regime {
    /// Every request is an entity: arrivals queue FCFS, completions are
    /// per-request events — exact M/M/n sample paths.
    Discrete,
    /// The queue is an analytic M/M/n approximation: mass drifts by the
    /// fluid ODE and response times are synthesized from the stationary
    /// law (see [`crate::fluid`]).
    Fluid,
}

/// Runtime state of one service station. The fluid fields only carry
/// meaning while `regime == Fluid`.
#[derive(Debug, Clone)]
pub(crate) struct Station {
    /// Ready (booted) instances.
    pub running: u32,
    /// Instances currently serving a request (≤ running; 0 while fluid).
    pub busy: u32,
    /// Boot events in flight.
    pub pending_boots: u32,
    /// Boot events cancelled by a later scale-down.
    pub cancelled_boots: u32,
    /// Busy instances draining their request before removal.
    pub retiring: u32,
    /// Container boots queued for a free VM slot (nested pool only).
    pub waiting_boots: u32,
    /// Desired instance count from the last scaling command.
    pub target: u32,
    /// Vertical speed factor (1.0 = nominal).
    pub speed: f64,
    /// FCFS queue of waiting request slots (empty while fluid).
    pub queue: VecDeque<usize>,
    /// Current regime.
    pub regime: Regime,
    /// Fluid mass: requests in the system, in fluid units. While
    /// discrete this is stale and unused.
    pub mass: f64,
    /// Carry accumulator for fluid-mode arrival counts.
    pub arrival_carry: Carry,
    /// Carry accumulator for fluid-mode completion counts.
    pub completion_carry: Carry,
    // Utilization integration.
    pub last_touch: f64,
    pub busy_integral: f64,
    pub capacity_integral: f64,
    // Interval counters.
    pub interval_arrivals: u64,
    pub interval_completions: u64,
    pub interval_response_sum: f64,
    pub interval_response_count: u64,
}

impl Station {
    /// A fresh discrete station with `initial` running instances.
    pub(crate) fn new(initial: u32) -> Self {
        Station {
            running: initial,
            busy: 0,
            pending_boots: 0,
            cancelled_boots: 0,
            retiring: 0,
            waiting_boots: 0,
            target: initial,
            speed: 1.0,
            queue: VecDeque::new(),
            regime: Regime::Discrete,
            mass: 0.0,
            arrival_carry: Carry::default(),
            completion_carry: Carry::default(),
            last_touch: 0.0,
            busy_integral: 0.0,
            capacity_integral: 0.0,
            interval_arrivals: 0,
            interval_completions: 0,
            interval_response_sum: 0.0,
            interval_response_count: 0,
        }
    }

    /// Integrates busy/capacity time up to `now` before a state change.
    /// While fluid, the flow integrator owns both integrals, so this only
    /// advances the clock.
    #[inline]
    pub(crate) fn touch(&mut self, now: f64) {
        let dt = now - self.last_touch;
        if dt > 0.0 {
            if self.regime == Regime::Discrete {
                self.busy_integral += f64::from(self.busy) * dt;
                self.capacity_integral += f64::from(self.running) * dt;
            }
            self.last_touch = now;
        }
    }

    /// All instances this station will have once pending boots finish,
    /// including boots still waiting for a VM slot.
    #[inline]
    pub(crate) fn provisioned(&self) -> u32 {
        self.running + self.pending_boots - self.cancelled_boots + self.waiting_boots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_integrates_only_while_discrete() {
        let mut st = Station::new(4);
        st.busy = 2;
        st.touch(10.0);
        assert_eq!(st.busy_integral, 20.0);
        assert_eq!(st.capacity_integral, 40.0);
        st.regime = Regime::Fluid;
        st.touch(20.0);
        assert_eq!(st.busy_integral, 20.0, "fluid touch only moves the clock");
        assert_eq!(st.last_touch, 20.0);
    }

    #[test]
    fn provisioned_counts_pending_and_waiting_boots() {
        let mut st = Station::new(3);
        st.pending_boots = 4;
        st.cancelled_boots = 1;
        assert_eq!(st.provisioned(), 6);
        st.waiting_boots = 2;
        assert_eq!(st.provisioned(), 8);
    }
}
