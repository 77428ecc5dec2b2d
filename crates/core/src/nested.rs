//! Nested auto-scaling: planning the VM pool underneath the containers.
//!
//! The paper's future work (§VI) calls auto-scaling on nested resource
//! layers — "adding a new VM or adding a new container in an existing VM"
//! — "a new challenge on its own". The challenge is a timing one: adding a
//! container is fast *only while a VM slot is free*; once the pool is
//! full, every container scale-up silently inherits the VM boot delay.
//!
//! [`NestedPlanner`] is the decision logic for the VM layer: it keeps the
//! pool sized for the **forecast** container demand plus a headroom of
//! free slots, so that the container layer (driven by Chamulteon as usual)
//! retains its fast provisioning exactly when the load rises. The
//! simulator side lives in `chamulteon_sim::nested`.

/// Plans the VM count for a nested deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedPlanner {
    /// Containers per VM (matches the simulator's pool config).
    pub slots_per_vm: u32,
    /// Free slots to keep available at all times — the buffer that absorbs
    /// container scale-ups while new VMs are still booting.
    pub headroom_slots: u32,
}

impl NestedPlanner {
    /// Creates a planner; `slots_per_vm` is clamped to at least 1.
    pub fn new(slots_per_vm: u32, headroom_slots: u32) -> Self {
        NestedPlanner {
            slots_per_vm: slots_per_vm.max(1),
            headroom_slots,
        }
    }

    /// The VM count to provision: enough slots for the current container
    /// targets, the forecast peak (when the proactive cycle has one), and
    /// the headroom, rounded up to whole VMs — never less than 1.
    ///
    /// `container_targets` are the per-service container counts the
    /// container-layer scaler just decided; `forecast_peak_containers` is
    /// the largest total container count expected over the forecast
    /// horizon, when available.
    pub fn plan(&self, container_targets: &[u32], forecast_peak_containers: Option<u32>) -> u32 {
        let current: u32 = container_targets.iter().sum();
        let future = forecast_peak_containers.unwrap_or(0);
        let needed_slots = current.max(future).saturating_add(self.headroom_slots);
        needed_slots.div_ceil(self.slots_per_vm).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_current_targets() {
        let p = NestedPlanner::new(4, 0);
        assert_eq!(p.plan(&[3, 5, 2], None), 3); // 10 slots -> 3 VMs
        assert_eq!(p.plan(&[4, 4], None), 2); // exact fit
        assert_eq!(p.plan(&[], None), 1); // floor of one VM
    }

    #[test]
    fn headroom_adds_spare_slots() {
        let p = NestedPlanner::new(4, 4);
        // 10 containers + 4 headroom = 14 slots -> 4 VMs.
        assert_eq!(p.plan(&[10], None), 4);
    }

    #[test]
    fn forecast_peak_dominates_when_larger() {
        let p = NestedPlanner::new(4, 0);
        assert_eq!(p.plan(&[2, 2], Some(17)), 5);
        // Smaller forecast than current: current wins.
        assert_eq!(p.plan(&[10, 10], Some(5)), 5);
    }

    #[test]
    fn zero_slots_clamped() {
        let p = NestedPlanner::new(0, 0);
        assert_eq!(p.slots_per_vm, 1);
        assert_eq!(p.plan(&[5], None), 5);
    }
}
