//! Nested resource layers: containers inside a shared VM pool.
//!
//! The paper's future work (§VI) names "auto-scaling on nested resource
//! layers, for instance, the possibility of adding a new VM or adding a
//! new container in an existing VM" as "a new challenge on its own". The
//! challenge is exactly the interaction this module models: a container
//! boots in seconds **only if a VM has a free slot**; otherwise it must
//! wait for a VM boot measured in minutes. A controller that plans the VM
//! pool ahead keeps container provisioning fast; one that scales VMs
//! reactively sees its container scale-ups stall at the worst moments.

/// Configuration of the shared VM pool underneath the containers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmPoolConfig {
    /// Containers that fit in one VM.
    pub slots_per_vm: u32,
    /// Seconds from a VM scale-up command until its slots are usable.
    pub vm_boot_delay: f64,
    /// VMs running at simulation start.
    pub initial_vms: u32,
}

impl VmPoolConfig {
    /// Creates a validated pool config; degenerate values are clamped
    /// (at least 1 slot per VM, non-negative delay, at least 1 initial VM).
    pub fn new(slots_per_vm: u32, vm_boot_delay: f64, initial_vms: u32) -> Self {
        VmPoolConfig {
            slots_per_vm: slots_per_vm.max(1),
            vm_boot_delay: if vm_boot_delay.is_finite() {
                vm_boot_delay.max(0.0)
            } else {
                120.0
            },
            initial_vms: initial_vms.max(1),
        }
    }
}

/// Runtime state of the VM pool, internal to the engine
/// (`Simulation::waiting_containers` reports the boot queue).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VmPoolState {
    pub(crate) config: VmPoolConfig,
    /// VMs whose slots are usable now.
    pub(crate) running: u32,
    /// VM boots in flight.
    pub(crate) pending: u32,
    /// Pending VM boots cancelled by a later scale-down.
    pub(crate) cancelled: u32,
    /// Container slots currently held (running + booting containers).
    pub(crate) slots_in_use: u32,
    /// Containers waiting for a free slot, FIFO, by service index.
    pub(crate) waiting: std::collections::VecDeque<usize>,
}

impl VmPoolState {
    pub(crate) fn new(config: VmPoolConfig) -> Self {
        VmPoolState {
            config,
            running: config.initial_vms,
            pending: 0,
            cancelled: 0,
            slots_in_use: 0,
            waiting: std::collections::VecDeque::new(),
        }
    }

    /// Usable slots right now.
    pub(crate) fn free_slots(&self) -> u32 {
        (self.running * self.config.slots_per_vm).saturating_sub(self.slots_in_use)
    }

    /// VMs the pool will have once pending boots finish.
    pub(crate) fn provisioned_vms(&self) -> u32 {
        self.running + self.pending - self.cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_degenerate_values() {
        let c = VmPoolConfig::new(0, -5.0, 0);
        assert_eq!(c.slots_per_vm, 1);
        assert_eq!(c.vm_boot_delay, 0.0);
        assert_eq!(c.initial_vms, 1);
        let c = VmPoolConfig::new(8, f64::NAN, 2);
        assert_eq!(c.vm_boot_delay, 120.0);
    }

    #[test]
    fn free_slots_accounting() {
        let mut s = VmPoolState::new(VmPoolConfig::new(4, 60.0, 2));
        assert_eq!(s.free_slots(), 8);
        s.slots_in_use = 5;
        assert_eq!(s.free_slots(), 3);
        s.slots_in_use = 10; // over-committed never underflows
        assert_eq!(s.free_slots(), 0);
    }

    #[test]
    fn provisioned_counts_pending_minus_cancelled() {
        let mut s = VmPoolState::new(VmPoolConfig::new(4, 60.0, 2));
        s.pending = 3;
        s.cancelled = 1;
        assert_eq!(s.provisioned_vms(), 4);
    }
}
