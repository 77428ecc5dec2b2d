//! Nested auto-scaling end-to-end (paper §VI future work): containers boot
//! into a shared VM pool. Without VM-pool planning, every container
//! scale-up beyond the free slots silently inherits the VM boot delay —
//! with a headroom-keeping planner, the container layer stays fast.
//!
//! Run with: `cargo run --release --example nested_scaling`

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "example code: panics and lossy casts are acceptable here"
)]
use chamulteon_repro::core::{Chamulteon, ChamulteonConfig, NestedPlanner};
use chamulteon_repro::demand::MonitoringSample;
use chamulteon_repro::perfmodel::ApplicationModel;
use chamulteon_repro::sim::{
    DeploymentProfile, Simulation, SimulationConfig, SloPolicy, VmPoolConfig,
};
use chamulteon_repro::workload::LoadTrace;

const SLOTS_PER_VM: u32 = 8;

fn drive(planner: Option<NestedPlanner>, label: &str) {
    let model = ApplicationModel::paper_benchmark();
    // Ramp 30 -> 250 req/s between minutes 10 and 20, hold, ramp down:
    // the container layer needs ~6 extra slots every interval during the
    // ramp — exactly what slot headroom is for.
    let rates: Vec<f64> = (0..30)
        .map(|k| match k {
            0..=9 => 30.0,
            10..=19 => 30.0 + 220.0 * ((k - 9) as f64 / 10.0),
            _ => 250.0,
        })
        .collect();
    let trace = LoadTrace::new(60.0, rates).expect("valid trace");
    let pool = VmPoolConfig::new(SLOTS_PER_VM, 300.0, 2); // VM boot: 5 min
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 55)
        .with_vm_pool(pool);
    let mut sim = Simulation::new(&model, &trace, config);
    for s in 0..3 {
        sim.set_supply(s, 2).expect("valid service");
    }
    // Start with enough VMs for the initial placement.
    sim.scale_vms(1).ok();

    let mut scaler = Chamulteon::new(model.clone(), ChamulteonConfig::reactive_only());
    let intervals = (trace.duration() / 60.0) as usize;
    let mut max_waiting = 0usize;
    for k in 1..=intervals {
        let t = k as f64 * 60.0;
        sim.run_until(t).expect("time is monotonic");
        let stats = sim.interval(k - 1).expect("interval done");
        let samples: Vec<MonitoringSample> = stats
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let provisioned = sim.provisioned(s).max(1);
                // Rescale utilization so the busy time U*n*T stays the
                // measured one even while instances are still booting.
                let util = (st.utilization * f64::from(st.instances_end.max(1))
                    / f64::from(provisioned))
                .clamp(0.0, 1.0);
                MonitoringSample::new(
                    st.duration,
                    st.arrivals,
                    util,
                    provisioned,
                    st.mean_response_time,
                )
                .expect("valid sample")
                .with_completions(st.completions)
            })
            .collect();
        let targets = scaler.tick(t, &samples);
        // VM layer first (when a planner exists), then containers.
        if let Some(planner) = &planner {
            let vm_target = planner.plan(&targets, None);
            sim.scale_vms(vm_target).expect("pool exists");
        }
        for (s, &target) in targets.iter().enumerate() {
            sim.scale_to(s, target).expect("valid service");
        }
        max_waiting = max_waiting.max(sim.waiting_containers().unwrap_or(0));
    }
    let result = sim.finish();
    println!(
        "{label:<42} SLO {:>5.1}%  Apdex {:>5.1}%  max stalled boots {:>3}",
        result.slo_violation_percent(),
        result.apdex_percent(),
        max_waiting
    );
}

fn main() {
    println!("Nested deployment: containers in VMs ({SLOTS_PER_VM} slots/VM, 5 min VM boot).");
    println!("Ramp 30 -> 250 req/s between minutes 10 and 20.\n");

    drive(None, "no VM planning (pool stays at 2 VMs)");
    drive(
        Some(NestedPlanner::new(SLOTS_PER_VM, SLOTS_PER_VM)),
        "planner, one spare VM of headroom",
    );
    drive(
        Some(NestedPlanner::new(SLOTS_PER_VM, 3 * SLOTS_PER_VM)),
        "planner, three spare VMs of headroom",
    );

    println!();
    println!("Without planning the ramp fills the pool and every further container boot");
    println!("stalls behind the 5-minute VM boot. The planner grows the pool with the");
    println!("demand; headroom absorbs each interval's growth while the next VM boots —");
    println!("more headroom, fewer stalls, at the cost of idle slots.");
}
