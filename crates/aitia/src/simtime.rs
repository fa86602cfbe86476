//! Deterministic cost model for reproducing the paper's timing columns.
//!
//! The paper measures wall-clock seconds on a 48-core Xeon running 32
//! AITIA-hypervisor VMs (§5). The simulator executes the same *work* —
//! schedules, steps, VM reboots — orders of magnitude faster, so the timing
//! columns of Tables 2 and 3 are regenerated through a cost model instead:
//! every enforced schedule pays a fixed setup cost (guest boot-strapping,
//! breakpoint installation, memory revert), every executed instruction pays
//! a small step cost, and every *failing* run pays a VM reboot. The reboot
//! term is what makes Causality Analysis dominate diagnosis time in the
//! paper ("most of interleavings executed by Causality Analysis cause a
//! failure. When a failure occurs, AITIA has to reboot the virtual
//! machine."), and the model preserves exactly that shape.
//!
//! Wall-clock time of the Rust run is reported separately; the model is
//! calibrated against Table 2 (e.g. CVE-2019-11486: 225 LIFS schedules in
//! 44.7 s; 130 mostly-failing Causality Analysis schedules in 497.6 s).

use serde::{
    Deserialize,
    Serialize, //
};

/// Cost parameters of the simulated AITIA deployment.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds to set up and enforce one schedule (VM revert, breakpoint
    /// installation, user-agent round trips).
    pub per_schedule_s: f64,
    /// Seconds per executed kernel instruction under the hypervisor's
    /// single-stepping regime.
    pub per_step_s: f64,
    /// Seconds to reboot a VM after a failing run.
    pub reboot_s: f64,
    /// Effective parallel VMs working on one bug (the deployment launches
    /// 32 VMs shared across reproducers and diagnosers).
    pub vms: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_schedule_s: 1.5,
            per_step_s: 0.000_2,
            reboot_s: 30.0,
            vms: 8,
        }
    }
}

/// Accumulated simulated cost of a stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimCost {
    /// Schedules enforced.
    pub schedules: usize,
    /// Schedules that ended in a failure (each costs a reboot).
    pub failing_runs: usize,
    /// Total engine steps executed.
    pub steps: usize,
}

impl CostModel {
    /// Serial simulated seconds one execution of `steps` steps would cost
    /// under this model (setup, stepping, and — for a failing run — the VM
    /// reboot). This is what a memo hit *saves*: the cached output is
    /// returned instead of paying any of these terms.
    #[must_use]
    pub fn serial_run_s(&self, steps: usize, failed: bool) -> f64 {
        self.per_schedule_s
            + steps as f64 * self.per_step_s
            + if failed { self.reboot_s } else { 0.0 }
    }
}

impl SimCost {
    /// Adds one run's contribution.
    pub fn add_run(&mut self, steps: usize, failed: bool) {
        self.schedules += 1;
        self.steps += steps;
        if failed {
            self.failing_runs += 1;
        }
    }

    /// Merges another stage's cost.
    pub fn merge(&mut self, other: &SimCost) {
        self.schedules += other.schedules;
        self.failing_runs += other.failing_runs;
        self.steps += other.steps;
    }

    /// Simulated elapsed seconds under `model`, assuming ideal parallelism
    /// over the model's VM count.
    #[must_use]
    pub fn seconds(&self, model: &CostModel) -> f64 {
        let serial = self.schedules as f64 * model.per_schedule_s
            + self.steps as f64 * model.per_step_s
            + self.failing_runs as f64 * model.reboot_s;
        serial / f64::from(model.vms.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_runs_dominate_cost() {
        let m = CostModel::default();
        let mut lifs = SimCost::default();
        // LIFS: many schedules, one failure at the end.
        for i in 0..225 {
            lifs.add_run(300, i == 224);
        }
        let mut ca = SimCost::default();
        // Causality Analysis: fewer schedules, mostly failing.
        for i in 0..130 {
            ca.add_run(300, i % 10 != 0);
        }
        let (t_lifs, t_ca) = (lifs.seconds(&m), ca.seconds(&m));
        assert!(t_ca > t_lifs, "CA {t_ca} must exceed LIFS {t_lifs}");
        // Calibration sanity vs Table 2 row 1 (44.7 s / 497.6 s): within 2x.
        assert!((20.0..90.0).contains(&t_lifs), "LIFS {t_lifs}");
        assert!((220.0..1000.0).contains(&t_ca), "CA {t_ca}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimCost::default();
        a.add_run(10, true);
        let mut b = SimCost::default();
        b.add_run(5, false);
        a.merge(&b);
        assert_eq!(a.schedules, 2);
        assert_eq!(a.failing_runs, 1);
        assert_eq!(a.steps, 15);
    }

    #[test]
    fn serial_run_cost_matches_the_seconds_terms() {
        let m = CostModel {
            vms: 1,
            ..CostModel::default()
        };
        let mut c = SimCost::default();
        c.add_run(300, true);
        assert!((m.serial_run_s(300, true) - c.seconds(&m)).abs() < 1e-9);
        // A passing run saves the reboot term.
        assert!((m.serial_run_s(300, true) - m.serial_run_s(300, false) - m.reboot_s).abs() < 1e-9);
    }

    #[test]
    fn zero_vms_does_not_divide_by_zero() {
        let m = CostModel {
            vms: 0,
            ..CostModel::default()
        };
        let mut c = SimCost::default();
        c.add_run(1, false);
        assert!(c.seconds(&m).is_finite());
    }
}
