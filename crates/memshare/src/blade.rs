//! Memory-blade cost and power model.

use wcs_platforms::MemoryTech;

/// Cost/power constants for the shared memory blade (Section 3.4's cost
/// evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BladeModel {
    /// Remote DRAM price relative to the server's local devices: the
    /// blade uses slower devices at the commodity sweet spot, "24%
    /// cheaper" \[DRAMeXchange\].
    pub remote_price_factor: f64,
    /// Per-server share of the blade's PCIe controller cost (x4 lane),
    /// dollars.
    pub controller_cost_usd: f64,
    /// Per-server share of the controller power, watts.
    pub controller_power_w: f64,
    /// Fraction of active power the blade DRAM draws in active
    /// power-down mode (kept there except during page transfers).
    pub powerdown_fraction: f64,
}

impl BladeModel {
    /// The paper's constants: 24% cheaper devices, $10 and 1.45 W per
    /// server for the controller share, DDR2 active power-down (>90%
    /// power reduction).
    pub fn paper_default() -> Self {
        BladeModel {
            remote_price_factor: 0.76,
            controller_cost_usd: 10.0,
            controller_power_w: 1.45,
            powerdown_fraction: MemoryTech::Ddr2.powerdown_fraction(),
        }
    }

    /// Cost of providing `fraction_of_baseline` of a server's memory
    /// remotely, given the server's baseline (all-local) memory cost.
    ///
    /// # Panics
    /// Panics if either argument is negative or non-finite.
    pub fn remote_memory_cost_usd(&self, baseline_mem_cost: f64, fraction_of_baseline: f64) -> f64 {
        assert!(baseline_mem_cost.is_finite() && baseline_mem_cost >= 0.0);
        assert!(fraction_of_baseline.is_finite() && fraction_of_baseline >= 0.0);
        baseline_mem_cost * fraction_of_baseline * self.remote_price_factor
    }

    /// Power of that remote fraction (in power-down almost all the time).
    pub fn remote_memory_power_w(&self, baseline_mem_power: f64, fraction_of_baseline: f64) -> f64 {
        assert!(baseline_mem_power.is_finite() && baseline_mem_power >= 0.0);
        assert!(fraction_of_baseline.is_finite() && fraction_of_baseline >= 0.0);
        baseline_mem_power * fraction_of_baseline * self.powerdown_fraction
    }
}

impl Default for BladeModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let b = BladeModel::paper_default();
        assert_eq!(b.controller_cost_usd, 10.0);
        assert!((b.controller_power_w - 1.45).abs() < 1e-12);
        assert!((b.remote_price_factor - 0.76).abs() < 1e-12);
        assert!(b.powerdown_fraction < 0.10, "paper: >90% power reduction");
    }

    #[test]
    fn remote_costs_scale() {
        let b = BladeModel::paper_default();
        // 75% of a $130 memory config on the blade: 130*0.75*0.76.
        let c = b.remote_memory_cost_usd(130.0, 0.75);
        assert!((c - 74.1).abs() < 1e-9);
        let p = b.remote_memory_power_w(12.0, 0.75);
        assert!(p < 1.0, "power-down keeps blade DRAM under 1 W ({p})");
    }

    #[test]
    #[should_panic]
    fn rejects_negative_cost() {
        BladeModel::paper_default().remote_memory_cost_usd(-1.0, 0.5);
    }
}
