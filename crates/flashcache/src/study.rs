//! The Table 3(b) experiment: disk alternatives on the `emb1` platform.

use wcs_platforms::storage::{DiskModel, FlashModel};
use wcs_platforms::{catalog, BomItem, Component, Platform, PlatformId};
use wcs_simcore::stats::harmonic_mean;
use wcs_tco::{Efficiency, TcoModel};
use wcs_workloads::disktrace::params_for;
use wcs_workloads::perf::{measure_perf_with_demand, MeasureConfig};
use wcs_workloads::service::PlatformDemand;
use wcs_workloads::{suite, Metric, WorkloadId};

use crate::memo::StorageMemo;

/// A storage configuration under study (Table 3's columns).
#[derive(Debug, Clone)]
pub struct StorageScenario {
    /// Row label as in Table 3(b).
    pub name: &'static str,
    /// The disk model.
    pub disk: DiskModel,
    /// Flash cache, if present.
    pub flash: Option<FlashModel>,
}

impl StorageScenario {
    /// The baseline: local desktop-class disk.
    pub fn desktop_local() -> Self {
        StorageScenario {
            name: "Local Desktop (baseline)",
            disk: DiskModel::desktop(),
            flash: None,
        }
    }

    /// Remote laptop disk over the SAN.
    pub fn laptop_remote() -> Self {
        StorageScenario {
            name: "Remote Laptop",
            disk: DiskModel::laptop_remote(),
            flash: None,
        }
    }

    /// Remote laptop disk plus the 1 GB flash cache.
    pub fn laptop_flash() -> Self {
        StorageScenario {
            name: "Remote Laptop + Flash",
            disk: DiskModel::laptop_remote(),
            flash: Some(FlashModel::table3()),
        }
    }

    /// The cheaper laptop-2 disk plus flash.
    pub fn laptop2_flash() -> Self {
        StorageScenario {
            name: "Remote Laptop-2 + Flash",
            disk: DiskModel::laptop2_remote(),
            flash: Some(FlashModel::table3()),
        }
    }

    /// All four scenarios, baseline first.
    pub fn all() -> Vec<StorageScenario> {
        vec![
            Self::desktop_local(),
            Self::laptop_remote(),
            Self::laptop_flash(),
            Self::laptop2_flash(),
        ]
    }

    /// Applies this scenario's storage BOM to a platform.
    pub fn apply_bom(&self, platform: &Platform) -> Platform {
        let mut p = platform.with_component(BomItem::new(
            Component::Disk,
            self.disk.price_usd,
            self.disk.power_w,
        ));
        if let Some(flash) = &self.flash {
            p = p.with_component(BomItem::new(
                Component::Flash,
                flash.price_usd,
                flash.power_w,
            ));
        }
        p.name = format!("{}+{}", platform.name, self.name);
        p
    }
}

/// One row of Table 3(b): a scenario's efficiency relative to the
/// desktop baseline, harmonically aggregated across the suite.
#[derive(Debug, Clone)]
pub struct DiskStudyRow {
    /// Scenario label.
    pub name: &'static str,
    /// Relative performance (HMean across workloads).
    pub perf: f64,
    /// Relative Perf/Inf-$.
    pub perf_per_inf: f64,
    /// Relative Perf/W.
    pub perf_per_watt: f64,
    /// Relative Perf/TCO-$.
    pub perf_per_tco: f64,
}

/// Measures the performance of every workload on `platform` under a disk
/// scenario: replays the workload's block trace to get the effective
/// per-IO service time, then runs the performance simulation with the
/// substituted disk stage.
pub fn scenario_perf(
    scenario: &StorageScenario,
    platform: &Platform,
    cfg: &MeasureConfig,
) -> Vec<(WorkloadId, f64)> {
    scenario_perf_with(scenario, platform, cfg, &StorageMemo::disabled())
}

/// [`scenario_perf`] with a shared [`StorageMemo`]: block traces are
/// materialized once per workload and replays / performance points are
/// cached across scenarios and repeated studies.
pub fn scenario_perf_with(
    scenario: &StorageScenario,
    platform: &Platform,
    cfg: &MeasureConfig,
    memo: &StorageMemo,
) -> Vec<(WorkloadId, f64)> {
    let mut out = Vec::new();
    for id in WorkloadId::ALL {
        let wl = suite::workload(id);
        let stats = memo.replay(
            &scenario.disk,
            scenario.flash.as_ref(),
            params_for(id),
            cfg.seed ^ 0xD15C,
            120_000,
        );
        let mut demand = PlatformDemand::with_overrides(
            &wl,
            platform,
            &scenario.disk,
            platform.memory.capacity_gib,
        );
        demand.set_disk_secs(wl.demand.io_per_req * stats.mean_service_secs());
        let perf = memo.perf(id, &demand, cfg, || {
            measure_perf_with_demand(&wl, &demand, cfg)
                .map(|r| r.value)
                .unwrap_or(f64::NAN)
        });
        out.push((id, perf));
    }
    out
}

/// Runs the full Table 3(b) study on `emb1` and returns the three
/// non-baseline rows (plus the baseline row at 100%).
pub fn run_disk_study(cfg: &MeasureConfig) -> Vec<DiskStudyRow> {
    run_disk_study_with(cfg, &StorageMemo::disabled())
}

/// [`run_disk_study`] with a shared [`StorageMemo`].
pub fn run_disk_study_with(cfg: &MeasureConfig, memo: &StorageMemo) -> Vec<DiskStudyRow> {
    let platform = catalog::platform(PlatformId::Emb1);
    let model = TcoModel::paper_default();
    let scenarios = StorageScenario::all();

    let baseline = &scenarios[0];
    let base_perf = scenario_perf_with(baseline, &platform, cfg, memo);
    let base_bom = baseline.apply_bom(&platform);
    let base_tco = model.server_tco(&base_bom);

    let mut rows = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        // The baseline's per-workload numbers are already in hand; don't
        // measure them twice.
        let perfs = if i == 0 {
            base_perf.clone()
        } else {
            scenario_perf_with(scenario, &platform, cfg, memo)
        };
        let rel: Vec<f64> = perfs
            .iter()
            .zip(&base_perf)
            .map(|((_, p), (_, b))| p / b)
            .collect();
        let perf_h = harmonic_mean(&rel).unwrap_or(f64::NAN);
        let tco = model.server_tco(&scenario.apply_bom(&platform));
        // Efficiency ratios: relative perf times the cost/power ratios.
        let base_eff = Efficiency::new(1.0, base_tco.clone());
        let eff = Efficiency::new(perf_h, tco);
        let r = eff.relative_to(&base_eff);
        rows.push(DiskStudyRow {
            name: scenario.name,
            perf: perf_h,
            perf_per_inf: r.perf_per_inf,
            perf_per_watt: r.perf_per_watt,
            perf_per_tco: r.perf_per_tco,
        });
    }
    rows
}

/// Sanity helper for batch workloads: true when the workload is one of
/// the mapreduce jobs.
pub fn is_batch(id: WorkloadId) -> bool {
    matches!(suite::workload(id).metric, Metric::Batch { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_cover_table3a() {
        let all = StorageScenario::all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].disk.price_usd, 80.0);
        assert_eq!(all[3].disk.price_usd, 40.0);
        assert!(all[2].flash.as_ref().unwrap().price_usd == 14.0);
    }

    #[test]
    fn bom_swap_changes_cost_and_power() {
        let p = catalog::platform(PlatformId::Emb1);
        let swapped = StorageScenario::laptop_flash().apply_bom(&p);
        assert_eq!(swapped.component_cost(Component::Disk), 80.0);
        assert_eq!(swapped.component_cost(Component::Flash), 14.0);
        assert!((swapped.max_power_w() - (52.0 - 10.0 + 2.0 + 0.5)).abs() < 1e-9);
    }

    /// Table 3(b)'s qualitative shape: the remote laptop disk alone is
    /// not beneficial on Perf/TCO-$; adding flash makes it beneficial;
    /// the cheaper laptop-2 is best.
    #[test]
    fn table3b_ordering() {
        let rows = run_disk_study(&MeasureConfig::quick());
        assert_eq!(rows.len(), 4);
        let laptop = &rows[1];
        let flash = &rows[2];
        let flash2 = &rows[3];
        assert!(
            laptop.perf_per_tco < flash.perf_per_tco,
            "flash must beat bare laptop: {} vs {}",
            laptop.perf_per_tco,
            flash.perf_per_tco
        );
        assert!(
            flash.perf_per_tco <= flash2.perf_per_tco + 1e-9,
            "laptop-2 must be best: {} vs {}",
            flash.perf_per_tco,
            flash2.perf_per_tco
        );
        assert!(flash2.perf_per_tco > 1.0, "laptop-2+flash beats baseline");
        // Flash recovers performance lost to the slow remote disk.
        assert!(flash.perf > laptop.perf);
        // Perf/W improves in all flash scenarios (paper: 109%).
        assert!(flash.perf_per_watt > 1.0);
    }

    /// Memoized and unmemoized studies must render byte-identically, and
    /// a warm rerun must be answered from the cache.
    #[test]
    fn memoized_study_is_bit_identical() {
        let cfg = MeasureConfig::quick();
        let cold = run_disk_study(&cfg);
        let memo = StorageMemo::new();
        let first = run_disk_study_with(&cfg, &memo);
        assert_eq!(format!("{cold:?}"), format!("{first:?}"));
        let warm = run_disk_study_with(&cfg, &memo);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        let stats = memo.stats();
        assert!(
            stats.hits > stats.misses,
            "warm rerun should hit: {stats:?}"
        );
    }
}
