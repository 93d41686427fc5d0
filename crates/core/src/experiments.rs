//! Programmatic drivers for the paper's experiments.
//!
//! The `wcs-bench` binaries print tables; these functions return the
//! underlying data so library users can embed the studies in their own
//! analyses. Each driver corresponds to one table/figure:
//!
//! * [`cpu_study`] — Figure 2(c): the six platforms across the suite,
//! * [`memory_study`] — Figure 4(b): remote-memory slowdowns,
//! * [`run_disk_study`] — Table 3(b) (re-exported from `wcs-flashcache`),
//! * [`unified_study`] — Figure 5: N1/N2 against a chosen baseline.

use std::collections::BTreeMap;

use wcs_memshare::link::RemoteLink;
use wcs_memshare::slowdown::{estimate_slowdown_with, ReplayMemo, SlowdownConfig, SlowdownResult};
use wcs_platforms::PlatformId;
use wcs_workloads::perf::MeasureError;
use wcs_workloads::WorkloadId;

pub use wcs_flashcache::study::{run_disk_study, run_disk_study_with, DiskStudyRow};

use crate::designs::DesignPoint;
use crate::evaluate::{Comparison, Evaluator};

/// Result of the Figure 2(c) study: per-platform comparisons against
/// srvr1.
#[derive(Debug, Clone)]
pub struct CpuStudy {
    /// One comparison per non-baseline platform, in Table 2 order.
    pub comparisons: Vec<Comparison>,
}

impl CpuStudy {
    /// The relative performance of `platform` on `workload`.
    pub fn relative_perf(&self, platform: PlatformId, workload: WorkloadId) -> Option<f64> {
        self.comparisons
            .iter()
            .find(|c| c.design == platform.label())
            .and_then(|c| {
                c.rows
                    .iter()
                    .find(|r| r.workload == workload)
                    .map(|r| r.perf)
            })
    }
}

/// Runs the Figure 2(c) study: every platform vs srvr1 across the suite.
///
/// # Errors
/// Propagates a [`MeasureError`] if any workload is infeasible on any
/// platform (none are, with the catalog platforms).
pub fn cpu_study(eval: &Evaluator) -> Result<CpuStudy, MeasureError> {
    // All six platform evaluations are independent; fan them out in one
    // batch (the baseline rides along as designs[0]).
    let mut designs = vec![DesignPoint::baseline_srvr1()];
    designs.extend(
        [
            PlatformId::Srvr2,
            PlatformId::Desk,
            PlatformId::Mobl,
            PlatformId::Emb1,
            PlatformId::Emb2,
        ]
        .map(DesignPoint::baseline),
    );
    let mut evals = eval.evaluate_many(&designs)?.into_iter();
    let baseline = evals.next().expect("baseline evaluated");
    Ok(CpuStudy {
        comparisons: evals.map(|e| e.compare(&baseline)).collect(),
    })
}

/// Runs the Figure 4(b) study: slowdown of every workload under the
/// given local-memory fraction, for both the whole-page PCIe link and
/// CBF.
pub fn memory_study(local_fraction: f64) -> BTreeMap<WorkloadId, (SlowdownResult, SlowdownResult)> {
    memory_study_with(local_fraction, &ReplayMemo::disabled())
}

/// [`memory_study`] with a shared [`ReplayMemo`]: the PCIe and CBF
/// columns differ only in the link model, which the estimator applies
/// analytically after the replay, so each workload's two-level replay
/// runs once and the second column is answered from the cache.
pub fn memory_study_with(
    local_fraction: f64,
    memo: &ReplayMemo,
) -> BTreeMap<WorkloadId, (SlowdownResult, SlowdownResult)> {
    let mut out = BTreeMap::new();
    for id in WorkloadId::ALL {
        let pcie = estimate_slowdown_with(
            id,
            &SlowdownConfig {
                local_fraction,
                link: RemoteLink::pcie_x4(),
                ..SlowdownConfig::paper_default()
            },
            memo,
        )
        .expect("local fraction in (0, 1]");
        let cbf = estimate_slowdown_with(
            id,
            &SlowdownConfig {
                local_fraction,
                link: RemoteLink::pcie_x4_cbf(),
                ..SlowdownConfig::paper_default()
            },
            memo,
        )
        .expect("local fraction in (0, 1]");
        out.insert(id, (pcie, cbf));
    }
    out
}

/// Runs the Figure 5 study: N1 and N2 against the given baseline
/// platform.
///
/// # Errors
/// Propagates a [`MeasureError`] if any design/workload pair is
/// infeasible.
pub fn unified_study(
    eval: &Evaluator,
    baseline: PlatformId,
) -> Result<(Comparison, Comparison), MeasureError> {
    let designs = [
        DesignPoint::baseline(baseline),
        DesignPoint::n1(),
        DesignPoint::n2(),
    ];
    let [base, n1, n2]: [_; 3] = eval
        .evaluate_many(&designs)?
        .try_into()
        .expect("three designs evaluated");
    Ok((n1.compare(&base), n2.compare(&base)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_study_covers_five_platforms() {
        let eval = Evaluator::quick();
        let study = cpu_study(&eval).unwrap();
        assert_eq!(study.comparisons.len(), 5);
        let r = study
            .relative_perf(PlatformId::Emb1, WorkloadId::Ytube)
            .unwrap();
        assert!(r > 0.8, "ytube barely degrades on emb1 ({r})");
        assert!(study
            .relative_perf(PlatformId::Srvr1, WorkloadId::Ytube)
            .is_none());
    }

    #[test]
    fn memory_study_cbf_always_helps() {
        let m = memory_study(0.25);
        assert_eq!(m.len(), 5);
        for (id, (pcie, cbf)) in &m {
            assert!(
                cbf.slowdown <= pcie.slowdown,
                "{id}: CBF must not make things worse"
            );
        }
    }

    #[test]
    fn unified_study_n2_beats_n1() {
        let eval = Evaluator::quick();
        let (n1, n2) = unified_study(&eval, PlatformId::Srvr1).unwrap();
        assert!(n2.hmean(|r| r.perf_per_tco) > n1.hmean(|r| r.perf_per_tco));
    }
}
