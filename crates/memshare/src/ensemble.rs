//! End-to-end ensemble simulation: several servers sharing one memory
//! blade, with allocation enforcement, per-server two-level caching, and
//! link contention — the pieces of Section 3.4 operating together.

use wcs_simcore::{ConfigError, ThreadPool};
use wcs_workloads::memtrace::{params_for, MemTraceBuf};
use wcs_workloads::WorkloadId;

use crate::contention::SharedLink;
use crate::directory::{BladeDirectory, ServerId};
use crate::link::RemoteLink;
use crate::policy::PolicyKind;
use crate::slowdown::BASELINE_2GIB_PAGES;
use crate::twolevel::TwoLevelSim;

/// Configuration of one server attached to the blade.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Which workload's trace this server replays.
    pub workload: WorkloadId,
    /// Local memory as a fraction of the 2 GiB trace baseline.
    pub local_fraction: f64,
    /// Blade allocation in pages.
    pub blade_pages: u64,
}

impl ServerConfig {
    /// The paper's operating point for a workload: 25% local, the rest
    /// of the 2 GiB baseline on the blade.
    pub fn paper_default(workload: WorkloadId) -> Self {
        ServerConfig {
            workload,
            local_fraction: 0.25,
            blade_pages: (BASELINE_2GIB_PAGES as f64 * 0.75) as u64,
        }
    }
}

/// Per-server outcome of an ensemble run.
#[derive(Debug, Clone, Copy)]
pub struct ServerOutcome {
    /// The server.
    pub server: ServerId,
    /// Its workload.
    pub workload: WorkloadId,
    /// Steady-state miss ratio to the blade.
    pub miss_ratio: f64,
    /// Remote faults per second of CPU work.
    pub faults_per_cpu_sec: f64,
    /// Slowdown including link contention.
    pub slowdown: f64,
    /// Blade pages the server ended up holding.
    pub blade_pages_used: u64,
}

/// Result of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleOutcome {
    /// Per-server outcomes.
    pub servers: Vec<ServerOutcome>,
    /// Utilization of the shared PCIe link.
    pub link_utilization: f64,
    /// Mean queueing delay the link added per fault, seconds.
    pub link_queueing_secs: f64,
}

impl EnsembleOutcome {
    /// The worst per-server slowdown.
    pub fn worst_slowdown(&self) -> f64 {
        self.servers.iter().map(|s| s.slowdown).fold(0.0, f64::max)
    }
}

/// Simulates `configs` servers sharing one blade over `link`.
///
/// Each server replays its workload's synthetic trace through its own
/// two-level hierarchy; its faults map pages through the blade directory
/// (allocation-enforced); the aggregate fault rate loads the shared link
/// whose queueing delay feeds back into every server's slowdown.
///
/// # Errors
/// Rejects an empty `configs` and any server whose `local_fraction` is
/// outside `(0, 1]`.
pub fn run_ensemble(
    configs: &[ServerConfig],
    link: RemoteLink,
    policy: PolicyKind,
    accesses_per_server: u64,
    seed: u64,
) -> Result<EnsembleOutcome, ConfigError> {
    run_ensemble_pooled(
        configs,
        link,
        policy,
        accesses_per_server,
        seed,
        ThreadPool::serial(),
    )
}

/// [`run_ensemble`] with the per-server trace replays fanned out over
/// `pool`.
///
/// Each server's replay is seeded purely from `(seed, server index)`, so
/// the outcome is bit-identical at any thread count — `pool` only decides
/// wall-clock time. The shared blade directory is exercised serially
/// after the replays (its page maps are order-dependent shared state).
///
/// # Errors
/// Same contract as [`run_ensemble`].
pub fn run_ensemble_pooled(
    configs: &[ServerConfig],
    link: RemoteLink,
    policy: PolicyKind,
    accesses_per_server: u64,
    seed: u64,
    pool: ThreadPool,
) -> Result<EnsembleOutcome, ConfigError> {
    if configs.is_empty() {
        return Err(ConfigError::Empty {
            what: "ensemble server configs",
        });
    }
    for c in configs {
        ConfigError::check_f64(
            "local_fraction",
            c.local_fraction,
            "must be in (0, 1]",
            c.local_fraction > 0.0 && c.local_fraction <= 1.0,
        )?;
    }
    let total_blade: u64 = configs.iter().map(|c| c.blade_pages).sum();
    let mut directory = BladeDirectory::new(total_blade);
    for (i, c) in configs.iter().enumerate() {
        directory
            .register(ServerId(i as u32), c.blade_pages)
            .expect("blade sized for all allocations");
    }

    // Phase 1: materialize and replay every server's trace in parallel.
    // Each replay is private state seeded from (seed, i), so the fan-out
    // cannot change any miss ratio.
    let replays = pool.par_map(configs, |i, c| {
        let params = params_for(c.workload);
        let local_pages = ((BASELINE_2GIB_PAGES as f64) * c.local_fraction) as usize;
        // Trace pages lie in [0, footprint), so the store can index them
        // densely — bit-identical to the hashed store, just faster.
        let mut sim = TwoLevelSim::with_page_universe(
            local_pages.max(1),
            policy,
            seed ^ (i as u64) << 8,
            params.footprint_pages,
        );
        let trace = MemTraceBuf::generate(
            params,
            seed ^ 0xD15C ^ i as u64,
            accesses_per_server as usize,
        );

        // Fill, then measure.
        let fill = accesses_per_server / 2;
        let stats = sim.run_steady_buf(&trace, fill, accesses_per_server - fill);
        (stats.miss_ratio(), params.accesses_per_cpu_sec)
    });

    // Map a sample of each server's blade-resident pages through the
    // shared directory — serially, since the directory's map/unmap order
    // is shared state. (Mapping every miss would just thrash map/unmap;
    // the blade holds the page *set*, which is bounded by the
    // allocation.)
    let mut outcomes = Vec::with_capacity(configs.len());
    let mut fault_rates = Vec::with_capacity(configs.len());
    for (i, c) in configs.iter().enumerate() {
        let server = ServerId(i as u32);
        let (miss_ratio, accesses_per_cpu_sec) = replays[i];
        let sample = c.blade_pages.min(10_000);
        for v in 0..sample {
            directory
                .map_page(server, v)
                .expect("within the registered allocation");
        }
        let faults_per_cpu_sec = accesses_per_cpu_sec * miss_ratio;
        fault_rates.push(faults_per_cpu_sec);
        outcomes.push(ServerOutcome {
            server,
            workload: c.workload,
            miss_ratio,
            faults_per_cpu_sec,
            slowdown: 0.0, // filled below with contention
            blade_pages_used: directory.used_pages(server),
        });
    }

    // Phase 2: link contention from the aggregate fault rate.
    let mean_rate = fault_rates.iter().sum::<f64>() / fault_rates.len() as f64;
    let shared = SharedLink::new(link, configs.len() as u32);
    let effective = shared.effective_link(mean_rate);
    let utilization = shared.utilization(mean_rate);
    let queueing = shared.queueing_delay_secs(mean_rate);
    for o in &mut outcomes {
        o.slowdown = o.faults_per_cpu_sec * effective.fault_latency_secs();
    }

    Ok(EnsembleOutcome {
        servers: outcomes,
        link_utilization: utilization,
        link_queueing_secs: queueing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn homogeneous(n: usize, wl: WorkloadId) -> Vec<ServerConfig> {
        vec![ServerConfig::paper_default(wl); n]
    }

    #[test]
    fn small_ensemble_matches_isolated_slowdowns() {
        // With 4 servers the link is lightly loaded; per-server slowdown
        // should be close to the isolated Figure 4(b) estimate.
        let out = run_ensemble(
            &homogeneous(4, WorkloadId::Websearch),
            RemoteLink::pcie_x4(),
            PolicyKind::Random,
            1_500_000,
            7,
        )
        .unwrap();
        assert!(out.link_utilization < 0.5, "util {}", out.link_utilization);
        for s in &out.servers {
            assert!(
                (0.03..0.08).contains(&s.slowdown),
                "{}: slowdown {}",
                s.workload,
                s.slowdown
            );
        }
    }

    #[test]
    fn larger_ensembles_pay_contention() {
        let small = run_ensemble(
            &homogeneous(2, WorkloadId::Websearch),
            RemoteLink::pcie_x4(),
            PolicyKind::Random,
            800_000,
            3,
        )
        .unwrap();
        let big = run_ensemble(
            &homogeneous(12, WorkloadId::Websearch),
            RemoteLink::pcie_x4(),
            PolicyKind::Random,
            800_000,
            3,
        )
        .unwrap();
        assert!(big.link_utilization > small.link_utilization);
        assert!(big.worst_slowdown() >= small.worst_slowdown());
    }

    #[test]
    fn mixed_ensemble_isolates_light_workloads() {
        // webmail's tiny fault rate must stay nearly unaffected even
        // sharing a blade with websearch.
        let configs = vec![
            ServerConfig::paper_default(WorkloadId::Websearch),
            ServerConfig::paper_default(WorkloadId::Webmail),
            ServerConfig::paper_default(WorkloadId::Ytube),
            ServerConfig::paper_default(WorkloadId::MapredWc),
        ];
        let out = run_ensemble(
            &configs,
            RemoteLink::pcie_x4(),
            PolicyKind::Random,
            1_000_000,
            11,
        )
        .unwrap();
        let webmail = out
            .servers
            .iter()
            .find(|s| s.workload == WorkloadId::Webmail)
            .unwrap();
        assert!(
            webmail.slowdown < 0.01,
            "webmail slowdown {}",
            webmail.slowdown
        );
        // Every server stayed within its allocation.
        for s in &out.servers {
            assert!(s.blade_pages_used <= configs[0].blade_pages);
        }
    }

    #[test]
    fn cbf_helps_ensembles_too() {
        let pcie = run_ensemble(
            &homogeneous(6, WorkloadId::Websearch),
            RemoteLink::pcie_x4(),
            PolicyKind::Random,
            600_000,
            5,
        )
        .unwrap();
        let cbf = run_ensemble(
            &homogeneous(6, WorkloadId::Websearch),
            RemoteLink::pcie_x4_cbf(),
            PolicyKind::Random,
            600_000,
            5,
        )
        .unwrap();
        assert!(cbf.worst_slowdown() < pcie.worst_slowdown());
        // But the link occupancy is the same — CBF does not shrink page
        // transfers.
        assert!((cbf.link_utilization - pcie.link_utilization).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_ensemble() {
        assert!(run_ensemble(&[], RemoteLink::pcie_x4(), PolicyKind::Random, 10, 1).is_err());
    }

    #[test]
    fn pooled_run_is_bit_identical_to_serial() {
        let mut configs = homogeneous(6, WorkloadId::Websearch);
        configs.push(ServerConfig::paper_default(WorkloadId::Webmail));
        let serial =
            run_ensemble(&configs, RemoteLink::pcie_x4(), PolicyKind::Lru, 200_000, 9).unwrap();
        for threads in [2, 8] {
            let pooled = run_ensemble_pooled(
                &configs,
                RemoteLink::pcie_x4(),
                PolicyKind::Lru,
                200_000,
                9,
                ThreadPool::new(threads).unwrap(),
            )
            .unwrap();
            assert_eq!(
                format!("{serial:?}"),
                format!("{pooled:?}"),
                "{threads} threads drifted from serial"
            );
        }
    }
}
