//! Scaling a workload's demand model onto a concrete platform.

use wcs_platforms::storage::DiskModel;
use wcs_platforms::Platform;
use wcs_simcore::dist::{Distribution, LogNormal};
use wcs_simcore::{SimDuration, SimRng};
use wcs_simserver::{RequestSource, Resource, ServerSpec, Stage};

use crate::spec::Workload;

/// A workload's demand model scaled to one platform: the mean service
/// time each request needs at each station, plus hooks for the memory-
/// blade and flash-cache studies to perturb them.
///
/// # Example
/// ```
/// use wcs_platforms::{catalog, PlatformId};
/// use wcs_workloads::{suite, WorkloadId, service::PlatformDemand};
/// let wl = suite::workload(WorkloadId::Websearch);
/// let d = PlatformDemand::new(&wl, &catalog::platform(PlatformId::Srvr1));
/// assert!(d.cpu_secs() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformDemand {
    cores: u32,
    cpu_secs: f64,
    mem_secs: f64,
    disk_secs: f64,
    net_secs: f64,
    cv: f64,
}

// Implemented here because the fields are private: every one of them
// feeds the service-time model, so every one of them is in the key.
impl wcs_simcore::memo::MemoHash for PlatformDemand {
    fn memo_hash(&self, key: &mut wcs_simcore::memo::MemoKey) {
        *key = key
            .push_u32(self.cores)
            .push_f64(self.cpu_secs)
            .push_f64(self.mem_secs)
            .push_f64(self.disk_secs)
            .push_f64(self.net_secs)
            .push_f64(self.cv);
    }
}

impl PlatformDemand {
    /// Scales `workload` onto `platform` using the platform's own disk
    /// and memory capacity.
    pub fn new(workload: &Workload, platform: &Platform) -> Self {
        Self::with_overrides(
            workload,
            platform,
            &platform.disk,
            platform.memory.capacity_gib,
        )
    }

    /// Scales `workload` onto `platform` with a substituted disk model
    /// and/or effective memory capacity (used by the flash-cache and
    /// memory-blade studies).
    ///
    /// # Panics
    /// Panics unless `mem_gib` is positive and finite.
    pub fn with_overrides(
        workload: &Workload,
        platform: &Platform,
        disk: &DiskModel,
        mem_gib: f64,
    ) -> Self {
        assert!(
            mem_gib.is_finite() && mem_gib > 0.0,
            "memory must be positive"
        );
        workload.demand.validate();
        let d = &workload.demand;
        let cpu = &platform.cpu;

        let cores = cpu.total_cores();
        // Cache inflation: CPU work grows when the per-request working
        // set exceeds the last-level cache.
        let l2_mib = cpu.l2_mib();
        let cache_factor = if d.cache_ws_mib > l2_mib {
            1.0 + d.cache_sensitivity * (d.cache_ws_mib / l2_mib).log2()
        } else {
            1.0
        };
        // Software-scalability inflation (the paper's Amdahl caveat).
        let scaling = 1.0 + d.sigma * (cores as f64 - 1.0);
        let cpu_secs = d.cpu_ghz_s * cache_factor * scaling / cpu.core_capability();

        let mem_secs = d.mem_gib_s / mem_gib;
        let disk_secs = d.io_per_req * disk.access_secs(d.io_bytes);
        let net_secs = if d.net_bytes > 0.0 {
            platform.nic.transfer_secs(d.net_bytes)
        } else {
            0.0
        };
        PlatformDemand {
            cores,
            cpu_secs,
            mem_secs,
            disk_secs,
            net_secs,
            cv: d.cv,
        }
    }

    /// Mean CPU service per request, seconds.
    pub fn cpu_secs(&self) -> f64 {
        self.cpu_secs
    }

    /// Mean memory-admission service per request, seconds.
    pub fn mem_secs(&self) -> f64 {
        self.mem_secs
    }

    /// Mean disk service per request, seconds.
    pub fn disk_secs(&self) -> f64 {
        self.disk_secs
    }

    /// Mean network service per request, seconds.
    pub fn net_secs(&self) -> f64 {
        self.net_secs
    }

    /// Multiplies CPU service by `factor` (memory-blade remote-miss
    /// slowdown).
    ///
    /// # Panics
    /// Panics unless `factor >= 1` and finite.
    pub fn inflate_cpu(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 1.0, "slowdown factor >= 1");
        self.cpu_secs *= factor;
    }

    /// Replaces the mean disk service per request (flash-cache study:
    /// the cache simulator computes the effective per-request time).
    ///
    /// # Panics
    /// Panics if `secs` is negative or non-finite.
    pub fn set_disk_secs(&mut self, secs: f64) {
        assert!(secs.is_finite() && secs >= 0.0, "disk service >= 0");
        self.disk_secs = secs;
    }

    /// Sum of mean service times: the single-client latency floor.
    pub fn single_client_latency_secs(&self) -> f64 {
        self.cpu_secs + self.mem_secs + self.disk_secs + self.net_secs
    }

    /// The [`ServerSpec`] for the platform this demand was scaled to.
    pub fn server_spec(&self) -> ServerSpec {
        ServerSpec::new(self.cores)
    }

    /// Builds a stochastic request source sampling around the mean
    /// services with the workload's coefficient of variation.
    ///
    /// Stage order is memory admission, CPU, disk, network; stages with
    /// (near-)zero mean demand are omitted.
    pub fn source(&self, seed_stream: u64) -> DemandSource {
        DemandSource::new(self.clone(), seed_stream)
    }

    /// Builds the `n` deterministic task stage-lists of a batch job (all
    /// tasks identical at the mean demands; variability averages out over
    /// hundreds of tasks).
    pub fn tasks(&self, n: u32) -> Vec<Vec<Stage>> {
        (0..n).map(|_| self.mean_stages()).collect()
    }

    fn mean_stages(&self) -> Vec<Stage> {
        let mut stages = Vec::with_capacity(4);
        for (resource, secs) in [
            (Resource::Memory, self.mem_secs),
            (Resource::Cpu, self.cpu_secs),
            (Resource::Disk, self.disk_secs),
            (Resource::Net, self.net_secs),
        ] {
            if secs > 1e-12 {
                stages.push(Stage::new(resource, SimDuration::from_secs_f64(secs)));
            }
        }
        stages
    }
}

/// A [`RequestSource`] sampling log-normally around a [`PlatformDemand`]'s
/// mean services.
#[derive(Debug)]
pub struct DemandSource {
    demand: PlatformDemand,
    jitter: Option<LogNormal>,
    _seed_stream: u64,
}

impl DemandSource {
    fn new(demand: PlatformDemand, seed_stream: u64) -> Self {
        let jitter = if demand.cv > 0.0 {
            Some(LogNormal::from_mean_cv(1.0, demand.cv).expect("valid cv"))
        } else {
            None
        };
        DemandSource {
            demand,
            jitter,
            _seed_stream: seed_stream,
        }
    }

    fn scale(&self, rng: &mut SimRng) -> f64 {
        match &self.jitter {
            Some(j) => j.sample(rng),
            None => 1.0,
        }
    }
}

impl RequestSource for DemandSource {
    fn next_request(&mut self, rng: &mut SimRng, stages: &mut Vec<Stage>) {
        // One size factor per request: a big request is big at every
        // station (a large mail has more bytes to read, hash, and send).
        let f = self.scale(rng);
        let d = &self.demand;
        for (resource, secs) in [
            (Resource::Memory, d.mem_secs),
            (Resource::Cpu, d.cpu_secs),
            (Resource::Disk, d.disk_secs),
            (Resource::Net, d.net_secs),
        ] {
            let scaled = secs * f;
            if scaled > 1e-12 {
                stages.push(Stage::new(resource, SimDuration::from_secs_f64(scaled)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use crate::WorkloadId;
    use wcs_platforms::{catalog, PlatformId};

    fn demand(w: WorkloadId, p: PlatformId) -> PlatformDemand {
        PlatformDemand::new(&suite::workload(w), &catalog::platform(p))
    }

    #[test]
    fn faster_cores_mean_less_cpu_time() {
        let fast = demand(WorkloadId::Websearch, PlatformId::Srvr2);
        let slow = demand(WorkloadId::Websearch, PlatformId::Emb1);
        assert!(fast.cpu_secs() < slow.cpu_secs());
    }

    #[test]
    fn in_order_core_pays_ipc_penalty() {
        // emb2 at 0.6 GHz in-order should be much slower per request than
        // emb1 at 1.2 GHz OoO — more than the 2x frequency alone.
        let e1 = demand(WorkloadId::Webmail, PlatformId::Emb1);
        let e2 = demand(WorkloadId::Webmail, PlatformId::Emb2);
        assert!(e2.cpu_secs() > 3.0 * e1.cpu_secs());
    }

    #[test]
    fn cache_inflation_kicks_in_below_working_set() {
        // webmail's working set (~22 MiB) exceeds every L2, so smaller
        // caches inflate CPU time beyond pure frequency scaling.
        let desk = demand(WorkloadId::Webmail, PlatformId::Desk); // 2 MiB L2
        let srvr2 = demand(WorkloadId::Webmail, PlatformId::Srvr2); // 8 MiB L2
        let freq_ratio = 2.6 / 2.2;
        assert!(desk.cpu_secs() > srvr2.cpu_secs() * freq_ratio * 1.01);
    }

    #[test]
    fn sigma_penalizes_many_cores() {
        // mapred-wr has strong sigma; srvr1's 8 cores pay more per task
        // than srvr2's 4 at the same frequency.
        let s1 = demand(WorkloadId::MapredWr, PlatformId::Srvr1);
        let s2 = demand(WorkloadId::MapredWr, PlatformId::Srvr2);
        assert!(s1.cpu_secs() > s2.cpu_secs());
    }

    #[test]
    fn net_scales_with_nic() {
        let s1 = demand(WorkloadId::Ytube, PlatformId::Srvr1); // 10 GbE
        let s2 = demand(WorkloadId::Ytube, PlatformId::Srvr2); // 1 GbE
        assert!(s2.net_secs() > 5.0 * s1.net_secs());
    }

    #[test]
    fn overrides_change_disk_and_memory() {
        let wl = suite::workload(WorkloadId::Ytube);
        let p = catalog::platform(PlatformId::Emb1);
        let base = PlatformDemand::new(&wl, &p);
        let laptop = PlatformDemand::with_overrides(&wl, &p, &DiskModel::laptop_remote(), 4.0);
        assert!(laptop.disk_secs() > base.disk_secs());
        let less_mem = PlatformDemand::with_overrides(&wl, &p, &p.disk, 1.0);
        assert!((less_mem.mem_secs() - base.mem_secs() * 4.0).abs() < 1e-12);
    }

    #[test]
    fn inflate_and_override_hooks() {
        let mut d = demand(WorkloadId::Websearch, PlatformId::Emb1);
        let before = d.cpu_secs();
        d.inflate_cpu(1.047);
        assert!((d.cpu_secs() / before - 1.047).abs() < 1e-12);
        d.set_disk_secs(0.010);
        assert_eq!(d.disk_secs(), 0.010);
    }

    #[test]
    fn source_samples_vary_but_average_out() {
        let d = demand(WorkloadId::Websearch, PlatformId::Srvr2);
        let mut src = d.source(0);
        let mut rng = SimRng::seed_from(5);
        let mut total = 0.0;
        let n = 20_000;
        let mut stages = Vec::new();
        for _ in 0..n {
            stages.clear();
            src.next_request(&mut rng, &mut stages);
            total += stages.iter().map(|s| s.service.as_secs_f64()).sum::<f64>();
        }
        let mean = total / n as f64;
        let expect = d.single_client_latency_secs();
        assert!((mean - expect).abs() / expect < 0.05, "{mean} vs {expect}");
    }

    #[test]
    fn tasks_are_deterministic_and_sized() {
        let d = demand(WorkloadId::MapredWc, PlatformId::Desk);
        let tasks = d.tasks(16);
        assert_eq!(tasks.len(), 16);
        assert_eq!(tasks[0], tasks[15]);
        assert!(!tasks[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn inflate_rejects_speedup() {
        let mut d = demand(WorkloadId::Websearch, PlatformId::Desk);
        d.inflate_cpu(0.9);
    }
}
