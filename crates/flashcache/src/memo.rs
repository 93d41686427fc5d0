//! Memoization for the storage study: shared disk traces, cached
//! replays, and cached performance measurements.
//!
//! Sweeps over storage configurations re-replay the same workload block
//! streams against many disk/flash combinations. Every cached value here
//! is a pure function of its [`MemoKey`]: traces are keyed by
//! `(params, seed, n)`, replays additionally by the disk and flash
//! models, and performance points by the full demand vector plus the
//! measurement config — so a warm lookup is byte-identical to a cold
//! recompute by construction.

use std::sync::Arc;

use wcs_platforms::storage::{DiskModel, FlashModel};
use wcs_simcore::memo::{MemoCache, MemoKey, MemoStats};
use wcs_simcore::obs::Registry;
use wcs_workloads::disktrace::{self, BlockAccess, DiskTraceGen, DiskTraceParams};
use wcs_workloads::perf::MeasureConfig;
use wcs_workloads::service::PlatformDemand;
use wcs_workloads::WorkloadId;

use crate::system::{StorageStats, StorageSystem};

/// Caches for the disk study: materialized block traces, storage-replay
/// statistics, and measured performance points.
#[derive(Debug)]
pub struct StorageMemo {
    traces: MemoCache<Arc<[BlockAccess]>>,
    replays: MemoCache<Arc<StorageStats>>,
    perf: MemoCache<f64>,
    obs: Registry,
}

impl StorageMemo {
    /// An enabled memo.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled memo: every request recomputes from the live
    /// generator, exactly as the unmemoized code path would.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// A memo with caching switched on or off.
    pub fn with_enabled(enabled: bool) -> Self {
        StorageMemo {
            traces: MemoCache::with_enabled(enabled),
            replays: MemoCache::with_enabled(enabled),
            perf: MemoCache::with_enabled(enabled),
            obs: Registry::disabled(),
        }
    }

    /// Returns this memo with `flashcache.*` metrics recorded into
    /// `registry`. Metrics are derived from the (cached) replay results,
    /// never from cache behaviour, so the reported values are identical
    /// with memoization on or off.
    #[must_use]
    pub fn with_obs(mut self, registry: Registry) -> Self {
        self.obs = registry;
        self
    }

    /// Whether lookups hit the caches.
    pub fn is_enabled(&self) -> bool {
        self.replays.is_enabled()
    }

    /// Hit/miss counters merged across all three caches.
    pub fn stats(&self) -> MemoStats {
        self.traces
            .stats()
            .merged(&self.replays.stats())
            .merged(&self.perf.stats())
    }

    /// The materialized trace for `(params, seed)`, shared across every
    /// storage configuration that replays the same stream.
    pub fn trace(&self, params: DiskTraceParams, seed: u64, n: usize) -> Arc<[BlockAccess]> {
        let key = MemoKey::new("disktrace-buf")
            .push(&params)
            .push_u64(seed)
            .push_usize(n);
        self.traces
            .get_or_compute(key.finish(), || disktrace::materialize(params, seed, n))
    }

    /// Replays `n` requests of the `(params, seed)` stream against a
    /// fresh disk (+ optional flash) system, cached on the full
    /// configuration.
    ///
    /// When the memo is enabled the trace is materialized once (via
    /// [`trace`](Self::trace)) and replayed through the slice kernel;
    /// when disabled the requests stream straight from the generator —
    /// the two paths are bit-identical.
    pub fn replay(
        &self,
        disk: &DiskModel,
        flash: Option<&FlashModel>,
        params: DiskTraceParams,
        seed: u64,
        n: u64,
    ) -> Arc<StorageStats> {
        let mut key = MemoKey::new("storage-replay").push(disk);
        key = match flash {
            Some(f) => key.push_bool(true).push(f),
            None => key.push_bool(false),
        };
        key = key.push(&params).push_u64(seed).push_u64(n);
        let stats = self.replays.get_or_compute(key.finish(), || {
            let mut sys = match flash {
                Some(f) => StorageSystem::with_flash(disk.clone(), f.clone()),
                None => StorageSystem::disk_only(disk.clone()),
            };
            let stats = if self.is_enabled() {
                let trace = self.trace(params, seed, n as usize);
                sys.replay_trace(params, &trace)
            } else {
                sys.replay(&mut DiskTraceGen::new(params, seed), n)
            };
            Arc::new(stats)
        });
        // Recorded from the returned (cached or recomputed) statistics,
        // so the series is bit-identical across threads and memo modes.
        self.obs.counter("flashcache.replays").inc();
        self.obs.counter("flashcache.requests").add(stats.requests);
        self.obs
            .counter("flashcache.flash_hits")
            .add(stats.flash_hits);
        self.obs
            .counter("flashcache.background_bytes")
            .add(stats.background_bytes);
        self.obs
            .counter("flashcache.ftl_bytes_programmed")
            .add(stats.wear.bytes_programmed);
        self.obs
            .counter("flashcache.ftl_erases")
            .add(stats.wear.erases);
        self.obs
            .histogram("flashcache.hit_ratio_pct")
            .record((stats.hit_ratio() * 100.0).round() as u64);
        stats
    }

    /// A cached performance point, keyed on the workload, the full
    /// platform demand vector, and the measurement config. `compute`
    /// runs on a miss and must be a pure function of the key.
    pub fn perf(
        &self,
        id: WorkloadId,
        demand: &PlatformDemand,
        cfg: &MeasureConfig,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let key = MemoKey::new("storage-perf")
            .push(&id)
            .push(demand)
            .push(cfg);
        self.perf.get_or_compute(key.finish(), compute)
    }
}

impl Default for StorageMemo {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_workloads::disktrace::params_for;

    #[test]
    fn memoized_replay_matches_streaming_replay() {
        let cold = StorageMemo::disabled();
        let warm = StorageMemo::new();
        let disk = DiskModel::laptop_remote();
        let flash = FlashModel::table3();
        let params = params_for(WorkloadId::Ytube);

        let a = cold.replay(&disk, Some(&flash), params, 11, 30_000);
        let b = warm.replay(&disk, Some(&flash), params, 11, 30_000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));

        // Second warm call hits the cache and returns the same Arc.
        let c = warm.replay(&disk, Some(&flash), params, 11, 30_000);
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(warm.stats().hits, 1);
        // The disabled memo never caches.
        let d = cold.replay(&disk, Some(&flash), params, 11, 30_000);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cold.stats().hits, 0);
    }

    #[test]
    fn trace_is_shared_across_configurations() {
        let memo = StorageMemo::new();
        let params = params_for(WorkloadId::Webmail);
        let _ = memo.replay(&DiskModel::desktop(), None, params, 3, 10_000);
        let _ = memo.replay(
            &DiskModel::laptop_remote(),
            Some(&FlashModel::table3()),
            params,
            3,
            10_000,
        );
        // Second replay misses (different config) but its trace hits.
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn perf_cache_returns_first_computation() {
        let memo = StorageMemo::new();
        let wl = wcs_workloads::suite::workload(WorkloadId::Websearch);
        let platform = wcs_platforms::catalog::platform(wcs_platforms::PlatformId::Emb1);
        let demand = PlatformDemand::new(&wl, &platform);
        let cfg = MeasureConfig::quick();
        let a = memo.perf(WorkloadId::Websearch, &demand, &cfg, || 42.0);
        let b = memo.perf(WorkloadId::Websearch, &demand, &cfg, || 99.0);
        assert_eq!(a, 42.0);
        assert_eq!(b, 42.0);
    }
}
