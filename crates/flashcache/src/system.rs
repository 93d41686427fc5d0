//! The storage system: a disk, optionally fronted by a flash cache.
//!
//! A replay reads a materialized trace in one pass, in blocks of 4096
//! requests. For each request one loop probes the flash cache's dense
//! extent index, counts the hit and the absorbed write, prices the
//! request from a per-code table (every request of a trace moves the
//! same number of blocks, so each outcome has one service time and one
//! pre-bucketed histogram sample) and records the sample. Each block's
//! service times are summed with the fixed-shape [`tree_sum_f64`], and
//! the total is the same tree over the block sums: that reduction shape
//! is part of the result's bits.

use wcs_platforms::storage::{DiskModel, FlashModel};
use wcs_simcore::stats::{tree_sum_f64, Histogram, PreparedSample};
use wcs_workloads::disktrace::{BlockAccess, DiskTraceParams};

use crate::cache::{FlashCacheIndex, WearStats};

/// Requests per block of the replay loop: the service times of one
/// block are summed into one term of the total.
const BLOCK: usize = 4096;

/// Statistics from replaying a block trace.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StorageStats {
    /// Requests replayed.
    pub requests: u64,
    /// Requests served from flash.
    pub flash_hits: u64,
    /// Total foreground (latency-critical) service time, seconds.
    pub total_service_secs: f64,
    /// Bytes flushed to disk in the background (write-back traffic).
    pub background_bytes: u64,
    /// Flash wear counters.
    pub wear: WearStats,
    /// Per-request foreground service-time distribution.
    pub latency: Histogram,
}

impl StorageStats {
    /// Fraction of requests served from flash.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.flash_hits as f64 / self.requests as f64
        }
    }

    /// Mean foreground service time per request, seconds.
    pub fn mean_service_secs(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_service_secs / self.requests as f64
        }
    }

    /// The p-th percentile of per-request service time, seconds.
    /// Flash-cached systems are strongly bimodal (flash hits vs disk
    /// misses), so the tail tells more than the mean.
    pub fn service_percentile(&self, p: f64) -> Option<f64> {
        self.latency.percentile(p)
    }
}

/// A disk with an optional flash cache in front of it.
///
/// Service accounting follows the FlashCache design the paper adopts:
///
/// * read hit — served at flash read speed;
/// * read miss — full disk access; the flash insert is off the critical
///   path (counted as wear, not latency);
/// * write with flash — absorbed at flash write speed (write-back); the
///   eventual disk flush is background traffic;
/// * any access without flash — full disk access.
#[derive(Debug)]
pub struct StorageSystem {
    disk: DiskModel,
    /// The flash device and its cache index, which the first replay
    /// builds over its stream's extents.
    flash: Option<(FlashModel, Option<FlashCacheIndex>)>,
    flash_failed: bool,
}

impl StorageSystem {
    /// A bare disk.
    pub fn disk_only(disk: DiskModel) -> Self {
        StorageSystem {
            disk,
            flash: None,
            flash_failed: false,
        }
    }

    /// A disk fronted by a flash cache sized from the flash device's
    /// capacity.
    pub fn with_flash(disk: DiskModel, flash: FlashModel) -> Self {
        StorageSystem {
            disk,
            flash: Some((flash, None)),
            flash_failed: false,
        }
    }

    /// The underlying disk model.
    pub fn disk(&self) -> &DiskModel {
        &self.disk
    }

    /// Fails the flash device: until [`repair_flash`] the system
    /// degrades gracefully to the bare disk — every access is served at
    /// disk latency, nothing is cached, and no wear accrues. A no-op on
    /// a disk-only system.
    ///
    /// [`repair_flash`]: StorageSystem::repair_flash
    pub fn fail_flash(&mut self) {
        self.flash_failed = true;
    }

    /// Replaces the failed flash device. The replacement arrives cold:
    /// the cache index is rebuilt empty, over the same extents, and must
    /// re-warm.
    pub fn repair_flash(&mut self) {
        self.flash_failed = false;
        if let Some((_, Some(index))) = &mut self.flash {
            *index = FlashCacheIndex::new(index.capacity(), index.extent_blocks(), index.extents());
        }
    }

    /// True when a flash cache is present and currently working.
    pub fn flash_available(&self) -> bool {
        self.flash.is_some() && !self.flash_failed
    }

    /// Builds the flash cache index (if flash is present and still
    /// cold) over the stream's extents, holding as many as the device's
    /// capacity fits. The extent count comes from the stream's
    /// parameters: it is the range the trace generator draws from.
    ///
    /// # Panics
    /// Panics if a warm cache holds extents of another size or count.
    fn size_flash(&mut self, params: DiskTraceParams) {
        let Some((flash, index)) = &mut self.flash else {
            return;
        };
        let (blocks, extents) = (params.request_blocks, params.extents());
        match index {
            Some(warm) if !warm.is_empty() => assert!(
                warm.extent_blocks() == blocks && warm.extents() == extents,
                "a warm flash cache continues only a stream of its own extents"
            ),
            _ => {
                let extent_bytes = u64::from(blocks) * 4096;
                let capacity = ((flash.capacity_gb * 1e9) as u64 / extent_bytes).max(1) as usize;
                *index = Some(FlashCacheIndex::new(capacity, blocks, extents));
            }
        }
    }

    /// Replays a materialized trace of the `params` stream, building the
    /// flash cache index (if cold) over its extents:
    /// `params.extents()` extents of `params.request_blocks` blocks.
    /// Successive calls continue the cache state, so consecutive slices
    /// of one trace replay one stream.
    ///
    /// A request's outcome code is `hit | write << 1`; a failed or
    /// absent flash device leaves every code 0, whose table entry is
    /// the disk time. A request whose size differs from the stream's is
    /// priced with the same formulas, per request.
    ///
    /// # Panics
    /// Panics if a warm flash cache holds extents of another size or
    /// count; with a working flash cache, a request whose block is not
    /// extent-aligned or lies past the extents panics during the replay.
    pub fn replay_trace(&mut self, params: DiskTraceParams, trace: &[BlockAccess]) -> StorageStats {
        self.size_flash(params);
        let StorageSystem {
            disk,
            flash,
            flash_failed,
        } = self;
        let (model, index) = match flash {
            Some((model, index)) => (Some(&*model), index.as_mut().filter(|_| !*flash_failed)),
            None => (None, None),
        };
        let table = SvcTable::new(disk, model, params.request_blocks);
        let mut stats = StorageStats::default();
        stats.total_service_secs = match index {
            Some(index) => {
                let total = replay_blocks(trace, &table, &mut stats, |req| {
                    let hit = index.access(req.block, req.write);
                    // Write-back: absorbed by flash either way.
                    usize::from(hit) | usize::from(req.write) << 1
                });
                stats.wear = index.wear();
                total
            }
            None => replay_blocks(trace, &table, &mut stats, |_| 0),
        };
        stats
    }
}

/// The foreground service time of a request of `bytes` with outcome
/// `code` (`hit | write << 1`): an absorbed write or a read hit on
/// flash, and a disk access otherwise.
fn service_secs(disk: &DiskModel, flash: Option<&FlashModel>, code: usize, bytes: f64) -> f64 {
    match flash {
        Some(flash) if code >= 2 => flash.write_secs(bytes),
        Some(flash) if code == 1 => flash.read_secs(bytes),
        _ => disk.access_secs(bytes),
    }
}

/// The replay loop: per request, the outcome code from `probe`, the
/// counters, the service time and its latency sample; per block, the
/// fixed-shape sum of its service times. Returns the fixed-shape sum of
/// the block sums.
fn replay_blocks(
    trace: &[BlockAccess],
    table: &SvcTable,
    stats: &mut StorageStats,
    mut probe: impl FnMut(&BlockAccess) -> usize,
) -> f64 {
    let mut svc = [0.0f64; BLOCK];
    let mut sums = Vec::with_capacity(trace.len().div_ceil(BLOCK));
    for block in trace.chunks(BLOCK) {
        for (req, s) in block.iter().zip(&mut svc) {
            let code = probe(req);
            stats.flash_hits += (code & 1) as u64;
            stats.background_bytes += (code >> 1) as u64 * req.bytes();
            *s = if req.blocks == table.blocks {
                stats.latency.record_prepared(table.prepared[code]);
                table.svc[code]
            } else {
                let x = service_secs(table.disk, table.flash, code, req.bytes() as f64);
                stats.latency.record(x);
                x
            };
        }
        sums.push(tree_sum_f64(&svc[..block.len()]));
    }
    stats.requests = trace.len() as u64;
    tree_sum_f64(&sums)
}

/// Service times by outcome code for requests of the stream's size,
/// with their pre-bucketed histogram samples, and the models that price
/// a request of another size.
#[derive(Debug)]
struct SvcTable<'a> {
    disk: &'a DiskModel,
    flash: Option<&'a FlashModel>,
    blocks: u32,
    svc: [f64; 4],
    prepared: [PreparedSample; 4],
}

impl<'a> SvcTable<'a> {
    fn new(disk: &'a DiskModel, flash: Option<&'a FlashModel>, blocks: u32) -> Self {
        let bytes = (u64::from(blocks) * 4096) as f64;
        let svc = [0, 1, 2, 3].map(|code| service_secs(disk, flash, code, bytes));
        SvcTable {
            disk,
            flash,
            blocks,
            svc,
            prepared: svc.map(Histogram::prepare),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wcs_simcore::SimRng;
    use wcs_workloads::disktrace::{materialize, params_for};
    use wcs_workloads::WorkloadId;

    /// The first `n` requests of workload `id`'s stream at `seed`.
    pub(super) fn trace(
        id: WorkloadId,
        seed: u64,
        n: usize,
    ) -> (DiskTraceParams, Arc<[BlockAccess]>) {
        let params = params_for(id);
        (params, materialize(params, seed, n))
    }

    /// Replays the first `n` requests of workload `id`'s stream.
    pub(super) fn replay(
        sys: &mut StorageSystem,
        id: WorkloadId,
        seed: u64,
        n: usize,
    ) -> StorageStats {
        let (params, trace) = trace(id, seed, n);
        sys.replay_trace(params, &trace)
    }

    /// Asserts two replays agree in every field: integers exactly,
    /// floats bit for bit, and the histogram in its `Debug` form, which
    /// lists every bucket count and prints each float in round-trip form.
    pub(super) fn assert_same(got: &StorageStats, want: &StorageStats, what: &str) {
        assert_eq!(got.requests, want.requests, "{what}: requests");
        assert_eq!(got.flash_hits, want.flash_hits, "{what}: flash hits");
        assert_eq!(
            got.total_service_secs.to_bits(),
            want.total_service_secs.to_bits(),
            "{what}: total service"
        );
        assert_eq!(
            got.background_bytes, want.background_bytes,
            "{what}: background"
        );
        assert_eq!(got.wear, want.wear, "{what}: wear");
        assert_eq!(
            format!("{:?}", got.latency),
            format!("{:?}", want.latency),
            "{what}: latency"
        );
    }

    #[test]
    fn disk_only_service_matches_model() {
        let mut sys = StorageSystem::disk_only(DiskModel::desktop());
        let stats = replay(&mut sys, WorkloadId::Webmail, 1, 1000);
        let expected = DiskModel::desktop().access_secs(32768.0);
        assert!((stats.mean_service_secs() - expected).abs() < 1e-9);
        assert_eq!(stats.flash_hits, 0);
    }

    #[test]
    fn flash_cuts_mean_service_for_popular_reads() {
        let mut bare = StorageSystem::disk_only(DiskModel::laptop_remote());
        let mut cached =
            StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let a = replay(&mut bare, WorkloadId::Ytube, 2, 60_000);
        let b = replay(&mut cached, WorkloadId::Ytube, 2, 60_000);
        assert!(b.hit_ratio() > 0.3, "hit ratio {}", b.hit_ratio());
        assert!(
            b.mean_service_secs() < a.mean_service_secs() * 0.7,
            "{} vs {}",
            b.mean_service_secs(),
            a.mean_service_secs()
        );
    }

    #[test]
    fn writes_absorbed_by_flash() {
        let mut cached =
            StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let stats = replay(&mut cached, WorkloadId::MapredWr, 3, 20_000);
        // 90% writes: mean service must be far below the raw disk time.
        let raw = DiskModel::laptop_remote().access_secs(1048576.0);
        assert!(stats.mean_service_secs() < raw * 0.6);
        assert!(stats.background_bytes > 0);
    }

    #[test]
    fn wear_within_endurance_over_three_years() {
        // The paper's argument: with the 3-year depreciation cycle, a
        // 1 GB / 100k-cycle device survives typical workload write rates.
        let flash = FlashModel::table3();
        let mut cached = StorageSystem::with_flash(DiskModel::laptop_remote(), flash.clone());
        let stats = replay(&mut cached, WorkloadId::Webmail, 5, 100_000);
        // Assume 20 disk IOs/s — generous for webmail on one emb1-class
        // server — so the replayed window spans 5000 s of operation.
        let window_secs = 100_000.0 / 20.0;
        let bytes_per_sec = stats.wear.bytes_programmed as f64 / window_secs;
        assert!(stats.wear.survives(
            (flash.capacity_gb * 1e9) as u64,
            flash.endurance_cycles,
            bytes_per_sec,
            3.0
        ));
    }

    #[test]
    fn kernel_matches_a_scalar_reference_loop() {
        // A seeded randomized trace over 5,000 extents of 16 blocks,
        // with writes and a tenth of the requests of another size, into
        // a flash cache of ~1,500 extents: hits, evictions and both
        // pricing paths. The reference drives the index request by
        // request and sums each block of service times, then the block
        // sums, with the same fixed-shape tree; eleven blocks are more
        // than the tree's 8-element leaf, so its shape matters.
        let params = DiskTraceParams {
            dataset_blocks: 80_000,
            zipf_s: 0.9,
            write_fraction: 0.3,
            request_blocks: 16,
        };
        let mut rng = SimRng::seed_from(0x5CA1A);
        let trace: Vec<BlockAccess> = (0..10 * BLOCK + 1_234)
            .map(|_| BlockAccess {
                // Squaring a uniform skews popularity toward low extents.
                block: (rng.uniform().powi(2) * 5_000.0) as u64 * 16,
                blocks: if rng.chance(0.1) {
                    1 + rng.index(64) as u32
                } else {
                    16
                },
                write: rng.chance(0.3),
            })
            .collect();
        let (disk, flash) = (DiskModel::laptop_remote(), FlashModel::scaled(0.1));
        let got =
            StorageSystem::with_flash(disk.clone(), flash.clone()).replay_trace(params, &trace);

        let capacity = (1e8 as u64 / (16 * 4096)) as usize;
        let mut index = FlashCacheIndex::new(capacity, 16, params.extents());
        let mut want = StorageStats::default();
        let mut sums = Vec::new();
        for block in trace.chunks(BLOCK) {
            let mut svc = Vec::new();
            for req in block {
                let bytes = req.bytes() as f64;
                let hit = index.access(req.block, req.write);
                want.requests += 1;
                want.flash_hits += u64::from(hit);
                let s = if req.write {
                    want.background_bytes += req.bytes();
                    flash.write_secs(bytes)
                } else if hit {
                    flash.read_secs(bytes)
                } else {
                    disk.access_secs(bytes)
                };
                want.latency.record(s);
                svc.push(s);
            }
            sums.push(tree_sum_f64(&svc));
        }
        want.total_service_secs = tree_sum_f64(&sums);
        want.wear = index.wear();
        assert!(want.flash_hits > 0 && want.wear.erases > 0, "{want:?}");
        assert_same(&got, &want, "kernel vs scalar loop");
    }

    #[test]
    fn heterogeneous_trace_sizes_fall_back_bit_consistently() {
        // Hand-built trace mixing request sizes: the per-request
        // fallback must agree with a table-free scalar expectation.
        let disk = DiskModel::laptop_remote();
        let trace: Vec<BlockAccess> = (0..9000u64)
            .map(|i| BlockAccess {
                block: (i * 64) % 4096,
                blocks: if i % 3 == 0 { 64 } else { 16 },
                write: i % 5 == 0,
            })
            .collect();
        let params = DiskTraceParams {
            dataset_blocks: 4096,
            zipf_s: 0.0,
            write_fraction: 0.2,
            request_blocks: 64,
        };
        let mut sys = StorageSystem::disk_only(disk.clone());
        let got = sys.replay_trace(params, &trace);
        assert_eq!(got.requests, 9000);
        let want: f64 = trace
            .iter()
            .map(|r| disk.access_secs(r.bytes() as f64))
            .sum();
        assert!(
            (got.total_service_secs - want).abs() < 1e-9,
            "{} vs {want}",
            got.total_service_secs
        );
    }

    #[test]
    fn scan_workload_gets_few_hits() {
        let mut cached =
            StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let stats = replay(&mut cached, WorkloadId::MapredWc, 7, 30_000);
        // wc is a near-sequential scan over 5 GB with a 1 GB cache: the
        // read hit ratio must be low (writes still count as "hits" only
        // when resident).
        assert!(stats.hit_ratio() < 0.45, "hit ratio {}", stats.hit_ratio());
    }
}

#[cfg(test)]
mod degraded_tests {
    use super::tests::{assert_same, replay, trace};
    use super::*;
    use wcs_workloads::WorkloadId;

    #[test]
    fn failed_flash_serves_at_bare_disk_speed() {
        let mut cached =
            StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let mut bare = StorageSystem::disk_only(DiskModel::laptop_remote());
        cached.fail_flash();
        assert!(!cached.flash_available());
        let a = replay(&mut cached, WorkloadId::Ytube, 4, 20_000);
        let b = replay(&mut bare, WorkloadId::Ytube, 4, 20_000);
        // Bypass mode is indistinguishable from a disk-only system.
        assert_eq!(a.flash_hits, 0);
        assert_eq!(a.wear.bytes_programmed, 0);
        assert_same(&a, &b, "failed flash vs bare disk");
    }

    #[test]
    fn outage_degrades_service_but_never_fails() {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let (params, t) = trace(WorkloadId::Ytube, 5, 80_000);
        let healthy = sys.replay_trace(params, &t[..40_000]);
        sys.fail_flash();
        let outage = sys.replay_trace(params, &t[40_000..]);
        assert!(healthy.hit_ratio() > 0.3);
        assert_eq!(outage.hit_ratio(), 0.0);
        // Degraded, not dead: every request still completes, just slower.
        assert_eq!(outage.requests, 40_000);
        assert!(outage.mean_service_secs() > healthy.mean_service_secs());
    }

    #[test]
    fn repair_restarts_cold_then_rewarms() {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let (params, t) = trace(WorkloadId::Ytube, 6, 90_000);
        let warm = sys.replay_trace(params, &t[..40_000]);
        sys.fail_flash();
        let _ = sys.replay_trace(params, &t[40_000..50_000]);
        sys.repair_flash();
        assert!(sys.flash_available());
        // The replacement device starts cold but re-warms to a similar
        // steady-state hit ratio.
        let rewarmed = sys.replay_trace(params, &t[50_000..]);
        assert!(rewarmed.hit_ratio() > 0.0);
        assert!(rewarmed.hit_ratio() > warm.hit_ratio() * 0.5);
        // Replacement device: wear restarts from zero.
        assert!(rewarmed.wear.bytes_programmed <= warm.wear.bytes_programmed);
    }

    #[test]
    fn fail_flash_on_disk_only_is_a_noop() {
        let mut sys = StorageSystem::disk_only(DiskModel::desktop());
        sys.fail_flash();
        let stats = replay(&mut sys, WorkloadId::Webmail, 7, 1000);
        assert_eq!(stats.requests, 1000);
        assert!(!sys.flash_available());
    }
}

#[cfg(test)]
mod latency_tests {
    use super::tests::replay;
    use super::*;
    use wcs_workloads::WorkloadId;

    #[test]
    fn cached_service_times_are_bimodal() {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let stats = replay(&mut sys, WorkloadId::Ytube, 21, 60_000);
        let p25 = stats.service_percentile(25.0).unwrap();
        let p99 = stats.service_percentile(99.0).unwrap();
        // Flash hits are ~5 ms transfers; disk misses ~28 ms: the tail
        // must sit far above the body.
        assert!(p99 > 3.0 * p25, "p25 {p25} vs p99 {p99}");
        // Mean matches the running total.
        assert!((stats.latency.mean() - stats.mean_service_secs()).abs() < 1e-9);
    }

    #[test]
    fn bare_disk_has_tight_distribution() {
        let mut sys = StorageSystem::disk_only(DiskModel::desktop());
        let stats = replay(&mut sys, WorkloadId::Webmail, 23, 10_000);
        let p10 = stats.service_percentile(10.0).unwrap();
        let p99 = stats.service_percentile(99.0).unwrap();
        assert!(
            p99 < p10 * 1.1,
            "fixed-size requests on one disk are uniform"
        );
    }
}
