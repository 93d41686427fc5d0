//! The storage system: a disk, optionally fronted by a flash cache.
//!
//! The replay loop is chunked into epochs of [`simd::F64_BLOCK`]
//! requests, consumed by one shared epoch-batch kernel: the generator
//! path stages each epoch into a small scratch buffer, and a
//! materialized trace is read in place, so both paths execute
//! byte-identical simulation code and differ only in where the epoch
//! comes from. The kernel itself is a SoA lane pass: a probe loop over
//! the flash cache's dense extent index records one outcome-code bitmask
//! byte per request, integer counters fold branch-free via
//! [`wcs_simcore::simd`], service times come from a per-code table
//! (every request of a trace moves the same number of blocks, so each
//! code has one service time), and the f64 service sum accumulates
//! through the fixed-order per-epoch reduction tree of
//! [`simd::block_sums_f64`] — bit-identical for every chunking of the
//! trace that splits at epoch boundaries.

use wcs_platforms::storage::{DiskModel, FlashModel};
use wcs_simcore::simd;
use wcs_simcore::stats::{Histogram, PreparedSample};
use wcs_workloads::disktrace::{BlockAccess, DiskTraceGen, DiskTraceParams};

use crate::cache::{FlashCacheIndex, WearStats};

/// Requests staged per chunk of the replay loop — one f64 accumulation
/// block ([`simd::F64_BLOCK`]), so chunked replays that split at epoch
/// boundaries reproduce the unsplit block-sum sequence exactly.
const CHUNK: usize = simd::F64_BLOCK;

/// Outcome-code bit: the request was served from flash.
const CODE_HIT: u8 = 1;
/// Outcome-code bit: a write absorbed by flash (write-back traffic).
const CODE_ABSORBED: u8 = 2;

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

    /// Builds the per-code service-time table for requests of
    /// `request_blocks` blocks. Codes index it directly: every request
    /// of a homogeneous trace moves the same byte count, so each
    /// outcome class has exactly one service time (and one pre-bucketed
    /// histogram sample). The degraded row covers the no-flash /
    /// failed-flash path, where every code is 0.
    fn svc_table(&self, request_blocks: u32) -> SvcTable {
        let bytes = u64::from(request_blocks) * 4096;
        let fbytes = bytes as f64;
        let disk = self.disk.access_secs(fbytes);
        let svc = match &self.flash {
            Some((flash, _)) => [
                disk,                    // read miss
                flash.read_secs(fbytes), // read hit
                flash.write_secs(fbytes),
                flash.write_secs(fbytes),
            ],
            None => [disk; 4],
        };
        SvcTable {
            blocks: request_blocks,
            bytes,
            svc,
            prepared: svc.map(Histogram::prepare),
            degraded: disk,
            degraded_prepared: Histogram::prepare(disk),
        }
    }

    /// The shared replay kernel, split into lane passes per staged
    /// epoch.
    ///
    /// The probe pass walks the cache index (the unpredictable part)
    /// and records one outcome-code bitmask byte per request; the
    /// flash-state dispatch is hoisted out of the loop — it cannot
    /// change mid-chunk. Integer counters then fold branch-free
    /// ([`simd::fold_mask_counts`]); the service-time lane is a
    /// per-code table gather whose epoch sum joins the fixed-order
    /// block-sum sequence (`svc_sums`), reduced once at the end of the
    /// replay; and the histogram replays pre-bucketed samples in the
    /// original request order, so every statistic stays bit-identical
    /// to a one-pass scalar loop.
    ///
    /// Requests whose size differs from the table's (hand-built traces
    /// only) fall back to computing the same service formulas per
    /// request — identical bits for the sizes that do match.
    fn replay_epoch_batch(
        &mut self,
        chunk: &[BlockAccess],
        table: &SvcTable,
        stats: &mut StorageStats,
        svc_sums: &mut Vec<f64>,
    ) {
        debug_assert!(chunk.len() <= CHUNK);
        let mut codes = [0u8; CHUNK];
        let staged = chunk.len();
        let degraded = match (&mut self.flash, self.flash_failed) {
            // A failed flash device degrades to the bare-disk path:
            // full disk latency, no caching, no wear. Codes stay 0.
            (None, _) | (Some(_), true) => true,
            (Some((_, index)), false) => {
                let index = index.as_mut().expect("begin_replay builds the index");
                for (req, code) in chunk.iter().zip(codes.iter_mut()) {
                    let hit = index.access(req.block, req.write);
                    // Write-back: absorbed by flash either way.
                    *code = u8::from(hit) * CODE_HIT + u8::from(req.write) * CODE_ABSORBED;
                }
                false
            }
        };
        stats.requests += staged as u64;
        let counts = simd::fold_mask_counts(&codes[..staged]);
        stats.flash_hits += counts[0];
        let homogeneous = chunk.iter().all(|r| r.blocks == table.blocks);
        if homogeneous {
            stats.background_bytes += counts[1] * table.bytes;
        } else {
            for (req, &c) in chunk.iter().zip(&codes[..staged]) {
                stats.background_bytes += u64::from(c & CODE_ABSORBED != 0) * req.bytes();
            }
        }
        // Service-time lane: a branch-free table gather in the common
        // homogeneous case, the same formulas per request otherwise.
        let mut svc = [0.0f64; CHUNK];
        match (homogeneous, degraded) {
            (true, false) => {
                for (&c, s) in codes[..staged].iter().zip(svc.iter_mut()) {
                    *s = table.svc[usize::from(c)];
                }
                for &c in &codes[..staged] {
                    stats
                        .latency
                        .record_prepared(table.prepared[usize::from(c)]);
                }
            }
            (true, true) => {
                svc[..staged].fill(table.degraded);
                for _ in 0..staged {
                    stats.latency.record_prepared(table.degraded_prepared);
                }
            }
            (false, _) => {
                for ((req, &c), s) in chunk.iter().zip(&codes[..staged]).zip(svc.iter_mut()) {
                    let bytes = req.bytes() as f64;
                    *s = if degraded || c == 0 {
                        self.disk.access_secs(bytes)
                    } else {
                        let (flash, _) = self.flash.as_ref().expect("probed above");
                        if c & CODE_ABSORBED != 0 {
                            flash.write_secs(bytes)
                        } else {
                            flash.read_secs(bytes)
                        }
                    };
                }
                for &s in &svc[..staged] {
                    stats.latency.record(s);
                }
            }
        }
        simd::block_sums_f64(&svc[..staged], svc_sums);
    }

    /// Copies the cache's wear counters into the replay's statistics.
    fn finish_wear(&self, stats: &mut StorageStats) {
        if let (Some((_, Some(index))), false) = (&self.flash, self.flash_failed) {
            stats.wear = index.wear();
        }
    }

    /// Replays `n` requests from the generator, returning service
    /// statistics. The flash cache (if any) is built for the generator's
    /// extents before the replay.
    pub fn replay(&mut self, gen: &mut DiskTraceGen, n: u64) -> StorageStats {
        let mut session = self.begin_replay(*gen.params());
        let mut scratch = [BlockAccess {
            block: 0,
            blocks: 0,
            write: false,
        }; CHUNK];
        let mut left = n;
        while left > 0 {
            let take = (left as usize).min(CHUNK);
            for slot in &mut scratch[..take] {
                *slot = gen.next_access();
            }
            self.replay_chunk(&mut session, &scratch[..take]);
            left -= take as u64;
        }
        self.finish_replay(session)
    }

    /// Replays a materialized trace of the `params` stream.
    ///
    /// Bit-identical to [`replay`](Self::replay) over the same requests:
    /// the buffer stores exactly what the generator would produce, and
    /// both paths feed the same epoch-batch kernel.
    ///
    /// # Panics
    /// Panics if a request's block is not one of the stream's extents
    /// (see [`begin_replay`](Self::begin_replay)).
    pub fn replay_trace(&mut self, params: DiskTraceParams, trace: &[BlockAccess]) -> StorageStats {
        let mut session = self.begin_replay(params);
        self.replay_chunk(&mut session, trace);
        self.finish_replay(session)
    }

    /// Opens a resumable replay of the `params` stream, building the
    /// flash cache index (if cold) over its extents:
    /// `params.extents()` extents of `params.request_blocks` blocks.
    ///
    /// Feed trace ranges with [`replay_chunk`](Self::replay_chunk) and
    /// close with [`finish_replay`](Self::finish_replay). Splitting a
    /// trace across any number of chunks whose boundaries fall on
    /// [`REPLAY_CHUNK_ALIGN`] multiples yields statistics bit-identical
    /// to one whole-trace call: the cache state threads chunk to chunk
    /// inside the system, integer counters merge exactly, and the f64
    /// service total is reduced once, at finish, from the per-epoch
    /// block-sum sequence — which aligned splits reproduce exactly.
    ///
    /// # Panics
    /// Panics if a warm flash cache holds extents of another size or
    /// count; with a working flash cache, a request whose block is not
    /// extent-aligned or lies past the extents panics during the replay.
    pub fn begin_replay(&mut self, params: DiskTraceParams) -> ReplaySession {
        self.size_flash(params);
        ReplaySession {
            table: self.svc_table(params.request_blocks),
            stats: StorageStats::default(),
            svc_sums: Vec::new(),
            mid_epoch: false,
        }
    }

    /// Replays one trace range of an open session.
    ///
    /// # Panics
    /// Panics if a previous chunk of this session ended off an epoch
    /// boundary (only the final chunk may be ragged — see
    /// [`begin_replay`](Self::begin_replay)).
    pub fn replay_chunk(&mut self, session: &mut ReplaySession, chunk: &[BlockAccess]) {
        assert!(
            !session.mid_epoch,
            "replay_chunk after a ragged (non-multiple-of-{REPLAY_CHUNK_ALIGN}) chunk"
        );
        session.mid_epoch = !chunk.len().is_multiple_of(CHUNK);
        for epoch in chunk.chunks(CHUNK) {
            self.replay_epoch_batch(
                epoch,
                &session.table,
                &mut session.stats,
                &mut session.svc_sums,
            );
        }
    }

    /// Closes a session: reduces the service-time block sums with one
    /// fixed-shape tree and snapshots the wear counters.
    pub fn finish_replay(&mut self, session: ReplaySession) -> StorageStats {
        let ReplaySession {
            mut stats,
            svc_sums,
            ..
        } = session;
        stats.total_service_secs = simd::reduce_block_sums(&svc_sums);
        self.finish_wear(&mut stats);
        stats
    }
}

/// Chunk boundaries a split replay must fall on to stay bit-identical
/// to an unsplit one (one f64 accumulation block, [`simd::F64_BLOCK`]).
pub const REPLAY_CHUNK_ALIGN: usize = CHUNK;

/// An open resumable replay: cache state lives in the
/// [`StorageSystem`]; the session carries the statistics under
/// construction and the fixed-order f64 block-sum sequence.
#[derive(Debug)]
pub struct ReplaySession {
    table: SvcTable,
    stats: StorageStats,
    svc_sums: Vec<f64>,
    mid_epoch: bool,
}

/// Per-code service times for homogeneous (fixed-size) requests — the
/// gather table of the replay kernel's service lane.
#[derive(Debug)]
struct SvcTable {
    blocks: u32,
    bytes: u64,
    svc: [f64; 4],
    prepared: [PreparedSample; 4],
    degraded: f64,
    degraded_prepared: PreparedSample,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_workloads::disktrace::params_for;
    use wcs_workloads::WorkloadId;

    fn gen(id: WorkloadId, seed: u64) -> DiskTraceGen {
        DiskTraceGen::new(params_for(id), seed)
    }

    #[test]
    fn disk_only_service_matches_model() {
        let mut sys = StorageSystem::disk_only(DiskModel::desktop());
        let mut g = gen(WorkloadId::Webmail, 1);
        let stats = sys.replay(&mut g, 1000);
        let expected = DiskModel::desktop().access_secs(32768.0);
        assert!((stats.mean_service_secs() - expected).abs() < 1e-9);
        assert_eq!(stats.flash_hits, 0);
    }

    #[test]
    fn flash_cuts_mean_service_for_popular_reads() {
        let mut bare = StorageSystem::disk_only(DiskModel::laptop_remote());
        let mut cached =
            StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let a = bare.replay(&mut gen(WorkloadId::Ytube, 2), 60_000);
        let b = cached.replay(&mut gen(WorkloadId::Ytube, 2), 60_000);
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
        let stats = cached.replay(&mut gen(WorkloadId::MapredWr, 3), 20_000);
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
        let stats = cached.replay(&mut gen(WorkloadId::Webmail, 5), 100_000);
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
    fn trace_replay_is_bit_identical_to_generator_replay() {
        for (id, flash) in [
            (WorkloadId::Ytube, Some(FlashModel::table3())),
            (WorkloadId::MapredWr, Some(FlashModel::table3())),
            (WorkloadId::Webmail, None),
        ] {
            let params = params_for(id);
            let build = || match &flash {
                Some(f) => StorageSystem::with_flash(DiskModel::laptop_remote(), f.clone()),
                None => StorageSystem::disk_only(DiskModel::laptop_remote()),
            };
            let from_gen = build().replay(&mut gen(id, 31), 50_000);
            let trace = wcs_workloads::disktrace::materialize(params, 31, 50_000);
            let from_trace = build().replay_trace(params, &trace);
            assert_eq!(
                format!("{from_gen:?}"),
                format!("{from_trace:?}"),
                "{id} diverged"
            );
        }
    }

    #[test]
    fn chunked_replay_is_invariant_to_chunk_count() {
        let params = params_for(WorkloadId::Ytube);
        let n = 50_000;
        let trace = wcs_workloads::disktrace::materialize(params, 17, n);
        let mut whole = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let want = whole.replay_trace(params, &trace);
        for chunks in [1usize, 2, 7, 64] {
            let mut sys =
                StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
            let mut session = sys.begin_replay(params);
            // Split only at epoch-aligned boundaries.
            let epochs = n.div_ceil(REPLAY_CHUNK_ALIGN);
            let per = epochs.div_ceil(chunks) * REPLAY_CHUNK_ALIGN;
            let mut at = 0;
            while at < n {
                let end = (at + per).min(n);
                sys.replay_chunk(&mut session, &trace[at..end]);
                at = end;
            }
            let got = sys.finish_replay(session);
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "chunks={chunks} diverged"
            );
            assert_eq!(
                want.total_service_secs.to_bits(),
                got.total_service_secs.to_bits(),
                "chunks={chunks} f64 total"
            );
        }
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
    #[should_panic(expected = "ragged")]
    fn ragged_mid_session_chunks_are_rejected() {
        let params = params_for(WorkloadId::Webmail);
        let trace = wcs_workloads::disktrace::materialize(params, 3, 5000);
        let mut sys = StorageSystem::disk_only(DiskModel::desktop());
        let mut session = sys.begin_replay(params);
        sys.replay_chunk(&mut session, &trace[..100]); // off-boundary
        sys.replay_chunk(&mut session, &trace[100..]);
    }

    #[test]
    fn scan_workload_gets_few_hits() {
        let mut cached =
            StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let stats = cached.replay(&mut gen(WorkloadId::MapredWc, 7), 30_000);
        // wc is a near-sequential scan over 5 GB with a 1 GB cache: the
        // read hit ratio must be low (writes still count as "hits" only
        // when resident).
        assert!(stats.hit_ratio() < 0.45, "hit ratio {}", stats.hit_ratio());
    }
}

#[cfg(test)]
mod degraded_tests {
    use super::*;
    use wcs_workloads::disktrace::params_for;
    use wcs_workloads::WorkloadId;

    fn gen(id: WorkloadId, seed: u64) -> DiskTraceGen {
        DiskTraceGen::new(params_for(id), seed)
    }

    #[test]
    fn failed_flash_serves_at_bare_disk_speed() {
        let mut cached =
            StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let mut bare = StorageSystem::disk_only(DiskModel::laptop_remote());
        cached.fail_flash();
        assert!(!cached.flash_available());
        let a = cached.replay(&mut gen(WorkloadId::Ytube, 4), 20_000);
        let b = bare.replay(&mut gen(WorkloadId::Ytube, 4), 20_000);
        // Bypass mode is indistinguishable from a disk-only system.
        assert_eq!(a.flash_hits, 0);
        assert_eq!(a.wear.bytes_programmed, 0);
        assert!((a.mean_service_secs() - b.mean_service_secs()).abs() < 1e-12);
    }

    #[test]
    fn outage_degrades_service_but_never_fails() {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let mut g = gen(WorkloadId::Ytube, 5);
        let healthy = sys.replay(&mut g, 40_000);
        sys.fail_flash();
        let outage = sys.replay(&mut g, 40_000);
        assert!(healthy.hit_ratio() > 0.3);
        assert_eq!(outage.hit_ratio(), 0.0);
        // Degraded, not dead: every request still completes, just slower.
        assert_eq!(outage.requests, 40_000);
        assert!(outage.mean_service_secs() > healthy.mean_service_secs());
    }

    #[test]
    fn repair_restarts_cold_then_rewarms() {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let mut g = gen(WorkloadId::Ytube, 6);
        let warm = sys.replay(&mut g, 40_000);
        sys.fail_flash();
        let _ = sys.replay(&mut g, 10_000);
        sys.repair_flash();
        assert!(sys.flash_available());
        // The replacement device starts cold but re-warms to a similar
        // steady-state hit ratio.
        let rewarmed = sys.replay(&mut g, 40_000);
        assert!(rewarmed.hit_ratio() > 0.0);
        assert!(rewarmed.hit_ratio() > warm.hit_ratio() * 0.5);
        // Replacement device: wear restarts from zero.
        assert!(rewarmed.wear.bytes_programmed <= warm.wear.bytes_programmed);
    }

    #[test]
    fn fail_flash_on_disk_only_is_a_noop() {
        let mut sys = StorageSystem::disk_only(DiskModel::desktop());
        sys.fail_flash();
        let stats = sys.replay(&mut gen(WorkloadId::Webmail, 7), 1000);
        assert_eq!(stats.requests, 1000);
        assert!(!sys.flash_available());
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use wcs_platforms::storage::{DiskModel, FlashModel};
    use wcs_workloads::disktrace::{params_for, DiskTraceGen};
    use wcs_workloads::WorkloadId;

    #[test]
    fn cached_service_times_are_bimodal() {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let mut gen = DiskTraceGen::new(params_for(WorkloadId::Ytube), 21);
        let stats = sys.replay(&mut gen, 60_000);
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
        let mut gen = DiskTraceGen::new(params_for(WorkloadId::Webmail), 23);
        let stats = sys.replay(&mut gen, 10_000);
        let p10 = stats.service_percentile(10.0).unwrap();
        let p99 = stats.service_percentile(99.0).unwrap();
        assert!(
            p99 < p10 * 1.1,
            "fixed-size requests on one disk are uniform"
        );
    }
}
