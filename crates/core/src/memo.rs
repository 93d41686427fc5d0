//! The evaluation pipeline's memoization layer.
//!
//! One [`EvalMemo`] aggregates the three caches a design-space sweep
//! exercises: storage-trace replays (from `wcs-flashcache`), two-level
//! memory replays (from `wcs-memshare`), and the final performance
//! measurements. Sweep points differ in a few design parameters but
//! share most sub-simulations — the same disk scenario, the same memory
//! trace, the same demand vector — so a warm sweep answers most of its
//! work from the caches.
//!
//! Every cached value is a pure function of its key (all inputs,
//! including RNG seeds, are folded into the key), so memoized and
//! unmemoized runs are byte-identical by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use wcs_flashcache::memo::StorageMemo;
use wcs_memshare::slowdown::ReplayMemo;
use wcs_simcore::event::QueueObs;
use wcs_simcore::intern::intern;
use wcs_simcore::journal::{fnv1a64, JournalRecord, JournalWriter};
use wcs_simcore::memo::{MemoCache, MemoKey, MemoStats};
use wcs_simcore::obs::Registry;
use wcs_workloads::perf::{measure_perf_with_demand, MeasureConfig, MeasureError};
use wcs_workloads::service::PlatformDemand;
use wcs_workloads::{Workload, WorkloadId};

/// A cached performance measurement: the metric value plus the
/// event-queue occupancy its probe runs accumulated. Caching the queue
/// counters alongside the value keeps the `queue.*` observability
/// series bit-identical whether a measurement was recomputed or served
/// from the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// The performance metric value (RPS or 1/makespan-seconds).
    pub value: f64,
    /// Event-queue occupancy summed over the measurement's probe runs.
    pub queue: QueueObs,
}

impl PerfSample {
    /// Measures `workload` under `demand`: the sample every perf memo
    /// lane caches.
    pub(crate) fn measure(
        workload: &Workload,
        demand: &PlatformDemand,
        cfg: &MeasureConfig,
    ) -> Result<Self, MeasureError> {
        measure_perf_with_demand(workload, demand, cfg).map(|r| PerfSample {
            value: r.value,
            queue: r.queue,
        })
    }
}

/// Encode a perf measurement into its journal payload (little-endian).
///
/// ```text
/// Ok : 0x00 value:f64-bits scheduled:u64 fast_path:u64
///      calendar_hits:u64 heap_fallbacks:u64 max_depth:u64
/// Err: 0x01 wl_len:u32 wl_bytes reason_len:u32 reason_bytes
/// ```
///
/// Both arms are journaled: an infeasible-QoS `Err` is as much a pure
/// function of the cell key as a successful sample, and replaying it
/// saves the resumed run the recompute. Records written before the
/// calendar-queue counters existed carry a 32-byte `Ok` body and fail
/// the length check below, so resumed runs recompute those cells
/// instead of reviving a half-decoded sample.
pub fn encode_perf(result: &Result<PerfSample, MeasureError>) -> Vec<u8> {
    match result {
        Ok(s) => {
            let mut out = Vec::with_capacity(1 + 8 * 6);
            out.push(0);
            out.extend_from_slice(&s.value.to_bits().to_le_bytes());
            out.extend_from_slice(&s.queue.scheduled.to_le_bytes());
            out.extend_from_slice(&s.queue.fast_path.to_le_bytes());
            out.extend_from_slice(&s.queue.calendar_hits.to_le_bytes());
            out.extend_from_slice(&s.queue.heap_fallbacks.to_le_bytes());
            out.extend_from_slice(&s.queue.max_depth.to_le_bytes());
            out
        }
        Err(e) => {
            let wl = e.workload.as_bytes();
            let reason = e.reason.as_bytes();
            let mut out = Vec::with_capacity(1 + 4 + wl.len() + 4 + reason.len());
            out.push(1);
            out.extend_from_slice(&(wl.len() as u32).to_le_bytes());
            out.extend_from_slice(wl);
            out.extend_from_slice(&(reason.len() as u32).to_le_bytes());
            out.extend_from_slice(reason);
            out
        }
    }
}

/// Decode a journal payload back into a perf measurement. Returns `None`
/// on any structural mismatch — a record that decodes wrong is dropped by
/// the replay seeding rather than poisoning the resumed run.
pub fn decode_perf(payload: &[u8]) -> Option<Result<PerfSample, MeasureError>> {
    let (&tag, rest) = payload.split_first()?;
    match tag {
        0 => {
            if rest.len() != 48 {
                return None;
            }
            let word =
                |i: usize| u64::from_le_bytes(rest[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            Some(Ok(PerfSample {
                value: f64::from_bits(word(0)),
                queue: QueueObs {
                    scheduled: word(1),
                    fast_path: word(2),
                    calendar_hits: word(3),
                    heap_fallbacks: word(4),
                    max_depth: word(5),
                },
            }))
        }
        1 => {
            let take = |buf: &[u8]| -> Option<(String, usize)> {
                let len = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?) as usize;
                let bytes = buf.get(4..4 + len)?;
                Some((String::from_utf8(bytes.to_vec()).ok()?, 4 + len))
            };
            let (workload, used) = take(rest)?;
            let (reason, used2) = take(&rest[used..])?;
            if used + used2 != rest.len() {
                return None;
            }
            Some(Err(MeasureError {
                workload: intern(&workload),
                reason,
            }))
        }
        _ => None,
    }
}

/// Revision of the QoS throughput search behind the `eval-perf` lane.
/// It is part of every `eval-perf` key, so bump it whenever the search
/// can return a different sample for the same inputs: a journal written
/// by an older search is then recomputed on resume instead of replayed.
/// Revision 2 ends the client ramp once throughput stops improving.
const PERF_SEARCH_REVISION: u32 = 2;

/// The `eval-perf` key of one measurement.
fn perf_key(id: WorkloadId, demand: &PlatformDemand, cfg: &MeasureConfig) -> u128 {
    MemoKey::new("eval-perf")
        .push_u32(PERF_SEARCH_REVISION)
        .push(&id)
        .push(demand)
        .push(cfg)
        .finish()
}

/// Caches shared across every evaluation an [`Evaluator`] performs.
///
/// [`Evaluator`]: crate::evaluate::Evaluator
#[derive(Debug, Default)]
pub struct EvalMemo {
    storage: StorageMemo,
    replay: ReplayMemo,
    perf: MemoCache<Result<PerfSample, MeasureError>>,
    /// Steady-state measurements of registry scenarios outside the
    /// paper suite (FaaS, DAG, user registrations). A separate lane from
    /// `perf` because scenario keys are workload *names* plus family
    /// parameters — the paper lane's `WorkloadId` key cannot express
    /// them, and paper workloads under `TrafficPack::Steady` must keep
    /// hitting the `perf` lane bit-identically.
    scenario_perf: MemoCache<Result<PerfSample, MeasureError>>,
    /// Open-loop traffic-pack runs (diurnal, flash-crowd, failover
    /// surge) keyed on scenario, pack parameters, demand, and config.
    traffic: MemoCache<crate::scenario::TrafficSample>,
    /// Resilient traffic runs (admission + budget + breakers under a
    /// chaos plan) keyed additionally on the full resilience spec. A
    /// separate lane from `traffic` so a resilient run can never alias
    /// the plain run of the same scenario.
    resilient: MemoCache<crate::scenario::ResilientSample>,
    /// Cells recovered from a `--resume` journal. Consulted before the
    /// regular perf lane and *always* enabled — resuming must work under
    /// `--no-memo` too, and a replayed cell is by construction the value
    /// the cold path would recompute.
    resume: MemoCache<Result<PerfSample, MeasureError>>,
    /// Append handle for the active journal, when this run is journaling.
    /// Cleared on the first append failure (a full disk degrades the run
    /// to unjournaled rather than aborting it).
    journal: Mutex<Option<JournalWriter>>,
    /// When set, perf lookups answered by the resume lane are *also*
    /// journaled (normally only freshly computed cells are). The sweep
    /// service uses this to canonicalize a merged multi-worker journal:
    /// a serial pass over the plan with every cell in the resume lane
    /// re-journals the records in first-compute order, reproducing the
    /// byte layout of an uninterrupted single-process run.
    journal_resume_hits: std::sync::atomic::AtomicBool,
    replayed: AtomicU64,
    resume_hits: AtomicU64,
    journaled: AtomicU64,
    journal_errors: AtomicU64,
    obs: Registry,
}

impl EvalMemo {
    /// An enabled memo.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled memo: every sub-simulation recomputes, and each trace
    /// is built and dropped, uncached.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// A memo with caching switched on or off.
    pub fn with_enabled(enabled: bool) -> Self {
        EvalMemo {
            storage: StorageMemo::with_enabled(enabled),
            replay: ReplayMemo::with_enabled(enabled),
            perf: MemoCache::with_enabled(enabled),
            scenario_perf: MemoCache::with_enabled(enabled),
            traffic: MemoCache::with_enabled(enabled),
            resilient: MemoCache::with_enabled(enabled),
            resume: MemoCache::new(),
            journal: Mutex::new(None),
            journal_resume_hits: std::sync::atomic::AtomicBool::new(false),
            replayed: AtomicU64::new(0),
            resume_hits: AtomicU64::new(0),
            journaled: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
            obs: Registry::disabled(),
        }
    }

    /// Seeds the resume lane from replayed journal records, first-insert
    /// wins. Records whose payload fails to decode or whose digest does
    /// not match are silently dropped — the resumed run recomputes those
    /// cells. Returns how many records were seeded.
    pub fn seed_journal(&self, records: &[JournalRecord]) -> u64 {
        let mut seeded = 0;
        for r in records {
            if fnv1a64(&r.payload) != r.digest {
                continue;
            }
            let Some(value) = decode_perf(&r.payload) else {
                continue;
            };
            if self.resume.insert(r.key, value) {
                seeded += 1;
            }
        }
        self.replayed.fetch_add(seeded, Ordering::Relaxed);
        seeded
    }

    /// Attaches an append handle: every freshly computed perf cell is
    /// written to the journal from now on (one record per distinct key).
    pub fn attach_journal(&self, writer: JournalWriter) {
        *self.journal.lock().unwrap_or_else(PoisonError::into_inner) = Some(writer);
    }

    /// Whether a journal writer is currently attached.
    pub fn is_journaling(&self) -> bool {
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Also journal perf lookups answered by the resume lane (normally
    /// only freshly computed cells are written). Used by the sweep
    /// service's canonicalization pass — see the field doc.
    pub fn set_journal_resume_hits(&self, enabled: bool) {
        self.journal_resume_hits.store(enabled, Ordering::Relaxed);
    }

    /// Append an opaque marker record (e.g. a service lease or
    /// completion marker) through the attached journal writer. A no-op
    /// without a writer; returns whether the record was written (`false`
    /// also for duplicate keys). Append failures degrade journaling
    /// exactly like result-record failures.
    pub fn journal_marker(&self, key: u128, digest: u64, payload: &[u8]) -> bool {
        let mut guard = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(writer) = guard.as_mut() else {
            return false;
        };
        match writer.append(key, digest, payload) {
            Ok(wrote) => wrote,
            Err(e) => {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("warning: sweep journal append failed, journaling disabled: {e}");
                *guard = None;
                false
            }
        }
    }

    /// Flush and sync the attached journal to disk (clean shutdown); a
    /// no-op without a writer.
    pub fn sync_journal(&self) {
        let mut guard = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(writer) = guard.as_mut() {
            if let Err(e) = writer.sync() {
                eprintln!("warning: sweep journal sync failed: {e}");
            }
        }
    }

    /// Cells seeded from a journal replay by [`seed_journal`](Self::seed_journal).
    pub fn cells_replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Distinct cells appended to the journal by this run.
    pub fn cells_journaled(&self) -> u64 {
        self.journaled.load(Ordering::Relaxed)
    }

    /// Perf lookups served from the resume lane.
    pub fn resume_hits(&self) -> u64 {
        self.resume_hits.load(Ordering::Relaxed)
    }

    fn journal_result(&self, key: u128, value: &Result<PerfSample, MeasureError>) {
        let mut guard = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(writer) = guard.as_mut() else { return };
        let payload = encode_perf(value);
        let digest = fnv1a64(&payload);
        match writer.append(key, digest, &payload) {
            Ok(true) => {
                self.journaled.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {}
            Err(e) => {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("warning: sweep journal append failed, journaling disabled: {e}");
                *guard = None;
            }
        }
    }

    /// Returns this memo recording into `registry`: the storage and
    /// memory replay caches report their exact-class `flashcache.*` and
    /// `memshare.*` series (recorded from returned replay results, so
    /// the values are independent of cache state), and
    /// [`EvalMemo::export_obs`] reports the per-domain hit/miss
    /// counters.
    #[must_use]
    pub fn with_obs(mut self, registry: Registry) -> Self {
        self.storage = self.storage.with_obs(registry.clone());
        self.replay = self.replay.with_obs(registry.clone());
        self.obs = registry;
        self
    }

    /// Records the per-domain cache hit/miss counters into the attached
    /// registry as wall-class `memo.*` series. Hit counts depend on
    /// which racing worker computed a value first (and on whether the
    /// memo is enabled at all), so they are profiling data, not part of
    /// the deterministic snapshot. Counters accumulate: call once, just
    /// before snapshotting the registry.
    pub fn export_obs(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        for (domain, stats) in [
            ("storage", self.storage.stats()),
            ("replay", self.replay.stats()),
            ("perf", self.perf.stats()),
            (
                "scenario",
                self.scenario_perf
                    .stats()
                    .merged(&self.traffic.stats())
                    .merged(&self.resilient.stats()),
            ),
        ] {
            self.obs
                .wall_counter(&format!("memo.{domain}.hits"))
                .add(stats.hits);
            self.obs
                .wall_counter(&format!("memo.{domain}.misses"))
                .add(stats.misses);
        }
        // Recovery counters are pure functions of the cell set and the
        // journal contents — deterministic across thread counts and memo
        // on/off — so they export under the exact class. Journal append
        // *errors* (full disk etc.) are environmental: wall class.
        self.obs
            .counter("recovery.cells_replayed")
            .add(self.replayed.load(Ordering::Relaxed));
        self.obs
            .counter("recovery.cells_journaled")
            .add(self.journaled.load(Ordering::Relaxed));
        self.obs
            .counter("recovery.resume_hits")
            .add(self.resume_hits.load(Ordering::Relaxed));
        self.obs
            .wall_counter("recovery.journal_errors")
            .add(self.journal_errors.load(Ordering::Relaxed));
    }

    /// Whether lookups hit the caches.
    pub fn is_enabled(&self) -> bool {
        self.perf.is_enabled()
    }

    /// The storage-replay caches.
    pub fn storage(&self) -> &StorageMemo {
        &self.storage
    }

    /// The two-level memory replay caches.
    pub fn replay(&self) -> &ReplayMemo {
        &self.replay
    }

    /// Hit/miss counters merged across every cache.
    pub fn stats(&self) -> MemoStats {
        self.storage
            .stats()
            .merged(&self.replay.stats())
            .merged(&self.perf.stats())
            .merged(&self.scenario_perf.stats())
            .merged(&self.traffic.stats())
            .merged(&self.resilient.stats())
    }

    /// A cached performance measurement, keyed on the workload, the full
    /// platform demand vector (which already folds in storage service
    /// times and memory-sharing slowdowns), and the measurement config.
    /// `compute` runs on a miss and must be a pure function of the key.
    pub fn perf(
        &self,
        id: WorkloadId,
        demand: &PlatformDemand,
        cfg: &MeasureConfig,
        compute: impl FnOnce() -> Result<PerfSample, MeasureError>,
    ) -> Result<PerfSample, MeasureError> {
        let key = perf_key(id, demand, cfg);
        // The resume lane answers first: cells recovered from a journal
        // are served even under `--no-memo`, and the replayed bits are by
        // construction what the cold path would recompute.
        if let Some(v) = self.resume.get(key) {
            self.resume_hits.fetch_add(1, Ordering::Relaxed);
            if self.journal_resume_hits.load(Ordering::Relaxed) {
                // Canonicalization mode: re-journal replayed cells too
                // (the writer's key dedup keeps each record single).
                self.journal_result(key, &v);
            }
            return v;
        }
        let mut computed = false;
        let v = self.perf.get_or_compute(key, || {
            computed = true;
            compute()
        });
        if computed {
            self.journal_result(key, &v);
        }
        v
    }

    /// A cached steady-state measurement of a registry scenario (FaaS,
    /// DAG, user registrations). The caller builds the key — scenario
    /// name, family parameters, final demand vector, measurement config
    /// — because family-specific inputs vary; `compute` must be a pure
    /// function of it. Not journaled: the resume journal stays a pure
    /// record of the paper sweep lattice.
    pub fn scenario_perf(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<PerfSample, MeasureError>,
    ) -> Result<PerfSample, MeasureError> {
        self.scenario_perf.get_or_compute(key, compute)
    }

    /// A cached open-loop traffic-pack run, keyed by the caller on
    /// scenario, pack, demand, and config.
    pub fn traffic(
        &self,
        key: u128,
        compute: impl FnOnce() -> crate::scenario::TrafficSample,
    ) -> crate::scenario::TrafficSample {
        self.traffic.get_or_compute(key, compute)
    }

    /// A cached resilient traffic run, keyed by the caller on scenario,
    /// pack, demand, config, and the full resilience spec (admission,
    /// budget, breaker, and chaos-plan parameters).
    pub fn resilient(
        &self,
        key: u128,
        compute: impl FnOnce() -> crate::scenario::ResilientSample,
    ) -> crate::scenario::ResilientSample {
        self.resilient.get_or_compute(key, compute)
    }

    /// A shared handle to an enabled memo (the [`Evaluator`] default).
    ///
    /// [`Evaluator`]: crate::evaluate::Evaluator
    pub fn shared(enabled: bool) -> Arc<Self> {
        Arc::new(Self::with_enabled(enabled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_platforms::{catalog, PlatformId};
    use wcs_workloads::suite;

    fn sample(value: f64) -> PerfSample {
        PerfSample {
            value,
            queue: QueueObs::default(),
        }
    }

    #[test]
    fn perf_cache_returns_first_computation() {
        let memo = EvalMemo::new();
        let wl = suite::workload(WorkloadId::Websearch);
        let platform = catalog::platform(PlatformId::Emb1);
        let demand = PlatformDemand::new(&wl, &platform);
        let cfg = MeasureConfig::quick();
        let a = memo.perf(WorkloadId::Websearch, &demand, &cfg, || Ok(sample(1.0)));
        let b = memo.perf(WorkloadId::Websearch, &demand, &cfg, || Ok(sample(2.0)));
        assert_eq!(a.unwrap().value, 1.0);
        assert_eq!(b.unwrap().value, 1.0);
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn perf_payload_roundtrips_both_arms() {
        let ok: Result<PerfSample, MeasureError> = Ok(PerfSample {
            value: 1234.5678,
            queue: QueueObs {
                scheduled: 10,
                fast_path: 3,
                calendar_hits: 5,
                heap_fallbacks: 2,
                max_depth: 7,
            },
        });
        let err: Result<PerfSample, MeasureError> = Err(MeasureError {
            workload: "websearch",
            reason: "QoS infeasible at 99p".to_owned(),
        });
        for v in [ok, err] {
            let payload = encode_perf(&v);
            let back = decode_perf(&payload).expect("decode");
            assert_eq!(back, v);
            // The digest is stable and payload-sensitive.
            let d = fnv1a64(&payload);
            assert_eq!(d, fnv1a64(&payload));
            let mut damaged = payload.clone();
            damaged[0] ^= 0x80;
            assert_ne!(d, fnv1a64(&damaged));
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(decode_perf(&[]).is_none());
        assert!(decode_perf(&[9]).is_none(), "unknown tag");
        assert!(decode_perf(&[0, 1, 2]).is_none(), "short Ok body");
        assert!(
            decode_perf(&[0u8; 33]).is_none(),
            "pre-calendar 32-byte Ok body is dropped, not half-decoded"
        );
        assert!(
            decode_perf(&[1, 255, 255, 255, 255]).is_none(),
            "oversized Err len"
        );
        // Trailing garbage after a valid Err body is rejected too.
        let mut err = encode_perf(&Err(MeasureError {
            workload: "webmail",
            reason: "x".to_owned(),
        }));
        err.push(0);
        assert!(decode_perf(&err).is_none());
    }

    #[test]
    fn seeded_resume_lane_answers_before_compute_even_with_memo_off() {
        use wcs_simcore::journal::JournalRecord;
        let memo = EvalMemo::disabled();
        let wl = suite::workload(WorkloadId::Websearch);
        let platform = catalog::platform(PlatformId::Emb1);
        let demand = PlatformDemand::new(&wl, &platform);
        let cfg = MeasureConfig::quick();
        let key = perf_key(WorkloadId::Websearch, &demand, &cfg);
        let value: Result<PerfSample, MeasureError> = Ok(sample(42.0));
        let payload = encode_perf(&value);
        let records = vec![JournalRecord {
            key,
            digest: fnv1a64(&payload),
            payload: payload.clone(),
        }];
        assert_eq!(memo.seed_journal(&records), 1);
        assert_eq!(memo.cells_replayed(), 1);
        let got = memo.perf(WorkloadId::Websearch, &demand, &cfg, || {
            panic!("resume lane must answer")
        });
        assert_eq!(got.unwrap().value, 42.0);
        assert_eq!(memo.resume_hits(), 1);

        // A record with a wrong digest is dropped, not served.
        let bad = vec![JournalRecord {
            key: key ^ 1,
            digest: 0,
            payload,
        }];
        assert_eq!(memo.seed_journal(&bad), 0);
    }

    #[test]
    fn records_of_an_earlier_search_revision_are_recomputed() {
        use wcs_simcore::journal::JournalRecord;
        let memo = EvalMemo::new();
        let wl = suite::workload(WorkloadId::Websearch);
        let platform = catalog::platform(PlatformId::Emb1);
        let demand = PlatformDemand::new(&wl, &platform);
        let cfg = MeasureConfig::quick();
        // The key before the search revision was part of it.
        let key = MemoKey::new("eval-perf")
            .push(&WorkloadId::Websearch)
            .push(&demand)
            .push(&cfg)
            .finish();
        let payload = encode_perf(&Ok(sample(42.0)));
        let records = [JournalRecord {
            key,
            digest: fnv1a64(&payload),
            payload,
        }];
        assert_eq!(memo.seed_journal(&records), 1, "the record itself is valid");
        let got = memo.perf(WorkloadId::Websearch, &demand, &cfg, || Ok(sample(7.0)));
        assert_eq!(got.unwrap().value, 7.0);
        assert_eq!(memo.resume_hits(), 0);
    }

    #[test]
    fn resume_hits_journal_in_first_compute_order_when_enabled() {
        use wcs_simcore::journal::{self, JournalRecord};
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wcs-memo-canon-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let wl = suite::workload(WorkloadId::Websearch);
        let platform = catalog::platform(PlatformId::Emb1);
        let demand = PlatformDemand::new(&wl, &platform);
        let cfg = MeasureConfig::quick();
        let key = |id: WorkloadId| perf_key(id, &demand, &cfg);
        let record = |id: WorkloadId, value: f64| {
            let payload = encode_perf(&Ok(sample(value)));
            JournalRecord {
                key: key(id),
                digest: fnv1a64(&payload),
                payload,
            }
        };
        // Seed two cells into the resume lane (key-sorted order is
        // whatever it is); then look them up in a chosen compute order.
        let memo = EvalMemo::new();
        memo.seed_journal(&[
            record(WorkloadId::Websearch, 1.0),
            record(WorkloadId::Webmail, 2.0),
        ]);
        let (_, writer, _) = journal::open(&path).expect("fresh journal");
        memo.attach_journal(writer);

        // Without the flag, resume hits stay out of the journal.
        let got = memo.perf(WorkloadId::Webmail, &demand, &cfg, || unreachable!());
        assert_eq!(got.unwrap().value, 2.0);
        memo.sync_journal();
        let (records, _) = journal::replay(&path).expect("journal replays");
        assert!(
            records.is_empty(),
            "resume hits must not journal by default"
        );

        // With the flag, each hit re-journals — in lookup order, which is
        // how the canonicalization pass reproduces first-compute layout.
        memo.set_journal_resume_hits(true);
        let _ = memo.perf(WorkloadId::Webmail, &demand, &cfg, || unreachable!());
        let _ = memo.perf(WorkloadId::Websearch, &demand, &cfg, || unreachable!());
        memo.sync_journal();
        let (records, _) = journal::replay(&path).expect("journal replays");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key, key(WorkloadId::Webmail));
        assert_eq!(records[1].key, key(WorkloadId::Websearch));
        // Re-hitting an already-journaled key appends nothing (the writer
        // dedups by key), so the canonical pass is idempotent per key.
        let _ = memo.perf(WorkloadId::Webmail, &demand, &cfg, || unreachable!());
        memo.sync_journal();
        let (records, _) = journal::replay(&path).expect("journal replays");
        assert_eq!(records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_marker_appends_and_dedups_opaque_records() {
        use wcs_simcore::journal;
        let path =
            std::env::temp_dir().join(format!("wcs-memo-marker-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let memo = EvalMemo::new();
        // No writer attached: a marker is a no-op, not an error.
        assert!(!memo.journal_marker(7, 0, &[0xFE, 9]));

        let (_, writer, _) = journal::open(&path).expect("fresh journal");
        memo.attach_journal(writer);
        let payload = [0xFE, 2, 5, 0, 0, 0];
        assert!(memo.journal_marker(7, fnv1a64(&payload), &payload));
        assert!(
            !memo.journal_marker(7, fnv1a64(&payload), &payload),
            "duplicate keys dedup"
        );
        memo.sync_journal();
        let (records, _) = journal::replay(&path).expect("journal replays");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, 7);
        assert_eq!(records[0].payload, payload);
        // Marker payloads are opaque to the resume path: seeding drops them.
        let fresh = EvalMemo::new();
        assert_eq!(fresh.seed_journal(&records), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_memo_always_recomputes() {
        let memo = EvalMemo::disabled();
        assert!(!memo.is_enabled());
        let wl = suite::workload(WorkloadId::Webmail);
        let platform = catalog::platform(PlatformId::Desk);
        let demand = PlatformDemand::new(&wl, &platform);
        let cfg = MeasureConfig::quick();
        let a = memo.perf(WorkloadId::Webmail, &demand, &cfg, || Ok(sample(1.0)));
        let b = memo.perf(WorkloadId::Webmail, &demand, &cfg, || Ok(sample(2.0)));
        assert_eq!(a.unwrap().value, 1.0);
        assert_eq!(b.unwrap().value, 2.0);
        assert_eq!(memo.stats().hits, 0);
    }
}
