//! The multi-process sweep service: supervisor and worker runtime behind
//! the `wcs-served` binary.
//!
//! # Protocol
//!
//! The **supervisor** owns a deterministic sweep plan ([`service_plan`]),
//! shards its cells with memo affinity (cells sharing replay-cache keys
//! stay together — see `affinity_shards`), and spawns one **worker
//! process** per shard — the same executable re-invoked with
//! [`WORKER_FLAG`] (every binary that embeds the supervisor calls
//! [`maybe_run_worker`] first, so a spawned copy runs the worker loop
//! instead of its own `main`). Each worker:
//!
//! 1. opens its own crash-safety journal and appends a *lease* record
//!    claiming its cell ranges ([`ServiceRecord::Lease`]),
//! 2. evaluates its cells serially (`--threads 1` semantics), letting the
//!    memo layer journal every freshly computed result,
//! 3. appends a *completion marker* ([`ServiceRecord::CellDone`]) after
//!    each cell — the marker sits *after* the cell's results in the file,
//!    so a valid prefix containing the marker provably contains the
//!    results, and
//! 4. seals the journal and exits `0`; or exits `3` (graceful) when its
//!    stdin closes — the supervisor holds the write end, so supervisor
//!    death or an explicit shutdown drains workers cleanly with no torn
//!    tail.
//!
//! The supervisor heartbeats workers by polling exit status and journal
//! growth. A worker that dies (any exit, any signal) or stalls past the
//! lease deadline has its lease expired, its unfinished cells *stolen*
//! and reassigned to a fresh worker (bounded retries, exponential
//! backoff). Completed cells are never re-evaluated: the markers tell the
//! supervisor exactly what survived.
//!
//! # Merge invariant
//!
//! When every cell is done, the supervisor merges all worker journals
//! ([`wcs_simcore::service::merge_journals`]) and **canonicalizes** the
//! merged set: a serial pass over the plan with every record preloaded
//! into the resume lane re-journals the records in first-compute order
//! (see `EvalMemo::set_journal_resume_hits`). The canonical journal is
//! byte-identical to the journal of an uninterrupted single-process
//! `--threads 1` run of the same plan and seed — the property the chaos
//! harness and the `service-chaos` CI gate assert as
//! `"merge_diverged": false`.

use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wcs_core::designs::CoolingConfig;
use wcs_core::evaluate::EvalBuilder;
use wcs_core::{DesignEval, DesignPoint, Evaluator, WcsError};
use wcs_platforms::PlatformId;
use wcs_simcore::journal::{self, fnv1a64};
use wcs_simcore::obs::Registry;
use wcs_simcore::service::{merge_journals, ServiceProgress, ServiceRecord, StatusServer};

use crate::cli::{EXIT_ERROR, EXIT_GRACEFUL, EXIT_OK};

/// The argv flag that turns any embedding binary into a sweep worker.
pub const WORKER_FLAG: &str = "--service-worker";

/// The sweep plan the service runs: a pure function of `cells`, shared by
/// supervisor, workers, and the serial reference run. The full plan is
/// the chaos cell family (six baselines, N1, N2, and the two N2
/// ablations) plus two packaging variants; `cells` truncates it for
/// quick runs (`0` or anything past the end keeps the full plan).
pub fn service_plan(cells: usize) -> Vec<DesignPoint> {
    let mut designs: Vec<DesignPoint> = PlatformId::ALL
        .iter()
        .map(|&id| DesignPoint::baseline(id))
        .collect();
    designs.push(DesignPoint::n1());
    designs.push(DesignPoint::n2());
    let mut no_share = DesignPoint::n2();
    no_share.memshare = None;
    no_share.name = "N2-noshare".into();
    designs.push(no_share);
    let mut no_flash = DesignPoint::n2();
    no_flash.storage = None;
    no_flash.name = "N2-noflash".into();
    designs.push(no_flash);
    let mut dense = DesignPoint::n1();
    dense.name = "N1-dense".into();
    dense.cooling.systems_per_rack *= 2;
    designs.push(dense);
    let mut conventional = DesignPoint::n2();
    conventional.name = "N2-conventional".into();
    conventional.cooling = CoolingConfig::conventional();
    designs.push(conventional);
    if cells > 0 && cells < designs.len() {
        designs.truncate(cells);
    }
    designs
}

/// One canonical, byte-comparable render of a plan evaluation.
pub fn render_evals(evals: &[DesignEval]) -> String {
    let mut out = String::new();
    for e in evals {
        let _ = writeln!(out, "{e:?}");
    }
    out
}

/// Encode cell indices as a compact `a..b,c..d` range list (half-open).
fn encode_ranges(cells: &[u32]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < cells.len() {
        let start = cells[i];
        let mut end = start + 1;
        while i + 1 < cells.len() && cells[i + 1] == end {
            end += 1;
            i += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{start}..{end}");
        i += 1;
    }
    out
}

/// Parse an `a..b,c..d` range list back into sorted cell indices.
fn decode_ranges(s: &str) -> Option<Vec<u32>> {
    let mut cells = Vec::new();
    for part in s.split(',') {
        let (a, b) = part.split_once("..")?;
        let (a, b): (u32, u32) = (a.parse().ok()?, b.parse().ok()?);
        if b < a {
            return None;
        }
        cells.extend(a..b);
    }
    cells.sort_unstable();
    cells.dedup();
    Some(cells)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Parsed worker command line (everything after [`WORKER_FLAG`]).
struct WorkerArgs {
    journal: PathBuf,
    worker_id: u32,
    attempt: u32,
    cells: Vec<u32>,
    plan_cells: usize,
    seed: u64,
    /// Chaos injection: after completing this many cells, spin forever
    /// (alive but journaling nothing) until killed — exercises the
    /// supervisor's lease-expiry path.
    stall_after: Option<u32>,
}

fn parse_worker_args(args: &[String]) -> Result<WorkerArgs, String> {
    let mut journal = None;
    let mut worker_id = 0u32;
    let mut attempt = 0u32;
    let mut cells = None;
    let mut plan_cells = 0usize;
    let mut seed = 0x5EEDu64;
    let mut stall_after = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            a if a == WORKER_FLAG => {}
            "--journal" => journal = Some(PathBuf::from(value("--journal")?)),
            "--worker-id" => {
                worker_id = value("--worker-id")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--attempt" => attempt = value("--attempt")?.parse().map_err(|e| format!("{e}"))?,
            "--cells" => {
                cells =
                    Some(decode_ranges(&value("--cells")?).ok_or("malformed --cells range list")?);
            }
            "--plan-cells" => {
                plan_cells = value("--plan-cells")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--chaos-stall-after" => {
                stall_after = Some(
                    value("--chaos-stall-after")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            other => return Err(format!("unknown worker flag {other}")),
        }
    }
    Ok(WorkerArgs {
        journal: journal.ok_or("--journal is required")?,
        worker_id,
        attempt,
        cells: cells.ok_or("--cells is required")?,
        plan_cells,
        seed,
        stall_after,
    })
}

/// If the command line carries [`WORKER_FLAG`], run the worker loop and
/// exit the process with its status — the embedding binary's own `main`
/// never runs. Call this first in every binary that spawns the
/// supervisor (the supervisor re-invokes `current_exe()`).
pub fn maybe_run_worker() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == WORKER_FLAG) {
        std::process::exit(run_worker(&args));
    }
}

/// The worker loop; returns the process exit code (see the exit-code
/// convention in [`crate::cli`]).
fn run_worker(args: &[String]) -> i32 {
    let args = match parse_worker_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: worker command line: {e}");
            return crate::cli::EXIT_USAGE;
        }
    };
    let plan = service_plan(args.plan_cells);
    let built = Evaluator::builder()
        .quick()
        .threads(1)
        .map(|b| b.seed(args.seed).resume(&args.journal))
        .and_then(EvalBuilder::build);
    let eval = match built {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: worker {}: cannot open journal: {e}", args.worker_id);
            return EXIT_ERROR;
        }
    };
    // Claim the assigned ranges before touching any cell: the lease is
    // the first record a fresh journal carries.
    for (start, end) in contiguous_runs(&args.cells) {
        let lease = ServiceRecord::Lease {
            worker: args.worker_id,
            start,
            end,
            attempt: args.attempt,
        };
        let payload = lease.encode();
        eval.memo
            .journal_marker(lease.key(), fnv1a64(&payload), &payload);
    }

    // Graceful shutdown: the supervisor holds our stdin open. EOF (the
    // supervisor died or dropped the pipe) means "seal and leave" — the
    // journal loses nothing, and the supervisor's replacement reclaims
    // the unfinished cells from the lease and markers.
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("wcs-worker-stdin".into())
            .spawn(move || {
                let mut buf = [0u8; 64];
                let mut stdin = std::io::stdin();
                loop {
                    match stdin.read(&mut buf) {
                        Ok(0) | Err(_) => {
                            shutdown.store(true, Ordering::Relaxed);
                            return;
                        }
                        Ok(_) => {}
                    }
                }
            })
            .expect("spawn stdin watcher");
    }

    for (completed, &cell) in args.cells.iter().enumerate() {
        let completed = completed as u32;
        if shutdown.load(Ordering::Relaxed) {
            eval.memo.sync_journal();
            eprintln!(
                "worker {}: graceful shutdown after {completed} cell(s)",
                args.worker_id
            );
            return EXIT_GRACEFUL;
        }
        if args.stall_after == Some(completed) {
            // Chaos: stay alive, make no progress. Only SIGKILL (lease
            // expiry) or stdin-close ends this.
            loop {
                if shutdown.load(Ordering::Relaxed) {
                    eval.memo.sync_journal();
                    return EXIT_GRACEFUL;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let design = match plan.get(cell as usize) {
            Some(d) => d,
            None => {
                eprintln!("error: worker {}: cell {cell} outside plan", args.worker_id);
                return EXIT_ERROR;
            }
        };
        if let Err(e) = eval.evaluate(design) {
            eprintln!(
                "error: worker {}: cell {cell} ({}) failed: {e}",
                args.worker_id, design.name
            );
            return EXIT_ERROR;
        }
        let marker = ServiceRecord::CellDone { cell };
        let payload = marker.encode();
        eval.memo
            .journal_marker(marker.key(), fnv1a64(&payload), &payload);
    }
    eval.memo.sync_journal();
    EXIT_OK
}

/// Shard `plan` across up to `workers` processes with memo affinity:
/// cells sharing a [`wcs_core::designs::MemShareConfig`] stay on one
/// worker — their trace replays hit the process-local memo instead of
/// being recomputed once per process — while memshare-free cells move
/// freely as singletons. Units are bin-packed largest-first onto the
/// least-loaded worker, so the result is a pure function of the plan
/// and deterministic across supervisor restarts. Returns non-empty
/// shards, each sorted in plan order.
///
/// Contiguous near-equal ranges (the previous policy) split the
/// memshare family across processes; every process then replayed the
/// same traces cold, which is pure duplicated CPU and made 4 workers
/// *lose* to 1 on small machines.
fn affinity_shards(plan: &[DesignPoint], workers: usize) -> Vec<Vec<u32>> {
    // Atomic units: one per distinct memshare config (rendered — the
    // configs are plain data with stable Debug output), singletons
    // otherwise.
    let mut units: Vec<(Vec<u32>, u64)> = Vec::new();
    let mut shared: Vec<(String, usize)> = Vec::new();
    for (i, d) in plan.iter().enumerate() {
        let light = 1 + u64::from(d.storage.is_some());
        match &d.memshare {
            None => units.push((vec![i as u32], light)),
            Some(ms) => {
                let key = format!("{ms:?}");
                match shared.iter().find(|(k, _)| *k == key) {
                    Some(&(_, at)) => {
                        units[at].0.push(i as u32);
                        units[at].1 += light;
                    }
                    None => {
                        shared.push((key, units.len()));
                        // The group's first cell pays the full replay
                        // cost; weight it like several light cells.
                        units.push((vec![i as u32], 8 + light));
                    }
                }
            }
        }
    }
    // Largest-first onto the least-loaded bin; `min_by_key` keeps the
    // first minimum, so ties break toward earlier bins.
    units.sort_by(|a, b| b.1.cmp(&a.1).then(a.0[0].cmp(&b.0[0])));
    let mut bins: Vec<(u64, Vec<u32>)> = vec![(0, Vec::new()); workers.max(1)];
    for (cells, w) in units {
        let bin = bins
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least one bin");
        bin.0 += w;
        bin.1.extend(cells);
    }
    bins.retain(|(_, cells)| !cells.is_empty());
    bins.into_iter()
        .map(|(_, mut cells)| {
            cells.sort_unstable();
            cells
        })
        .collect()
}

/// Maximal contiguous runs of a sorted index list, as `(start, end)`.
fn contiguous_runs(cells: &[u32]) -> Vec<(u32, u32)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < cells.len() {
        let start = cells[i];
        let mut end = start + 1;
        while i + 1 < cells.len() && cells[i + 1] == end {
            end += 1;
            i += 1;
        }
        runs.push((start, end));
        i += 1;
    }
    runs
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker process count.
    pub workers: usize,
    /// Plan truncation (0 = the full [`service_plan`]).
    pub plan_cells: usize,
    /// Measurement seed shared by workers and the reference run.
    pub seed: u64,
    /// Scratch directory for per-worker journals.
    pub dir: PathBuf,
    /// Path of the canonical merged journal this run produces.
    pub out: PathBuf,
    /// Executable to spawn as workers (normally `current_exe`).
    pub worker_exe: PathBuf,
    /// Lease deadline: a live worker whose journal has not grown for
    /// this long is killed and its lease expired.
    pub stall_ms: u64,
    /// Supervisor poll interval.
    pub poll_ms: u64,
    /// Respawn budget per reassignment lineage; exhausting it fails the
    /// run.
    pub max_retries: u32,
    /// Chaos: SIGKILL one live worker when completed-cell fraction first
    /// reaches each entry.
    pub kill_at: Vec<f64>,
    /// Chaos: worker index that stalls (alive, no progress) after
    /// completing the given number of cells — exercises lease expiry.
    pub stall_worker: Option<(usize, u32)>,
    /// Serve `/status` and `/metrics` on this port (0 = ephemeral).
    pub status_port: Option<u16>,
    /// Metrics registry for the `recovery.worker_*` family.
    pub obs: Registry,
}

impl ServiceOptions {
    /// Defaults for `workers` worker processes with scratch space under
    /// the system temp directory.
    pub fn new(workers: usize) -> Self {
        let dir = std::env::temp_dir().join(format!("wcs-served-{}", std::process::id()));
        ServiceOptions {
            workers: workers.max(1),
            plan_cells: 0,
            seed: 0x5EED,
            out: dir.join("canonical.journal"),
            dir,
            worker_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("wcs-served")),
            stall_ms: 20_000,
            poll_ms: 15,
            max_retries: 5,
            kill_at: Vec::new(),
            stall_worker: None,
            status_port: None,
            obs: Registry::disabled(),
        }
    }
}

/// What a completed service run produced.
#[derive(Debug)]
pub struct ServiceReport {
    /// Plan size.
    pub cells: usize,
    /// Canonical render of the full plan evaluation (resume-lane served).
    pub render: String,
    /// Path of the canonical merged journal.
    pub canonical_journal: PathBuf,
    /// Records in the canonical journal.
    pub merged_records: usize,
    /// Progress and recovery counters accumulated over the run.
    pub progress: Arc<ServiceProgress>,
}

/// One live worker process under supervision.
struct WorkerSlot {
    id: u32,
    child: Child,
    /// Held open; dropping it closes the worker's stdin (graceful stop).
    stdin: Option<ChildStdin>,
    journal: PathBuf,
    cells: Vec<u32>,
    attempt: u32,
    last_len: u64,
    /// Byte offset of the journal's parsed prefix — the resume point for
    /// [`journal::replay_tail`], so each heartbeat decodes only what the
    /// worker appended since the previous poll.
    tail_offset: u64,
    last_progress: Instant,
}

/// Cells waiting for a respawn slot (work stealing with backoff).
struct PendingRespawn {
    cells: Vec<u32>,
    attempt: u32,
    ready_at: Instant,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CellState {
    Pending,
    Leased,
    Done,
}

fn service_err(msg: String) -> WcsError {
    WcsError::Service(msg)
}

/// Run the sweep service to completion: shard, spawn, heartbeat, steal,
/// merge, canonicalize. Returns the report; the canonical journal at
/// `opts.out` is byte-identical to a single-process `--threads 1` run of
/// the same plan and seed.
///
/// # Errors
/// [`WcsError::Service`] when a worker cannot be spawned or a cell
/// lineage exhausts its retry budget; journal and evaluator errors
/// surface as their own [`WcsError`] variants.
pub fn run_supervisor(opts: &ServiceOptions) -> Result<ServiceReport, WcsError> {
    let plan = service_plan(opts.plan_cells);
    let total = plan.len();
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| service_err(format!("cannot create {}: {e}", opts.dir.display())))?;

    let progress = ServiceProgress::new();
    progress.cells_total.store(total as u64, Ordering::Relaxed);
    let status = match opts.status_port {
        Some(port) => Some(
            StatusServer::start(port, Arc::clone(&progress), opts.obs.clone())
                .map_err(|e| service_err(format!("cannot bind status server: {e}")))?,
        ),
        None => None,
    };
    if let Some(s) = &status {
        eprintln!("wcs-served: status on http://{}/status", s.addr());
    }

    let mut cell_state = vec![CellState::Pending; total];
    let mut next_spawn_id = 0u32;
    let mut slots: Vec<WorkerSlot> = Vec::new();
    let mut all_journals: Vec<PathBuf> = Vec::new();
    let mut pending: Vec<PendingRespawn> = Vec::new();
    let mut kill_at: Vec<f64> = opts.kill_at.clone();
    kill_at.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));

    let mut spawn = |cells: Vec<u32>,
                     attempt: u32,
                     stall_after: Option<u32>,
                     all_journals: &mut Vec<PathBuf>,
                     cell_state: &mut Vec<CellState>|
     -> Result<WorkerSlot, WcsError> {
        let id = next_spawn_id;
        next_spawn_id += 1;
        let journal = opts.dir.join(format!("worker-{id}.journal"));
        let mut cmd = Command::new(&opts.worker_exe);
        cmd.arg(WORKER_FLAG)
            .arg("--journal")
            .arg(&journal)
            .arg("--worker-id")
            .arg(id.to_string())
            .arg("--attempt")
            .arg(attempt.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--plan-cells")
            .arg(opts.plan_cells.to_string())
            .arg("--cells")
            .arg(encode_ranges(&cells))
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(after) = stall_after {
            cmd.arg("--chaos-stall-after").arg(after.to_string());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| service_err(format!("cannot spawn worker {id}: {e}")))?;
        let stdin = child.stdin.take();
        for &c in &cells {
            cell_state[c as usize] = CellState::Leased;
        }
        all_journals.push(journal.clone());
        progress.worker_spawns.fetch_add(1, Ordering::Relaxed);
        progress.workers_live.fetch_add(1, Ordering::Relaxed);
        Ok(WorkerSlot {
            id,
            child,
            stdin,
            journal,
            cells,
            attempt,
            last_len: 0,
            tail_offset: 0,
            last_progress: Instant::now(),
        })
    };

    // Initial shard: memo-affinity (see [`affinity_shards`]) — cells
    // sharing replay-cache keys stay in one process.
    for (w, cells) in affinity_shards(&plan, opts.workers).into_iter().enumerate() {
        let stall = match opts.stall_worker {
            Some((idx, after)) if idx == w => Some(after),
            _ => None,
        };
        let slot = spawn(cells, 0, stall, &mut all_journals, &mut cell_state)?;
        slots.push(slot);
    }

    let stall_deadline = Duration::from_millis(opts.stall_ms);
    let done =
        |cell_state: &[CellState]| cell_state.iter().filter(|&&s| s == CellState::Done).count();

    loop {
        // 1. Heartbeat: absorb completion markers from every live journal.
        // A cheap stat gates the read — an unchanged file is skipped
        // outright — and the read itself resumes from the cached offset,
        // decoding only the appended tail. Re-reading whole journals
        // here made the supervisor CPU-bound at higher worker counts.
        for slot in &mut slots {
            let len = std::fs::metadata(&slot.journal)
                .map(|m| m.len())
                .unwrap_or(0);
            if len == slot.last_len {
                continue;
            }
            if len > slot.last_len {
                slot.last_len = len;
                slot.last_progress = Instant::now();
            }
            let Ok((records, offset)) = journal::replay_tail(&slot.journal, slot.tail_offset)
            else {
                continue;
            };
            slot.tail_offset = offset;
            for r in &records {
                if let Some(ServiceRecord::CellDone { cell }) = ServiceRecord::decode(&r.payload) {
                    if let Some(s) = cell_state.get_mut(cell as usize) {
                        if *s != CellState::Done {
                            *s = CellState::Done;
                        }
                    }
                }
            }
        }
        let done_now = done(&cell_state);
        progress
            .cells_done
            .store(done_now as u64, Ordering::Relaxed);

        // 2. Chaos: SIGKILL a live worker at each requested plan fraction.
        while let Some(&frac) = kill_at.first() {
            if (done_now as f64) < frac * (total as f64) {
                break;
            }
            // Prefer a victim that still has unfinished work and is
            // actively progressing — killing an already-stalled worker
            // would shadow the lease-expiry path, which is its own
            // failure mode to exercise.
            let victim = slots
                .iter()
                .filter(|s| {
                    s.cells
                        .iter()
                        .any(|&c| cell_state[c as usize] != CellState::Done)
                })
                .max_by_key(|s| s.last_progress)
                .map(|s| s.id);
            match victim {
                Some(id) => {
                    let slot = slots
                        .iter_mut()
                        .find(|s| s.id == id)
                        .expect("victim exists");
                    eprintln!("wcs-served: chaos kill of worker {id} at {done_now}/{total} cells");
                    let _ = slot.child.kill();
                    kill_at.remove(0);
                }
                None => {
                    // No live worker holds unfinished cells; the fraction
                    // can no longer be honoured meaningfully.
                    kill_at.remove(0);
                }
            }
        }

        // 3. Reap exits and expire stalled leases.
        let mut keep: Vec<WorkerSlot> = Vec::new();
        for mut slot in slots {
            let exited = slot.child.try_wait().ok().flatten();
            let stalled = exited.is_none() && slot.last_progress.elapsed() > stall_deadline;
            if stalled {
                eprintln!(
                    "wcs-served: worker {} stalled > {}ms; expiring lease",
                    slot.id, opts.stall_ms
                );
                progress
                    .worker_leases_expired
                    .fetch_add(1, Ordering::Relaxed);
                let _ = slot.child.kill();
                let _ = slot.child.wait();
            }
            let status = if stalled {
                None
            } else {
                match exited {
                    Some(s) => Some(s),
                    None => {
                        keep.push(slot);
                        continue;
                    }
                }
            };
            // The worker is gone: final tail read (markers seen by the
            // heartbeat are already absorbed), then reclaim.
            progress.workers_live.fetch_sub(1, Ordering::Relaxed);
            if let Ok((records, _)) = journal::replay_tail(&slot.journal, slot.tail_offset) {
                for r in &records {
                    if let Some(ServiceRecord::CellDone { cell }) =
                        ServiceRecord::decode(&r.payload)
                    {
                        if let Some(s) = cell_state.get_mut(cell as usize) {
                            *s = CellState::Done;
                        }
                    }
                }
            }
            let graceful = status.is_some_and(|s| s.code() == Some(EXIT_GRACEFUL));
            let clean = status.is_some_and(|s| s.success());
            if !clean && !graceful {
                progress
                    .worker_kills_observed
                    .fetch_add(1, Ordering::Relaxed);
            }
            let orphans: Vec<u32> = slot
                .cells
                .iter()
                .copied()
                .filter(|&c| cell_state[c as usize] != CellState::Done)
                .collect();
            if orphans.is_empty() {
                continue;
            }
            if slot.attempt >= opts.max_retries {
                return Err(service_err(format!(
                    "cells {} exhausted {} retries",
                    encode_ranges(&orphans),
                    opts.max_retries
                )));
            }
            progress
                .worker_cells_stolen
                .fetch_add(orphans.len() as u64, Ordering::Relaxed);
            for &c in &orphans {
                cell_state[c as usize] = CellState::Pending;
            }
            // Bounded exponential backoff before the replacement spawn.
            let backoff =
                Duration::from_millis((opts.poll_ms.max(1) << slot.attempt.min(6)).min(1_000));
            pending.push(PendingRespawn {
                cells: orphans,
                attempt: slot.attempt + 1,
                ready_at: Instant::now() + backoff,
            });
        }
        slots = keep;

        // 4. Respawn ready reassignments (work stealing).
        let now = Instant::now();
        let mut rest = Vec::new();
        for p in pending {
            if p.ready_at <= now {
                progress.worker_retries.fetch_add(1, Ordering::Relaxed);
                let slot = spawn(p.cells, p.attempt, None, &mut all_journals, &mut cell_state)?;
                slots.push(slot);
            } else {
                rest.push(p);
            }
        }
        pending = rest;

        if done(&cell_state) == total {
            break;
        }
        std::thread::sleep(Duration::from_millis(opts.poll_ms));
    }

    // Every cell is done: drain the remaining workers gracefully (close
    // stdin, then wait briefly, then insist).
    for slot in &mut slots {
        drop(slot.stdin.take());
    }
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    for slot in &mut slots {
        loop {
            match slot.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < drain_deadline => {
                    std::thread::sleep(Duration::from_millis(opts.poll_ms));
                }
                _ => {
                    let _ = slot.child.kill();
                    let _ = slot.child.wait();
                    break;
                }
            }
        }
        progress.workers_live.fetch_sub(1, Ordering::Relaxed);
    }

    // Merge every journal this run produced (including dead workers').
    let mut inputs = Vec::new();
    for path in &all_journals {
        let (records, _) = journal::replay(path)?;
        inputs.push(records);
    }
    let merged = merge_journals(&inputs);
    progress
        .worker_merge_conflicts
        .fetch_add(merged.conflicts, Ordering::Relaxed);

    // Canonicalize: preload the merged set into a serial evaluator's
    // resume lane and journal resume hits into a fresh file — the pass
    // re-emits the records in first-compute order, reproducing the byte
    // layout of an uninterrupted single-process run.
    let _ = std::fs::remove_file(&opts.out);
    let eval = Evaluator::builder()
        .quick()
        .threads(1)?
        .seed(opts.seed)
        .build()?;
    eval.memo.seed_journal(&merged.records);
    let (_, writer, _) = journal::open(&opts.out)?;
    eval.memo.attach_journal(writer);
    eval.memo.set_journal_resume_hits(true);
    let evals = eval.evaluate_many(&plan)?;
    eval.memo.sync_journal();
    let render = render_evals(&evals);
    let merged_records = merged.records.len();

    progress.complete.store(true, Ordering::Relaxed);
    // Shut the status server down before exporting into the shared
    // registry: `/metrics` folds a live view of the progress counters
    // into each response, so exporting while it still serves would
    // double-count the worker series.
    if let Some(s) = status {
        s.shutdown();
    }
    progress.export(&opts.obs);
    Ok(ServiceReport {
        cells: total,
        render,
        canonical_journal: opts.out.clone(),
        merged_records,
        progress,
    })
}

/// Run an uninterrupted single-process `--threads 1` reference of the
/// same plan and seed, journaling to `journal_path` (removed first).
/// Returns the render; the journal bytes at `journal_path` are the
/// ground truth [`run_supervisor`]'s canonical journal must match.
///
/// # Errors
/// Journal and evaluator errors surface as [`WcsError`].
pub fn run_serial_reference(
    plan_cells: usize,
    seed: u64,
    journal_path: &Path,
) -> Result<String, WcsError> {
    let plan = service_plan(plan_cells);
    let _ = std::fs::remove_file(journal_path);
    let eval = Evaluator::builder()
        .quick()
        .threads(1)?
        .seed(seed)
        .resume(journal_path)
        .build()?;
    let evals = eval.evaluate_many(&plan)?;
    eval.memo.sync_journal();
    Ok(render_evals(&evals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_codec_roundtrips() {
        for cells in [
            vec![0u32, 1, 2, 3],
            vec![5],
            vec![0, 1, 4, 5, 6, 9],
            vec![2, 7],
        ] {
            let encoded = encode_ranges(&cells);
            assert_eq!(decode_ranges(&encoded), Some(cells.clone()), "{encoded}");
        }
        assert_eq!(encode_ranges(&[0, 1, 4, 5, 6, 9]), "0..2,4..7,9..10");
        assert!(decode_ranges("3..1").is_none());
        assert!(decode_ranges("x..y").is_none());
        assert!(decode_ranges("1-4").is_none());
    }

    #[test]
    fn contiguous_runs_split_correctly() {
        assert_eq!(contiguous_runs(&[0, 1, 2]), vec![(0, 3)]);
        assert_eq!(contiguous_runs(&[1, 3, 4]), vec![(1, 2), (3, 5)]);
        assert!(contiguous_runs(&[]).is_empty());
    }

    #[test]
    fn plan_is_deterministic_and_truncates() {
        let full = service_plan(0);
        assert_eq!(full.len(), 12);
        let names: Vec<&str> = full.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"N2-conventional"));
        assert!(names.contains(&"N1-dense"));
        let again = service_plan(usize::MAX);
        assert_eq!(names.len(), again.len());
        let four = service_plan(4);
        assert_eq!(four.len(), 4);
        for (a, b) in four.iter().zip(full.iter()) {
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn affinity_shards_cover_plan_and_keep_memshare_groups_whole() {
        let plan = service_plan(0);
        for workers in [1usize, 2, 4, 8, 32] {
            let shards = affinity_shards(&plan, workers);
            assert!(!shards.is_empty() && shards.len() <= workers);
            let mut seen: Vec<u32> = shards.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..plan.len() as u32).collect::<Vec<_>>(),
                "{workers} workers must cover every cell exactly once"
            );
            // Every pair of cells with the same memshare config sits in
            // the same shard — the property that stops cross-process
            // replay duplication.
            let shard_of = |cell: u32| shards.iter().position(|s| s.contains(&cell)).unwrap();
            for (i, a) in plan.iter().enumerate() {
                for (j, b) in plan.iter().enumerate().skip(i + 1) {
                    if let (Some(ma), Some(mb)) = (&a.memshare, &b.memshare) {
                        if format!("{ma:?}") == format!("{mb:?}") {
                            assert_eq!(
                                shard_of(i as u32),
                                shard_of(j as u32),
                                "cells {i} and {j} share a memshare config"
                            );
                        }
                    }
                }
            }
            // Determinism: recomputing the shards yields the same split.
            assert_eq!(shards, affinity_shards(&plan, workers));
        }
    }

    #[test]
    fn worker_args_parse_and_reject() {
        let ok = parse_worker_args(&[
            WORKER_FLAG.to_owned(),
            "--journal".into(),
            "/tmp/w.journal".into(),
            "--worker-id".into(),
            "3".into(),
            "--attempt".into(),
            "1".into(),
            "--cells".into(),
            "0..2,5..6".into(),
            "--plan-cells".into(),
            "6".into(),
            "--seed".into(),
            "99".into(),
        ])
        .expect("valid worker args");
        assert_eq!(ok.worker_id, 3);
        assert_eq!(ok.attempt, 1);
        assert_eq!(ok.cells, vec![0, 1, 5]);
        assert_eq!(ok.plan_cells, 6);
        assert_eq!(ok.seed, 99);
        assert!(ok.stall_after.is_none());

        assert!(parse_worker_args(&["--cells".into(), "0..2".into()]).is_err());
        assert!(parse_worker_args(&[
            "--journal".into(),
            "x".into(),
            "--cells".into(),
            "bad".into()
        ])
        .is_err());
        assert!(parse_worker_args(&["--frobnicate".into()]).is_err());
    }
}
