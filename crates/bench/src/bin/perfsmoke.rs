//! Fixed-seed performance smoke test: times the workspace's main studies
//! and the event-queue hot path, verifies that memoized sweeps are
//! byte-identical to cold recomputation, measures the observability
//! layer's overhead in-process, then writes `BENCH_results.json` to the
//! current directory.
//!
//! All studies run with pinned seeds, so the *numbers* they produce are
//! identical run to run and across `--threads` values; only the wall
//! times vary — and the `cross_check` section proves it, evaluating one
//! design under every worker-thread count × memo setting and requiring
//! byte-identical renders. The smoke also rates
//! the two replay kernels (`perf.replay`: pages/sec and
//! blocks/sec) and scales the multi-process sweep service across worker
//! counts (1, 2, 4 processes, no chaos), folding the wall times into
//! the `service` section. Run with
//! `cargo run --release -p wcs-bench --bin perfsmoke [--threads N]`.

use std::fmt::Write as _;
use std::time::Instant;

use wcs_bench::cli::{self, run_or_exit};
use wcs_bench::service::{run_supervisor, ServiceOptions};
use wcs_core::evaluate::Evaluator;
use wcs_core::experiments::{cpu_study, memory_study_with, run_disk_study_with, unified_study};
use wcs_core::sweeps::{sweep_flash_capacity, sweep_local_fraction, sweep_platforms};
use wcs_core::DesignPoint;
use wcs_flashcache::system::StorageSystem;
use wcs_memshare::ensemble::{run_ensemble_pooled, ServerConfig};
use wcs_memshare::link::RemoteLink;
use wcs_memshare::policy::PolicyKind;
use wcs_memshare::twolevel::TwoLevelSim;
use wcs_platforms::storage::{DiskModel, FlashModel};
use wcs_platforms::PlatformId;
use wcs_simcore::faults::FaultProcess;
use wcs_simcore::journal::fnv1a64;
use wcs_simcore::obs::Registry;
use wcs_simcore::{EventQueue, SimDuration, SimRng, SimTime, ThreadPool};
use wcs_simserver::{Cluster, ClusterFaults, Resource, RetryPolicy, ServerSpec, Stage};
use wcs_workloads::disktrace;
use wcs_workloads::memtrace::{params_for as mem_params, MemTraceBuf};
use wcs_workloads::perf::MeasureConfig;
use wcs_workloads::{ScenarioSpec, TrafficPack, WorkloadId};

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The metric series folded into `BENCH_results.json`: at least one per
/// standard family, recorded by the memoized sweep bundle and the
/// obs-overhead study runs (a family no stage records, such as
/// `resilience.*`, folds the zero `cli::ensure_standard_series`
/// registers). Exact-class series are deterministic across `--threads`
/// and memo settings; the `memo.*` hit/miss counters are wall-class
/// profiling data.
const FOLDED_SERIES: [&str; 28] = [
    "queue.scheduled",
    "queue.fast_path",
    "queue.calendar_hits",
    "queue.heap_fallbacks",
    "queue.max_depth",
    "pool.tasks",
    "memo.storage.hits",
    "memo.replay.hits",
    "memo.perf.hits",
    "memo.perf.misses",
    "memo.scenario.hits",
    "memshare.replays",
    "memshare.page_faults",
    "memshare.cbf_saved_ns",
    "flashcache.replays",
    "flashcache.flash_hits",
    "flashcache.ftl_bytes_programmed",
    "cooling.throttle_events",
    "faults.retries",
    "faults.offered",
    "recovery.cells_replayed",
    "recovery.cells_journaled",
    "recovery.task_panics",
    "scenario.evals",
    "scenario.traffic_runs",
    "scenario.requests",
    "scenario.qos_violations",
    "resilience.requests",
];

/// The memoization-sensitive workload: every design-space sweep and
/// study the caches accelerate, rendered to one canonical string. Any
/// single-bit difference between memoized and cold runs shows up here.
fn sweep_bundle(eval: &Evaluator) -> String {
    let mut out = String::new();
    let local = sweep_local_fraction(eval, &[0.5, 0.25, 0.125]).expect("sweep evaluates");
    let flash = sweep_flash_capacity(eval, &[0.5, 1.0, 2.0]).expect("sweep evaluates");
    let platforms = sweep_platforms(eval).expect("sweep evaluates");
    let disk = run_disk_study_with(&MeasureConfig::quick(), eval.memo.storage());
    let memory = memory_study_with(0.25, eval.memo.replay());
    let _ = write!(
        out,
        "{local:?}\n{flash:?}\n{platforms:?}\n{disk:?}\n{memory:?}"
    );
    out
}

/// Push/pop one million uniformly-timed events and report (events,
/// events/sec). The pop loop folds every event into an order-sensitive
/// checksum, so the timed work cannot be optimized away.
fn event_queue_rate() -> (u64, f64) {
    const EVENTS: u64 = 1_000_000;
    let mut rng = SimRng::seed_from(97);
    let mut q = EventQueue::with_capacity(EVENTS as usize);
    let (sum, wall_ms) = timed(|| {
        for i in 0..EVENTS {
            q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), i);
        }
        let mut sum = 0u64;
        let mut order = 0u64;
        while let Some((t, e)) = q.pop() {
            sum = sum.wrapping_add(e).wrapping_add(order);
            order = order.wrapping_mul(31).wrapping_add(t.as_nanos());
        }
        sum
    });
    std::hint::black_box(sum);
    (2 * EVENTS, 2.0 * EVENTS as f64 / (wall_ms / 1e3))
}

/// Fresh replays timed per kernel rate; the rate reported is their
/// median.
const RATE_REPLAYS: usize = 5;

/// Replay-kernel rates in `perf.replay`.
struct ReplayRates {
    /// Two-level page kernel under LRU, pages/sec (CI-gated).
    pages_per_sec: f64,
    /// Two-level flag kernel under random replacement, the evaluator's
    /// default, pages/sec (reported, not gated).
    random_pages_per_sec: f64,
    /// Flashcache block kernel, blocks/sec (CI-gated).
    blocks_per_sec: f64,
}

/// Rate the replay kernels over fixed-seed materialized traces: the
/// two-level page kernel under LRU and under random replacement in
/// pages/sec (dense store, trace read in place; `pool` only
/// materializes the trace) and the flashcache block kernel in
/// blocks/sec. Each rate is the median of [`RATE_REPLAYS`] replays into
/// fresh stores over the same trace. These feed `perf.replay` in the
/// JSON; CI gates the LRU page and the block rate against the committed
/// baseline.
fn replay_kernel_rates(pool: &ThreadPool) -> ReplayRates {
    const MEM_ACCESSES: usize = 2_000_000;
    let params = mem_params(WorkloadId::Websearch);
    let buf = MemTraceBuf::generate_par(params, 1, MEM_ACCESSES, pool);
    let fill = (MEM_ACCESSES / 2) as u64;
    let page_rate = |policy| {
        median_rate(|| {
            // 25% of the 2 GiB baseline locally — the paper's operating
            // point.
            let mut sim =
                TwoLevelSim::with_page_universe(131_072, policy, 5, params.footprint_pages);
            let _ = sim.run_buf(&buf, 0, fill);
            let (stats, ms) = timed(|| sim.run_buf(&buf, MEM_ACCESSES / 2, fill));
            stats.accesses as f64 / (ms / 1e3)
        })
    };
    let pages_per_sec = page_rate(PolicyKind::Lru);
    let random_pages_per_sec = page_rate(PolicyKind::Random);

    const DISK_REQUESTS: usize = 400_000;
    let dparams = disktrace::params_for(WorkloadId::Ytube);
    let trace = disktrace::materialize(dparams, 1, DISK_REQUESTS);
    let blocks = DISK_REQUESTS as u64 * u64::from(dparams.request_blocks);
    let blocks_per_sec = median_rate(|| {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let (_, ms) = timed(|| sys.replay_trace(dparams, &trace));
        blocks as f64 / (ms / 1e3)
    });
    ReplayRates {
        pages_per_sec,
        random_pages_per_sec,
        blocks_per_sec,
    }
}

/// The median of [`RATE_REPLAYS`] rates: steadier than one timing, and,
/// unlike the best, not biased upward against a single-run baseline.
fn median_rate(mut rate: impl FnMut() -> f64) -> f64 {
    let mut rates: Vec<f64> = (0..RATE_REPLAYS).map(|_| rate()).collect();
    rates.sort_by(f64::total_cmp);
    rates[RATE_REPLAYS / 2]
}

/// Byte-identity cross-check: evaluate the N2 design (every cache plus
/// the event engine in one cell) on a fresh evaluator under every
/// engine configuration — worker threads × memoization — and require
/// all renders byte-identical. Any divergence aborts the run before
/// results are written.
fn engine_cross_check(args: &cli::BenchArgs) -> (usize, u64, f64) {
    let design = DesignPoint::n2();
    let mut reference: Option<(String, String)> = None;
    let mut configs = 0usize;
    let (_, wall_ms) = timed(|| {
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads).expect("positive thread count");
            for memo in [true, false] {
                let label = format!("threads={threads} memo={memo}");
                let e = args
                    .build_evaluator(|b| b.quick().pool(pool).memo(memo).obs(Registry::disabled()));
                let render = format!("{:?}", e.evaluate(&design).expect("N2 evaluates"));
                match &reference {
                    None => reference = Some((render, label)),
                    Some((want, base)) => assert_eq!(
                        want, &render,
                        "evaluation diverged between [{base}] and [{label}]"
                    ),
                }
                configs += 1;
            }
        }
    });
    let (render, _) = reference.expect("at least one config ran");
    (configs, fnv1a64(render.as_bytes()), wall_ms)
}

/// Scale the sweep service across worker-process counts (no chaos) and
/// report (workers, wall_ms, cells) per point.
fn service_scaling(seed: u64) -> Vec<(usize, f64, usize)> {
    let mut points = Vec::new();
    for workers in [1usize, 2, 4] {
        let dir = std::env::temp_dir().join(format!(
            "wcs-perfsmoke-service-{}-w{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = ServiceOptions::new(workers);
        opts.seed = seed;
        opts.out = dir.join("canonical.journal");
        opts.dir = dir.clone();
        let (report, wall_ms) =
            timed(|| run_or_exit("sweep service scaling run", run_supervisor(&opts)));
        points.push((workers, wall_ms, report.cells));
        let _ = std::fs::remove_dir_all(&dir);
    }
    points
}

fn main() {
    wcs_bench::service::maybe_run_worker();
    let args = cli::parse();
    let pool = args.pool;
    let eval = args.build_evaluator(|b| b.quick());
    let mut studies: Vec<(&str, f64)> = Vec::new();

    let (_, ms) = timed(|| cpu_study(&eval).expect("catalog platforms evaluate"));
    studies.push(("cpu_study_quick", ms));

    let (_, ms) = timed(|| unified_study(&eval, PlatformId::Srvr1).expect("designs evaluate"));
    studies.push(("unified_study_quick", ms));

    let configs = vec![ServerConfig::paper_default(WorkloadId::Websearch); 16];
    let (_, ms) = timed(|| {
        run_ensemble_pooled(
            &configs,
            RemoteLink::pcie_x4(),
            PolicyKind::Random,
            300_000,
            7,
            pool,
        )
        .expect("non-empty ensemble")
    });
    studies.push(("ensemble_16_servers", ms));

    let cluster = Cluster::ideal(ServerSpec::new(2), 16).expect("non-empty cluster");
    let flap = FaultProcess::exponential(
        SimDuration::from_secs_f64(0.4),
        SimDuration::from_secs_f64(0.02),
    )
    .expect("positive rates");
    let plan = ClusterFaults::from_processes(&vec![flap; 16], SimDuration::from_secs_f64(5.0), 23);
    let retry = RetryPolicy::new(
        SimDuration::from_secs_f64(0.008),
        3,
        SimDuration::from_millis(2),
    )
    .expect("positive timeout");
    let mut source = |rng: &mut SimRng| {
        vec![Stage::new(
            Resource::Cpu,
            rng.exp_duration(SimDuration::from_micros(800)),
        )]
    };
    let (_, ms) = timed(|| {
        cluster
            .run_closed_loop_faulted(&mut source, 64, 2_000, 40_000, 17, &plan, &retry)
            .expect("valid run parameters")
    });
    studies.push(("cluster_faulted_40k", ms));

    // Event-queue hot path.
    let (queue_events, events_per_sec) = event_queue_rate();

    // Observability overhead: the unified study on a fresh evaluator per
    // run, disabled/enabled runs interleaved five times; the median of
    // each side rejects scheduler noise that best-of-two let through.
    // The same work runs either way — the only difference is whether the
    // exact metric exports hit a no-op handle or live atomics. Both the
    // absolute delta and the percentage are reported, so sub-millisecond
    // jitter on a fast study cannot read as a large ratio.
    const OBS_RUNS: usize = 5;
    let metrics_reg = Registry::new();
    let study_run = |obs: Registry| -> f64 {
        let e = args.build_evaluator(|b| b.obs(obs).quick());
        let (_, ms) = timed(|| unified_study(&e, PlatformId::Srvr1).expect("designs evaluate"));
        ms
    };
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let mut off_runs = Vec::with_capacity(OBS_RUNS);
    let mut on_runs = Vec::with_capacity(OBS_RUNS);
    for _ in 0..OBS_RUNS {
        off_runs.push(study_run(Registry::disabled()));
        on_runs.push(study_run(metrics_reg.clone()));
    }
    let obs_off_ms = median(off_runs);
    let obs_on_ms = median(on_runs);
    let obs_delta_ms = obs_on_ms - obs_off_ms;
    let obs_overhead_pct = obs_delta_ms / obs_off_ms * 100.0;

    // Memoization check: the full sweep bundle, cold (memo disabled),
    // then twice on one memoized evaluator (filling, then warm). All
    // three renders must be byte-identical — a divergence fails the run
    // (and CI) before any results are written. The memoized evaluator
    // records into `metrics_reg`, so the folded series below cover the
    // sweep bundle as well as the overhead study.
    let cold_eval = args.build_evaluator(|b| b.memo(false).obs(Registry::disabled()).quick());
    let (cold, sweep_cold_ms) = timed(|| sweep_bundle(&cold_eval));
    let memo_eval = args.build_evaluator(|b| b.obs(metrics_reg.clone()).quick());
    let (filling, _) = timed(|| sweep_bundle(&memo_eval));
    let (warm, sweep_warm_ms) = timed(|| sweep_bundle(&memo_eval));
    assert_eq!(
        cold, filling,
        "memoized sweep output diverged from cold recomputation"
    );
    assert_eq!(
        cold, warm,
        "warm (cached) sweep output diverged from cold recomputation"
    );
    let memo_stats = memo_eval.memo.stats();
    let speedup = sweep_cold_ms / sweep_warm_ms;

    // Scenario packs: both new workload families plus a paper workload
    // under a flash crowd, on the N2 design. The memoized run feeds the
    // scenario.* series folded below; the cold evaluator must render
    // byte-identically (same gate as the sweep bundle).
    let scenario_slate = [
        ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
        ScenarioSpec::steady("dag-analytics").with_traffic(TrafficPack::diurnal()),
        ScenarioSpec::steady("websearch"),
    ];
    let n2 = DesignPoint::n2();
    let (scenario_evals, scenario_ms) = timed(|| {
        memo_eval
            .evaluate_scenarios(&n2, &scenario_slate)
            .expect("scenario slate evaluates")
    });
    let scenario_cold = cold_eval
        .evaluate_scenarios(&n2, &scenario_slate)
        .expect("scenario slate evaluates");
    assert_eq!(
        format!("{scenario_evals:?}"),
        format!("{scenario_cold:?}"),
        "scenario evaluation diverged between memoized and cold evaluators"
    );
    studies.push(("scenario_packs_n2", scenario_ms));
    let scenario_evals_per_sec = scenario_evals.len() as f64 / (scenario_ms / 1e3);

    memo_eval.export_obs();
    cli::ensure_standard_series(&metrics_reg);
    let snap = metrics_reg.snapshot();
    // The same-instant fast path must actually fire in real studies: the
    // batch engines schedule identical-service tasks at tied timestamps,
    // and the epoch buffer has to catch them (a zero here is the
    // regression the fast-path fix addressed).
    let fast_path = snap.count("queue.fast_path").unwrap_or(0);
    assert!(
        fast_path > 0,
        "queue.fast_path stayed zero across the sweep bundle — the \
         same-instant fast path never fired"
    );
    // Depth routing must actually reach the calendar wheel at real
    // study depths — a zero here means the routing threshold regressed
    // back above the depths studies reach (dead routing).
    let calendar_hits = snap.count("queue.calendar_hits").unwrap_or(0);
    assert!(
        calendar_hits > 0,
        "queue.calendar_hits stayed zero across the sweep bundle"
    );

    let replay = replay_kernel_rates(&pool);
    let (cross_configs, cross_fnv, cross_ms) = engine_cross_check(&args);
    let service_points = service_scaling(args.seed.unwrap_or(42));

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads\": {},", pool.threads());
    json.push_str("  \"studies\": [\n");
    for (i, (name, wall_ms)) in studies.iter().enumerate() {
        let comma = if i + 1 < studies.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"wall_ms\": {wall_ms:.3}}}{comma}"
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"memo\": {{\"enabled\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
         \"sweep_cold_ms\": {sweep_cold_ms:.3}, \"sweep_warm_ms\": {sweep_warm_ms:.3}, \
         \"speedup\": {speedup:.2}, \"diverged\": false}},",
        memo_eval.memo.is_enabled(),
        memo_stats.hits,
        memo_stats.misses,
        memo_stats.hit_rate(),
    );
    let _ = writeln!(
        json,
        "  \"obs\": {{\"runs\": {OBS_RUNS}, \"disabled_ms\": {obs_off_ms:.3}, \
         \"enabled_ms\": {obs_on_ms:.3}, \"delta_ms\": {obs_delta_ms:.3}, \
         \"overhead_pct\": {obs_overhead_pct:.3}}},"
    );
    json.push_str("  \"metrics\": {\n");
    for (i, name) in FOLDED_SERIES.iter().enumerate() {
        let comma = if i + 1 < FOLDED_SERIES.len() { "," } else { "" };
        let value = snap.count(name).unwrap_or(0);
        let _ = writeln!(json, "    \"{name}\": {value}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"service\": [\n");
    for (i, (workers, wall_ms, cells)) in service_points.iter().enumerate() {
        let comma = if i + 1 < service_points.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"workers\": {workers}, \"wall_ms\": {wall_ms:.3}, \"cells\": {cells}}}{comma}"
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"event_queue\": {{\"events\": {queue_events}, \"events_per_sec\": {events_per_sec:.0}}},"
    );
    let scheduled = snap.count("queue.scheduled").unwrap_or(0);
    let fast_path_share = fast_path as f64 / scheduled.max(1) as f64;
    let _ = writeln!(
        json,
        "  \"perf\": {{\"events_per_sec\": {events_per_sec:.0}, \
         \"sweep_cold_ms\": {sweep_cold_ms:.3}, \"sweep_warm_ms\": {sweep_warm_ms:.3}, \
         \"fast_path_share\": {fast_path_share:.4}, \
         \"scenario_evals_per_sec\": {scenario_evals_per_sec:.3}, \
         \"replay\": {{\"pages_per_sec\": {:.0}, \"random_pages_per_sec\": {:.0}, \
         \"blocks_per_sec\": {:.0}}}}},",
        replay.pages_per_sec, replay.random_pages_per_sec, replay.blocks_per_sec,
    );
    let _ = writeln!(
        json,
        "  \"cross_check\": {{\"configs\": {cross_configs}, \
         \"render_fnv64\": \"{cross_fnv:#018x}\", \"wall_ms\": {cross_ms:.1}, \
         \"diverged\": false}}"
    );
    json.push_str("}\n");
    run_or_exit(
        "write BENCH_results.json",
        std::fs::write("BENCH_results.json", &json),
    );

    println!("perfsmoke ({} threads):", pool.threads());
    for (name, wall_ms) in &studies {
        println!("  {name:<22} {wall_ms:>10.1} ms");
    }
    println!("  event queue: {events_per_sec:.2e} events/sec");
    for (workers, wall_ms, cells) in &service_points {
        println!("  service {cells} cells, {workers} worker(s): {wall_ms:>10.1} ms");
    }
    println!(
        "  replay kernels: twolevel {:.2e} pages/sec (lru), {:.2e} (random), \
         flashcache {:.2e} blocks/sec",
        replay.pages_per_sec, replay.random_pages_per_sec, replay.blocks_per_sec
    );
    println!(
        "  cross-check: {cross_configs} engine configs byte-identical \
         (fnv64 {cross_fnv:#018x}, {cross_ms:.0} ms)"
    );
    println!(
        "  obs overhead (median of {OBS_RUNS}): disabled {obs_off_ms:.1} ms, \
         enabled {obs_on_ms:.1} ms ({obs_delta_ms:+.2} ms, {obs_overhead_pct:+.2}%)"
    );
    println!(
        "  memo sweep: cold {sweep_cold_ms:.1} ms, warm {sweep_warm_ms:.1} ms \
         ({speedup:.1}x, hit rate {:.1}%, byte-identical)",
        memo_stats.hit_rate() * 100.0
    );
    println!(
        "  scenario packs: {} evals in {scenario_ms:.1} ms \
         ({scenario_evals_per_sec:.1} evals/sec, memo==cold byte-identical)",
        scenario_evals.len()
    );

    // Honor --metrics like every other bench bin: the registry attached
    // to the studies' evaluator (enabled only when --metrics was given).
    eval.export_obs();
    args.write_metrics();
    println!("wrote BENCH_results.json");
}
