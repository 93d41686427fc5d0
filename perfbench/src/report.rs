//! Metrics and their JSON rendering.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::traced::{Recorder, Span, Work, ROOT, SETUP};
use crate::{median, Pass};

/// A JSON value, rendered with keys in insertion order.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(x) => write!(f, "{x}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The `metrics` object of the result line.
pub(crate) fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The nearest-rank `p`-th percentile of ascending `sorted`.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it.
pub(crate) fn tail_percentile(samples: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * samples as f64).ceil() as usize;
            samples.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0)
}

/// Ascending per-eval latencies of a pass, in milliseconds.
pub(crate) fn latencies_ms(pass: &Pass) -> Vec<f64> {
    let mut ms: Vec<f64> = pass.latency_s.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Wall seconds of each timed round.
pub(crate) fn round_walls(pass: &Pass) -> Vec<f64> {
    pass.latency_s
        .chunks(pass.plan.round_len)
        .map(|r| r.iter().sum())
        .collect()
}

/// The end-to-end metrics of an untraced pass.
pub(crate) fn end_to_end(pass: &Pass, peak_rss_mib: f64) -> Vec<Metric> {
    let ms = latencies_ms(pass);
    vec![
        metric("setup_s", median(&pass.setup_s), "s"),
        metric("evals_per_s", ms.len() as f64 / pass.timed_wall_s, "1/s"),
        metric("eval_p50_ms", percentile(&ms, 50.0), "ms"),
        metric(
            "eval_tail_ms",
            percentile(&ms, tail_percentile(ms.len())),
            "ms",
        ),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Self time of every span: its duration minus its children's.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self nanoseconds per layer, split into set-up (`[0]`) and timed
/// (`[1]`) phases.
pub(crate) fn layer_self_ns(spans: &[Span]) -> [BTreeMap<&'static str, u64>; 2] {
    let mut out = [BTreeMap::new(), BTreeMap::new()];
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out[usize::from(s.eval != SETUP)].entry(s.name).or_default() += ns;
    }
    out
}

/// Wall nanoseconds of the timed evals, summed.
fn eval_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == ROOT && s.eval != SETUP)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Layers whose calls do bookkeeping rather than simulation; the
/// per-layer metrics report them together.
const OTHER_CALLS: [&str; 7] = [
    "workloads.demand",
    "workloads.tasks",
    "workloads.faas",
    "workloads.dag",
    "workloads.profile",
    "memshare.link",
    "core.scenario",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced pass; `untraced_wall_s` is the
/// timed wall of the untraced pass over the same evals, for the
/// tracing overhead.
pub(crate) fn per_layer(traced: &Pass, untraced_wall_s: f64) -> Vec<Metric> {
    let rec: &Recorder = traced.recorder.as_ref().expect("a traced pass");
    let [setup, timed] = layer_self_ns(&rec.spans);
    let wall = eval_wall_ns(&rec.spans) as f64;
    let ms = |m: &BTreeMap<&str, u64>, name: &str| m.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let both = |name: &str| ms(&setup, name) + ms(&timed, name);
    let share = |name: &str| ratio(ms(&timed, name) * 1e6, wall);
    let [ws, wt]: &[Work; 2] = &rec.work;
    let ns_per = |ms: f64, n: u64| ratio(ms * 1e6, n as f64);
    let n = |x: u64| x as f64;
    let memo = |lane: &str, hits: u64, misses: u64| {
        [
            metric(format!("core.memo.{lane}.hits"), n(hits), "count"),
            metric(format!("core.memo.{lane}.misses"), n(misses), "count"),
            metric(
                format!("core.memo.{lane}.hit_ratio"),
                ratio(n(hits), n(hits + misses)),
                "1",
            ),
        ]
    };
    let other: f64 = OTHER_CALLS.iter().map(|c| ms(&timed, c)).sum();

    let memtrace_ms = both("workloads.memtrace");
    let disktrace_ms = both("workloads.disktrace");
    let accesses = ws.memtrace_accesses + wt.memtrace_accesses;
    let blocks = ws.disktrace_blocks + wt.disktrace_blocks;
    let mut m = vec![
        metric("workloads.memtrace.accesses", n(accesses), "count"),
        metric("workloads.memtrace.ms", memtrace_ms, "ms"),
        metric(
            "workloads.memtrace.ns_per_access",
            ns_per(memtrace_ms, accesses),
            "ns",
        ),
        metric(
            "workloads.memtrace.mib",
            n(ws.memtrace_bytes + wt.memtrace_bytes) / f64::from(1 << 20),
            "MiB",
        ),
        metric("workloads.disktrace.blocks", n(blocks), "count"),
        metric("workloads.disktrace.ms", disktrace_ms, "ms"),
        metric(
            "workloads.disktrace.ns_per_block",
            ns_per(disktrace_ms, blocks),
            "ns",
        ),
    ];
    let flash_ms = ms(&timed, "flashcache.replay");
    m.extend([
        metric("flashcache.replay.replays", n(wt.flash_replays), "count"),
        metric("flashcache.replay.blocks", n(wt.flash_blocks), "count"),
        metric("flashcache.replay.ms", flash_ms, "ms"),
        metric("flashcache.replay.share", share("flashcache.replay"), "1"),
        metric(
            "flashcache.replay.ns_per_block",
            ns_per(flash_ms, wt.flash_blocks),
            "ns",
        ),
        metric(
            "flashcache.replay.flash_hit_ratio",
            ratio(n(wt.flash_hits), n(wt.flash_requests)),
            "1",
        ),
    ]);
    let mem_ms = ms(&timed, "memshare.replay");
    m.extend([
        metric("memshare.replay.replays", n(wt.mem_replays), "count"),
        metric("memshare.replay.accesses", n(wt.mem_accesses), "count"),
        metric("memshare.replay.ms", mem_ms, "ms"),
        metric("memshare.replay.share", share("memshare.replay"), "1"),
        metric(
            "memshare.replay.ns_per_access",
            ns_per(mem_ms, wt.mem_accesses),
            "ns",
        ),
        metric(
            "memshare.replay.miss_ratio",
            ratio(n(wt.mem_misses), n(wt.mem_measured)),
            "1",
        ),
    ]);
    let driver_ms = ms(&timed, "simserver.driver");
    m.extend([
        metric("simserver.driver.searches", n(wt.driver_searches), "count"),
        metric("simserver.driver.probes", n(wt.driver_probes), "count"),
        metric(
            "simserver.driver.probes_per_search",
            ratio(n(wt.driver_probes), n(wt.driver_searches)),
            "count",
        ),
        metric("simserver.driver.events", n(wt.driver_events), "count"),
        metric("simserver.driver.ms", driver_ms, "ms"),
        metric("simserver.driver.share", share("simserver.driver"), "1"),
        metric(
            "simserver.driver.ns_per_event",
            ns_per(driver_ms, wt.driver_events),
            "ns",
        ),
    ]);
    let batch_ms = ms(&timed, "simserver.batch");
    m.extend([
        metric("simserver.batch.runs", n(wt.batch_runs), "count"),
        metric("simserver.batch.tasks", n(wt.batch_tasks), "count"),
        metric("simserver.batch.events", n(wt.batch_events), "count"),
        metric("simserver.batch.ms", batch_ms, "ms"),
        metric("simserver.batch.share", share("simserver.batch"), "1"),
        metric(
            "simserver.batch.ns_per_event",
            ns_per(batch_ms, wt.batch_events),
            "ns",
        ),
    ]);
    let open_ms = ms(&timed, "simserver.openloop");
    m.extend([
        metric("simserver.openloop.runs", n(wt.open_runs), "count"),
        metric("simserver.openloop.requests", n(wt.open_requests), "count"),
        metric("simserver.openloop.events", n(wt.open_events), "count"),
        metric("simserver.openloop.ms", open_ms, "ms"),
        metric("simserver.openloop.share", share("simserver.openloop"), "1"),
        metric(
            "simserver.openloop.ns_per_event",
            ns_per(open_ms, wt.open_events),
            "ns",
        ),
    ]);
    let res_ms = ms(&timed, "simserver.resilience");
    m.extend([
        metric("simserver.resilience.runs", n(wt.res_runs), "count"),
        metric("simserver.resilience.offered", n(wt.res_offered), "count"),
        metric("simserver.resilience.shed", n(wt.res_shed), "count"),
        metric(
            "simserver.resilience.retries_spent",
            n(wt.res_retries_spent),
            "count",
        ),
        metric(
            "simserver.resilience.retries_denied",
            n(wt.res_retries_denied),
            "count",
        ),
        metric(
            "simserver.resilience.goodput_ratio",
            ratio(wt.res_goodput_rps, wt.res_offered_rps),
            "1",
        ),
        metric("simserver.resilience.events", n(wt.res_events), "count"),
        metric("simserver.resilience.ms", res_ms, "ms"),
        metric(
            "simserver.resilience.share",
            share("simserver.resilience"),
            "1",
        ),
        metric(
            "simserver.resilience.ns_per_event",
            ns_per(res_ms, wt.res_events),
            "ns",
        ),
    ]);
    let q = &wt.queue;
    m.extend([
        metric("simcore.faults.plans", n(wt.fault_plans), "count"),
        metric("simcore.faults.windows", n(wt.fault_windows), "count"),
        metric(
            "simcore.faults.us",
            ms(&timed, "simcore.faults") * 1e3,
            "us",
        ),
        metric("simcore.event.scheduled", n(q.scheduled), "count"),
        metric(
            "simcore.event.fast_path_share",
            ratio(n(q.fast_path), n(q.scheduled)),
            "1",
        ),
        metric(
            "simcore.event.calendar_share",
            ratio(n(q.calendar_hits), n(q.scheduled)),
            "1",
        ),
        metric("simcore.event.heap_fallbacks", n(q.heap_fallbacks), "count"),
        metric("simcore.event.max_depth", n(q.max_depth), "count"),
    ]);
    let [storage, replay, _] = traced.memo;
    m.extend(memo("steady", wt.steady_hits, wt.steady_misses));
    m.extend(memo("replay", replay.hits, replay.misses));
    m.extend(memo("storage", storage.hits, storage.misses));
    m.extend([
        metric("core.evaluate.self_ms", ms(&timed, "core.evaluate"), "ms"),
        metric("core.evaluate.self_share", share("core.evaluate"), "1"),
        metric("other_calls.ms", other, "ms"),
        metric("other_calls.share", ratio(other * 1e6, wall), "1"),
        metric("tco.pricings", n(wt.tco_pricings), "count"),
        metric("tco.us", ms(&timed, "tco") * 1e3, "us"),
        metric("trace.coverage", 1.0 - share("core.evaluate"), "1"),
        metric(
            "trace.overhead_share",
            traced.timed_wall_s / untraced_wall_s - 1.0,
            "1",
        ),
        metric("trace.spans", rec.spans.len() as f64, "count"),
        metric("setup.wall_ms", median(&traced.setup_s) * 1e3, "ms"),
    ]);
    for layer in [
        "workloads.memtrace",
        "workloads.disktrace",
        "flashcache.replay",
        "memshare.replay",
        "simserver.driver",
        "simserver.batch",
        "core.evaluate",
    ] {
        m.push(metric(format!("setup.{layer}.ms"), ms(&setup, layer), "ms"));
    }
    m
}

/// Every span as tab-separated text: eval, parent, name, start, end.
pub(crate) fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("eval\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let id = |x: u32| {
            if x == u32::MAX {
                "-".to_owned()
            } else {
                x.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            id(s.eval),
            id(s.parent),
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out
}
