//! Benchmarks of the two-level memory simulator (Figure 4's engine):
//! trace replay throughput per replacement policy, and trace generation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wcs_memshare::policy::PolicyKind;
use wcs_memshare::twolevel::TwoLevelSim;
use wcs_workloads::memtrace::{params_for, MemTraceBuf};
use wcs_workloads::WorkloadId;

/// Accesses per replay and per generated trace.
const ACCESSES: usize = 100_000;

fn bench_policies(c: &mut Criterion) {
    // Generated once: each iteration times the replay of the same trace
    // into a cold store, not the Zipf set-up that builds the trace.
    let params = params_for(WorkloadId::Websearch);
    let trace = MemTraceBuf::generate(params, 9, ACCESSES);
    let mut group = c.benchmark_group("twolevel_replay_100k");
    for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
        // The open (hashed) store, then the store every evaluator replay
        // builds over the trace's known footprint: a direct-indexed
        // `u32` entry per page, or two flag bits per page under random
        // replacement.
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut sim = TwoLevelSim::new(131_072, policy, 7);
                    black_box(sim.run_buf(&trace, 0, ACCESSES as u64))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{policy:?}"), "universe"),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut sim =
                        TwoLevelSim::with_page_universe(131_072, policy, 7, params.footprint_pages);
                    black_box(sim.run_buf(&trace, 0, ACCESSES as u64))
                })
            },
        );
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    // The buffer every evaluator replay reads: pages and write bits
    // filled in place.
    c.bench_function("memtrace_generate_100k", |b| {
        b.iter(|| {
            black_box(MemTraceBuf::generate(params_for(WorkloadId::Ytube), 11, ACCESSES).len())
        })
    });
}

criterion_group!(benches, bench_policies, bench_trace_generation);
criterion_main!(benches);
