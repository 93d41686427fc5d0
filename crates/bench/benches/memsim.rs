//! Benchmarks of the two-level memory simulator (Figure 4's engine):
//! trace replay throughput per replacement policy, and trace generation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wcs_memshare::policy::PolicyKind;
use wcs_memshare::twolevel::TwoLevelSim;
use wcs_workloads::memtrace::{params_for, MemTraceBuf, MemTraceGen};
use wcs_workloads::WorkloadId;

/// Accesses per replay and per generated trace.
const ACCESSES: usize = 100_000;

fn bench_policies(c: &mut Criterion) {
    // Generated once: each iteration times the replay of the same trace
    // into a cold store, not the Zipf set-up that builds the trace.
    let trace = MemTraceBuf::generate(params_for(WorkloadId::Websearch), 9, ACCESSES);
    let mut group = c.benchmark_group("twolevel_replay_100k");
    for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
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
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("memtrace_generate_100k", |b| {
        b.iter(|| {
            let mut gen = MemTraceGen::new(params_for(WorkloadId::Ytube), 11);
            black_box(gen.take_vec(ACCESSES).len())
        })
    });
}

criterion_group!(benches, bench_policies, bench_trace_generation);
criterion_main!(benches);
