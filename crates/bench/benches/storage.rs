//! Benchmarks of the storage system (Table 3's engine): flash-cache
//! replay throughput with and without flash.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wcs_flashcache::system::StorageSystem;
use wcs_platforms::storage::{DiskModel, FlashModel};
use wcs_workloads::disktrace::{materialize, params_for};
use wcs_workloads::WorkloadId;

fn bench_replay(c: &mut Criterion) {
    // Materialized once, as the evaluator does: each iteration times the
    // replay of the same trace into a cold system, not the Zipf draws
    // that build it.
    let params = params_for(WorkloadId::Ytube);
    let trace = materialize(params, 3, 50_000);
    c.bench_function("storage_replay_disk_only_50k", |b| {
        b.iter(|| {
            let mut sys = StorageSystem::disk_only(DiskModel::laptop_remote());
            black_box(sys.replay_trace(params, &trace))
        })
    });
    c.bench_function("storage_replay_with_flash_50k", |b| {
        b.iter(|| {
            let mut sys =
                StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
            black_box(sys.replay_trace(params, &trace))
        })
    });
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
