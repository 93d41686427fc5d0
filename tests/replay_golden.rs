//! Golden values for the two replay kernels built on
//! `simcore::slotcache`: the memory-blade page store
//! (`memshare::twolevel`) and the flash extent index
//! (`flashcache::system`).
//!
//! The kernel-equivalence tests beside each kernel compare it with a
//! scalar reference that runs on the same `SlotCache`, so a change to
//! both would still pass them. These tests pin absolute values instead:
//! exact `MissStats` for every paper workload, policy, index kind and
//! local size, and a field-by-field digest of every `StorageStats` for
//! three flash sizes. Every memshare case fills its store, evicts and
//! writes back, so the victim draw, the dirty bit and the hit path all
//! reach the pinned numbers.

use wcs::flashcache::system::{StorageStats, StorageSystem};
use wcs::memshare::policy::PolicyKind;
use wcs::memshare::twolevel::{MissStats, TwoLevelSim};
use wcs::platforms::storage::{DiskModel, FlashModel};
use wcs::workloads::memtrace::{self, MemTraceBuf};
use wcs::workloads::{disktrace, WorkloadId};

/// Accesses per materialized page trace: the first `FILL` warm the
/// store, the rest are measured.
const TRACE: usize = 60_000;
const FILL: u64 = 20_000;
/// Local store sizes in pages.
const LOCAL: [usize; 3] = [1_024, 4_096, 16_384];
const POLICIES: [PolicyKind; 3] = [PolicyKind::Random, PolicyKind::Lru, PolicyKind::Clock];
/// Requests per disk trace and the flash sizes replayed against it.
const REQUESTS: usize = 150_000;
const FLASH_GB: [f64; 3] = [0.25, 1.0, 2.0];

/// `(accesses, misses, writebacks)` per workload (in `WorkloadId::ALL`
/// order), then policy (in `POLICIES` order), then local size.
#[rustfmt::skip]
const MISS_STATS: [(u64, u64, u64); 45] = [
    (40000, 38921, 3997), (40000, 37225, 3951), (40000, 33465, 3849),
    (40000, 38739, 3976), (40000, 36882, 3917), (40000, 32841, 3613),
    (40000, 38815, 3980), (40000, 37034, 3944), (40000, 33219, 3785),
    (40000, 20393, 6179), (40000, 15603, 4818), (40000, 1688, 531),
    (40000, 18794, 5340), (40000, 14235, 4061), (40000, 1627, 413),
    (40000, 19181, 5526), (40000, 14700, 4308), (40000, 1821, 751),
    (40000, 38149, 797), (40000, 35924, 795), (40000, 31632, 795),
    (40000, 37869, 781), (40000, 35467, 783), (40000, 30864, 724),
    (40000, 37997, 791), (40000, 35669, 795), (40000, 31254, 781),
    (40000, 30783, 6868), (40000, 26318, 6205), (40000, 15928, 4013),
    (40000, 29566, 6364), (40000, 25005, 5665), (40000, 15117, 3383),
    (40000, 29908, 6498), (40000, 25405, 5793), (40000, 15676, 3942),
    (40000, 30780, 19290), (40000, 26384, 16745), (40000, 16093, 10436),
    (40000, 29492, 18309), (40000, 25056, 15755), (40000, 15331, 9554),
    (40000, 29836, 18590), (40000, 25476, 16076), (40000, 15862, 10346),
];

/// One [`StorageRow`] per workload, then flash size.
#[rustfmt::skip]
const STORAGE: [StorageRow; 15] = [
    (150000, 69469, 191430656, 5364187136, 76717, 0x409806c062258f05, 0x77147b86f42bc44b),
    (150000, 88651, 191430656, 4130603008, 46091, 0x40930ad8e4de1096, 0xbc56e49276422ede),
    (150000, 96837, 191430656, 3604873216, 22646, 0x4090eb14d869b901, 0x0db539f4cab702b0),
    (150000, 47821, 1473544192, 3817570304, 94550, 0x40938d31b01b912a, 0x40565670d5fddca6),
    (150000, 72783, 1473544192, 3244621824, 46700, 0x408e617a68260420, 0xe8250c2cf62c803f),
    (150000, 83093, 1473544192, 3005906944, 5872, 0x408abf26f54cc8b0, 0x6132db18c838990f),
    (150000, 44887, 383254528, 27670872064, 104160, 0x40a8bf4db986c9de, 0xd0f728763fc86d0f),
    (150000, 64172, 383254528, 22661824512, 82014, 0x40a55648faf0a193, 0x53f2ab79c610e7c1),
    (150000, 74998, 383254528, 19848232960, 67373, 0x40a36be8ae0ef18a, 0xfd41215866978f7b),
    (150000, 9216, 8107589632, 148134428672, 140546, 0x40c243ad542bd13f, 0xcdef4dd700174875),
    (150000, 36071, 8107589632, 121426149376, 112976, 0x40bfe88cd817d991, 0x37305d2e4ba6e5cb),
    (150000, 70001, 8107589632, 87649419264, 78092, 0x40ba10b666fcb94e, 0x2856041c456120be),
    (150000, 9230, 141563002880, 156356313088, 140532, 0x40ade855040344d8, 0x7d6c2668b77150c9),
    (150000, 36045, 141563002880, 153530400768, 113002, 0x40acee08ffce2bf2, 0x7132e9929cae532b),
    (150000, 69892, 141563002880, 149922250752, 78201, 0x40abae742bbbc594, 0xca19ae27169ef827),
];

fn miss_stats_cases() -> Vec<(String, MissStats)> {
    let mut rows = Vec::new();
    for (i, id) in WorkloadId::ALL.into_iter().enumerate() {
        let params = memtrace::params_for(id);
        let trace_seed = 0x601D ^ i as u64;
        let buf = MemTraceBuf::generate(params, trace_seed, TRACE);
        for policy in POLICIES {
            for local in LOCAL {
                let seed = 0xB1ADE + local as u64;
                let measured = TRACE as u64 - FILL;
                let open = TwoLevelSim::new(local, policy, seed)
                    .run_steady_buf(&buf, FILL, measured)
                    .stats;
                let dense =
                    TwoLevelSim::with_page_universe(local, policy, seed, params.footprint_pages)
                        .run_steady_buf(&buf, FILL, measured)
                        .stats;
                let case = format!("{id} {policy:?} local={local}");
                assert_eq!(open, dense, "{case}: open vs dense index");
                assert!(open.misses > 0 && open.writebacks > 0, "{case}: {open:?}");
                rows.push((case, open));
            }
        }
    }
    rows
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// The pinned fields of one storage replay: requests, flash hits,
/// background bytes, bytes programmed, erases, the bits of the total
/// service time, and a digest of the latency histogram (count, mean and
/// max bits, and the percentile at every tenth of a percent).
type StorageRow = (u64, u64, u64, u64, u64, u64, u64);

fn storage_row(s: &StorageStats) -> StorageRow {
    let h = &s.latency;
    let latency = fnv([
        h.count(),
        h.mean().to_bits(),
        h.max().map_or(0, f64::to_bits),
    ]
    .into_iter()
    .chain((1..=1000).map(|p| h.percentile(f64::from(p) / 10.0).map_or(0, f64::to_bits))));
    (
        s.requests,
        s.flash_hits,
        s.background_bytes,
        s.wear.bytes_programmed,
        s.wear.erases,
        s.total_service_secs.to_bits(),
        latency,
    )
}

fn storage_cases() -> Vec<(String, StorageRow)> {
    let mut rows = Vec::new();
    for (i, id) in WorkloadId::ALL.into_iter().enumerate() {
        let params = disktrace::params_for(id);
        let trace = disktrace::materialize(params, 0xF1A5 ^ i as u64, REQUESTS);
        for gb in FLASH_GB {
            let mut sys =
                StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::scaled(gb));
            let stats = sys.replay_trace(params, &trace);
            rows.push((format!("{id} flash={gb} GB"), storage_row(&stats)));
        }
    }
    rows
}

#[test]
fn memshare_miss_stats_are_pinned() {
    let got = miss_stats_cases();
    assert_eq!(got.len(), MISS_STATS.len());
    for ((case, s), &want) in got.iter().zip(&MISS_STATS) {
        assert_eq!((s.accesses, s.misses, s.writebacks), want, "{case}");
    }
}

#[test]
fn flash_storage_stats_are_pinned() {
    let got = storage_cases();
    assert_eq!(got.len(), STORAGE.len());
    for ((case, row), want) in got.iter().zip(&STORAGE) {
        assert_eq!(row, want, "{case}");
    }
}
