//! Property-based tests over the extension substrates: FTL, blade
//! directory, link contention, diurnal curves, batch means.
//!
//! Like `properties.rs`, these use a deterministic fixed-seed case
//! generator instead of `proptest` (unavailable in the offline build).

use wcs::flashcache::ftl::Ftl;
use wcs::memshare::contention::SharedLink;
use wcs::memshare::directory::{BladeDirectory, ServerId};
use wcs::memshare::link::RemoteLink;
use wcs::simcore::batchmeans::batch_means_ci;
use wcs::simcore::SimRng;
use wcs::workloads::diurnal::DiurnalCurve;

const CASES: usize = 48;

/// The FTL's logical/physical maps stay mutually consistent under any
/// write pattern, and write amplification never drops below 1.
#[test]
fn ftl_consistent_under_any_writes() {
    let mut rng = SimRng::seed_from(0xF71);
    for _ in 0..16 {
        let n_writes = 1 + rng.index(1999);
        let mut ftl = Ftl::new(8, 64, 0.25);
        let n = ftl.logical_pages();
        for _ in 0..n_writes {
            let w = (rng.next_u64() % 400) as u32;
            ftl.write(w % n);
        }
        assert!(ftl.check_consistency());
        assert!(ftl.write_amplification() >= 1.0);
        assert!(ftl.healthy(u32::MAX));
    }
}

/// The blade directory never hands the same physical page to two owners
/// and never exceeds per-server limits.
#[test]
fn directory_never_double_allocates() {
    let mut rng = SimRng::seed_from(0xD12);
    for _ in 0..CASES {
        let n_ops = 1 + rng.index(399);
        let mut dir = BladeDirectory::new(128);
        for s in 0..4 {
            dir.register(ServerId(s), 32).unwrap();
        }
        let mut owned: std::collections::HashMap<u64, ServerId> = Default::default();
        for _ in 0..n_ops {
            let s = (rng.next_u64() % 4) as u32;
            let v = rng.next_u64() % 64;
            let server = ServerId(s);
            match dir.map_page(server, v) {
                Ok(phys) => {
                    if let Some(prev) = owned.insert(phys, server) {
                        assert_eq!(prev, server, "physical page reassigned while owned");
                    }
                    assert!(dir.check_access(server, phys).is_ok());
                    // Nobody else may touch it.
                    let other = ServerId((s + 1) % 4);
                    assert!(dir.check_access(other, phys).is_err());
                }
                Err(_) => {
                    assert!(dir.used_pages(server) <= 32);
                }
            }
            assert!(dir.used_pages(server) <= 32);
        }
    }
}

/// Link queueing delay is monotone in both fault rate and server count,
/// and zero at zero load.
#[test]
fn contention_monotone() {
    let mut rng = SimRng::seed_from(0xC09);
    for _ in 0..CASES {
        let rate = rng.uniform_range(0.0, 5000.0);
        let extra = rng.uniform_range(1.0, 5000.0);
        let servers = 1 + (rng.next_u64() % 15) as u32;
        let few = SharedLink::new(RemoteLink::pcie_x4(), servers);
        let more = SharedLink::new(RemoteLink::pcie_x4(), servers + 1);
        assert_eq!(few.queueing_delay_secs(0.0), 0.0);
        let d1 = few.queueing_delay_secs(rate);
        let d2 = few.queueing_delay_secs(rate + extra);
        assert!(d2 >= d1);
        if d1.is_finite() {
            assert!(more.queueing_delay_secs(rate) >= d1);
        }
    }
}

/// Diurnal load stays within [trough, 1] everywhere and means correctly.
#[test]
fn diurnal_bounds() {
    let mut rng = SimRng::seed_from(0xD10);
    for _ in 0..CASES {
        let trough = rng.uniform_range(0.05, 1.0);
        let peak = rng.uniform_range(0.0, 23.99);
        let hour = rng.uniform_range(0.0, 48.0);
        let c = DiurnalCurve::new(trough, peak);
        let v = c.load_at(hour);
        assert!(v >= trough - 1e-9 && v <= 1.0 + 1e-9, "load {v}");
        assert!((c.mean_load() - (1.0 + trough) / 2.0).abs() < 1e-12);
        assert!((c.load_at(peak) - 1.0).abs() < 1e-9);
    }
}

/// Batch-means intervals always contain their own grand mean and shrink
/// (weakly) with more batches of iid data.
#[test]
fn batch_means_sane() {
    let mut rng = SimRng::seed_from(0xBA7);
    for _ in 0..CASES {
        let n = 40 + rng.index(360);
        let values: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.0, 100.0)).collect();
        let ci = batch_means_ci(&values, 10).unwrap();
        assert!(ci.contains(ci.mean));
        assert!(ci.half_width >= 0.0);
        let grand = {
            let per = values.len() / 10;
            let used = &values[..per * 10];
            used.iter().sum::<f64>() / used.len() as f64
        };
        assert!((ci.mean - grand).abs() < 1e-9);
    }
}
