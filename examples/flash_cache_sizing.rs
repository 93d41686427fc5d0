//! Flash-cache sizing: sweep the flash capacity against each workload's
//! disk stream and find the cheapest size that recovers the remote
//! laptop disk's performance loss.
//!
//! Run with `cargo run --release --example flash_cache_sizing`.

use wcs::flashcache::system::StorageSystem;
use wcs::platforms::storage::{DiskModel, FlashModel};
use wcs::workloads::disktrace::{materialize, params_for};
use wcs::workloads::WorkloadId;

const REPLAY: usize = 80_000;

fn mean_ms(sys: &mut StorageSystem, id: WorkloadId) -> (f64, f64) {
    let params = params_for(id);
    let stats = sys.replay_trace(params, &materialize(params, 0xF1A5, REPLAY));
    (stats.mean_service_secs() * 1e3, stats.hit_ratio())
}

fn main() {
    let sizes_gb = [0.25, 0.5, 1.0, 2.0, 4.0];

    println!("Effective disk service time (ms/IO) on the remote laptop disk, by flash size:");
    print!("{:<12} {:>9}", "workload", "no flash");
    for gb in sizes_gb {
        print!("{:>9}", format!("{gb} GB"));
    }
    println!("{:>12}", "desktop ref");

    for id in WorkloadId::ALL {
        print!("{:<12}", id.label());
        let mut bare = StorageSystem::disk_only(DiskModel::laptop_remote());
        let (ms, _) = mean_ms(&mut bare, id);
        print!(" {ms:>8.2}");
        for gb in sizes_gb {
            let mut sys =
                StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::scaled(gb));
            let (ms, _) = mean_ms(&mut sys, id);
            print!(" {ms:>8.2}");
        }
        let mut desktop = StorageSystem::disk_only(DiskModel::desktop());
        let (ms, _) = mean_ms(&mut desktop, id);
        println!("    {ms:>8.2}");
    }

    println!("\nHit ratios at the paper's 1 GB point:");
    for id in WorkloadId::ALL {
        let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
        let (_, hits) = mean_ms(&mut sys, id);
        println!("  {:<12} {:>5.1}%", id.label(), hits * 100.0);
    }

    // Price the break-even: the flash must beat buying back the desktop
    // disk's $40 price difference.
    println!(
        "\nAt ${}/GB, the paper's 1 GB cache costs ${:.0} — less than the $40 saved \
         by the laptop-2 disk, which is why 'Remote Laptop-2 + Flash' wins Table 3(b).",
        FlashModel::table3().price_usd,
        FlashModel::table3().price_usd
    );
}
