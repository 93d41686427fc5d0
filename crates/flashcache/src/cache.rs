//! The flash cache: extent entries, clock eviction, wear accounting.
//!
//! The slot bookkeeping (key index with folded dirty bits, reference
//! bits, clock hand) is the shared [`SlotCache`] kernel — the same
//! machinery the memshare page store uses — leaving this module with
//! what is flash-specific: the extent geometry that turns a request's
//! block into a dense key, and wear accounting (program bytes, erases)
//! layered over the kernel's events.

use wcs_simcore::slotcache::{DenseKeys, SlotCache, Victims};

/// Wear statistics for the flash device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WearStats {
    /// Bytes programmed into flash (inserts + write hits).
    pub bytes_programmed: u64,
    /// Block erases performed (eviction of a written extent).
    pub erases: u64,
}

impl WearStats {
    /// Average program/erase cycles per flash block so far, given the
    /// device capacity in bytes.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn avg_pe_cycles(&self, capacity_bytes: u64) -> f64 {
        assert!(capacity_bytes > 0);
        self.bytes_programmed as f64 / capacity_bytes as f64
    }

    /// Whether the device survives `years` at the observed programming
    /// rate (`bytes_per_sec`), given capacity and endurance. The paper
    /// leans on the 3-year depreciation cycle to argue flash endurance
    /// is workable.
    pub fn survives(
        &self,
        capacity_bytes: u64,
        endurance_cycles: u64,
        bytes_per_sec: f64,
        years: f64,
    ) -> bool {
        assert!(capacity_bytes > 0);
        let lifetime_bytes = capacity_bytes as f64 * endurance_cycles as f64;
        bytes_per_sec * years * 365.25 * 86400.0 <= lifetime_bytes
    }
}

/// A flash cache over fixed-size extents (a workload's request size).
///
/// Entries are whole request extents, keyed by extent number
/// (`block / extent_blocks`) in a dense index over the stream's extent
/// count; eviction is clock (second chance); writes are absorbed
/// write-back, so a dirty extent's eviction costs an erase plus the
/// background flush the [`crate::system`] layer accounts.
///
/// # Example
/// ```
/// use wcs_flashcache::cache::FlashCacheIndex;
/// // Room for two 16-block extents of a 100-extent stream.
/// let mut c = FlashCacheIndex::new(2, 16, 100);
/// assert!(!c.access(160, false)); // extent 10: miss, inserted
/// assert!(c.access(160, false)); // hit
/// ```
#[derive(Debug)]
pub struct FlashCacheIndex {
    cache: SlotCache<DenseKeys>,
    extent_blocks: u32,
    extents: u64,
    wear: WearStats,
}

impl FlashCacheIndex {
    /// Creates a cache holding up to `capacity` extents (clamped up to
    /// one) of `extent_blocks` 4 KiB blocks each, for a stream whose
    /// requests start at the extent-aligned blocks below
    /// `extents * extent_blocks`.
    ///
    /// # Panics
    /// Panics if `extent_blocks` or `extents` is zero, or `extents`
    /// exceeds `u32` keys.
    pub fn new(capacity: usize, extent_blocks: u32, extents: u64) -> Self {
        assert!(extent_blocks > 0, "flash extents need a size");
        FlashCacheIndex {
            cache: SlotCache::with_dense_keys(capacity.max(1), Victims::Clock, extents),
            extent_blocks,
            extents,
            wear: WearStats::default(),
        }
    }

    /// The extent size in 4 KiB blocks.
    pub fn extent_blocks(&self) -> u32 {
        self.extent_blocks
    }

    /// The number of extents the index keys.
    pub fn extents(&self) -> u64 {
        self.extents
    }

    /// The extent size used for wear accounting, in bytes.
    pub fn extent_bytes(&self) -> u64 {
        u64::from(self.extent_blocks) * 4096
    }

    /// Maximum number of extents the cache can hold.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Number of cached extents.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Wear counters so far.
    pub fn wear(&self) -> WearStats {
        self.wear
    }

    /// Touches the extent starting at `block`; returns true on a hit. On
    /// a miss the extent is inserted (programming flash), possibly
    /// evicting a victim (erasing its blocks). `write` marks the extent
    /// dirty.
    ///
    /// # Panics
    /// Panics if `block` is not extent-aligned or its extent lies past
    /// the index's extent count: either would alias another extent.
    #[inline]
    pub fn access(&mut self, block: u64, write: bool) -> bool {
        let size = u64::from(self.extent_blocks);
        let (extent, offset) = (block / size, block % size);
        assert!(
            offset == 0 && extent < self.extents,
            "flash block {block} is not one of {} extents of {size} blocks",
            self.extents
        );
        let extent = extent as u32;
        if self.cache.touch(extent, write) {
            if write {
                self.wear.bytes_programmed += self.extent_bytes();
            }
            return true;
        }
        // Miss: insert (programming flash), evicting if full (erasing
        // the victim's blocks).
        if self.cache.is_full() {
            let victim = self.cache.clock_victim();
            self.cache.replace(victim, extent, write);
            self.wear.erases += 1;
        } else {
            self.cache.insert(extent, write);
        }
        self.wear.bytes_programmed += self.extent_bytes();
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = FlashCacheIndex::new(4, 1, 8);
        assert!(!c.access(1, false));
        assert!(c.access(1, false));
        assert!(c.access(1, true));
    }

    #[test]
    fn capacity_respected_with_eviction() {
        let mut c = FlashCacheIndex::new(8, 1, 100);
        for e in 0..100u64 {
            c.access(e, false);
            assert!(c.len() <= 8);
        }
        assert_eq!(c.len(), 8);
        assert!(c.wear().erases >= 90);
    }

    #[test]
    fn clock_protects_hot_extent() {
        let mut c = FlashCacheIndex::new(4, 1, 104);
        for e in 0..4u64 {
            c.access(e, false);
        }
        // Keep extent 0 hot while streaming new extents through: the
        // second-chance bit must let it survive most sweeps (a plain
        // FIFO would evict it every `capacity` misses).
        let mut hot_hits = 0;
        for e in 4..104u64 {
            if c.access(0, false) {
                hot_hits += 1;
            }
            c.access(e, false);
        }
        assert!(hot_hits >= 60, "hot extent only hit {hot_hits}/100 times");
    }

    #[test]
    fn wear_accounts_programs() {
        let mut c = FlashCacheIndex::new(2, 16, 8);
        assert_eq!(c.extent_bytes(), 16 * 4096);
        c.access(16, false); // program one extent
        c.access(16, true); // write hit: program one extent
        c.access(32, true); // program one extent
        assert_eq!(c.wear().bytes_programmed, 3 * 16 * 4096);
    }

    #[test]
    fn keys_are_extent_numbers() {
        // Ten 16-block extents start at blocks 0, 16, ..., 144.
        let mut c = FlashCacheIndex::new(4, 16, 10);
        let installed = [0u32, 9, 4];
        for extent in installed {
            assert!(!c.access(u64::from(extent) * 16, false), "extent {extent}");
        }
        for extent in 0..10u32 {
            assert_eq!(
                c.cache.contains(extent),
                installed.contains(&extent),
                "extent {extent} keyed by its number"
            );
        }
        assert!(c.access(0, false) && c.access(144, true) && c.access(64, false));
        assert_eq!(c.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not one of 10 extents of 16 blocks")]
    fn rejects_unaligned_block() {
        FlashCacheIndex::new(4, 16, 10).access(17, false);
    }

    #[test]
    #[should_panic(expected = "not one of 10 extents of 16 blocks")]
    fn rejects_extent_past_universe() {
        FlashCacheIndex::new(4, 16, 10).access(160, false);
    }

    #[test]
    fn endurance_math() {
        let w = WearStats {
            bytes_programmed: 0,
            erases: 0,
        };
        // 1 GB device, 100k cycles: 1e14 bytes lifetime. 1 MB/s for 3
        // years is ~9.5e13 — survives; 2 MB/s does not.
        let cap = 1_000_000_000u64;
        assert!(w.survives(cap, 100_000, 1.0e6, 3.0));
        assert!(!w.survives(cap, 100_000, 2.0e6, 3.0));
    }
}
