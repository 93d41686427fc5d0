//! Synthetic disk block-access traces for the flash-cache study.
//!
//! Section 3.5 replays each benchmark's disk request stream against a
//! flash disk cache. The synthetic streams here follow each benchmark's
//! description: Zipf-popular reads over the dataset (search index terms,
//! video files, mailboxes), with per-workload read/write mixes and
//! request sizes.

use std::sync::Arc;

use wcs_simcore::dist::Zipf;
use wcs_simcore::memo::{MemoHash, MemoKey};
use wcs_simcore::SimRng;

use crate::spec::WorkloadId;

/// One disk request at 4 KiB-block granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BlockAccess {
    /// Starting 4 KiB block number.
    pub block: u64,
    /// Number of consecutive 4 KiB blocks.
    pub blocks: u32,
    /// Whether this is a write.
    pub write: bool,
}

impl BlockAccess {
    /// Bytes moved by this request.
    pub fn bytes(&self) -> u64 {
        self.blocks as u64 * 4096
    }
}

/// Parameters of a workload's synthetic disk stream.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiskTraceParams {
    /// Dataset size in 4 KiB blocks.
    pub dataset_blocks: u64,
    /// Zipf skew of block-extent popularity.
    pub zipf_s: f64,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Request size in 4 KiB blocks.
    pub request_blocks: u32,
}

impl DiskTraceParams {
    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics on nonsensical values.
    pub fn validate(&self) {
        assert!(self.dataset_blocks > 0, "dataset must be positive");
        assert!(self.zipf_s.is_finite() && self.zipf_s >= 0.0);
        assert!((0.0..=1.0).contains(&self.write_fraction));
        assert!(self.request_blocks > 0, "request size must be positive");
    }

    /// The number of request-sized extents the stream draws from:
    /// requests start at blocks `extent * request_blocks` for `extent`
    /// below this count (at least one).
    pub fn extents(&self) -> u64 {
        (self.dataset_blocks / u64::from(self.request_blocks)).max(1)
    }
}

impl MemoHash for DiskTraceParams {
    fn memo_hash(&self, key: &mut MemoKey) {
        *key = key
            .push_u64(self.dataset_blocks)
            .push_f64(self.zipf_s)
            .push_f64(self.write_fraction)
            .push_u32(self.request_blocks);
    }
}

/// Per-workload disk stream parameters, following Table 1's dataset
/// descriptions (20 GB websearch dataset, 7 GB of mail, large media
/// library, 5 GB Hadoop corpus).
pub fn params_for(id: WorkloadId) -> DiskTraceParams {
    match id {
        WorkloadId::Websearch => DiskTraceParams {
            dataset_blocks: 5_000_000, // 20 GB dataset
            zipf_s: 0.95,              // Zipf keyword -> posting-list locality
            write_fraction: 0.02,
            request_blocks: 16, // 64 KiB posting-list chunks
        },
        WorkloadId::Webmail => DiskTraceParams {
            dataset_blocks: 1_800_000, // ~7 GB of mail
            zipf_s: 0.80,              // active users' mailboxes
            write_fraction: 0.30,      // deliveries, flags, sends
            request_blocks: 8,         // 32 KiB messages
        },
        WorkloadId::Ytube => DiskTraceParams {
            dataset_blocks: 10_000_000, // large media library
            zipf_s: 0.90,               // Zipf video popularity [Gill et al.]
            write_fraction: 0.01,
            request_blocks: 64, // 256 KiB streaming reads
        },
        WorkloadId::MapredWc => DiskTraceParams {
            dataset_blocks: 1_300_000, // 5 GB corpus
            zipf_s: 0.10,              // near-sequential scan: little reuse
            write_fraction: 0.05,
            request_blocks: 256, // 1 MiB HDFS-style reads
        },
        WorkloadId::MapredWr => DiskTraceParams {
            dataset_blocks: 1_300_000,
            zipf_s: 0.10,
            write_fraction: 0.90, // file-write job
            request_blocks: 256,
        },
    }
}

/// Deterministic generator of [`BlockAccess`]es for one workload.
///
/// # Example
/// ```
/// use wcs_workloads::{disktrace, WorkloadId};
/// let mut gen = disktrace::DiskTraceGen::new(disktrace::params_for(WorkloadId::Ytube), 1);
/// let req = gen.next_access();
/// assert_eq!(req.blocks, 64);
/// ```
#[derive(Debug)]
pub struct DiskTraceGen {
    params: DiskTraceParams,
    zipf: Zipf,
    extents: u64,
    rng: SimRng,
}

impl DiskTraceGen {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn new(params: DiskTraceParams, seed: u64) -> Self {
        params.validate();
        // Popularity operates on aligned extents of `request_blocks`.
        let extents = params.extents();
        let zipf = Zipf::new(extents.min(2_000_000) as usize, params.zipf_s)
            .expect("validated parameters");
        DiskTraceGen {
            params,
            zipf,
            extents,
            rng: SimRng::seed_from(seed),
        }
    }

    /// The parameters this generator uses.
    pub fn params(&self) -> &DiskTraceParams {
        &self.params
    }

    /// Draws the next disk request.
    pub fn next_access(&mut self) -> BlockAccess {
        let rank = self.zipf.sample_rank(&mut self.rng) as u64;
        let extent = rank
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678_9ABC_DEF1)
            % self.extents;
        BlockAccess {
            block: extent * self.params.request_blocks as u64,
            blocks: self.params.request_blocks,
            write: self.rng.chance(self.params.write_fraction),
        }
    }

    /// Generates `n` requests as a vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<BlockAccess> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

/// Materializes the first `n` requests of the `(params, seed)` stream
/// into a shared buffer.
///
/// Sweeps replay the same disk stream against many storage
/// configurations; a materialized trace is generated once and shared
/// across those points (disk traces are short — 120k requests is ~2 MB —
/// so plain structs need no packing). Element `i` equals the generator's
/// `i`-th [`DiskTraceGen::next_access`], so buffer replay is
/// bit-identical to generator replay.
///
/// # Panics
/// Panics if the parameters are invalid.
pub fn materialize(params: DiskTraceParams, seed: u64, n: usize) -> Arc<[BlockAccess]> {
    DiskTraceGen::new(params, seed).take_vec(n).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_stay_in_dataset() {
        let p = params_for(WorkloadId::Webmail);
        let mut g = DiskTraceGen::new(p, 2);
        for _ in 0..10_000 {
            let a = g.next_access();
            assert!(a.block + a.blocks as u64 <= p.dataset_blocks);
        }
    }

    #[test]
    fn bytes_match_blocks() {
        let a = BlockAccess {
            block: 0,
            blocks: 16,
            write: false,
        };
        assert_eq!(a.bytes(), 65536);
    }

    #[test]
    fn mapred_wr_is_write_heavy() {
        let mut g = DiskTraceGen::new(params_for(WorkloadId::MapredWr), 5);
        let n = 20_000;
        let writes = (0..n).filter(|_| g.next_access().write).count();
        assert!(writes as f64 / n as f64 > 0.85);
    }

    #[test]
    fn popular_extents_repeat_for_ytube() {
        let mut g = DiskTraceGen::new(params_for(WorkloadId::Ytube), 7);
        let trace = g.take_vec(30_000);
        let distinct: std::collections::HashSet<u64> = trace.iter().map(|a| a.block).collect();
        assert!(distinct.len() < trace.len() * 9 / 10);
    }

    #[test]
    fn deterministic() {
        let mut a = DiskTraceGen::new(params_for(WorkloadId::Websearch), 9);
        let mut b = DiskTraceGen::new(params_for(WorkloadId::Websearch), 9);
        for _ in 0..50 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn all_workloads_have_params() {
        for id in WorkloadId::ALL {
            params_for(id).validate();
        }
    }

    #[test]
    fn materialized_buffer_matches_generator() {
        let p = params_for(WorkloadId::Ytube);
        let buf = materialize(p, 17, 2_000);
        let mut gen = DiskTraceGen::new(p, 17);
        assert_eq!(buf.len(), 2_000);
        for (i, a) in buf.iter().enumerate() {
            assert_eq!(*a, gen.next_access(), "request {i}");
        }
    }
}
