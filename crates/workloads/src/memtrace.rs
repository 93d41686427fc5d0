//! Synthetic memory page-access traces for the memory-blade study.
//!
//! The paper gathers page traces from full-system simulation of each
//! benchmark and replays them through a two-level memory simulator
//! (Section 3.4). We cannot run the real stacks, so each workload gets a
//! parameterized synthetic trace: Zipf-popular pages over a fixed
//! footprint, with a per-workload access rate per second of CPU work.
//! The two-level simulator in `wcs-memshare` only consumes the trace's
//! page-level reuse distribution, which these parameters control
//! directly.
//!
//! The `zipf_s` skew and footprint were chosen so the two-level miss
//! rates land in the regime of Figure 4(b); the access-rate constant
//! `accesses_per_cpu_sec` is calibrated per workload so the resulting
//! slowdown matches the published table at the paper's PCIe latency.

use std::ops::Range;
use std::sync::Arc;

use wcs_simcore::dist::Zipf;
use wcs_simcore::memo::{MemoHash, MemoKey};
use wcs_simcore::pool::Task;
use wcs_simcore::{SimRng, ThreadPool};

use crate::spec::WorkloadId;

/// Accesses drawn per RNG substream: generation restarts from
/// `SimRng::stream(seed, i)` at every `i * GEN_CHUNK` boundary, making
/// access `i` a pure function of `(params, seed, i / GEN_CHUNK)`-chunk
/// state. Chunks can therefore be materialized independently — in any
/// order, on any number of threads — and always reproduce the
/// sequential stream bit for bit. A multiple of 64 so each chunk owns
/// whole words of the write bitset.
pub const GEN_CHUNK: usize = 1 << 16;

/// One page-granularity memory touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PageAccess {
    /// Page number (4 KiB granularity).
    pub page: u64,
    /// Whether the touch dirties the page.
    pub write: bool,
}

/// Parameters of a workload's synthetic page trace.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemTraceParams {
    /// Distinct 4 KiB pages the workload touches (its footprint).
    pub footprint_pages: u64,
    /// Zipf skew of page popularity (0 = uniform).
    pub zipf_s: f64,
    /// Fraction of touches that are writes.
    pub write_fraction: f64,
    /// Page-granularity touches per second of CPU work — the rate that
    /// converts a miss ratio into a slowdown.
    pub accesses_per_cpu_sec: f64,
}

impl MemTraceParams {
    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics on nonsensical values.
    pub fn validate(&self) {
        assert!(self.footprint_pages > 0, "footprint must be positive");
        assert!(self.zipf_s.is_finite() && self.zipf_s >= 0.0);
        assert!((0.0..=1.0).contains(&self.write_fraction));
        assert!(self.accesses_per_cpu_sec.is_finite() && self.accesses_per_cpu_sec > 0.0);
    }
}

impl MemoHash for MemTraceParams {
    fn memo_hash(&self, key: &mut MemoKey) {
        *key = key
            .push_u64(self.footprint_pages)
            .push_f64(self.zipf_s)
            .push_f64(self.write_fraction)
            .push_f64(self.accesses_per_cpu_sec);
    }
}

/// The per-workload trace parameters.
///
/// Footprints reflect the benchmark descriptions: `websearch` touches its
/// 1.3 GB index plus query state; `ytube` streams through large media
/// files; `webmail` works over a modest per-session state; the Hadoop
/// jobs stream through task input splits. The access-rate constants are
/// calibration outputs (see module docs).
pub fn params_for(id: WorkloadId) -> MemTraceParams {
    match id {
        WorkloadId::Websearch => MemTraceParams {
            footprint_pages: 480_000, // ~1.9 GiB: index + heap
            zipf_s: 0.65,
            write_fraction: 0.10,
            accesses_per_cpu_sec: 28_000.0,
        },
        WorkloadId::Webmail => MemTraceParams {
            footprint_pages: 400_000,
            zipf_s: 1.05, // strong per-user session locality
            write_fraction: 0.25,
            accesses_per_cpu_sec: 1_500.0,
        },
        WorkloadId::Ytube => MemTraceParams {
            footprint_pages: 500_000, // streams through media files
            zipf_s: 0.70,             // Zipf video popularity
            write_fraction: 0.02,
            accesses_per_cpu_sec: 8_000.0,
        },
        WorkloadId::MapredWc => MemTraceParams {
            footprint_pages: 450_000,
            zipf_s: 0.90,
            write_fraction: 0.20,
            accesses_per_cpu_sec: 5_000.0,
        },
        WorkloadId::MapredWr => MemTraceParams {
            footprint_pages: 450_000,
            zipf_s: 0.90,
            write_fraction: 0.60, // write-dominated
            accesses_per_cpu_sec: 5_000.0,
        },
    }
}

/// A deterministic generator of [`PageAccess`]es for one workload.
///
/// # Example
/// ```
/// use wcs_workloads::{memtrace, WorkloadId};
/// let mut gen = memtrace::MemTraceGen::new(memtrace::params_for(WorkloadId::Websearch), 1);
/// let a = gen.next_access();
/// assert!(a.page < 480_000);
/// ```
#[derive(Debug)]
pub struct MemTraceGen {
    params: MemTraceParams,
    zipf: Zipf,
    rng: SimRng,
    seed: u64,
    pos: u64,
}

impl MemTraceGen {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn new(params: MemTraceParams, seed: u64) -> Self {
        params.validate();
        let zipf = Zipf::new(params.footprint_pages as usize, params.zipf_s)
            .expect("validated parameters");
        MemTraceGen {
            params,
            zipf,
            rng: SimRng::stream(seed, 0),
            seed,
            pos: 0,
        }
    }

    /// The parameters this generator uses.
    pub fn params(&self) -> &MemTraceParams {
        &self.params
    }

    /// Draws the next page touch.
    ///
    /// The generator reseeds from `SimRng::stream(seed, chunk)` at every
    /// [`GEN_CHUNK`] boundary so the sequential stream matches what
    /// independent per-chunk generation produces (see
    /// [`MemTraceBuf::generate_par`]).
    #[inline]
    pub fn next_access(&mut self) -> PageAccess {
        if self.pos != 0 && self.pos.is_multiple_of(GEN_CHUNK as u64) {
            self.rng = SimRng::stream(self.seed, self.pos / GEN_CHUNK as u64);
        }
        self.pos += 1;
        chunk_access(&self.zipf, &mut self.rng, &self.params)
    }

    /// Generates `n` accesses as a vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<PageAccess> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

/// One draw of the shared access recipe: Zipf rank, rank-scramble, write
/// coin — what the sequential generator draws per access, and what
/// [`fill_chunk`] draws when it ranks.
#[inline]
fn chunk_access(zipf: &Zipf, rng: &mut SimRng, params: &MemTraceParams) -> PageAccess {
    let page = page_of(zipf.sample_rank(rng), params.footprint_pages);
    let write = rng.chance(params.write_fraction);
    PageAccess { page, write }
}

/// Scrambles a rank into a page number so popular pages are scattered
/// across the address space (multiplicative hashing, full period
/// because the multiplier is odd).
#[inline]
fn page_of(rank: usize, footprint_pages: u64) -> u64 {
    (rank as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x2545_F491_4F6C_DD1D)
        % footprint_pages
}

/// Draws chunk `chunk` of the `n`-access `(params, seed)` trace from
/// `SimRng::stream(seed, chunk)` into the chunk's slices of the final
/// columns. Each access draws its rank uniform and then its write coin,
/// exactly as [`chunk_access`] does. With `ranks` the uniform is ranked
/// and the page stored; without, the uniform is drawn and dropped, so
/// the write bits come out the same in both passes.
fn fill_chunk(
    params: &MemTraceParams,
    seed: u64,
    n: usize,
    chunk: usize,
    mut ranks: Option<(&Zipf, &mut [u32])>,
    writes: &mut [u64],
) {
    let mut rng = SimRng::stream(seed, chunk as u64);
    for i in 0..(n - chunk * GEN_CHUNK).min(GEN_CHUNK) {
        let u = rng.uniform();
        if let Some((zipf, pages)) = &mut ranks {
            pages[i] = page_of(zipf.rank_of(u), params.footprint_pages) as u32;
        }
        writes[i >> 6] |= u64::from(rng.chance(params.write_fraction)) << (i & 63);
    }
}

/// A materialized memory trace in compact, shareable form.
///
/// Sweeps replay the same `(params, seed)` trace through many cache
/// configurations; materializing it once and sharing the buffer (behind
/// an `Arc`) removes the per-point generator cost. Storage is
/// struct-of-arrays and packed — `u32` page numbers (footprints are a
/// few hundred thousand pages, far below `u32::MAX`) plus a write
/// bitset — so a 4-million-access trace costs ~16.5 MB instead of the
/// 64 MB a `Vec<PageAccess>` would.
///
/// The page column sits behind its own `Arc`. Every access draws its
/// rank uniform before its write coin, so two traces whose footprint,
/// skew, seed and length agree have the same page column whatever
/// their write fractions; [`with_pages`](Self::with_pages) builds the
/// second of them over the first one's column.
///
/// [`MemTraceBuf::get`] returns exactly what the generator's `i`-th
/// [`MemTraceGen::next_access`] call returned, so replaying from the
/// buffer is bit-identical to replaying from the generator.
#[derive(Debug, Clone)]
pub struct MemTraceBuf {
    pages: Arc<Box<[u32]>>,
    writes: Box<[u64]>,
}

impl MemTraceBuf {
    /// Materializes the first `n` accesses of the `(params, seed)`
    /// trace.
    ///
    /// # Panics
    /// Panics if the parameters are invalid or the footprint does not
    /// fit the compact `u32` page representation.
    pub fn generate(params: MemTraceParams, seed: u64, n: usize) -> Self {
        Self::generate_par(params, seed, n, &ThreadPool::serial())
    }

    /// [`generate`](Self::generate) with the per-[`GEN_CHUNK`] substreams
    /// materialized on `pool`'s threads.
    ///
    /// Bit-identical to the sequential path for every pool size: chunk
    /// `i` draws from `SimRng::stream(seed, i)` exactly as the
    /// sequential generator does when it crosses the `i * GEN_CHUNK`
    /// boundary, into its own slice of the final columns.
    ///
    /// # Panics
    /// Panics if the parameters are invalid or the footprint does not
    /// fit the compact `u32` page representation.
    pub fn generate_par(params: MemTraceParams, seed: u64, n: usize, pool: &ThreadPool) -> Self {
        params.validate();
        assert!(
            params.footprint_pages <= u64::from(u32::MAX),
            "footprint too large for compact trace pages"
        );
        let zipf = Zipf::new(params.footprint_pages as usize, params.zipf_s)
            .expect("validated parameters");
        let mut pages = vec![0u32; n].into_boxed_slice();
        let mut writes = vec![0u64; n.div_ceil(64)].into_boxed_slice();
        // GEN_CHUNK is a multiple of 64, so every chunk owns whole words
        // of the write bitset.
        let tasks = pages
            .chunks_mut(GEN_CHUNK)
            .zip(writes.chunks_mut(GEN_CHUNK / 64))
            .enumerate()
            .map(|(chunk, (pages, writes))| -> Task<'_, ()> {
                let ranks = Some((&zipf, pages));
                Box::new(move || fill_chunk(&params, seed, n, chunk, ranks, writes))
            })
            .collect();
        pool.par_tasks(tasks);
        MemTraceBuf {
            pages: Arc::new(pages),
            writes,
        }
    }

    /// The `(params, seed)` trace over `pages`, the page column of a
    /// trace with the same footprint, skew and seed: the write-only
    /// pass. Each access draws its rank uniform without ranking it and
    /// then its write coin, so no Zipf table is built and the result
    /// equals [`generate_par`](Self::generate_par)`(params, seed,
    /// pages.len(), pool)` bit for bit, at every pool size.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn with_pages(
        pages: Arc<Box<[u32]>>,
        params: MemTraceParams,
        seed: u64,
        pool: &ThreadPool,
    ) -> Self {
        params.validate();
        let n = pages.len();
        let mut writes = vec![0u64; n.div_ceil(64)].into_boxed_slice();
        let tasks = writes
            .chunks_mut(GEN_CHUNK / 64)
            .enumerate()
            .map(|(chunk, writes)| -> Task<'_, ()> {
                Box::new(move || fill_chunk(&params, seed, n, chunk, None, writes))
            })
            .collect();
        pool.par_tasks(tasks);
        MemTraceBuf { pages, writes }
    }

    /// The page column, shared by every trace built over it.
    pub fn page_column(&self) -> &Arc<Box<[u32]>> {
        &self.pages
    }

    /// Number of accesses stored.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The `i`-th access.
    #[inline]
    pub fn get(&self, i: usize) -> PageAccess {
        PageAccess {
            page: u64::from(self.pages[i]),
            write: (self.writes[i >> 6] >> (i & 63)) & 1 == 1,
        }
    }

    /// Accesses `range` as `(page, write)` pairs, read in place from the
    /// packed columns — the replay kernels' input, which never
    /// materializes [`PageAccess`] structs or staging copies.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the trace.
    #[inline]
    pub fn accesses(&self, range: Range<usize>) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.pages[range.clone()]
            .iter()
            .zip(range)
            .map(|(&page, i)| (page, (self.writes[i >> 6] >> (i & 63)) & 1 == 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_stay_in_footprint() {
        let mut g = MemTraceGen::new(params_for(WorkloadId::Webmail), 3);
        for _ in 0..10_000 {
            let a = g.next_access();
            assert!(a.page < 400_000);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = MemTraceGen::new(params_for(WorkloadId::Websearch), 7);
        let mut b = MemTraceGen::new(params_for(WorkloadId::Websearch), 7);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn write_fraction_roughly_respected() {
        let mut g = MemTraceGen::new(params_for(WorkloadId::MapredWr), 11);
        let n = 20_000;
        let writes = (0..n).filter(|_| g.next_access().write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn popular_pages_repeat() {
        // With Zipf skew, a short trace must contain repeated pages.
        let mut g = MemTraceGen::new(params_for(WorkloadId::Webmail), 13);
        let trace = g.take_vec(50_000);
        let distinct: std::collections::HashSet<u64> = trace.iter().map(|a| a.page).collect();
        assert!(distinct.len() < trace.len());
    }

    #[test]
    fn all_workloads_have_params() {
        for id in WorkloadId::ALL {
            params_for(id).validate();
        }
    }

    #[test]
    fn materialized_buffer_matches_generator() {
        let params = params_for(WorkloadId::Websearch);
        let buf = MemTraceBuf::generate(params, 21, 5_000);
        let mut gen = MemTraceGen::new(params, 21);
        assert_eq!(buf.len(), 5_000);
        for i in 0..buf.len() {
            assert_eq!(buf.get(i), gen.next_access(), "access {i}");
        }
    }

    /// Asserts two buffers hold the same accesses and write words,
    /// naming the first access that differs.
    fn assert_same(a: &MemTraceBuf, b: &MemTraceBuf, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        if let Some(i) = (0..a.len()).find(|&i| a.get(i) != b.get(i)) {
            panic!("{what}: access {i}: {:?} vs {:?}", a.get(i), b.get(i));
        }
        assert!(a.writes == b.writes, "{what}: write words");
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_sequential() {
        let params = params_for(WorkloadId::Ytube);
        // Cover: sub-chunk, exact multiple, ragged multi-chunk, and a
        // ragged last word of the write bitset.
        for n in [
            1_000,
            2 * GEN_CHUNK,
            2 * GEN_CHUNK + 777,
            3 * GEN_CHUNK + 63,
        ] {
            let seq = MemTraceBuf::generate(params, 31, n);
            for threads in [3, 8] {
                let pool = ThreadPool::new(threads).unwrap();
                let par = MemTraceBuf::generate_par(params, 31, n, &pool);
                assert_same(&seq, &par, &format!("n={n} threads={threads}"));
            }
        }
    }

    #[test]
    fn write_only_pass_matches_generation_over_a_shared_column() {
        let wc = params_for(WorkloadId::MapredWc);
        let wr = params_for(WorkloadId::MapredWr);
        for n in [1_000usize, 2 * GEN_CHUNK, 2 * GEN_CHUNK + 777] {
            let column = MemTraceBuf::generate(wc, 5, n);
            let want = MemTraceBuf::generate(wr, 5, n);
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads).unwrap();
                let got = MemTraceBuf::with_pages(Arc::clone(column.page_column()), wr, 5, &pool);
                assert_same(&got, &want, &format!("n={n} threads={threads}"));
                assert!(Arc::ptr_eq(got.page_column(), column.page_column()));
            }
        }
    }

    #[test]
    fn write_only_pass_matches_generation_at_every_write_fraction() {
        let base = MemTraceParams {
            footprint_pages: 70_000,
            zipf_s: 0.8,
            write_fraction: 0.3,
            accesses_per_cpu_sec: 1.0,
        };
        let n = GEN_CHUNK + 100;
        let column = MemTraceBuf::generate(base, 17, n);
        let pool = ThreadPool::new(3).unwrap();
        for write_fraction in [0.0, 0.5, 1.0] {
            let params = MemTraceParams {
                write_fraction,
                ..base
            };
            let want = MemTraceBuf::generate(params, 17, n);
            let got = MemTraceBuf::with_pages(Arc::clone(column.page_column()), params, 17, &pool);
            assert_same(&got, &want, &format!("write fraction {write_fraction}"));
        }
    }

    #[test]
    fn generator_reseeds_at_chunk_boundaries() {
        // Accesses at and after a chunk boundary must be reproducible by
        // a fresh generator-free stream — the contract generate_par
        // relies on.
        let params = params_for(WorkloadId::Webmail);
        let mut gen = MemTraceGen::new(params, 77);
        let mut all = Vec::new();
        for _ in 0..GEN_CHUNK + 50 {
            all.push(gen.next_access());
        }
        let zipf = Zipf::new(params.footprint_pages as usize, params.zipf_s).unwrap();
        let mut rng = SimRng::stream(77, 1);
        for (j, want) in all[GEN_CHUNK..].iter().enumerate() {
            assert_eq!(chunk_access(&zipf, &mut rng, &params), *want, "offset {j}");
        }
    }

    #[test]
    fn in_place_accesses_match_get() {
        // A range that starts and ends inside bitset words.
        let params = params_for(WorkloadId::MapredWc);
        let buf = MemTraceBuf::generate(params, 9, 2_000);
        let got: Vec<(u32, bool)> = buf.accesses(700..1_000).collect();
        assert_eq!(got.len(), 300);
        for (j, &(page, write)) in got.iter().enumerate() {
            let a = buf.get(700 + j);
            assert_eq!((u64::from(page), write), (a.page, a.write), "access {j}");
        }
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn rejects_zero_footprint() {
        MemTraceParams {
            footprint_pages: 0,
            zipf_s: 1.0,
            write_fraction: 0.1,
            accesses_per_cpu_sec: 1.0,
        }
        .validate();
    }
}
