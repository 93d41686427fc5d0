//! Branch-free lane helpers for the flash replay kernel.
//!
//! The flash-cache kernel in `flashcache::system` runs in two passes
//! over a staged epoch chunk: a scalar *probe* pass that mutates cache
//! state and writes one outcome-code byte per request (the code also
//! indexes the kernel's service-time table), then a *fold* pass that
//! reduces the code lane into counters. This module holds the fold-pass
//! primitives, shaped so rustc's autovectorizer turns them into SIMD:
//! fixed-width `chunks_exact` bodies with no data-dependent branches,
//! integer accumulation in per-chunk partials, and f64 accumulation in a
//! **fixed-shape pairwise tree** whose rounding order depends only on
//! the slice length — never on chunking, thread count, or target
//! features — so results stay bit-identical everywhere. (The
//! memory-blade kernel in `memshare::policy` needs no code lane: it
//! counts misses and writebacks inside its touch loop.)
//!
//! Outcome codes are bitmasks, not enums: bit `b` of each code byte is
//! an independent stage outcome (flash hit, absorbed write, ...), and
//! [`fold_mask_counts`] pops all eight bit populations in one pass.

/// Lane width of the integer fold pass. 32 byte-codes fill one or two
/// vector registers on every target this workspace builds for.
pub const FOLD_LANES: usize = 32;

/// Elements per f64 accumulation block. Chunked replay paths may only
/// split work at multiples of this block, so the fixed-shape per-block
/// sums compose bit-identically for every chunk count.
pub const F64_BLOCK: usize = 4096;

/// Population counts of every code bit over the lane: `counts[b]` is the
/// number of elements whose code has bit `b` set.
///
/// Branch-free and width-fixed: the main loop handles [`FOLD_LANES`]
/// codes per iteration with u32 partials (safe: a partial counts at most
/// `FOLD_LANES` per iteration and is drained every iteration), the
/// remainder is folded scalarly.
#[must_use]
pub fn fold_mask_counts(codes: &[u8]) -> [u64; 8] {
    let mut counts = [0u64; 8];
    let mut chunks = codes.chunks_exact(FOLD_LANES);
    for chunk in chunks.by_ref() {
        let mut partial = [0u32; 8];
        for &c in chunk {
            for (b, p) in partial.iter_mut().enumerate() {
                *p += u32::from(c >> b) & 1;
            }
        }
        for (b, p) in partial.iter().enumerate() {
            counts[b] += u64::from(*p);
        }
    }
    for &c in chunks.remainder() {
        for (b, slot) in counts.iter_mut().enumerate() {
            *slot += u64::from(c >> b) & 1;
        }
    }
    counts
}

/// Number of elements whose code byte is exactly `value`.
#[must_use]
pub fn fold_code_eq(codes: &[u8], value: u8) -> u64 {
    let mut count = 0u64;
    let mut chunks = codes.chunks_exact(FOLD_LANES);
    for chunk in chunks.by_ref() {
        let mut partial = 0u32;
        for &c in chunk {
            partial += u32::from(c == value);
        }
        count += u64::from(partial);
    }
    for &c in chunks.remainder() {
        count += u64::from(c == value);
    }
    count
}

/// Fixed-shape pairwise sum of an f64 slice: the reduction tree is a
/// pure function of `xs.len()`, so the result is bit-identical no matter
/// how the surrounding code is threaded or chunked — and the pairwise
/// shape keeps rounding error O(log n) instead of a serial fold's O(n).
#[must_use]
pub fn tree_sum_f64(xs: &[f64]) -> f64 {
    const LEAF: usize = 8;
    if xs.len() <= LEAF {
        let mut acc = 0.0;
        for &x in xs {
            acc += x;
        }
        return acc;
    }
    // Split at the largest power-of-two strictly below len: every
    // left subtree is full, so equal-length slices share one shape.
    let split = (xs.len() / 2).next_power_of_two().min(xs.len() - 1);
    tree_sum_f64(&xs[..split]) + tree_sum_f64(&xs[split..])
}

/// Append the fixed-shape [`tree_sum_f64`] of each [`F64_BLOCK`]-sized
/// block of `xs` to `out`.
///
/// This is the chunk-composable half of the deterministic f64 reduction:
/// a replay path that splits its lane at block multiples produces, chunk
/// by chunk, exactly the block-sum sequence the unsplit lane produces.
/// Reducing that sequence with [`reduce_block_sums`] therefore yields a
/// bit-identical total for every chunk count.
pub fn block_sums_f64(xs: &[f64], out: &mut Vec<f64>) {
    for block in xs.chunks(F64_BLOCK) {
        out.push(tree_sum_f64(block));
    }
}

/// Reduce a block-sum sequence with one fixed-shape pairwise tree.
///
/// The tree shape depends only on `sums.len()`, so any two paths that
/// assembled the same block-sum sequence — single-threaded, chunked, or
/// merged from per-chunk pieces in chunk order — get the same bits.
#[must_use]
pub fn reduce_block_sums(sums: &[f64]) -> f64 {
    tree_sum_f64(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn random_codes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| (rng.index(256)) as u8).collect()
    }

    #[test]
    fn mask_counts_match_scalar_reference() {
        for n in [0, 1, 31, 32, 33, 257, 4096, 10_000] {
            let codes = random_codes(n, 0xC0DE + n as u64);
            let got = fold_mask_counts(&codes);
            for (b, &count) in got.iter().enumerate() {
                let want = codes.iter().filter(|&&c| (c >> b) & 1 == 1).count() as u64;
                assert_eq!(count, want, "n={n} bit={b}");
            }
        }
    }

    #[test]
    fn code_eq_matches_scalar_reference() {
        let codes = random_codes(5000, 7);
        for v in [0u8, 1, 3, 200, 255] {
            let want = codes.iter().filter(|&&c| c == v).count() as u64;
            assert_eq!(fold_code_eq(&codes, v), want);
        }
        assert_eq!(fold_code_eq(&[], 0), 0);
    }

    #[test]
    fn tree_sum_is_deterministic_and_close() {
        let mut rng = SimRng::seed_from(11);
        let xs: Vec<f64> = (0..12_345).map(|_| rng.uniform() * 1e-3).collect();
        let a = tree_sum_f64(&xs);
        let b = tree_sum_f64(&xs);
        assert_eq!(a.to_bits(), b.to_bits());
        let serial: f64 = xs.iter().sum();
        assert!((a - serial).abs() < 1e-9, "{a} vs {serial}");
    }

    #[test]
    fn block_sums_are_invariant_to_block_aligned_splits() {
        let mut rng = SimRng::seed_from(13);
        // Long enough for several blocks plus a ragged tail.
        let xs: Vec<f64> = (0..3 * F64_BLOCK + 517).map(|_| rng.uniform()).collect();
        let mut whole = Vec::new();
        block_sums_f64(&xs, &mut whole);
        let total = reduce_block_sums(&whole);
        for pieces in [1usize, 2, 3, 7] {
            // Split only at block multiples, as chunked replay does.
            let blocks = xs.len().div_ceil(F64_BLOCK);
            let per = blocks.div_ceil(pieces) * F64_BLOCK;
            let mut sums = Vec::new();
            let mut at = 0;
            while at < xs.len() {
                let end = (at + per).min(xs.len());
                block_sums_f64(&xs[at..end], &mut sums);
                at = end;
            }
            assert_eq!(sums, whole, "pieces={pieces}");
            assert_eq!(
                reduce_block_sums(&sums).to_bits(),
                total.to_bits(),
                "pieces={pieces}"
            );
        }
    }

    #[test]
    fn tree_shape_depends_only_on_length() {
        // Two equal-content slices handed in via different paths must
        // agree; and manual split at the documented point reproduces it.
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.1).collect();
        let split = (xs.len() / 2).next_power_of_two();
        let manual = tree_sum_f64(&xs[..split]) + tree_sum_f64(&xs[split..]);
        assert_eq!(manual.to_bits(), tree_sum_f64(&xs).to_bits());
    }
}
