//! Property tests for the sweep service's journal merge: for *any*
//! sharding of a record set across worker journals — with overlapping
//! cells, exact duplicates, interleaved service records, and torn tails —
//! [`merge_journals`] must be order-independent, idempotent, and
//! first-valid-wins. Randomness is driven by [`SimRng`] so failures
//! reproduce.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use wcs_simcore::journal::{self, fnv1a64, JournalRecord};
use wcs_simcore::service::{merge_journals, ServiceRecord};
use wcs_simcore::SimRng;

/// Unique temp path per case (std-only; no tempfile crate).
fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wcs-mprop-{tag}-{}-{n}.wal", std::process::id()))
}

/// A deterministic result record: payload and digest are pure functions
/// of the key, as real sweep cells are (payloads carry a non-service tag).
fn result_record(key: u128) -> JournalRecord {
    let mut rng = SimRng::seed_from(key as u64 ^ (key >> 64) as u64);
    let len = 1 + (rng.next_u64() % 40) as usize;
    let mut payload = vec![0u8];
    payload.extend((0..len).map(|_| rng.next_u64() as u8));
    JournalRecord {
        key,
        digest: fnv1a64(&payload),
        payload,
    }
}

fn lease(worker: u32, start: u32, end: u32, attempt: u32) -> JournalRecord {
    let r = ServiceRecord::Lease {
        worker,
        start,
        end,
        attempt,
    };
    let payload = r.encode();
    JournalRecord {
        key: r.key(),
        digest: fnv1a64(&payload),
        payload,
    }
}

fn marker(cell: u32) -> JournalRecord {
    let r = ServiceRecord::CellDone { cell };
    let payload = r.encode();
    JournalRecord {
        key: r.key(),
        digest: fnv1a64(&payload),
        payload,
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Random worker journals over a shared cell universe: overlapping
/// ranges (stolen cells recomputed by two workers), exact duplicates,
/// and service records sprinkled throughout.
fn random_inputs(rng: &mut SimRng, cells: u32) -> Vec<Vec<JournalRecord>> {
    let workers = 1 + rng.index(4);
    (0..workers)
        .map(|w| {
            let mut input = Vec::new();
            let start = rng.index(cells as usize) as u32;
            let end = start + 1 + rng.index((cells - start) as usize) as u32;
            input.push(lease(w as u32, start, end, rng.index(3) as u32));
            for cell in start..end {
                // Each "cell" contributes a couple of result records
                // keyed off the cell id — shared across any worker that
                // (re)computed the cell, so overlaps are exact duplicates.
                input.push(result_record(u128::from(cell) * 7 + 1));
                if rng.chance(0.6) {
                    input.push(result_record(u128::from(cell) * 7 + 2));
                }
                if rng.chance(0.8) {
                    input.push(marker(cell));
                }
            }
            input
        })
        .collect()
}

#[test]
fn merge_is_order_independent_for_any_sharding() {
    let mut rng = SimRng::seed_from(0x0B5E_55ED);
    for _case in 0..60 {
        let inputs = random_inputs(&mut rng, 12);
        let reference = merge_journals(&inputs);
        // Permute the journals and the records inside each journal.
        let mut permuted = inputs.clone();
        shuffle(&mut permuted, &mut rng);
        for input in &mut permuted {
            shuffle(input, &mut rng);
        }
        let shuffled = merge_journals(&permuted);
        assert_eq!(
            reference.records, shuffled.records,
            "merge output depended on input order"
        );
        assert_eq!(reference.conflicts, shuffled.conflicts);
        assert_eq!(reference.service_dropped, shuffled.service_dropped);
        // Identical-content overlaps are never conflicts.
        assert_eq!(reference.conflicts, 0, "pure cells cannot conflict");
        // No service record survives into the result set.
        assert!(
            reference
                .records
                .iter()
                .all(|r| ServiceRecord::decode(&r.payload).is_none()),
            "a service record leaked into the merge"
        );
    }
}

#[test]
fn merge_is_idempotent_under_remerge() {
    let mut rng = SimRng::seed_from(0x1D3A_11AD);
    for _case in 0..40 {
        let inputs = random_inputs(&mut rng, 10);
        let once = merge_journals(&inputs);
        // Re-merging the merge with any subset of the originals — or with
        // itself — changes nothing.
        let mut again = vec![once.records.clone()];
        again.extend(inputs.iter().filter(|_| rng.chance(0.5)).cloned());
        again.push(once.records.clone());
        assert_eq!(
            once.records,
            merge_journals(&again).records,
            "re-merge changed the record set"
        );
    }
}

#[test]
fn first_valid_record_wins_per_key() {
    // All copies of a key carry identical bytes (results are pure
    // functions of their keys), so whichever journal is read first
    // supplies the record — and the outcome is the same either way.
    let a = vec![result_record(3), result_record(5)];
    let b = vec![result_record(5), result_record(9)];
    let out = merge_journals(&[a.clone(), b.clone()]);
    assert_eq!(out.records.len(), 3);
    assert_eq!(out.duplicates, 1, "the shared key collapses to one record");
    assert_eq!(out.conflicts, 0);
    for r in &out.records {
        assert_eq!(*r, result_record(r.key), "winner must be the valid record");
    }
    // A genuinely conflicting payload (a corrupted recompute) resolves
    // deterministically and is counted.
    let mut evil = result_record(5);
    evil.payload.push(0xFF);
    evil.digest = fnv1a64(&evil.payload);
    let with_conflict = merge_journals(&[vec![evil.clone()], a, b]);
    assert!(with_conflict.conflicts >= 1, "the conflict must be counted");
    let resolved = merge_journals(&[with_conflict.records.clone(), vec![evil]]);
    assert_eq!(resolved.records, with_conflict.records, "winner is stable");
}

#[test]
fn torn_tails_merge_to_the_union_of_valid_prefixes() {
    let mut rng = SimRng::seed_from(0x70 + 0x44);
    for case in 0..20u64 {
        // Two workers share cells 0..6; worker 1's journal is torn at a
        // random byte. The merge of the damaged pair must equal the merge
        // of worker 0's full journal with worker 1's valid prefix.
        let full: Vec<Vec<JournalRecord>> = random_inputs(&mut rng, 6);
        let Some(torn_input) = full.last() else {
            continue;
        };
        let path = temp_path(&format!("torn-{case}"));
        let _ = std::fs::remove_file(&path);
        let (_, mut w, _) = journal::open(&path).expect("open fresh");
        for r in torn_input {
            w.append(r.key, r.digest, &r.payload).expect("append");
        }
        w.sync().expect("sync");
        drop(w);
        // Tear the file at a random point past the magic.
        let bytes = std::fs::read(&path).expect("read journal");
        let cut = 8 + rng.index(bytes.len().saturating_sub(8) + 1);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        let (prefix, _) = journal::replay(&path).expect("replay tolerates tears");
        assert!(prefix.len() <= torn_input.len());
        assert_eq!(&torn_input[..prefix.len()], &prefix[..], "prefix order");

        let mut damaged: Vec<Vec<JournalRecord>> = full[..full.len() - 1].to_vec();
        damaged.push(prefix.clone());
        let merged = merge_journals(&damaged);
        let mut expected_inputs = full[..full.len() - 1].to_vec();
        expected_inputs.push(prefix);
        assert_eq!(
            merged.records,
            merge_journals(&expected_inputs).records,
            "torn tail leaked into the merge"
        );
        // Whatever survived is still valid, service-free content.
        assert!(merged
            .records
            .iter()
            .all(|r| fnv1a64(&r.payload) == r.digest));
        let _ = std::fs::remove_file(&path);
    }
}
