//! Append-only, checksummed write-ahead journal of completed sweep cells.
//!
//! Long-running ensemble studies evaluate thousands of design cells; a crash
//! an hour in should not restart the run from zero. The journal records each
//! completed cell as an opaque payload keyed by its 128-bit [`memo`]
//! content key, framed with a CRC-32 so a torn tail (process killed mid
//! `write`) or a corrupted record (bit rot, truncated copy) is detected on
//! replay and cleanly truncated rather than poisoning the resumed run.
//!
//! # On-disk format
//!
//! All integers are little-endian.
//!
//! ```text
//! file      := magic record*
//! magic     := b"WCSJRNL1"                          (8 bytes)
//! record    := len:u32 key:u128 digest:u64 crc:u32 payload:[u8; len]
//! crc       := CRC-32/IEEE over len || key || digest || payload
//! ```
//!
//! The reader walks records from the start and stops at the first frame that
//! is short, oversized, or fails its checksum; everything before that point
//! is the *valid prefix* and is returned, everything after is truncated from
//! the file when opened for appending. Appends are flushed record-by-record
//! so at most the in-flight record is lost on a kill.
//!
//! The journal stores payload bytes only; interpreting them (and verifying
//! the semantic `digest`) is the caller's job — see `wcs_core::memo` which
//! journals memoized perf samples and seeds resumed runs from the replay.
//!
//! [`memo`]: crate::memo

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic identifying a sweep journal, version 1.
pub const MAGIC: [u8; 8] = *b"WCSJRNL1";

/// Fixed bytes per record frame before the payload: len + key + digest + crc.
const FRAME_HEADER: usize = 4 + 16 + 8 + 4;

/// Upper bound on a single payload; anything larger is treated as corruption
/// (a flipped bit in `len` must not make the reader seek gigabytes ahead).
pub const MAX_PAYLOAD: usize = 1 << 20;

/// One replayed journal record: content key, semantic digest, payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// 128-bit content key of the cell (a finished [`crate::memo::MemoKey`]).
    pub key: u128,
    /// Caller-defined digest of the decoded result (cross-checked on decode).
    pub digest: u64,
    /// Opaque encoded result payload.
    pub payload: Vec<u8>,
}

/// Outcome of replaying a journal file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Number of valid records recovered from the prefix.
    pub records: usize,
    /// Bytes of torn or corrupt tail discarded after the valid prefix.
    pub truncated_bytes: u64,
    /// True when the file ended mid-record or failed a checksum.
    pub was_torn: bool,
}

/// Errors raised by journal open/replay/append.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem error, with the path it occurred on.
    Io {
        /// Journal path the operation targeted.
        path: PathBuf,
        /// The originating I/O error.
        source: io::Error,
    },
    /// The file exists but does not start with the journal magic — refusing
    /// to truncate or append to something that is not a journal.
    BadMagic {
        /// Path of the non-journal file.
        path: PathBuf,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal I/O error on {}: {source}", path.display())
            }
            JournalError::BadMagic { path } => write!(
                f,
                "{} is not a sweep journal (bad magic); refusing to touch it",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::BadMagic { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// CRC-32/IEEE (reflected, polynomial 0xEDB88320), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// FNV-1a 64 over `bytes`: the semantic digest the result and service
/// layers store in each record's `digest` field, and the checksum the
/// bench bins print for a render.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Encode one record into its on-disk frame.
fn encode_frame(key: u128, digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&key.to_le_bytes());
    frame.extend_from_slice(&digest.to_le_bytes());
    // CRC covers len || key || digest || payload; splice it in after.
    let mut crc_input = frame.clone();
    crc_input.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Parse the longest valid record prefix out of raw journal bytes
/// (excluding the magic). Returns the records and the byte length of the
/// valid region (again excluding the magic).
fn parse_records(buf: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while buf.len() - at >= FRAME_HEADER {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD || buf.len() - at - FRAME_HEADER < len {
            break; // oversized (corrupt len) or torn mid-payload
        }
        let key = u128::from_le_bytes(buf[at + 4..at + 20].try_into().expect("16 bytes"));
        let digest = u64::from_le_bytes(buf[at + 20..at + 28].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(buf[at + 28..at + 32].try_into().expect("4 bytes"));
        let payload = &buf[at + FRAME_HEADER..at + FRAME_HEADER + len];
        let mut crc_input = Vec::with_capacity(28 + len);
        crc_input.extend_from_slice(&buf[at..at + 28]);
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            break; // checksum failure: corrupt record, stop here
        }
        records.push(JournalRecord {
            key,
            digest,
            payload: payload.to_vec(),
        });
        at += FRAME_HEADER + len;
    }
    (records, at)
}

/// Append handle positioned after the valid prefix of a journal file.
///
/// Each [`append`](JournalWriter::append) writes one whole frame with a
/// single `write_all` and flushes, so a killed process loses at most the
/// record being written — which the next replay detects and truncates.
/// Duplicate keys are skipped (first write wins), matching the
/// first-insert-wins semantics of [`crate::memo::MemoCache`].
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    seen: crate::table::OpenMap<u128, ()>,
    appended: u64,
}

impl JournalWriter {
    /// Append a record unless `key` was already journaled (either replayed
    /// from the valid prefix or appended earlier in this process).
    /// Returns `true` when the record was written.
    pub fn append(&mut self, key: u128, digest: u64, payload: &[u8]) -> Result<bool, JournalError> {
        if self.seen.get(&key).is_some() {
            return Ok(false);
        }
        debug_assert!(payload.len() <= MAX_PAYLOAD, "journal payload too large");
        let frame = encode_frame(key, digest, payload);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, e))?;
        self.file.flush().map_err(|e| io_err(&self.path, e))?;
        self.seen.insert(key, ());
        self.appended += 1;
        Ok(true)
    }

    /// Number of records appended through this writer (excludes replayed).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Path of the underlying journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flush and sync file contents to the OS; used by tests and at clean
    /// shutdown. Append already flushes per record.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.flush().map_err(|e| io_err(&self.path, e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))
    }
}

/// Replay a journal read-only: return the valid record prefix and a report.
///
/// A missing file replays as empty (zero records); this makes `--resume` on
/// a first run a no-op rather than an error. The file is not modified.
pub fn replay(path: &Path) -> Result<(Vec<JournalRecord>, ReplayReport), JournalError> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf).map_err(|e| io_err(path, e))?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), ReplayReport::default()));
        }
        Err(e) => return Err(io_err(path, e)),
    }
    if buf.len() < MAGIC.len() {
        // Shorter than the magic: treat the whole file as a torn header.
        let report = ReplayReport {
            records: 0,
            truncated_bytes: buf.len() as u64,
            was_torn: !buf.is_empty(),
        };
        return Ok((Vec::new(), report));
    }
    if buf[..MAGIC.len()] != MAGIC {
        return Err(JournalError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let (records, valid) = parse_records(&buf[MAGIC.len()..]);
    let truncated = (buf.len() - MAGIC.len() - valid) as u64;
    let report = ReplayReport {
        records: records.len(),
        truncated_bytes: truncated,
        was_torn: truncated > 0,
    };
    Ok((records, report))
}

/// Incrementally replay a growing journal from a previously returned
/// offset: parse only the bytes appended since, returning the new
/// records and the offset of the valid prefix end to resume from next
/// time.
///
/// Pass `0` on the first call (the magic is skipped automatically); pass
/// the returned offset afterwards. Offsets are only meaningful if they
/// came from this function (or `0`) for the same file — they always sit
/// on a record boundary. A torn or still-in-flight tail is *not* an
/// error: the records before it are returned and the offset stays at the
/// boundary, so the next poll retries the tail after the writer finishes
/// the frame. A missing file replays as empty at offset `0`.
///
/// This is what supervisor heartbeats use: polling N workers every few
/// milliseconds must not re-read and re-checksum every worker's whole
/// journal each tick — only the appended tail.
pub fn replay_tail(path: &Path, offset: u64) -> Result<(Vec<JournalRecord>, u64), JournalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_err(path, e)),
    };
    let len = file.metadata().map_err(|e| io_err(path, e))?.len();
    let start = if offset == 0 {
        // First read: verify the magic before trusting any offsets.
        if len < MAGIC.len() as u64 {
            return Ok((Vec::new(), 0));
        }
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic).map_err(|e| io_err(path, e))?;
        if magic != MAGIC {
            return Err(JournalError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        MAGIC.len() as u64
    } else {
        offset
    };
    if len <= start {
        return Ok((Vec::new(), start));
    }
    file.seek(SeekFrom::Start(start))
        .map_err(|e| io_err(path, e))?;
    let mut buf = Vec::with_capacity((len - start) as usize);
    file.read_to_end(&mut buf).map_err(|e| io_err(path, e))?;
    let (records, valid) = parse_records(&buf);
    Ok((records, start + valid as u64))
}

/// Open a journal for resuming: replay the valid prefix, truncate any torn
/// or corrupt tail in place, and return the records plus an append handle
/// positioned at the end of the valid prefix.
///
/// Creates the file (with magic) when it does not exist yet.
pub fn open(
    path: &Path,
) -> Result<(Vec<JournalRecord>, JournalWriter, ReplayReport), JournalError> {
    let (records, report) = replay(path)?;
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    let len = file.metadata().map_err(|e| io_err(path, e))?.len();
    if len < MAGIC.len() as u64 {
        // Fresh file or torn header: (re)write the magic from scratch.
        // `replay` already rejected any file with a *wrong* magic.
        file.set_len(0).map_err(|e| io_err(path, e))?;
        file.write_all(&MAGIC).map_err(|e| io_err(path, e))?;
    } else {
        let mut valid = MAGIC.len() as u64;
        for r in &records {
            valid += (FRAME_HEADER + r.payload.len()) as u64;
        }
        file.set_len(valid).map_err(|e| io_err(path, e))?;
    }
    file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, e))?;
    file.flush().map_err(|e| io_err(path, e))?;
    let mut seen = crate::table::OpenMap::new();
    for r in &records {
        seen.insert(r.key, ());
    }
    let writer = JournalWriter {
        file,
        path: path.to_path_buf(),
        seen,
        appended: 0,
    };
    Ok((records, writer, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per test (std-only; no tempfile crate).
    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        std::env::temp_dir().join(format!("wcs-journal-{tag}-{pid}-{n}.wal"))
    }

    fn sample_records(n: usize) -> Vec<JournalRecord> {
        (0..n)
            .map(|i| JournalRecord {
                key: ((i as u128) << 64) | (0xABCD + i as u128),
                digest: 0x1234_5678_9ABC_DEF0 ^ i as u64,
                payload: vec![i as u8; 5 + (i * 7) % 40],
            })
            .collect()
    }

    fn write_all(path: &Path, records: &[JournalRecord]) {
        let (_, mut w, _) = open(path).expect("open fresh journal");
        for r in records {
            assert!(w.append(r.key, r.digest, &r.payload).expect("append"));
        }
        w.sync().expect("sync");
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a64_known_vector() {
        // Published FNV-1a 64 test vectors; journals on disk carry this
        // digest, so it must never change.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn roundtrip_and_idempotent_dedup() {
        let path = temp_path("roundtrip");
        let records = sample_records(7);
        write_all(&path, &records);
        let (read, report) = replay(&path).expect("replay");
        assert_eq!(read, records);
        assert_eq!(
            report,
            ReplayReport {
                records: 7,
                truncated_bytes: 0,
                was_torn: false
            }
        );

        // Re-open: replays the same records, duplicate appends are skipped.
        let (read2, mut w, _) = open(&path).expect("reopen");
        assert_eq!(read2, records);
        assert!(!w
            .append(records[0].key, records[0].digest, &records[0].payload)
            .unwrap());
        assert_eq!(w.appended(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_replay_resumes_from_offsets() {
        let path = temp_path("tail");
        let records = sample_records(9);
        // Write the first 4, tail-read, write the rest, tail-read again.
        let (_, mut w, _) = open(&path).expect("open");
        for r in &records[..4] {
            assert!(w.append(r.key, r.digest, &r.payload).unwrap());
        }
        w.sync().unwrap();
        let (head, at) = replay_tail(&path, 0).expect("first tail");
        assert_eq!(head, records[..4]);
        // Nothing appended: no bytes re-read, offset unchanged.
        let (none, at2) = replay_tail(&path, at).expect("idle tail");
        assert!(none.is_empty());
        assert_eq!(at2, at);
        for r in &records[4..] {
            assert!(w.append(r.key, r.digest, &r.payload).unwrap());
        }
        w.sync().unwrap();
        let (tail, end) = replay_tail(&path, at).expect("second tail");
        assert_eq!(tail, records[4..]);
        // Full replay agrees with the incremental reads.
        let (all, _) = replay(&path).expect("full replay");
        assert_eq!(all, records);
        // A torn in-flight frame is retried from the same boundary.
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAA; 7]).unwrap();
        }
        let (torn, still) = replay_tail(&path, end).expect("torn tail");
        assert!(torn.is_empty());
        assert_eq!(still, end);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_replay_missing_and_bad_magic() {
        let path = temp_path("tailmissing");
        let (records, at) = replay_tail(&path, 0).expect("missing file");
        assert!(records.is_empty());
        assert_eq!(at, 0);
        std::fs::write(&path, b"bogus bytes, not a journal").unwrap();
        assert!(matches!(
            replay_tail(&path, 0),
            Err(JournalError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = temp_path("missing");
        let (records, report) = replay(&path).expect("replay missing");
        assert!(records.is_empty());
        assert_eq!(report, ReplayReport::default());
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        let records = sample_records(4);
        write_all(&path, &records);
        // Simulate a kill mid-write: append half a frame of garbage.
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55; 13]).unwrap();
        }
        let (read, report) = replay(&path).expect("replay torn");
        assert_eq!(read, records);
        assert!(report.was_torn);
        assert_eq!(report.truncated_bytes, 13);

        // Open truncates the tail and further appends extend the valid log.
        let (read2, mut w, _) = open(&path).expect("open torn");
        assert_eq!(read2, records);
        let extra = JournalRecord {
            key: 999,
            digest: 42,
            payload: vec![9; 9],
        };
        assert!(w.append(extra.key, extra.digest, &extra.payload).unwrap());
        drop(w);
        let (read3, report3) = replay(&path).expect("replay after heal");
        assert_eq!(read3.len(), 5);
        assert_eq!(read3[4], extra);
        assert!(!report3.was_torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay_at_prefix() {
        let path = temp_path("corrupt");
        let records = sample_records(6);
        write_all(&path, &records);
        // Flip one bit inside the 4th record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let mut at = MAGIC.len();
        for r in records.iter().take(3) {
            at += FRAME_HEADER + r.payload.len();
        }
        bytes[at + FRAME_HEADER + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (read, report) = replay(&path).expect("replay corrupt");
        assert_eq!(read, records[..3]);
        assert!(report.was_torn);
        assert!(report.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = temp_path("notjournal");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(replay(&path), Err(JournalError::BadMagic { .. })));
        assert!(matches!(open(&path), Err(JournalError::BadMagic { .. })));
        // The file must be left untouched.
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a journal");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_len_field_is_treated_as_corruption() {
        let path = temp_path("oversize");
        let records = sample_records(2);
        write_all(&path, &records);
        // Corrupt the second record's len field to a huge value.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = MAGIC.len() + FRAME_HEADER + records[0].payload.len();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (read, report) = replay(&path).expect("replay oversize");
        assert_eq!(read, records[..1]);
        assert!(report.was_torn);
        std::fs::remove_file(&path).ok();
    }
}
