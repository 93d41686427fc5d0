//! Service-layer records and deterministic journal merging for the
//! multi-process sweep service (`wcs-served`).
//!
//! A supervisor shards sweep cells across worker processes; each worker
//! appends to its own [`journal`](crate::journal) file. Two kinds of
//! records coexist in a worker journal:
//!
//! * **result records** — memoized sweep-cell payloads written by the
//!   evaluation layer (opaque to this module), and
//! * **service records** — leases and completion markers written by the
//!   worker runtime, carved out of the 128-bit key space under the
//!   [`SERVICE_KEY_PREFIX`] namespace and tagged with a payload byte the
//!   result decoder rejects, so replaying a worker journal into a resume
//!   memo silently drops them.
//!
//! [`merge_journals`] folds any number of per-worker record streams into
//! one deterministic result set: service records are dropped, duplicate
//! keys collapse to a single canonical record (first-valid-wins under a
//! content tiebreak, so the merge is order-independent and idempotent),
//! and conflicting payloads for one key are counted as merge conflicts.
//! The merged set is *key-sorted* — a canonical artifact, not yet the
//! byte-identical single-process journal; the supervisor re-journals it
//! through a serial resume pass to recover first-compute order.
//!
//! [`StatusServer`] is the minimal HTTP liveness endpoint the supervisor
//! exposes (`/status` JSON, `/metrics` Prometheus) on a plain
//! `std::net::TcpListener` — no external dependencies.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::journal::JournalRecord;
use crate::obs::Registry;

/// Top 16 bits of every service-record key: `0x5EA5` ("seas", for
/// lea-*ses*). Result records are finished memo keys (uniform hashes), so
/// a deliberate constant prefix keeps the namespaces collision-free in
/// practice and lets the merge filter service records by key alone.
pub const SERVICE_KEY_PREFIX: u128 = 0x5EA5 << 112;

/// Mask selecting the namespace bits of a key.
const PREFIX_MASK: u128 = 0xFFFF << 112;

/// First payload byte of every service record. The perf-payload decoder
/// recognises tags 0 (Ok) and 1 (Err) only, so a `0xFE`-tagged payload
/// fails to decode and is dropped by resume seeding.
pub const SERVICE_PAYLOAD_TAG: u8 = 0xFE;

/// True when `key` lives in the service-record namespace.
pub fn is_service_key(key: u128) -> bool {
    key & PREFIX_MASK == SERVICE_KEY_PREFIX
}

/// A service record a worker appends to its journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceRecord {
    /// The worker claimed the half-open cell range `[start, end)` on its
    /// `attempt`-th try (0-based; retries after a kill bump it).
    Lease {
        /// Supervisor-assigned worker id.
        worker: u32,
        /// First cell index of the claimed range.
        start: u32,
        /// One past the last cell index of the claimed range.
        end: u32,
        /// Retry generation of this claim.
        attempt: u32,
    },
    /// The worker finished evaluating plan cell `cell` and journaled its
    /// results; the supervisor uses these markers to reclaim only the
    /// genuinely unfinished cells of a dead worker.
    CellDone {
        /// Completed plan cell index.
        cell: u32,
    },
}

impl ServiceRecord {
    /// The record's journal key: namespace prefix, kind, and enough of
    /// the fields to make every distinct record a distinct key (the
    /// journal writer dedups by key; a retried lease must not be
    /// swallowed by its predecessor).
    pub fn key(&self) -> u128 {
        match *self {
            ServiceRecord::Lease {
                worker,
                start,
                end,
                attempt,
            } => {
                SERVICE_KEY_PREFIX
                    | (1u128 << 104)
                    | (u128::from(worker) << 72)
                    | (u128::from(attempt) << 64)
                    | (u128::from(start) << 32)
                    | u128::from(end)
            }
            ServiceRecord::CellDone { cell } => {
                SERVICE_KEY_PREFIX | (2u128 << 104) | u128::from(cell)
            }
        }
    }

    /// Encode to the journal payload: tag, kind, fields (little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![SERVICE_PAYLOAD_TAG];
        match *self {
            ServiceRecord::Lease {
                worker,
                start,
                end,
                attempt,
            } => {
                out.push(1);
                out.extend_from_slice(&worker.to_le_bytes());
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
            }
            ServiceRecord::CellDone { cell } => {
                out.push(2);
                out.extend_from_slice(&cell.to_le_bytes());
            }
        }
        out
    }

    /// Decode a journal payload; `None` for anything that is not a
    /// well-formed service record.
    pub fn decode(payload: &[u8]) -> Option<ServiceRecord> {
        let (&tag, rest) = payload.split_first()?;
        if tag != SERVICE_PAYLOAD_TAG {
            return None;
        }
        let (&kind, rest) = rest.split_first()?;
        let word = |i: usize| -> Option<u32> {
            Some(u32::from_le_bytes(
                rest.get(i * 4..i * 4 + 4)?.try_into().ok()?,
            ))
        };
        match kind {
            1 if rest.len() == 16 => Some(ServiceRecord::Lease {
                worker: word(0)?,
                start: word(1)?,
                end: word(2)?,
                attempt: word(3)?,
            }),
            2 if rest.len() == 4 => Some(ServiceRecord::CellDone { cell: word(0)? }),
            _ => None,
        }
    }
}

/// Outcome of merging per-worker journals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The canonical merged result records, sorted by key, one per
    /// distinct key.
    pub records: Vec<JournalRecord>,
    /// Keys that appeared with more than one distinct (digest, payload)
    /// content across the inputs. The canonical winner is kept; every
    /// additional distinct content counts one conflict.
    pub conflicts: u64,
    /// Service records (leases, markers) dropped from the result set.
    pub service_dropped: u64,
    /// Exact-duplicate records collapsed (same key, same content).
    pub duplicates: u64,
}

/// Merge K per-worker record streams into one canonical result set.
///
/// Properties (the supervisor and its tests rely on all three):
///
/// * **order-independent** — permuting the inputs, or the records within
///   one input, yields a byte-identical outcome: records are keyed, and
///   per key the smallest (digest, payload) content wins;
/// * **idempotent** — merging the merge with anything it already
///   contains changes nothing;
/// * **service-blind** — lease and marker records never reach the result
///   set.
///
/// The winner rule degenerates to first-valid-wins in the non-conflict
/// case (every copy of a key carries identical bytes, since results are
/// pure functions of their keys); the content tiebreak only arbitrates
/// genuinely conflicting inputs, deterministically.
pub fn merge_journals(inputs: &[Vec<JournalRecord>]) -> MergeOutcome {
    let mut by_key: std::collections::BTreeMap<u128, JournalRecord> =
        std::collections::BTreeMap::new();
    let mut conflicts = 0u64;
    let mut service_dropped = 0u64;
    let mut duplicates = 0u64;
    for input in inputs {
        for r in input {
            if is_service_key(r.key) {
                service_dropped += 1;
                continue;
            }
            match by_key.get_mut(&r.key) {
                None => {
                    by_key.insert(r.key, r.clone());
                }
                Some(kept) if kept.digest == r.digest && kept.payload == r.payload => {
                    duplicates += 1;
                }
                Some(kept) => {
                    conflicts += 1;
                    // Deterministic winner: smallest (digest, payload).
                    if (r.digest, &r.payload) < (kept.digest, &kept.payload) {
                        *kept = r.clone();
                    }
                }
            }
        }
    }
    MergeOutcome {
        records: by_key.into_values().collect(),
        conflicts,
        service_dropped,
        duplicates,
    }
}

/// Live progress counters the supervisor publishes and the
/// [`StatusServer`] serves. All atomics: the supervisor loop writes,
/// the HTTP thread reads, no locks.
#[derive(Debug, Default)]
pub struct ServiceProgress {
    /// Total plan cells.
    pub cells_total: AtomicU64,
    /// Cells confirmed complete (via markers).
    pub cells_done: AtomicU64,
    /// Currently live worker processes.
    pub workers_live: AtomicU64,
    /// Worker processes spawned (including respawns).
    pub worker_spawns: AtomicU64,
    /// Worker deaths observed (non-graceful exits).
    pub worker_kills_observed: AtomicU64,
    /// Leases expired by the supervisor (stall deadline).
    pub worker_leases_expired: AtomicU64,
    /// Cells reassigned away from a dead or stalled worker.
    pub worker_cells_stolen: AtomicU64,
    /// Conflicting records seen at merge time.
    pub worker_merge_conflicts: AtomicU64,
    /// Worker respawn retries performed.
    pub worker_retries: AtomicU64,
    /// True once the sweep completed and the merge was written.
    pub complete: AtomicBool,
}

impl ServiceProgress {
    /// A fresh all-zero progress block.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Render the progress block as one JSON object (the `/status` body).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cells_total\": {}, \"cells_done\": {}, \"workers_live\": {}, \
             \"worker_spawns\": {}, \"worker_kills_observed\": {}, \
             \"worker_leases_expired\": {}, \"worker_cells_stolen\": {}, \
             \"worker_merge_conflicts\": {}, \"worker_retries\": {}, \
             \"complete\": {}}}\n",
            self.cells_total.load(Ordering::Relaxed),
            self.cells_done.load(Ordering::Relaxed),
            self.workers_live.load(Ordering::Relaxed),
            self.worker_spawns.load(Ordering::Relaxed),
            self.worker_kills_observed.load(Ordering::Relaxed),
            self.worker_leases_expired.load(Ordering::Relaxed),
            self.worker_cells_stolen.load(Ordering::Relaxed),
            self.worker_merge_conflicts.load(Ordering::Relaxed),
            self.worker_retries.load(Ordering::Relaxed),
            self.complete.load(Ordering::Relaxed),
        )
    }

    /// Export the recovery counters into `registry` under the standard
    /// `recovery.worker_*` names. Call once, at end of run.
    pub fn export(&self, registry: &Registry) {
        registry
            .counter("recovery.worker_spawns")
            .add(self.worker_spawns.load(Ordering::Relaxed));
        registry
            .counter("recovery.worker_kills_observed")
            .add(self.worker_kills_observed.load(Ordering::Relaxed));
        registry
            .counter("recovery.worker_leases_expired")
            .add(self.worker_leases_expired.load(Ordering::Relaxed));
        registry
            .counter("recovery.worker_cells_stolen")
            .add(self.worker_cells_stolen.load(Ordering::Relaxed));
        registry
            .counter("recovery.worker_merge_conflicts")
            .add(self.worker_merge_conflicts.load(Ordering::Relaxed));
        registry
            .counter("recovery.worker_retries")
            .add(self.worker_retries.load(Ordering::Relaxed));
    }
}

/// Minimal HTTP liveness endpoint: `GET /status` returns the progress
/// block as JSON, `GET /metrics` the registry snapshot in Prometheus
/// text exposition; anything else is 404. One thread, sequential
/// accepts — a liveness probe, not a web server. A connection that
/// sends no request is closed unanswered, but the loop serves one
/// connection at a time, so a silent client holds it for up to 2 s.
#[derive(Debug)]
pub struct StatusServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Bind `127.0.0.1:port` (`port` 0 picks an ephemeral port) and
    /// serve until [`shutdown`](Self::shutdown) or drop.
    ///
    /// # Errors
    /// Surfaces the bind error (port in use, permission).
    pub fn start(
        port: u16,
        progress: Arc<ServiceProgress>,
        registry: Registry,
    ) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        // Poll for shutdown between accepts rather than blocking forever.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("wcs-status".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &progress, &registry);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn status thread");
        Ok(StatusServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop serving and join the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How long [`StatusServer`] waits for a connection's request to
/// arrive before closing it unanswered.
const REQUEST_WAIT: std::time::Duration = std::time::Duration::from_secs(2);

/// Answer one HTTP request on `stream`. Only a request that arrived is
/// answered: on EOF, or when nothing arrives within [`REQUEST_WAIT`],
/// the connection closes without a response, so a slow client never
/// writes into a socket that already answered and closed.
fn serve_one(
    mut stream: TcpStream,
    progress: &ServiceProgress,
    registry: &Registry,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_WAIT))?;
    stream.set_nonblocking(false)?;
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    if n == 0 {
        return Ok(());
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/status" => ("200 OK", "application/json", progress.to_json()),
        "/metrics" => {
            // Fold a point-in-time export of the live progress counters
            // into the response alongside the ambient registry's series,
            // so `/metrics` is useful mid-run (the supervisor only
            // exports into the shared registry after the run finishes).
            let view = Registry::with_enabled(true);
            view.merge(registry);
            progress.export(&view);
            (
                "200 OK",
                "text/plain; version=0.0.4",
                view.snapshot().to_prometheus(),
            )
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::fnv1a64;

    fn result_record(key: u128, byte: u8) -> JournalRecord {
        let payload = vec![0u8, byte, byte, byte];
        JournalRecord {
            key,
            digest: fnv1a64(&payload),
            payload,
        }
    }

    #[test]
    fn service_records_roundtrip() {
        let records = [
            ServiceRecord::Lease {
                worker: 3,
                start: 10,
                end: 14,
                attempt: 2,
            },
            ServiceRecord::CellDone { cell: 12 },
        ];
        for r in records {
            let payload = r.encode();
            assert_eq!(ServiceRecord::decode(&payload), Some(r));
            assert!(is_service_key(r.key()));
        }
        // Distinct fields produce distinct keys (the writer dedups by key).
        let a = ServiceRecord::Lease {
            worker: 1,
            start: 0,
            end: 4,
            attempt: 0,
        };
        let b = ServiceRecord::Lease {
            worker: 1,
            start: 0,
            end: 4,
            attempt: 1,
        };
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn decode_rejects_result_payloads_and_garbage() {
        assert_eq!(ServiceRecord::decode(&[]), None);
        assert_eq!(ServiceRecord::decode(&[0, 1, 2, 3]), None, "result tag");
        assert_eq!(ServiceRecord::decode(&[SERVICE_PAYLOAD_TAG]), None);
        assert_eq!(
            ServiceRecord::decode(&[SERVICE_PAYLOAD_TAG, 1, 0, 0]),
            None,
            "short lease"
        );
        assert_eq!(
            ServiceRecord::decode(&[SERVICE_PAYLOAD_TAG, 9, 0, 0, 0, 0]),
            None,
            "unknown kind"
        );
    }

    #[test]
    fn merge_drops_service_records_and_dedups() {
        let lease = ServiceRecord::Lease {
            worker: 0,
            start: 0,
            end: 2,
            attempt: 0,
        };
        let marker = ServiceRecord::CellDone { cell: 0 };
        let svc = |r: ServiceRecord| {
            let payload = r.encode();
            JournalRecord {
                key: r.key(),
                digest: fnv1a64(&payload),
                payload,
            }
        };
        let a = vec![svc(lease), result_record(1, 0xAA), svc(marker)];
        let b = vec![result_record(2, 0xBB), result_record(1, 0xAA)];
        let out = merge_journals(&[a, b]);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].key, 1);
        assert_eq!(out.records[1].key, 2);
        assert_eq!(out.service_dropped, 2);
        assert_eq!(out.duplicates, 1);
        assert_eq!(out.conflicts, 0);
    }

    #[test]
    fn merge_is_order_independent_and_idempotent() {
        let inputs = vec![
            vec![result_record(5, 1), result_record(3, 2)],
            vec![result_record(3, 2), result_record(9, 3)],
            vec![result_record(1, 4)],
        ];
        let forward = merge_journals(&inputs);
        let mut reversed = inputs.clone();
        reversed.reverse();
        for input in &mut reversed {
            input.reverse();
        }
        assert_eq!(forward, merge_journals(&reversed));
        // Idempotent: merging the merge with the originals changes nothing.
        let mut again = inputs;
        again.push(forward.records.clone());
        assert_eq!(forward.records, merge_journals(&again).records);
    }

    #[test]
    fn merge_conflicts_resolve_deterministically() {
        let a = vec![result_record(7, 0x01)];
        let b = vec![result_record(7, 0x02)];
        let ab = merge_journals(&[a.clone(), b.clone()]);
        let ba = merge_journals(&[b, a]);
        assert_eq!(ab.conflicts, 1);
        assert_eq!(ab.records, ba.records, "winner must not depend on order");
    }

    #[test]
    fn status_server_serves_status_and_metrics() {
        let progress = ServiceProgress::new();
        progress.cells_total.store(16, Ordering::Relaxed);
        progress.cells_done.store(5, Ordering::Relaxed);
        let registry = Registry::new();
        registry.counter("recovery.worker_spawns").add(4);
        let server =
            StatusServer::start(0, Arc::clone(&progress), registry).expect("bind ephemeral port");
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
            let mut out = String::new();
            s.read_to_string(&mut out).expect("read");
            out
        };
        let status = get("/status");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(status.contains("\"cells_done\": 5"), "{status}");
        let metrics = get("/metrics");
        assert!(metrics.contains("recovery_worker_spawns") || metrics.contains("worker_spawns"));
        // The handler folds a live export of the progress counters into
        // every response — mid-run state must be visible even though
        // nothing was exported into the ambient registry yet.
        progress.worker_cells_stolen.store(3, Ordering::Relaxed);
        let live = get("/metrics");
        assert!(
            live.contains("recovery_worker_cells_stolen 3"),
            "mid-run progress missing from /metrics: {live}"
        );
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.shutdown();
    }

    #[test]
    fn status_server_closes_a_connection_that_sends_no_request() {
        let progress = ServiceProgress::new();
        progress.cells_done.store(2, Ordering::Relaxed);
        let server = StatusServer::start(0, Arc::clone(&progress), Registry::new())
            .expect("bind ephemeral port");
        let mut silent = TcpStream::connect(server.addr()).expect("connect");
        silent
            .shutdown(std::net::Shutdown::Write)
            .expect("shut down the write half");
        let mut answer = Vec::new();
        silent.read_to_end(&mut answer).expect("read");
        assert!(
            answer.is_empty(),
            "answered a request that never arrived: {}",
            String::from_utf8_lossy(&answer)
        );
        // The loop moved on: the next request is served.
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        write!(s, "GET /status HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut status = String::new();
        s.read_to_string(&mut status).expect("read");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(status.contains("\"cells_done\": 2"), "{status}");
        server.shutdown();
    }
}
