//! End-to-end tests for the `wcs-served` sweep service binary: spawn the
//! real supervisor, let it shard real worker processes, and check the
//! crash-tolerance contract from the outside (exit codes, the
//! verification results file, the byte-identity gate).

use std::path::PathBuf;
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-service-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn served(dir: &PathBuf, extra: &[&str]) -> (std::process::Output, String) {
    let results = dir.join("SERVICE_results.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wcs-served"));
    cmd.arg("--plan-cells")
        .arg("4")
        .arg("--verify")
        .arg("--dir")
        .arg(dir)
        .arg("--out")
        .arg(dir.join("canonical.journal"))
        .arg("--results")
        .arg(&results)
        .args(extra);
    let output = cmd.output().expect("wcs-served spawns");
    let json = std::fs::read_to_string(&results).unwrap_or_default();
    (output, json)
}

#[test]
fn clean_run_verifies_byte_identity() {
    let dir = scratch("clean");
    let (output, json) = served(&dir, &["--workers", "2"]);
    assert!(
        output.status.success(),
        "wcs-served failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(json.contains("\"merge_diverged\": false"), "{json}");
    assert!(json.contains("\"resume_diverged\": false"), "{json}");
    assert!(json.contains("\"worker_spawns\": 2"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_kill_still_merges_byte_identical() {
    let dir = scratch("chaos");
    // The kill fires at the first heartbeat, while both workers still
    // hold all their cells. A later fraction races the 4-cell plan: it
    // can finish between two heartbeats, and then no worker is left to
    // kill.
    let (output, json) = served(&dir, &["--workers", "2", "--kill-at", "0"]);
    assert!(
        output.status.success(),
        "wcs-served failed under chaos:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(json.contains("\"merge_diverged\": false"), "{json}");
    assert!(json.contains("\"resume_diverged\": false"), "{json}");
    // The kill must have been observed and its cells stolen by a respawn.
    assert!(!json.contains("\"worker_kills_observed\": 0"), "{json}");
    assert!(!json.contains("\"worker_cells_stolen\": 0"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_flags_exit_with_usage_code() {
    let output = Command::new(env!("CARGO_BIN_EXE_wcs-served"))
        .arg("--workers")
        .arg("zero")
        .output()
        .expect("wcs-served spawns");
    assert_eq!(output.status.code(), Some(2), "usage errors exit 2");

    let output = Command::new(env!("CARGO_BIN_EXE_wcs-served"))
        .arg("--service-worker")
        .arg("--cells")
        .arg("0..2")
        .output()
        .expect("worker mode spawns");
    assert_eq!(
        output.status.code(),
        Some(2),
        "a worker without --journal is a usage error:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn worker_with_closed_stdin_shuts_down_gracefully() {
    // Closing the worker's stdin is the drain signal: it must seal its
    // journal and exit with the graceful code (3), not an error.
    let dir = scratch("graceful");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal = dir.join("worker-0.journal");
    let output = Command::new(env!("CARGO_BIN_EXE_wcs-served"))
        .arg("--service-worker")
        .arg("--journal")
        .arg(&journal)
        .arg("--worker-id")
        .arg("0")
        .arg("--cells")
        .arg("0..2")
        .arg("--plan-cells")
        .arg("2")
        .output() // output() closes stdin immediately
        .expect("worker spawns");
    assert_eq!(
        output.status.code(),
        Some(3),
        "stdin-close must exit graceful:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let (_, report) = wcs_simcore::journal::replay(&journal).expect("journal replays");
    assert_eq!(report.truncated_bytes, 0, "graceful exit seals the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_without_supervisor_completes_its_cells() {
    // The worker protocol is plain argv + a journal file: run one
    // directly, then check the journal carries its lease, results, and
    // completion markers.
    let dir = scratch("solo-worker");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal = dir.join("worker-0.journal");
    // Hold the worker's stdin open for its whole run, as the supervisor
    // does — a closed stdin is the graceful-shutdown signal.
    let mut child = Command::new(env!("CARGO_BIN_EXE_wcs-served"))
        .arg("--service-worker")
        .arg("--journal")
        .arg(&journal)
        .arg("--worker-id")
        .arg("0")
        .arg("--attempt")
        .arg("0")
        .arg("--seed")
        .arg("42")
        .arg("--plan-cells")
        .arg("2")
        .arg("--cells")
        .arg("0..2")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("worker spawns");
    let stdin = child.stdin.take();
    let output = child.wait_with_output().expect("worker runs");
    drop(stdin);
    assert!(
        output.status.success(),
        "worker failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let (records, report) = wcs_simcore::journal::replay(&journal).expect("journal replays");
    assert_eq!(report.truncated_bytes, 0, "clean exit seals the journal");
    let service: Vec<_> = records
        .iter()
        .filter_map(|r| wcs_simcore::service::ServiceRecord::decode(&r.payload))
        .collect();
    use wcs_simcore::service::ServiceRecord;
    assert!(
        service.contains(&ServiceRecord::Lease {
            worker: 0,
            start: 0,
            end: 2,
            attempt: 0
        }),
        "{service:?}"
    );
    assert!(
        service.contains(&ServiceRecord::CellDone { cell: 0 }),
        "{service:?}"
    );
    assert!(
        service.contains(&ServiceRecord::CellDone { cell: 1 }),
        "{service:?}"
    );
    assert!(
        records.len() > service.len(),
        "the journal must also carry result records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
