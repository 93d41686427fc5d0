//! Smoke tests: every figure/table binary runs and prints its anchors.
//!
//! These protect the regeneration harness itself — a binary that panics
//! or silently drops a section would otherwise only be noticed manually.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert!(out.status.success(), "{bin} exited with {:?}", out.status);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table1_prints_suite() {
    let s = run(env!("CARGO_BIN_EXE_table1"), &[]);
    for needle in [
        "websearch",
        "webmail",
        "ytube",
        "mapred-wc",
        "mapred-wr",
        "QoS",
    ] {
        assert!(s.contains(needle), "missing {needle}");
    }
}

#[test]
fn fig1_prints_exact_totals() {
    let s = run(env!("CARGO_BIN_EXE_fig1"), &[]);
    assert!(s.contains("5758"), "srvr1 total");
    assert!(s.contains("3249") || s.contains("3250"), "srvr2 total");
    assert!(s.contains("K1 / L1 / K2"));
}

#[test]
fn table2_prints_six_platforms() {
    let s = run(env!("CARGO_BIN_EXE_table2"), &[]);
    for p in ["srvr1", "srvr2", "desk", "mobl", "emb1", "emb2"] {
        assert!(s.contains(p), "missing {p}");
    }
    assert!(s.contains("3294"), "srvr1 Inf-$ with switch share");
}

#[test]
fn fig3_prints_density_and_gains() {
    let s = run(env!("CARGO_BIN_EXE_fig3"), &[]);
    assert!(s.contains("320"));
    assert!(s.contains("1280"));
    assert!(s.contains("PUE"));
    assert!(s.contains("heat pipe"));
}

#[test]
fn fig4_prints_slowdown_rows() {
    let s = run(env!("CARGO_BIN_EXE_fig4"), &[]);
    assert!(s.contains("PCIe x4"));
    assert!(s.contains("CBF"));
    assert!(s.contains("static"));
    assert!(s.contains("dynamic"));
}

#[test]
fn ensemble_prints_contention_table() {
    let s = run(env!("CARGO_BIN_EXE_ensemble"), &[]);
    assert!(s.contains("link util"));
    assert!(s.contains("DRAM/flash hybrid"));
    assert!(s.contains("page sharing"));
}

#[test]
fn fig5_rejects_unknown_baseline() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .arg("nonsense")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn faults_degrades_gracefully_and_reproduces() {
    let s = run(env!("CARGO_BIN_EXE_faults"), &[]);
    // Every scenario section printed — the run survived all injected
    // failures without panicking.
    for needle in [
        "fail-free",
        "single blade failure",
        "link flap",
        "blade-down",
        "Fan-wall failure",
        "Availability-adjusted Figure 5",
    ] {
        assert!(s.contains(needle), "missing {needle}");
    }
    // Retries/timeouts surfaced in the fault counters, and degraded
    // goodput stayed nonzero (graceful, not dead).
    assert!(s.contains("retries"));
    // Same seeds -> bit-identical output on a second invocation.
    let again = run(env!("CARGO_BIN_EXE_faults"), &[]);
    assert_eq!(s, again, "faults bin must be deterministic");
}

#[test]
fn faults_output_is_thread_count_invariant() {
    let serial = run(env!("CARGO_BIN_EXE_faults"), &["--threads", "1"]);
    let parallel = run(env!("CARGO_BIN_EXE_faults"), &["--threads", "8"]);
    assert_eq!(serial, parallel, "--threads must only change wall-clock");
}

#[test]
fn perfsmoke_writes_results_json() {
    let dir = std::env::temp_dir().join(format!("wcs-perfsmoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let out = Command::new(env!("CARGO_BIN_EXE_perfsmoke"))
        .args(["--threads", "2"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "perfsmoke exited with {:?}",
        out.status
    );
    let json = std::fs::read_to_string(dir.join("BENCH_results.json")).expect("results written");
    for needle in [
        "\"threads\": 2",
        "cpu_study_quick",
        "events_per_sec",
        "wall_ms",
        "\"memo\"",
        "\"enabled\": true",
        "hit_rate",
        "sweep_cold_ms",
        "sweep_warm_ms",
        "speedup",
        // perfsmoke aborts before writing results if the memoized sweep
        // output differs from cold recomputation by even one byte.
        "\"diverged\": false",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenarios_bin_runs_packs_and_rejects_unknown_names() {
    let dir = std::env::temp_dir().join(format!("wcs-scenarios-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let out = Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(["--threads", "2"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "scenarios exited with {:?}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The default slate covers both new families and a paper workload
    // under a pack, and the built-in determinism gate reported identity
    // (the bin aborts before writing results otherwise).
    for needle in [
        "faas/flash-crowd",
        "dag-analytics/diurnal",
        "websearch/flash-crowd",
        "byte-identical",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in {stdout}");
    }
    let json =
        std::fs::read_to_string(dir.join("SCENARIOS_results.json")).expect("results written");
    assert!(json.contains("\"diverged\": false"), "{json}");

    // An unknown scenario name is a usage error (exit 2) whose message
    // lists every registered scenario.
    let out = Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(["--scenario", "nope"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown scenario must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario workload"), "{stderr}");
    assert!(
        stderr.contains("dag-analytics") && stderr.contains("websearch"),
        "error must list registered scenarios: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_proves_resume_and_isolation() {
    let dir = std::env::temp_dir().join(format!("wcs-chaos-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "chaos exited with {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "kill at 25%/60%",
        "byte-identical",
        "panic isolation",
        "DEGRADED",
        "watchdog deadlines",
        "all waves passed",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in {stdout}");
    }
    let json = std::fs::read_to_string(dir.join("BENCH_results.json")).expect("results written");
    // The chaos bin asserts byte-identity before writing results, so the
    // file existing with this line is the proof CI greps for.
    assert!(json.contains("\"resume_diverged\": false"), "{json}");
    for needle in [
        "\"cells_replayed\"",
        "\"task_panics\"",
        "\"task_retries\"",
        "\"deadline_cancels\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweeps_resume_round_trip_is_identical() {
    let path = std::env::temp_dir().join(format!("wcs-sweeps-resume-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = path.to_str().expect("utf-8 temp path");
    let first = run(env!("CARGO_BIN_EXE_sweeps"), &["--resume", journal]);
    assert!(
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) > 0,
        "first run must write the journal"
    );
    // Second run replays every cell from the journal; the printed sweep
    // must be byte-identical, with or without the in-process memo.
    let resumed = run(env!("CARGO_BIN_EXE_sweeps"), &["--resume", journal]);
    assert_eq!(first, resumed, "resumed sweeps output diverged");
    let no_memo = run(
        env!("CARGO_BIN_EXE_sweeps"),
        &["--resume", journal, "--no-memo", "--threads", "2"],
    );
    assert_eq!(first, no_memo, "--no-memo --resume output diverged");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bins_reject_bad_resume_journals() {
    // A file that is not a journal must be a clean, explained exit —
    // not a panic (no raw unwraps on the build path).
    let path = std::env::temp_dir().join(format!("wcs-notajournal-{}", std::process::id()));
    std::fs::write(&path, b"definitely not a journal").expect("temp file writes");
    let out = Command::new(env!("CARGO_BIN_EXE_sweeps"))
        .args(["--resume", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "bad journal must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot construct evaluator"),
        "expected a graceful error, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "bad journal must not panic: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn bins_reject_malformed_thread_counts() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--threads", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "zero threads must be rejected");
}
