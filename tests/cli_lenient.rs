//! `sqlog-clean` ingestion policies, end to end through the real binary.
//!
//! A corrupted input file (structural damage, invalid UTF-8, a depth-bomb
//! statement) must abort a strict run with exit 1, while `--lenient` runs
//! to completion: bad lines copied verbatim to the `--quarantine` sidecar,
//! the run-health section reporting every count, and exit 2 — the
//! "completed but degraded" code. A fault-free run exits 0. These three
//! exit codes are a documented contract, pinned here.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sqlog-clean");

/// A scratch directory unique to this test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sqlog-cli-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const MALFORMED_LINE: &[u8] = b"definitely not a log line";
const UTF8_LINE: &[u8] = b"9\t9000\tu2\t\t\t\tSELECT \xFF FROM t";

fn corrupted_fixture() -> Vec<u8> {
    let mut raw: Vec<u8> = Vec::new();
    raw.extend_from_slice(b"0\t0\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 8\n");
    raw.extend_from_slice(MALFORMED_LINE);
    raw.push(b'\n');
    raw.extend_from_slice(b"1\t1000\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 1\n");
    raw.extend_from_slice(UTF8_LINE);
    raw.push(b'\n');
    let bomb = format!(
        "2\t2000\tu1\t\t\t\tSELECT {}1{}\n",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    raw.extend_from_slice(bomb.as_bytes());
    raw.extend_from_slice(b"3\t3000\tu1\t\t\t\tSELECT ra, dec FROM photoprimary WHERE objid=3\n");
    raw
}

#[test]
fn strict_mode_aborts_on_corrupted_input() {
    let scratch = Scratch::new("strict");
    let input = scratch.path("corrupted.tsv");
    std::fs::write(&input, corrupted_fixture()).expect("write fixture");

    let out = Command::new(BIN)
        .args(["--in", input.to_str().unwrap()])
        .output()
        .expect("run sqlog-clean");
    assert_eq!(
        out.status.code(),
        Some(1),
        "strict run must exit 1 (fatal) on a corrupted log"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed log line 2"), "stderr: {stderr}");
}

#[test]
fn lenient_mode_runs_to_completion_with_quarantine_and_health_report() {
    let scratch = Scratch::new("lenient");
    let input = scratch.path("corrupted.tsv");
    let clean = scratch.path("clean.tsv");
    let quarantine = scratch.path("bad.tsv");
    std::fs::write(&input, corrupted_fixture()).expect("write fixture");

    let out = Command::new(BIN)
        .args([
            "--in",
            input.to_str().unwrap(),
            "--out",
            clean.to_str().unwrap(),
            "--lenient",
            "--quarantine",
            quarantine.to_str().unwrap(),
        ])
        .output()
        .expect("run sqlog-clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a lenient run that quarantined lines completed degraded: exit 2\n{stderr}"
    );

    // The sidecar holds exactly the two unreadable lines, verbatim.
    let mut expected = Vec::new();
    expected.extend_from_slice(MALFORMED_LINE);
    expected.push(b'\n');
    expected.extend_from_slice(UTF8_LINE);
    expected.push(b'\n');
    assert_eq!(std::fs::read(&quarantine).expect("read sidecar"), expected);
    assert!(
        stderr.contains("quarantined 2 unreadable lines (1 malformed, 1 invalid UTF-8)"),
        "stderr: {stderr}"
    );

    // The statistics report carries the run-health accounting.
    assert!(stdout.contains("Run health"), "stdout: {stdout}");
    assert!(stdout.contains("degraded"), "stdout: {stdout}");
    assert!(stdout.contains("2 (1 invalid UTF-8)"), "stdout: {stdout}");
    assert!(
        stdout.contains("limit-rejected statements"),
        "stdout: {stdout}"
    );

    // The clean log was produced: the surviving DW pair collapses into one
    // IN-query, the photoprimary query passes through.
    let clean_text = std::fs::read_to_string(&clean).expect("read clean log");
    assert!(clean_text.contains("IN (8, 1)"), "clean: {clean_text}");
    assert!(clean_text.contains("photoprimary"), "clean: {clean_text}");
}

#[test]
fn quarantine_without_lenient_is_rejected() {
    let out = Command::new(BIN)
        .args(["--in", "whatever.tsv", "--quarantine", "bad.tsv"])
        .output()
        .expect("run sqlog-clean");
    assert_eq!(out.status.code(), Some(1), "usage errors are fatal: exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--quarantine requires --lenient"),
        "{stderr}"
    );
}

#[test]
fn healthy_run_exits_zero_and_help_exits_zero() {
    let scratch = Scratch::new("healthy");
    let input = scratch.path("ok.tsv");
    std::fs::write(
        &input,
        b"0\t0\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 8\n\
          1\t1000\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 1\n",
    )
    .expect("write fixture");

    let out = Command::new(BIN)
        .args(["--in", input.to_str().unwrap()])
        .output()
        .expect("run sqlog-clean");
    assert_eq!(out.status.code(), Some(0), "clean run exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean (no faults)"), "stdout: {stdout}");

    let help = Command::new(BIN).args(["--help"]).output().expect("help");
    assert_eq!(help.status.code(), Some(0), "--help exits 0");
}

#[test]
fn solve_panic_completes_degraded_with_identical_logs() {
    let scratch = Scratch::new("solve-panic");
    let input = scratch.path("pairs.tsv");
    std::fs::write(
        &input,
        b"0\t0\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 3 /* POISON_SOLVE */\n\
          1\t1000\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 4\n\
          2\t2000\tu2\t\t\t\tSELECT name FROM Employee WHERE empId = 5\n\
          3\t3000\tu2\t\t\t\tSELECT name FROM Employee WHERE empId = 6\n",
    )
    .expect("write fixture");
    let mut logs = Vec::new();
    for threads in ["1", "8"] {
        let clean = scratch.path(&format!("clean-{threads}.tsv"));
        let out = Command::new(BIN)
            .args(["--in", input.to_str().unwrap()])
            .args(["--out", clean.to_str().unwrap()])
            .args(["--parallelism", threads])
            .env("SQLOG_FAULT_MARKER", "POISON_SOLVE")
            .env("SQLOG_FAULT_STAGE", "solve")
            .env("SQLOG_FAULT_ACTION", "panic")
            .env("RUST_BACKTRACE", "0")
            .output()
            .expect("run sqlog-clean");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "threads {threads}: {stdout}");
        let shards = stdout
            .lines()
            .find(|l| l.contains("degraded (recovered) shards"))
            .unwrap_or_else(|| panic!("no degraded shards row: {stdout}"));
        assert!(shards.trim_end().ends_with(" 1"), "{shards}");
        let log = std::fs::read_to_string(&clean).expect("clean log written");
        // The poison pair is kept verbatim; the other pair is rewritten.
        assert!(log.contains("POISON_SOLVE") && log.contains("empId = 4"));
        assert!(log.contains("IN (5, 6)"), "{log}");
        logs.push(log);
    }
    assert_eq!(logs[0], logs[1]);
}
