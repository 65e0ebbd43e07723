//! Kill/resume chaos harness: SIGKILL-equivalent crashes injected inside
//! every pipeline stage of the real `sqlog-clean` binary, followed by
//! `--resume`, must reproduce the uninterrupted run's output byte for
//! byte — at thread counts 1 and 8, parse cache on or off.
//!
//! Crash injection uses the `SQLOG_FAULT_*` hooks (see
//! `crates/core/src/fault.rs`): `abort` calls `std::process::abort()` —
//! no unwinding, no destructors, the in-process equivalent of SIGKILL —
//! and `stall` parks the process at the injection point so this harness
//! can deliver a *real* external SIGKILL. The `checkpoint` stage kills
//! between serializing a checkpoint and its atomic rename, the exact
//! window where a torn temp file is left behind.
//!
//! Also covered: a crash during the resume itself (double crash), a
//! checkpoint corrupted on disk between crash and resume (detected,
//! reported as a non-fatal diagnostic, stage re-run), and a resume whose
//! configuration drifted (refused, exit 1).

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sqlog-clean");

/// Marker planted in the fixture. Matches statement text (ingest, dedup,
/// parse, sessions, detect, solve), and the `chaos4242` table name that
/// the mine stage matches via `primary_table`.
const MARKER: &str = "4242";

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sqlog-chaos-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

/// A workload in which the marker reaches every stage: a DW-Stifle on the
/// key attribute `Employee.empId` whose constants contain the marker (so
/// detect finds an instance and solve rewrites it), queries against a
/// `chaos4242` table (so the mine stage's `primary_table` match fires),
/// and unmarked filler across more users to give every shard real work.
fn fixture() -> String {
    let mut s = String::new();
    let mut push = |id: u64, ts: u64, user: &str, stmt: &str| {
        s.push_str(&format!("{id}\t{ts}\t{user}\t\t\t\t{stmt}\n"));
    };
    push(0, 0, "u1", "SELECT name FROM Employee WHERE empId = 42421");
    push(
        1,
        1_000,
        "u1",
        "SELECT name FROM Employee WHERE empId = 42422",
    );
    push(
        2,
        2_000,
        "u1",
        "SELECT name FROM Employee WHERE empId = 42423",
    );
    push(3, 2_500, "u2", "SELECT a FROM chaos4242 WHERE id = 1");
    push(4, 3_500, "u2", "SELECT a FROM chaos4242 WHERE id = 2");
    push(5, 4_500, "u2", "SELECT a FROM chaos4242 WHERE id = 3");
    push(
        6,
        5_000,
        "u3",
        "SELECT ra, dec FROM photoprimary WHERE objid = 7",
    );
    push(
        7,
        6_000,
        "u3",
        "SELECT ra, dec FROM photoprimary WHERE objid = 8",
    );
    push(
        8,
        6_500,
        "u3",
        "SELECT ra, dec FROM photoprimary WHERE objid = 7",
    );
    push(9, 7_000, "u4", "SELECT name FROM Employee WHERE empId = 5");
    push(10, 8_000, "u4", "SELECT name FROM Employee WHERE empId = 6");
    push(
        11,
        9_000,
        "u5",
        "SELECT objid FROM photoprimary WHERE ra > 100",
    );
    push(
        12,
        10_000,
        "u5",
        "SELECT objid FROM photoprimary WHERE ra > 200",
    );
    s
}

struct Paths {
    input: PathBuf,
    run_dir: PathBuf,
    clean: PathBuf,
    removal: PathBuf,
}

fn paths(scratch: &Scratch, leg: &str) -> Paths {
    Paths {
        input: scratch.path("input.tsv"),
        run_dir: scratch.path(&format!("{leg}-rundir")),
        clean: scratch.path(&format!("{leg}-clean.tsv")),
        removal: scratch.path(&format!("{leg}-removal.tsv")),
    }
}

fn base_cmd(p: &Paths, threads: usize, cache: bool) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "--in",
        p.input.to_str().unwrap(),
        "--out",
        p.clean.to_str().unwrap(),
        "--removal",
        p.removal.to_str().unwrap(),
        "--parallelism",
        &threads.to_string(),
    ]);
    if !cache {
        cmd.arg("--no-parse-cache");
    }
    cmd
}

/// Reference outputs from an uninterrupted, non-checkpointed run.
fn reference(scratch: &Scratch, threads: usize, cache: bool) -> (Vec<u8>, Vec<u8>) {
    let p = paths(scratch, &format!("ref-{threads}-{cache}"));
    std::fs::write(&p.input, fixture()).expect("write fixture");
    let out = base_cmd(&p, threads, cache)
        .output()
        .expect("run reference");
    assert_eq!(
        out.status.code(),
        Some(0),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read(&p.clean).expect("reference clean log"),
        std::fs::read(&p.removal).expect("reference removal log"),
    )
}

/// Runs the crash leg: `--run-dir`, fault armed to abort inside `stage`.
/// Returns the output; the process must NOT have exited cleanly.
fn crash_leg(p: &Paths, threads: usize, cache: bool, stage: &str, marker: &str) -> Output {
    let out = base_cmd(p, threads, cache)
        .args(["--run-dir", p.run_dir.to_str().unwrap()])
        .env("SQLOG_FAULT_MARKER", marker)
        .env("SQLOG_FAULT_STAGE", stage)
        .env("SQLOG_FAULT_ACTION", "abort")
        .output()
        .expect("spawn crash leg");
    assert!(
        !out.status.success(),
        "stage {stage}: the injected abort did not fire — fixture no longer \
         reaches this stage?\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Runs the resume leg (fault disarmed) and asserts clean completion.
fn resume_leg(p: &Paths, threads: usize, cache: bool, label: &str) -> Output {
    let out = base_cmd(p, threads, cache)
        .args(["--resume", p.run_dir.to_str().unwrap()])
        .output()
        .expect("spawn resume leg");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{label}: resume failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn assert_outputs_match(p: &Paths, reference: &(Vec<u8>, Vec<u8>), label: &str) {
    let clean = std::fs::read(&p.clean).expect("clean log");
    let removal = std::fs::read(&p.removal).expect("removal log");
    assert!(
        clean == reference.0,
        "{label}: clean log differs from uninterrupted run"
    );
    assert!(
        removal == reference.1,
        "{label}: removal log differs from uninterrupted run"
    );
}

/// The core matrix: SIGKILL-equivalent abort inside every stage, at 1 and
/// 8 worker threads, then resume — byte-identical clean and removal logs,
/// and run health records exactly one interruption.
#[test]
fn kill_in_every_stage_then_resume_is_byte_identical() {
    let scratch = Scratch::new("matrix");
    let reference = reference(&scratch, 1, true);

    for stage in [
        "ingest", "dedup", "parse", "sessions", "mine", "detect", "solve",
    ] {
        for threads in [1usize, 8] {
            let label = format!("stage={stage}, threads={threads}");
            let p = paths(&scratch, &format!("{stage}-{threads}"));
            std::fs::write(&p.input, fixture()).expect("write fixture");

            crash_leg(&p, threads, true, stage, MARKER);
            // The crash must not have produced final artifacts.
            assert!(!p.clean.exists(), "{label}: torn clean log left behind");

            let out = resume_leg(&p, threads, true, &label);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("clean (resumed after 1 interruption)"),
                "{label}: run health missed the interruption\nstdout: {stdout}"
            );
            assert_outputs_match(&p, &reference, &label);
        }
    }
}

/// The `ingest` fault hook belongs to the one file-input path, so it kills
/// a run without `--run-dir` too — at every thread count, before any
/// output exists.
#[test]
fn ingest_fault_kills_a_run_without_a_run_dir() {
    let scratch = Scratch::new("plain-ingest");
    for threads in [1usize, 8] {
        let p = paths(&scratch, &format!("plain-{threads}"));
        std::fs::write(&p.input, fixture()).expect("write fixture");
        let out = base_cmd(&p, threads, true)
            .env("SQLOG_FAULT_MARKER", MARKER)
            .env("SQLOG_FAULT_STAGE", "ingest")
            .env("SQLOG_FAULT_ACTION", "abort")
            .output()
            .expect("spawn plain run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && stderr.contains("injected fault: aborting"),
            "threads {threads}: the ingest abort did not fire\nstderr: {stderr}"
        );
        assert!(!p.clean.exists(), "threads {threads}: clean log written");
    }
}

/// Crash *between* writing a checkpoint's temp file and its atomic rename
/// — the torn-write window. The stage must re-run on resume.
#[test]
fn kill_during_checkpoint_write_is_recovered() {
    let scratch = Scratch::new("ckpt-write");
    let reference = reference(&scratch, 1, true);

    for stage in ["dedup", "mine", "solve"] {
        let label = format!("checkpoint write of {stage}");
        let p = paths(&scratch, &format!("ckpt-{stage}"));
        std::fs::write(&p.input, fixture()).expect("write fixture");

        // Marker = the checkpoint's stage name (see fault.rs).
        crash_leg(&p, 1, true, "checkpoint", stage);
        // The atomic protocol: the checkpoint itself must be absent, not torn.
        let ckpt = p.run_dir.join("checkpoints").join(format!("{stage}.ckpt"));
        assert!(!ckpt.exists(), "{label}: rename happened before the abort?");

        let out = resume_leg(&p, 1, true, &label);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("resumed after 1 interruption"),
            "{label}\nstdout: {stdout}"
        );
        assert_outputs_match(&p, &reference, &label);
    }
}

/// The parse cache must not change resumability: crash inside parse with
/// the cache disabled on both legs, still byte-identical.
#[test]
fn kill_with_parse_cache_disabled_resumes_identically() {
    let scratch = Scratch::new("no-cache");
    // Output is cache-independent, but compare like with like anyway.
    let reference = reference(&scratch, 1, false);

    for threads in [1usize, 8] {
        let label = format!("no-cache, threads={threads}");
        let p = paths(&scratch, &format!("nocache-{threads}"));
        std::fs::write(&p.input, fixture()).expect("write fixture");
        crash_leg(&p, threads, false, "parse", MARKER);
        resume_leg(&p, threads, false, &label);
        assert_outputs_match(&p, &reference, &label);
    }
}

/// Double crash: the first resume is itself killed (in a later stage);
/// the second resume completes, reports two interruptions, and still
/// matches the uninterrupted run byte for byte.
#[test]
fn crash_during_resume_then_resume_again() {
    let scratch = Scratch::new("double");
    let reference = reference(&scratch, 1, true);
    let p = paths(&scratch, "double");
    std::fs::write(&p.input, fixture()).expect("write fixture");

    crash_leg(&p, 1, true, "parse", MARKER);

    // First resume: fault re-armed, now in detect — dies mid-resume.
    let out = base_cmd(&p, 1, true)
        .args(["--resume", p.run_dir.to_str().unwrap()])
        .env("SQLOG_FAULT_MARKER", MARKER)
        .env("SQLOG_FAULT_STAGE", "detect")
        .env("SQLOG_FAULT_ACTION", "abort")
        .output()
        .expect("spawn crashing resume");
    assert!(!out.status.success(), "second crash did not fire");

    let out = resume_leg(&p, 1, true, "second resume");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("clean (resumed after 2 interruptions)"),
        "stdout: {stdout}"
    );
    assert_outputs_match(&p, &reference, "double crash");
}

/// A checkpoint corrupted on disk between crash and resume is detected by
/// its header hash, reported as a non-fatal diagnostic, and its stage
/// re-runs — the run still completes with exit 0 and identical output.
#[test]
fn corrupted_checkpoint_is_reported_and_rerun() {
    let scratch = Scratch::new("corrupt");
    let reference = reference(&scratch, 1, true);
    let p = paths(&scratch, "corrupt");
    std::fs::write(&p.input, fixture()).expect("write fixture");

    // Crash in mine: ingest..sessions checkpoints exist.
    crash_leg(&p, 1, true, "mine", MARKER);
    let ckpt = p.run_dir.join("checkpoints").join("sessions.ckpt");
    let mut bytes = std::fs::read(&ckpt).expect("sessions checkpoint");
    let n = bytes.len();
    bytes[n - 2] ^= 0xff;
    std::fs::write(&ckpt, &bytes).expect("corrupt checkpoint");

    let out = resume_leg(&p, 1, true, "corrupted checkpoint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint sessions") && stderr.contains("re-running"),
        "missing diagnostic\nstderr: {stderr}"
    );
    assert_outputs_match(&p, &reference, "corrupted checkpoint");
}

/// Resuming with drifted semantics (a different session gap) must refuse
/// with exit 1 and a clear diagnostic, never silently mix configurations.
#[test]
fn resume_with_changed_config_is_refused() {
    let scratch = Scratch::new("drift");
    let p = paths(&scratch, "drift");
    std::fs::write(&p.input, fixture()).expect("write fixture");
    crash_leg(&p, 1, true, "parse", MARKER);

    let out = base_cmd(&p, 1, true)
        .args(["--resume", p.run_dir.to_str().unwrap()])
        .args(["--session-gap-ms", "1"])
        .output()
        .expect("spawn drifted resume");
    assert_eq!(out.status.code(), Some(1), "drifted resume must be fatal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("different configuration"),
        "stderr: {stderr}"
    );

    // Execution knobs are NOT semantics: a different thread count resumes.
    let out = resume_leg(&p, 8, true, "thread-count drift");
    assert!(out.status.success());
}

/// Resuming against a changed input file must refuse with exit 1.
#[test]
fn resume_with_changed_input_is_refused() {
    let scratch = Scratch::new("input-drift");
    let p = paths(&scratch, "input-drift");
    std::fs::write(&p.input, fixture()).expect("write fixture");
    crash_leg(&p, 1, true, "dedup", MARKER);

    let mut drifted = fixture();
    drifted.push_str("99\t99000\tu9\t\t\t\tSELECT 1\n");
    std::fs::write(&p.input, drifted).expect("rewrite input");

    let out = base_cmd(&p, 1, true)
        .args(["--resume", p.run_dir.to_str().unwrap()])
        .output()
        .expect("spawn resume");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("has changed"), "stderr: {stderr}");
}

/// The genuine article: the child parks at the injection point (`stall`)
/// and this harness delivers a real external SIGKILL, then resumes.
#[test]
fn real_sigkill_then_resume_is_byte_identical() {
    let scratch = Scratch::new("sigkill");
    let reference = reference(&scratch, 1, true);
    let p = paths(&scratch, "sigkill");
    std::fs::write(&p.input, fixture()).expect("write fixture");
    let stall_file = scratch.path("stalled");

    let mut child = base_cmd(&p, 1, true)
        .args(["--run-dir", p.run_dir.to_str().unwrap()])
        .env("SQLOG_FAULT_MARKER", MARKER)
        .env("SQLOG_FAULT_STAGE", "detect")
        .env("SQLOG_FAULT_ACTION", "stall")
        .env("SQLOG_FAULT_STALL_FILE", &stall_file)
        .spawn()
        .expect("spawn stalling run");

    // Wait for the child to reach the injection point, then SIGKILL it
    // (std's Child::kill is SIGKILL on unix).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !stall_file.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "child never reached the detect stall point"
        );
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("child exited ({status}) before stalling");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL the child");
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "killed child cannot have exited cleanly");

    let out = resume_leg(&p, 1, true, "after real SIGKILL");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed after 1 interruption"),
        "stdout: {stdout}"
    );
    assert_outputs_match(&p, &reference, "real SIGKILL");
}

/// `--resume` pointed at a directory that is not a run directory fails
/// fast with a helpful message, and `--run-dir` + `--resume` together are
/// a usage error (exit 1).
#[test]
fn resume_misuse_diagnostics() {
    let scratch = Scratch::new("misuse");
    let p = paths(&scratch, "misuse");
    std::fs::write(&p.input, fixture()).expect("write fixture");

    let out = base_cmd(&p, 1, true)
        .args(["--resume", scratch.path("nonexistent").to_str().unwrap()])
        .output()
        .expect("spawn resume of nothing");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a run directory"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = base_cmd(&p, 1, true)
        .args(["--run-dir", "a", "--resume", "b"])
        .output()
        .expect("spawn conflicting flags");
    assert_eq!(out.status.code(), Some(1));
}
