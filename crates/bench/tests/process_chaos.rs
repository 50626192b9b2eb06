//! Process-level chaos: SIGKILL real worker processes mid-stream and
//! assert the supervised launcher masks the crash with one restart of
//! the whole chain, charged to the stage that died — the distributed
//! output stays byte-identical to the oracle (the launcher itself
//! compares them and fails loudly on divergence), the restart count
//! stays bounded, no shm ring outlives the run, and budget exhaustion
//! falls over to a cost-model replan instead of dying.
//!
//! The vehicle is `cgp zbuf --role launcher`:
//! `CGP_KILL=<stage>[<copy>]#<packet>` makes exactly one worker raise
//! SIGKILL against itself at a deterministic packet index (the spec only
//! arms in worker roles, so neither the launcher nor its in-process
//! failover run ever self-kills). The conformance matrix
//! (`tests/conformance.rs`) runs the same kills on real cuts of all four
//! apps; this suite checks what `cgp` itself prints and leaves behind.

use cgp_core::datacutter::shm::ring_path;
use cgp_core::datacutter::shm_supported;
use std::process::{Command, Output};

/// `cgp zbuf`, ready for more arguments.
fn cgp_zbuf() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cgp"));
    cmd.arg("zbuf");
    cmd
}

/// Run `cgp zbuf` as a supervised launcher with `kill_spec` armed, over
/// `transport`, with `extra` flags appended.
fn run_chaos(kill_spec: &str, transport: &str, extra: &[&str]) -> Output {
    cgp_zbuf()
        .args(["--role", "launcher", "--recover", "--transport", transport])
        .args(extra)
        .env("CGP_KILL", kill_spec)
        .env_remove("CGP_FAULTS")
        .env_remove("CGP_TRACE")
        .output()
        .expect("spawn launcher")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The launcher only prints this after comparing the distributed output
/// with the oracle, the sequential interpreter's output.
const MATCH_LINE: &str = "matches the oracle";

/// The run matched the oracle after exactly one crash, charged to
/// `stage`, was masked by exactly one restart of the whole chain.
fn assert_masked(out: &Output, stage: usize) {
    let stdout = stdout_of(out);
    let stderr = stderr_of(out);
    assert!(
        out.status.success(),
        "launcher failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains(MATCH_LINE),
        "missing byte-identity line\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // Bounded recovery: exactly one deterministic crash, charged to the
    // stage that died, and exactly one restart of all three stages — a
    // supervisor that loops respawns, or charges a survivor whose link
    // failed behind the dead stage, would show otherwise. The workers
    // share the launcher's stderr, so a line may start mid-way through
    // a torn-down worker's own report: match substrings, not lines.
    let want = format!(
        "[obs] supervisor: worker stage {stage} died (signal: 9 (SIGKILL)); restarting the \
         whole chain of 3 stages (restart 1/2)"
    );
    assert_eq!(
        (
            stderr.matches("[obs] supervisor: worker stage").count(),
            stderr.contains(&want)
        ),
        (1, true),
        "want one `{want}`\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("masked 1 worker crash(es) with whole-chain restarts (1 total restarts)"),
        "unexpected restart accounting\nstderr:\n{stderr}"
    );
}

/// No ring file of any shm base the launcher announced is left: the
/// launcher reclaims the rings of every worker it tore down. (Other chaos
/// tests run concurrently, so the shm dir is not scanned.)
fn assert_no_rings_left(out: &Output, bases: usize) {
    let stderr = stderr_of(out);
    let announced: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.split_once("ingress at shm:"))
        .map(|(_, base)| base.trim())
        .collect();
    assert_eq!(
        announced.len(),
        bases,
        "one shm ingress per non-source stage and generation\nstderr:\n{stderr}"
    );
    for base in announced {
        for producer in 0..4 {
            let ring = ring_path(base, producer);
            assert!(
                !ring.exists() && !ring.with_extension("tmp").exists(),
                "teardown leaked {}\nstderr:\n{stderr}",
                ring.display()
            );
        }
    }
}

#[test]
fn tcp_kill_middle_stage_mid_stream_is_masked() {
    let out = run_chaos("f2[0]#2", "tcp", &[]);
    assert_masked(&out, 1);
}

#[test]
fn tcp_kill_source_early_is_masked() {
    // The source dies, possibly before its `Hello` reached stage 1:
    // stage 1's supervised link waits for the teardown instead of
    // failing, so the supervisor charges stage 0, not stage 1.
    let out = run_chaos("f1[0]#1", "tcp", &[]);
    assert_masked(&out, 0);
}

#[test]
fn shm_kill_middle_stage_mid_stream_is_masked() {
    if !shm_supported() {
        return;
    }
    let out = run_chaos("f2[0]#2", "shm", &[]);
    assert_masked(&out, 1);
    assert_no_rings_left(&out, 4);
}

#[test]
fn shm_kill_last_stage_late_is_masked() {
    if !shm_supported() {
        return;
    }
    // The last stage owns the result stdout: its respawn must re-produce
    // the committed output prefix exactly (the launcher verifies it).
    let out = run_chaos("f3[0]#4", "shm", &[]);
    assert_masked(&out, 2);
    assert_no_rings_left(&out, 4);
}

/// Telemetry survives the restart: the respawned workers' samples and
/// final snapshots reach the launcher's aggregator, which merges one
/// snapshot per stage and prints the calibration report.
#[test]
fn shm_kill_last_stage_with_telemetry_merges_every_snapshot() {
    if !shm_supported() {
        return;
    }
    let log =
        std::env::temp_dir().join(format!("cgp-chaos-telemetry-{}.jsonl", std::process::id()));
    let log_arg = log.display().to_string();
    let out = run_chaos(
        "f3[0]#4",
        "shm",
        &["--status-every", "50", "--telemetry-log", &log_arg],
    );
    let text = std::fs::read_to_string(&log).unwrap_or_default();
    let _ = std::fs::remove_file(&log);
    assert_masked(&out, 2);
    assert_no_rings_left(&out, 4);
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("[obs] telemetry: merged 3 worker snapshot(s) for zbuf"),
        "stdout:\n{stdout}\nstderr:\n{}",
        stderr_of(&out)
    );
    assert!(
        stdout.contains("--- zbuf: cost-model calibration (distributed) ---"),
        "stdout:\n{stdout}"
    );
    assert!(
        text.contains(r#""workers":["worker:0","worker:1","worker:2"]"#),
        "merged line in the log:\n{text}"
    );
}

/// The launcher exhausted the restart budget and failed over to a
/// replanned in-process run whose output matched.
fn assert_failed_over(out: &Output) {
    let stdout = stdout_of(out);
    let stderr = stderr_of(out);
    assert!(
        out.status.success(),
        "failover path must succeed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("exhausted restarts"),
        "missing budget-exhaustion report\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("[obs] failover"),
        "missing replan report\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("failed over to a replanned in-process run; output matches the oracle"),
        "failover output must be diffed and match\nstdout:\n{stdout}"
    );
}

#[test]
fn budget_exhaustion_fails_over_to_a_replanned_run() {
    let out = run_chaos("f2[0]#2", "tcp", &["--max-worker-restarts", "0"]);
    assert_failed_over(&out);
}

#[test]
fn shm_budget_exhaustion_fails_over_and_reclaims_rings() {
    if !shm_supported() {
        return;
    }
    let out = run_chaos("f2[0]#2", "shm", &["--max-worker-restarts", "0"]);
    assert_failed_over(&out);
    assert_no_rings_left(&out, 2);
}

#[test]
fn unsupervised_worker_death_fails_loudly() {
    // Without --recover there is no supervision: the kill must surface
    // as a named worker exit, not a hang or a silent truncated result.
    let out = cgp_zbuf()
        .args(["--role", "launcher", "--transport", "tcp"])
        .env("CGP_KILL", "f2[0]#2")
        .output()
        .expect("spawn launcher");
    let stderr = stderr_of(&out);
    assert!(
        !out.status.success(),
        "unsupervised crash must fail the run"
    );
    assert!(
        stderr.contains("exited with"),
        "missing named worker-exit error\nstderr:\n{stderr}"
    );
}
