//! Process-level chaos: SIGKILL real worker processes mid-stream and
//! assert the supervised launcher masks the crash — the distributed
//! output stays byte-identical to the oracle (the launcher itself
//! compares them and fails loudly on divergence), the
//! restart count stays bounded, and budget exhaustion falls over to a
//! cost-model replan instead of dying.
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
        .args([
            "--role",
            "launcher",
            "--recover",
            "--checkpoint-every",
            "2",
            "--transport",
            transport,
        ])
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

fn assert_masked(out: &Output, expect_restarts: &str) {
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
    assert!(
        stderr.contains("[obs] supervisor: worker stage"),
        "the injected kill never fired\nstderr:\n{stderr}"
    );
    // Bounded recovery: exactly one deterministic crash, exactly one
    // prefix restart — a supervisor that loops respawns would show more.
    assert!(
        stderr.contains(expect_restarts),
        "unexpected restart accounting (wanted {expect_restarts:?})\nstderr:\n{stderr}"
    );
}

#[test]
fn tcp_kill_middle_stage_mid_stream_is_masked() {
    let out = run_chaos("f2[0]#2", "tcp", &[]);
    assert_masked(
        &out,
        "masked 1 worker crash(es) with prefix restarts (1 total restarts)",
    );
}

#[test]
fn tcp_kill_source_early_is_masked() {
    let out = run_chaos("f1[0]#1", "tcp", &[]);
    assert_masked(
        &out,
        "masked 1 worker crash(es) with prefix restarts (1 total restarts)",
    );
    // Killing the source restarts only stage 0; the survivors rejoin.
    assert!(
        stderr_of(&out).contains("restarting stages 0..=0"),
        "source death must not restart the survivors\nstderr:\n{}",
        stderr_of(&out)
    );
}

#[test]
fn shm_kill_middle_stage_mid_stream_is_masked() {
    if !shm_supported() {
        return;
    }
    let out = run_chaos("f2[0]#2", "shm", &[]);
    assert_masked(
        &out,
        "masked 1 worker crash(es) with prefix restarts (1 total restarts)",
    );
}

#[test]
fn shm_kill_last_stage_late_is_masked() {
    if !shm_supported() {
        return;
    }
    // The last stage owns the result stdout: its respawn must re-produce
    // the committed output prefix exactly (the launcher verifies it),
    // and the whole chain restarts behind it.
    let out = run_chaos("f3[0]#4", "shm", &[]);
    assert_masked(
        &out,
        "masked 1 worker crash(es) with prefix restarts (1 total restarts)",
    );
    assert!(
        stderr_of(&out).contains("restarting stages 0..=2"),
        "last-stage death restarts the whole chain\nstderr:\n{}",
        stderr_of(&out)
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
    // This run's ring bases, as the launcher announced them (other
    // chaos tests run concurrently, so the shm dir is not scanned).
    let stderr = stderr_of(&out);
    let bases: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.split_once("ingress at shm:"))
        .map(|(_, base)| base.trim())
        .collect();
    assert_eq!(
        bases.len(),
        2,
        "one shm ingress per non-source stage\nstderr:\n{stderr}"
    );
    for base in bases {
        for producer in 0..4 {
            let ring = ring_path(base, producer);
            assert!(
                !ring.exists() && !ring.with_extension("tmp").exists(),
                "failover teardown leaked {}\nstderr:\n{stderr}",
                ring.display()
            );
        }
    }
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
