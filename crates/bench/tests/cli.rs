//! Exit codes of the `cgp` binary and the figure binaries: a command
//! line they cannot read exits 2 naming the argument, instead of
//! silently changing the run; a run whose output matches the oracle, or
//! that fails as injected, exits 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(bin);
    for (var, _) in std::env::vars().filter(|(v, _)| v.starts_with("CGP_")) {
        cmd.env_remove(var);
    }
    cmd.args(args).output().expect("spawn the binary")
}

fn cgp(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_cgp"), args)
}

#[test]
fn unreadable_command_lines_exit_2_naming_the_argument() {
    let cases: [(Output, &str); 6] = [
        (cgp(&["zbuf", "--recovr"]), "unknown argument `--recovr`"),
        (
            cgp(&["zbuf", "--role", "launcher", "--transprt", "tcp"]),
            "unknown argument `--transprt`",
        ),
        (cgp(&["--recover"]), "missing app"),
        (cgp(&["fig05", "--recover"]), "unknown app `fig05`"),
        (
            cgp(&["zbuf", "--faults", "nonsense"]),
            "bad option --faults:",
        ),
        (
            run(env!("CARGO_BIN_EXE_fig05_zbuf_small"), &["--explain"]),
            "unknown argument `--explain`",
        ),
    ];
    for (out, want) in cases {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{want}: {stderr}");
        assert!(stderr.contains(want), "want `{want}` in:\n{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    }
}

/// What `cgp` prints under injected panic, drop, stall and failure, with
/// recovery on and off. Every row exits 0, and each of its patterns must
/// appear in stdout or stderr.
#[test]
fn matching_and_injected_runs_exit_0() {
    let rows: [(&[&str], &[&str]); 13] = [
        (
            &["zbuf"],
            &["[obs] run for zbuf completed; output matches the oracle"],
        ),
        (
            &["knn", "--faults", "panic@f2[0]#1", "--deadline-ms", "60000"],
            &["[obs] chaos run for knn failed as injected"],
        ),
        // A panic surfaces without --recover and is masked with it by a
        // restart of the whole run, with the restart count visible.
        (
            &[
                "zbuf",
                "--faults",
                "f2[0]@0:panic",
                "--deadline-ms",
                "60000",
            ],
            &["failed as injected"],
        ),
        (
            &[
                "zbuf",
                "--faults",
                "panic@f2[0]#3",
                "--deadline-ms",
                "60000",
            ],
            &["failed as injected"],
        ),
        (
            &["zbuf", "--faults", "panic@f2[0]#3", "--recover"],
            &["output matches the oracle", "recovery: 1 restarts"],
        ),
        // Dropped packets are intentional loss: both modes complete and
        // count them (recovery does not resurrect them).
        (
            &["zbuf", "--faults", "f2[0]@3:drop", "--deadline-ms", "60000"],
            &["dropped 1 packets"],
        ),
        (
            &["zbuf", "--faults", "f2[0]@3:drop", "--recover"],
            &["dropped 1 packets"],
        ),
        // An injected stall rides out the watchdog in both modes.
        (
            &[
                "zbuf",
                "--faults",
                "f2[0]@3:delay:50",
                "--deadline-ms",
                "60000",
            ],
            &["output matches the oracle"],
        ),
        (
            &["zbuf", "--faults", "f2[0]@3:delay:50", "--recover"],
            &["output matches the oracle"],
        ),
        // A failure at the final unit, which runs the epilogue: without
        // --recover the run fails naming the fault, with it one restart
        // masks it.
        (
            &["zbuf", "--faults", "fail@f3[0]#1", "--deadline-ms", "60000"],
            &["injected failure at packet 1"],
        ),
        (
            &["zbuf", "--faults", "fail@f3[0]#1", "--recover"],
            &["output matches the oracle", "recovery: 1 restarts"],
        ),
        // An unmaskable every-packet panic exhausts the restart budget
        // and falls back to the cost-model failover replan.
        (
            &["zbuf", "--faults", "f2[0]@*:panic", "--recover"],
            &["replanned over"],
        ),
        // Across workers, the panic fails the middle worker, and the
        // launcher masks it with one restart of the whole chain.
        (
            &[
                "zbuf",
                "--role",
                "launcher",
                "--faults",
                "panic@f2[0]#3",
                "--recover",
            ],
            &["matches the oracle", "masked 1 worker crash(es)"],
        ),
    ];
    for (args, want) in rows {
        let out = cgp(args);
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.status.success(),
            "{args:?} exited {}:\n{text}",
            out.status
        );
        for pat in want {
            assert!(text.contains(pat), "{args:?}: want `{pat}` in:\n{text}");
        }
    }
}
