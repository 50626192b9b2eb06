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

#[test]
fn matching_and_injected_runs_exit_0() {
    for (args, want) in [
        (
            &["zbuf"][..],
            "[obs] run for zbuf completed; output matches the oracle",
        ),
        (
            &["knn", "--faults", "panic@f2[0]#1", "--deadline-ms", "60000"],
            "[obs] chaos run for knn failed as injected",
        ),
    ] {
        let out = cgp(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(stdout.contains(want), "want `{want}` in:\n{stdout}");
    }
}
