//! The conformance matrix: each of the four demo apps under three real
//! decompositions (the rows), over every execution path (the columns),
//! in-process and across worker processes. Every positive cell must
//! print exactly what `Interp::run_main` prints for the app; every
//! negative cell must fail, which proves its fault fires on that plan.
//!
//! The binary plays three parts (`harness = false`, so `main` is ours and
//! ignores the arguments `cargo test` passes):
//!
//! - the matrix: prints each row's `unit_of`, runs every cell in a child
//!   process of its own, and fails listing every cell that failed, with
//!   that cell's worker output;
//! - a cell (`cell <row> <column>`): runs one cell and prints why it
//!   failed, if it did. A cross-process cell goes through
//!   [`cgp_bench::launcher::launch_supervised`], which re-executes this
//!   binary once per pipeline unit;
//! - a worker (`CGP_ROLE=worker:<k>`): rebuilds the cell's plan and run
//!   options from the forwarded row and column and runs unit `k` through
//!   [`cgp_bench::harness::run_worker`], as `cgp --role worker:<k>` does.
//!
//! The in-process sequential, threaded-width and fail/panic cells live in
//! `tests/pipeline_correctness.rs`; they are not repeated here.

use cgp_bench::harness::run_worker;
use cgp_bench::launcher::{launch_supervised, LaunchOptions, Transport};
use cgp_core::apps::dialect::{demo_apps, DemoApp};
use cgp_core::datacutter::shm_supported;
use cgp_core::{
    compile, run_plan_threaded_stats, Decomposition, ExecOptions, FilterEngine, FilterPlan,
    Objective, PipelineEnv,
};
use std::process::Command;
use std::sync::Arc;

/// The argument that makes this binary run one cell.
const CELL: &str = "cell";

/// Which decomposition a row runs.
#[derive(Clone, Copy, PartialEq)]
enum Plan {
    /// The paper's Default placement (`Decomposition::default_style`).
    Default,
    /// The steady-state DP's pick in the same-host environment.
    Pick,
    /// A three-way cut where every unit runs atoms.
    Cut,
}

/// One app under one plan.
struct Row {
    app: DemoApp,
    plan: Plan,
}

impl Row {
    fn id(&self) -> String {
        let plan = match self.plan {
            Plan::Default => "default",
            Plan::Pick => "pick",
            Plan::Cut => "cut",
        };
        format!("{}/{plan}", self.app.name)
    }

    /// The row's plan, planned as the decomposition tests plan: the
    /// steady-state objective in the same-host env, forced to the row's
    /// decomposition unless the row is the pick.
    fn compile(&self) -> FilterPlan {
        let mut opts = self.app.opts.clone();
        opts.pipeline = PipelineEnv::same_host(3, FilterEngine::Vm.power());
        let opts = opts.with_objective(Objective::SteadyState { n_packets: 4 });
        let cut: &[usize] = match self.app.name {
            "zbuf" | "apix" => &[0, 0, 1, 1, 2],
            "knn" => &[0, 0, 1, 2],
            _ => &[0, 1, 2],
        };
        let forced = match self.plan {
            Plan::Default => Some(Decomposition::default_style(cut.len(), 3)),
            Plan::Pick => None,
            Plan::Cut => Some(Decomposition {
                unit_of: cut.to_vec(),
                cost: f64::NAN,
            }),
        };
        let opts = match forced {
            Some(d) => opts.with_decomposition(d),
            None => opts,
        };
        compile(self.app.src, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", self.id()))
            .plan
    }
}

fn rows() -> Vec<Row> {
    demo_apps()
        .into_iter()
        .flat_map(|app| {
            [Plan::Default, Plan::Pick, Plan::Cut].map(|plan| Row {
                app: app.clone(),
                plan,
            })
        })
        .collect()
}

/// One execution path.
struct Column {
    id: &'static str,
    /// Run settings as `CGP_*` variables, read through
    /// `ExecOptions::from_lookup`.
    settings: &'static [(&'static str, &'static str)],
    /// `None` runs in-process at widths [1,1,1]; `Some` runs one worker
    /// process per unit over that transport, supervised when the
    /// settings turn recovery on.
    transport: Option<Transport>,
    /// `CGP_FAULTS` or `CGP_KILL`, passed through the environment to the
    /// workers' first incarnation only: a respawned chain runs clean, so
    /// a supervised cell is masked by exactly one whole-chain restart.
    injected: Option<(&'static str, &'static str)>,
    /// A negative cell: the run must fail.
    fails: bool,
}

const PANIC: (&str, &str) = ("CGP_FAULTS", "panic@f2[0]#1");
const FAIL_F3: (&str, &str) = ("CGP_FAULTS", "fail@f3[0]#1");
const KILL_F2: (&str, &str) = ("CGP_KILL", "f2[0]#1");
const RECOVER: (&str, &str) = ("CGP_RECOVER", "1");
const AUTOSCALE: [(&str, &str); 2] = [("CGP_AUTOSCALE", "max=3"), ("CGP_STATUS_EVERY", "20")];

const fn col(
    id: &'static str,
    settings: &'static [(&'static str, &'static str)],
    transport: Option<Transport>,
) -> Column {
    Column {
        id,
        settings,
        transport,
        injected: None,
        fails: false,
    }
}

/// A cross-process column whose workers' first incarnation gets
/// `injected` through the environment.
const fn injected(
    id: &'static str,
    settings: &'static [(&'static str, &'static str)],
    transport: Option<Transport>,
    injected: (&'static str, &'static str),
) -> Column {
    Column {
        injected: Some(injected),
        ..col(id, settings, transport)
    }
}

const TCP: Option<Transport> = Some(Transport::Tcp);
const SHM: Option<Transport> = Some(Transport::Shm);

const COLUMNS: [Column; 15] = [
    col("threads/autoscale", &AUTOSCALE, None),
    col(
        "threads/autoscale+panic",
        &[AUTOSCALE[0], AUTOSCALE[1], PANIC, RECOVER],
        None,
    ),
    col("tcp", &[], TCP),
    col("shm", &[], SHM),
    injected("tcp/panic", &[RECOVER], TCP, PANIC),
    injected("shm/panic", &[RECOVER], SHM, PANIC),
    injected("tcp/fail-f3", &[RECOVER], TCP, FAIL_F3),
    injected("tcp/kill-f2", &[RECOVER], TCP, KILL_F2),
    injected("shm/kill-f2", &[RECOVER], SHM, KILL_F2),
    injected(
        "tcp/kill-f3",
        &[RECOVER, ("CGP_HEARTBEAT_MS", "25")],
        TCP,
        ("CGP_KILL", "f3[0]#1"),
    ),
    col("shm/autoscale", &AUTOSCALE, SHM),
    injected(
        "shm/autoscale+panic",
        &[AUTOSCALE[0], AUTOSCALE[1], RECOVER],
        SHM,
        PANIC,
    ),
    Column {
        fails: true,
        ..injected("tcp/panic-unrecovered", &[], TCP, PANIC)
    },
    Column {
        fails: true,
        ..injected("tcp/fail-f3-unrecovered", &[], TCP, FAIL_F3)
    },
    Column {
        fails: true,
        ..injected("tcp/kill-f2-unsupervised", &[], TCP, KILL_F2)
    },
];

impl Column {
    /// The run options of this cell: the column's settings, then `env`
    /// (a worker's role, endpoints and injected fault arrive there).
    fn exec(&self, env: impl Fn(&str) -> Option<String>) -> ExecOptions {
        ExecOptions::from_lookup(|var| match self.settings.iter().find(|(v, _)| *v == var) {
            Some((_, value)) => Some(value.to_string()),
            None => env(var),
        })
        .unwrap_or_else(|e| panic!("{}: {e}", self.id))
    }
}

/// The row and column named by `args` (`<row> <column> ...`).
fn cell_of(args: &[String]) -> (Row, &'static Column) {
    let [row, col, ..] = args else {
        panic!("want <row> <column>, got {args:?}");
    };
    let row = rows()
        .into_iter()
        .find(|r| r.id() == *row)
        .unwrap_or_else(|| panic!("no row {row}"));
    let col = COLUMNS
        .iter()
        .find(|c| c.id == col)
        .unwrap_or_else(|| panic!("no column {col}"));
    (row, col)
}

/// Run one cell; `Err` says why it failed.
fn run_cell(row: &Row, col: &Column) -> Result<(), String> {
    let plan = row.compile();
    let exec = col.exec(|_| None);
    let run = match col.transport {
        None => run_plan_threaded_stats(
            Arc::new(plan),
            Arc::clone(&row.app.host),
            Some(&[1, 1, 1]),
            &exec,
        )
        .map(|(out, _)| (out, 0))
        .map_err(|e| e.to_string()),
        Some(transport) => {
            let mut lopts = LaunchOptions::new(transport);
            lopts.supervise = exec.recover;
            let args = [row.id(), col.id.to_string()];
            launch_supervised(plan.m, &args, &lopts)
                .map(|report| (report.lines, report.restart_events))
                .map_err(|e| e.to_string())
        }
    };
    match run {
        Ok(_) if col.fails => Err("ran to completion; want a failed run".to_string()),
        Err(_) if col.fails => Ok(()),
        Err(e) => Err(e),
        Ok((out, restarts)) => {
            let oracle = row.app.oracle();
            if out != oracle {
                Err(format!("{out:?} differs from the oracle {oracle:?}"))
            } else if col.injected.is_some() && restarts != 1 {
                Err(format!("{restarts} masked crashes, want 1"))
            } else {
                Ok(())
            }
        }
    }
}

/// Run every cell, each in a child process, and return the exit code.
fn matrix() -> i32 {
    let exe = std::env::current_exe().expect("test binary path");
    let rows = rows();
    let (mut cells, mut skipped, mut failures) = (0, 0, Vec::new());
    for row in &rows {
        println!(
            "{:<16} unit_of={:?}",
            row.id(),
            row.compile().decomposition.unit_of
        );
        for col in &COLUMNS {
            cells += 1;
            if col.transport == SHM && !shm_supported() {
                skipped += 1;
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args([CELL, &row.id(), col.id]);
            for (var, _) in std::env::vars().filter(|(v, _)| v.starts_with("CGP_")) {
                cmd.env_remove(var);
            }
            if let Some((var, spec)) = col.injected {
                cmd.env(var, spec);
            }
            let out = cmd.output().expect("spawn a cell");
            if !out.status.success() {
                failures.push(format!(
                    "{} × {}: {}{}",
                    row.id(),
                    col.id,
                    String::from_utf8_lossy(&out.stdout).trim(),
                    String::from_utf8_lossy(&out.stderr)
                        .lines()
                        .map(|l| format!("\n    {l}"))
                        .collect::<String>()
                ));
            }
        }
    }
    assert_eq!(cells, 12 * 15, "rows × columns");
    if skipped > 0 {
        println!("note: {skipped} shm cells skipped (no shared-memory support in this build)");
    }
    if failures.is_empty() {
        println!("conformance: {} of {cells} cells match", cells - skipped);
        return 0;
    }
    eprintln!(
        "conformance: {} of {cells} cells failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    1
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let role = std::env::var("CGP_ROLE").unwrap_or_default();
    if let Some(stage) = role.strip_prefix("worker:").and_then(|k| k.parse().ok()) {
        let (row, col) = cell_of(&args);
        let exec = col.exec(|var| std::env::var(var).ok());
        let code = run_worker(row.app.name, row.compile(), row.app.host, stage, &exec);
        std::process::exit(code);
    }
    if args.first().map(String::as_str) == Some(CELL) {
        let (row, col) = cell_of(&args[1..]);
        if let Err(e) = run_cell(&row, col) {
            println!("{e}");
            std::process::exit(1);
        }
        return;
    }
    std::process::exit(matrix());
}
