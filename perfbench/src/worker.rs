//! The launcher workload: the parent side that launches one worker
//! process per unit through `cgp_bench::launcher`, and the worker role
//! the launcher re-executes this binary into.
//!
//! A worker compiles, creates its shared-memory ingress inside the run's
//! directory, announces `CGP_LISTENING`, runs its unit and writes a
//! small report file (`worker-<stage>.txt`, `key value` lines) that the
//! parent reads back: its set-up and run times, host-env build time,
//! peak resident set and per-link frame/byte counts.

use crate::util::status_kb;
use crate::workload::{Spec, UNITS};
use cgp_bench::launcher::{launch_supervised, LaunchOptions, Transport, LISTENING_MARKER};
use cgp_core::{compile, run_plan_worker_io, ExecOptions, WorkerIngress};
use cgp_datacutter::{ShmIngress, DEFAULT_SHM_CAPACITY, SHM_PREFIX};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one worker measured about itself.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    pub values: BTreeMap<String, f64>,
}

impl WorkerReport {
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

/// One launched run: the last stage's output and every worker's report.
pub struct Launched {
    pub lines: Vec<String>,
    pub workers: Vec<WorkerReport>,
}

/// Launch the workload's workers in a fresh directory under `work`,
/// collect their reports and check that no ring file is left behind.
pub fn launch(spec: &Spec, work: &Path, tag: &str) -> Result<Launched, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(work)
        .join(format!("launch-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let args: Vec<String> = [
        "--worker",
        spec.workload.name(),
        "--size",
        spec.size.name(),
        "--seed",
        &spec.seed.to_string(),
        "--report-dir",
        &dir.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let result = launch_supervised(UNITS, &args, &LaunchOptions::new(Transport::Shm))
        .map_err(|e| e.to_string())
        .and_then(|report| {
            let workers = (0..UNITS)
                .map(|k| read_report(&dir.join(format!("worker-{k}.txt"))))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Launched {
                lines: report.lines,
                workers,
            })
        });
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| !n.starts_with("worker-"))
                .collect()
        })
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    if !leftovers.is_empty() {
        return Err(format!("ring files left behind: {leftovers:?}"));
    }
    result
}

fn read_report(path: &Path) -> Result<WorkerReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values = BTreeMap::new();
    for line in text.lines() {
        if let Some((k, v)) = line.split_once(' ') {
            let v = v
                .parse()
                .map_err(|_| format!("{}: bad line {line:?}", path.display()))?;
            values.insert(k.to_string(), v);
        }
    }
    Ok(WorkerReport { values })
}

/// Entry point of a worker process (`CGP_ROLE=worker:<stage>`).
/// `started` is taken first thing in `main`. Returns the exit code.
pub fn run(stage: usize, spec: &Spec, report_dir: &Path, started: Instant) -> i32 {
    match run_inner(stage, spec, report_dir, started) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench worker {stage}: {e}");
            1
        }
    }
}

fn run_inner(stage: usize, spec: &Spec, report_dir: &Path, started: Instant) -> Result<(), String> {
    let data = spec.dataset();
    let opts = spec.compile_options()?;
    let compiled = compile(spec.src(), &opts).map_err(|e| e.to_string())?;
    let ingress = if stage > 0 {
        let base = report_dir.join(format!("l{stage}")).display().to_string();
        let shm = ShmIngress::create(&base, 1, DEFAULT_SHM_CAPACITY, None)
            .map_err(|e| format!("create shm ingress at {base}: {e}"))?;
        println!("{LISTENING_MARKER} {SHM_PREFIX}{}", shm.base());
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        Some(WorkerIngress::Shm(shm))
    } else {
        None
    };
    let connect = std::env::var("CGP_CONNECT").ok().filter(|c| !c.is_empty());
    let builds = Arc::new(Mutex::new(Vec::new()));
    let builder = crate::timed_builder(spec.builder(&data), Arc::clone(&builds));
    let called = Instant::now();
    let (out, stats) = run_plan_worker_io(
        Arc::new(compiled.plan),
        builder,
        stage,
        ingress,
        connect,
        None,
        &ExecOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let run_s = called.elapsed().as_secs_f64();
    for line in &out {
        println!("{line}");
    }
    let host_build_s: f64 = builds.lock().expect("builds lock").iter().sum();
    let mut report = format!(
        "setup_s {}\nrun_s {run_s}\nhost_build_s {host_build_s}\nhost_builds {}\nhwm_kb {}\n",
        (called - started).as_secs_f64() + host_build_s,
        builds.lock().expect("builds lock").len(),
        status_kb("VmHWM"),
    );
    for (link, st) in &stats.net_links {
        report.push_str(&format!(
            "net.frames.l{link} {}\nnet.bytes.l{link} {}\n",
            st.frames, st.bytes
        ));
    }
    let path: PathBuf = report_dir.join(format!("worker-{stage}.txt"));
    std::fs::write(&path, report).map_err(|e| format!("{}: {e}", path.display()))
}
