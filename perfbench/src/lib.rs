//! End-to-end and per-layer benchmark of the dialect apps.
//!
//! One run takes a workload, a seed, a time budget and a trace switch:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload knn-decomp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It builds the workload's dataset from the seed, computes the reference
//! output on the tree-walking interpreter (cached under `.perfbench/`),
//! then either repeats dialect source → `compile` → runtime → checked
//! output for the budget (`--trace 0`, the end-to-end metrics) or does
//! the traced run (`--trace 1`, the per-layer metrics). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (name → value and unit).

pub mod e2e;
pub mod layers;
pub mod util;
pub mod worker;
pub mod workload;

use cgp_core::HostBuilder;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{Builder, Size, Spec, Workload};

/// Scratch space in the working directory: reference cache, ring files,
/// worker reports.
pub const WORK_DIR: &str = ".perfbench";

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Wrap a host-env builder so each call's duration (seconds) is logged.
pub fn timed_builder(inner: Builder, log: Arc<Mutex<Vec<f64>>>) -> HostBuilder {
    Arc::new(move || {
        let t = Instant::now();
        let host = inner();
        log.lock()
            .expect("build log lock")
            .push(t.elapsed().as_secs_f64());
        host
    })
}

/// The result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    report_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut report_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--worker" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            "--size" => {
                let v = value()?;
                size = Size::parse(v)
                    .ok_or_else(|| format!("--size: expected full or tiny, got {v}"))?;
            }
            "--report-dir" => report_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
        report_dir,
    })
}

/// Run the benchmark (or, under `CGP_ROLE=worker:<k>`, one worker of
/// the launcher workload). Returns the process exit code.
pub fn main_with(args: &[String], started: Instant) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let spec = Spec {
        workload: args.workload,
        size: args.size,
        seed: args.seed,
    };
    if let Ok(role) = std::env::var("CGP_ROLE") {
        let stage = role.strip_prefix("worker:").and_then(|s| s.parse().ok());
        return match (stage, &args.report_dir) {
            (Some(stage), Some(dir)) => worker::run(stage, &spec, dir, started),
            _ => {
                eprintln!("perfbench: CGP_ROLE={role} needs worker:<stage> and --report-dir");
                2
            }
        };
    }
    let work = Path::new(WORK_DIR);
    let data = spec.dataset();
    println!(
        "perfbench: {} digest={:016x} cores={}",
        spec.describe(),
        workload::digest(&data),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let expected = match workload::reference(&spec, &data, &work.join("ref")) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: reference run failed: {e}");
            return 1;
        }
    };
    println!("perfbench: reference output {expected:?}");
    let line = if args.trace {
        let t = layers::run(&spec, &data, &expected, args.seconds, &work.join("run"));
        for note in &t.notes {
            println!("perfbench: {note}");
        }
        result_line(t.failed == 0, t.attempted, t.failed, &t.metrics)
    } else {
        let s = e2e::run(&spec, &data, &expected, args.seconds, &work.join("run"));
        println!("perfbench: {} repetitions", s.run_s.len());
        result_line(
            s.failed == 0,
            s.attempted,
            s.failed,
            &s.metrics(spec.elems()),
        )
    };
    println!("{line}");
    0
}
