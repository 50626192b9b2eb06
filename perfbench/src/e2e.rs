//! End-to-end runs, tracing off: dialect source → `compile` → runtime →
//! output checked against the reference, repeated until the run's time
//! budget is spent.

use crate::util::{median, RssSampler};
use crate::workload::{Dataset, Spec};
use crate::{timed_builder, worker, Metric};
use cgp_core::{compile, run_plan_threaded_stats, ExecOptions};
use cgp_datacutter::RunStats;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// At least this many repetitions, however long they take.
const MIN_REPS: usize = 3;
/// Extra `compile` calls per repetition for the `compile_ms` median.
const COMPILES_PER_REP: usize = 8;

/// Per-repetition samples and the run's failure count.
#[derive(Debug, Default)]
pub struct Samples {
    pub run_s: Vec<f64>,
    pub runtime_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub compile_ms: Vec<f64>,
    pub peak_rss_kb: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// The end-to-end metrics, as medians over the repetitions.
    pub fn metrics(&self, elems: usize) -> Vec<Metric> {
        let eps: Vec<f64> = self.runtime_s.iter().map(|t| elems as f64 / t).collect();
        vec![
            Metric::new("run_s", median(&self.run_s), "s"),
            Metric::new("elems_per_s", median(&eps), "1/s"),
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("compile_ms", median(&self.compile_ms), "ms"),
            Metric::new("peak_rss_mb", self.peak_rss_kb as f64 / 1024.0, "MB"),
        ]
    }
}

/// One repetition's timings.
struct Rep {
    run_s: f64,
    runtime_s: f64,
    setup_s: f64,
    worker_hwm_kb: u64,
}

/// Repeat the workload for `seconds` (at least [`MIN_REPS`] times).
pub fn run(spec: &Spec, data: &Dataset, expected: &[String], seconds: f64, work: &Path) -> Samples {
    let mut s = Samples::default();
    let opts = spec.compile_options();
    let sampler = RssSampler::start();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while s.attempted < MIN_REPS as u64 || started.elapsed() < budget {
        s.attempted += 1;
        let rep = if spec.workload.launched() {
            launched_rep(spec, expected, work, s.attempted)
        } else {
            in_process_rep(spec, data, expected)
        };
        match rep {
            Ok(r) => {
                s.run_s.push(r.run_s);
                s.runtime_s.push(r.runtime_s);
                s.setup_s.push(r.setup_s);
                s.peak_rss_kb = s.peak_rss_kb.max(r.worker_hwm_kb);
            }
            Err(e) => {
                eprintln!(
                    "perfbench: {} rep {} failed: {e}",
                    spec.workload.name(),
                    s.attempted
                );
                s.failed += 1;
            }
        }
        for _ in 0..COMPILES_PER_REP {
            let t = Instant::now();
            if let Ok(opts) = &opts {
                if compile(spec.src(), opts).is_ok() {
                    s.compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    s.peak_rss_kb = s.peak_rss_kb.max(sampler.finish());
    s
}

fn check(got: &[String], expected: &[String]) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "output {got:?} differs from the reference {expected:?}"
        ))
    }
}

/// One in-process repetition: compile, the runtime call, the check.
pub struct InProcess {
    pub compile_s: f64,
    pub runtime_s: f64,
    /// Seconds of each host-env build (one per filter copy).
    pub builds: Vec<f64>,
    pub stats: RunStats,
}

/// Compile and run the workload in this process under `exec`, and
/// check its output against the reference.
pub fn in_process(
    spec: &Spec,
    data: &Dataset,
    expected: &[String],
    exec: &ExecOptions,
) -> Result<InProcess, String> {
    let builds = Arc::new(Mutex::new(Vec::new()));
    let builder = timed_builder(spec.builder(data), Arc::clone(&builds));
    let t0 = Instant::now();
    let opts = spec.compile_options()?;
    let compiled = compile(spec.src(), &opts).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let (out, stats) = run_plan_threaded_stats(Arc::new(compiled.plan), builder, None, exec)
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    check(&out, expected)?;
    let builds = builds.lock().expect("builds lock").clone();
    Ok(InProcess {
        compile_s: (t1 - t0).as_secs_f64(),
        runtime_s: (t2 - t1).as_secs_f64(),
        builds,
        stats,
    })
}

fn in_process_rep(spec: &Spec, data: &Dataset, expected: &[String]) -> Result<Rep, String> {
    let r = in_process(spec, data, expected, &ExecOptions::default())?;
    let slowest_build = r.builds.iter().cloned().fold(0.0, f64::max);
    Ok(Rep {
        run_s: r.compile_s + r.runtime_s,
        runtime_s: r.runtime_s,
        setup_s: r.compile_s + slowest_build,
        worker_hwm_kb: 0,
    })
}

fn launched_rep(spec: &Spec, expected: &[String], work: &Path, rep: u64) -> Result<Rep, String> {
    let t0 = Instant::now();
    let opts = spec.compile_options()?;
    compile(spec.src(), &opts).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let launched = worker::launch(spec, work, &rep.to_string())?;
    let t2 = Instant::now();
    check(&launched.lines, expected)?;
    let w = &launched.workers;
    Ok(Rep {
        run_s: (t2 - t0).as_secs_f64(),
        runtime_s: (t2 - t1).as_secs_f64(),
        setup_s: w.iter().map(|r| r.get("setup_s")).fold(0.0, f64::max),
        worker_hwm_kb: w.iter().map(|r| r.get("hwm_kb") as u64).max().unwrap_or(0),
    })
}
