//! Step-load autoscale benchmark (feeds `autoscale_guard` and
//! `BENCH_autoscale.json`).
//!
//! A three-stage pipeline — fast source, latency-bound `work` stage,
//! summing sink — where the per-packet service time *steps up* partway
//! through the stream. The fixed-width run keeps `work` at one copy and
//! eats the backlog serially; the elastic run starts identically but has
//! the [`cgp_core::datacutter::WidthController`] watching live telemetry,
//! which detects the post-step backlog and widens `work` toward its cap.
//! The guard's headline metric is **throughput recovery**: elastic
//! packets/s over fixed packets/s on the same machine in the same
//! process.
//!
//! The `work` stage **sleeps** for its service time instead of spinning:
//! it models an I/O- or latency-bound filter (the shape that benefits
//! from transparent copies even on one host), and — unlike a spin — the
//! sleeps of width-w copies overlap on a single-core CI runner, so the
//! recovery ratio measures the autoscaler rather than the core count.
//!
//! Both runs are telemetered at the same cadence, so the only variable
//! is the autoscale controller. Each run also returns the sink's sum:
//! reductions are associative/commutative, so fixed and elastic runs
//! must agree bit-for-bit — the guard hard-fails on any divergence.

use cgp_core::datacutter::{
    AutoscaleConfig, Buffer, ClosureFilter, FilterFactory, FilterIo, Pipeline, RunOptions,
    StageSpec, TelemetryConfig,
};
use cgp_obs::telemetry::TelemetrySampler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload shape for one step-load run.
#[derive(Debug, Clone)]
pub struct StepLoadConfig {
    /// Total packets the source emits.
    pub packets: usize,
    /// Per-packet service time after the step, µs. Before the step
    /// (the first quarter of the stream) packets cost an eighth of
    /// this — enough to keep one copy comfortable, so the widening is
    /// attributable to the step and not to the baseline load.
    pub work_us: u64,
    /// Telemetry sampling cadence (the autoscaler's tick clock), ms.
    pub sampler_ms: u64,
    /// Autoscale spec for the elastic run (see
    /// [`AutoscaleConfig::parse`]).
    pub spec: String,
}

impl Default for StepLoadConfig {
    fn default() -> Self {
        StepLoadConfig {
            packets: 600,
            work_us: 400,
            sampler_ms: 5,
            spec: "max=4,grow=2,cooldown=0".to_string(),
        }
    }
}

/// One run's measurements.
#[derive(Debug, Clone, Copy)]
pub struct StepLoadRun {
    pub packets_per_sec: f64,
    /// The sink's reduction total — must be identical across widths.
    pub sum: u64,
    pub grows: usize,
    /// Widest the `work` stage ever got (1 = never widened).
    pub peak_width: usize,
}

fn source_stage(n: usize) -> FilterFactory {
    Box::new(move |_| {
        Box::new(ClosureFilter::new("source", move |io: &mut FilterIo| {
            for i in 0..n as u64 {
                io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
            }
            Ok(())
        }))
    })
}

fn step_work_stage(n: usize, work_us: u64) -> FilterFactory {
    let step_at = (n / 4) as u64;
    Box::new(move |_| {
        Box::new(ClosureFilter::new("work", move |io: &mut FilterIo| {
            while let Some(b) = io.read() {
                let i = b.u64_le("work")?;
                let us = if i < step_at { work_us / 8 } else { work_us };
                std::thread::sleep(Duration::from_micros(us));
                io.write(b)?;
            }
            Ok(())
        }))
    })
}

fn sum_stage(total: &Arc<AtomicU64>) -> FilterFactory {
    let total = Arc::clone(total);
    Box::new(move |_| {
        let total = Arc::clone(&total);
        Box::new(ClosureFilter::new("sum", move |io: &mut FilterIo| {
            while let Some(b) = io.read() {
                total.fetch_add(b.u64_le("sum")?, Ordering::Relaxed);
            }
            Ok(())
        }))
    })
}

/// Run the step-load pipeline once; `elastic` turns the autoscaler on.
pub(crate) fn step_load_run(cfg: &StepLoadConfig, elastic: bool) -> StepLoadRun {
    let total = Arc::new(AtomicU64::new(0));
    let autoscale = elastic.then(|| {
        AutoscaleConfig::parse(&cfg.spec)
            .expect("step-load autoscale spec parses")
            .expect("step-load autoscale spec is not `off`")
    });
    let opts = RunOptions {
        telemetry: Some(TelemetryConfig::new(
            Arc::new(TelemetrySampler::new(Duration::from_millis(cfg.sampler_ms))),
            "local",
        )),
        autoscale,
        ..Default::default()
    };
    let pipeline = Pipeline::new(opts)
        .add_stage(StageSpec::new("source", 1, source_stage(cfg.packets)))
        .add_stage(StageSpec::new(
            "work",
            1,
            step_work_stage(cfg.packets, cfg.work_us),
        ))
        .add_stage(StageSpec::new("sum", 1, sum_stage(&total)));
    let t = Instant::now();
    let stats = pipeline.run().expect("step-load run completes");
    let elapsed = t.elapsed().max(Duration::from_micros(1));
    StepLoadRun {
        packets_per_sec: cfg.packets as f64 / elapsed.as_secs_f64(),
        sum: total.load(Ordering::Relaxed),
        grows: stats.autoscale.grows() as usize,
        peak_width: stats
            .autoscale
            .events
            .iter()
            .map(|e| e.to)
            .max()
            .unwrap_or(1),
    }
}

/// Paired best-of-`reps` measurement: fixed and elastic runs alternate
/// so both sample the same scheduler-noise window.
pub fn paired_step_load(cfg: &StepLoadConfig, reps: usize) -> (StepLoadRun, StepLoadRun) {
    let mut fixed = step_load_run(cfg, false);
    let mut elastic = step_load_run(cfg, true);
    for _ in 1..reps.max(1) {
        let f = step_load_run(cfg, false);
        if f.packets_per_sec > fixed.packets_per_sec {
            fixed = f;
        }
        let e = step_load_run(cfg, true);
        if e.packets_per_sec > elastic.packets_per_sec {
            elastic = e;
        }
    }
    (fixed, elastic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_load_outputs_are_width_independent_and_elastic_widens() {
        // Small and fast — the guard binary does the real measurement;
        // this test pins the semantics: identical sums, and the elastic
        // run actually widened under the step.
        let cfg = StepLoadConfig {
            packets: 200,
            work_us: 300,
            sampler_ms: 2,
            ..Default::default()
        };
        let fixed = step_load_run(&cfg, false);
        let elastic = step_load_run(&cfg, true);
        let expected: u64 = (0..200).sum();
        assert_eq!(fixed.sum, expected);
        assert_eq!(elastic.sum, expected, "autoscaling must not change output");
        assert_eq!(fixed.grows, 0);
        assert!(
            elastic.grows >= 1 && elastic.peak_width > 1,
            "the step must widen the elastic run: {elastic:?}"
        );
    }
}
