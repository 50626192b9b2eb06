//! The traced run: per-layer metrics, timed from outside each layer's
//! public functions.
//!
//! 1. Compile phase by phase through the public phase functions, in the
//!    compiler driver's order, and check the plan equals `compile`'s.
//! 2. Drive a VM-backed `FilterStepper` sequentially, timing `new`, each
//!    unit's `step`, `unpack` of every emitted buffer, the reduction
//!    state's encode/decode/merge chain and the epilogue.
//! 3. Run in-process with telemetry on (interleaved with untraced runs
//!    of the same plan, for the tracing overhead) and read `RunStats`
//!    and the calibration report.
//! 4. For the launcher workload, one launched run for the workers'
//!    own timings and link counters.

use crate::util::median;
use crate::workload::{Dataset, Spec, UNITS};
use crate::{e2e, worker, Metric};
use cgp_compiler::codegen::build_plan;
use cgp_compiler::cost::{chain_costs, volume_bytes};
use cgp_compiler::decompose::{decompose_bottleneck_optimal, decompose_dp, Problem};
use cgp_compiler::graph::build_graph;
use cgp_compiler::packing::{unpack, RuntimeEnv};
use cgp_compiler::report::build_report;
use cgp_compiler::reqcomm::{atom_sets_with, propagate_reqcomm};
use cgp_compiler::{
    normalize, CalibrationReport, CompileOptions, Compiled, FilterPlan, FilterStepper, Objective,
};
use cgp_core::codec::{decode_state, encode_state};
use cgp_core::lang::{split_domain, HostEnv, Value};
use cgp_core::{compile, ExecOptions};
use cgp_obs::metrics::MetricsRegistry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Phase-by-phase compiles per traced run (the phases are ms-scale).
const PHASE_REPS: usize = 10;
const PHASES: [&str; 8] = [
    "lang.frontend_ms",
    "compiler.normalize_ms",
    "compiler.graph_ms",
    "compiler.gencons_ms",
    "compiler.reqcomm_ms",
    "compiler.cost_ms",
    "compiler.decompose_ms",
    "compiler.codegen_ms",
];

/// What the traced run produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable findings (dominant layer, model ledger), printed
    /// ahead of the result line.
    pub notes: Vec<String>,
}

pub fn run(spec: &Spec, data: &Dataset, expected: &[String], seconds: f64, work: &Path) -> Traced {
    let started = Instant::now();
    let mut t = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let opts = match spec.compile_options() {
        Ok(o) => o,
        Err(e) => {
            t.attempted = 1;
            t.failed = 1;
            t.notes.push(format!("compile options failed: {e}"));
            return t;
        }
    };
    let record = |t: &mut Traced, what: &str, r: Result<(), String>| {
        t.attempted += 1;
        if let Err(e) = r {
            eprintln!("perfbench: {} {what} failed: {e}", spec.workload.name());
            t.failed += 1;
        }
    };

    // 1. Phase-by-phase compile.
    let mut phase_ms: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    for _ in 0..PHASE_REPS {
        let r = phased_compile(spec.src(), &opts).map(|ms| {
            ms.iter()
                .zip(phase_ms.iter_mut())
                .for_each(|(m, v)| v.push(*m));
        });
        record(&mut t, "phase-by-phase compile", r);
    }
    for (name, v) in PHASES.iter().zip(&phase_ms) {
        t.metrics.push(Metric::new(name, median(v), "ms"));
    }
    let compiled = match compile(spec.src(), &opts) {
        Ok(c) => c,
        Err(e) => {
            record(&mut t, "compile", Err(e.to_string()));
            return t;
        }
    };

    // 2. Sequential drive.
    let drive = drive(&compiled.plan, &spec.builder(data)(), expected);
    let drive = match drive {
        Ok(d) => {
            record(&mut t, "sequential drive", Ok(()));
            d
        }
        Err(e) => {
            record(&mut t, "sequential drive", Err(e));
            Drive::default()
        }
    };
    t.metrics.extend(drive.metrics());
    t.notes.push(drive.dominant());

    // 3. Telemetered in-process runs, interleaved with untraced ones.
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut last: Option<(Vec<f64>, cgp_datacutter::RunStats, MetricsRegistry)> = None;
    let budget = Duration::from_secs_f64(seconds);
    while traced_s.len() < 2 || started.elapsed() < budget {
        match in_process(spec, data, expected, None) {
            Ok((wall, _)) => {
                plain_s.push(wall);
                record(&mut t, "untraced run", Ok(()));
            }
            Err(e) => record(&mut t, "untraced run", Err(e)),
        }
        let reg = Arc::new(Mutex::new(MetricsRegistry::default()));
        match in_process(spec, data, expected, Some((Arc::clone(&reg), work))) {
            Ok((wall, r)) => {
                traced_s.push(wall);
                let reg = reg.lock().expect("registry lock").clone();
                last = Some((r.builds, r.stats, reg));
                record(&mut t, "telemetered run", Ok(()));
            }
            Err(e) => record(&mut t, "telemetered run", Err(e)),
        }
    }
    let overhead = if plain_s.is_empty() || traced_s.is_empty() {
        0.0
    } else {
        median(&traced_s) / median(&plain_s)
    };
    let (builds, stats, reg) = last.unwrap_or_default();
    t.metrics
        .push(Metric::new("apps.host_build_s", builds.iter().sum(), "s"));
    t.metrics.push(Metric::new(
        "apps.host_builds",
        builds.len() as f64,
        "count",
    ));
    t.metrics.extend(runtime_metrics(&stats));
    let calibration = CalibrationReport::from_run(&compiled.report, &reg);
    let (model, ledger) = model_ledger(&compiled, calibration.as_ref(), &drive, spec.packets());
    t.metrics.extend(model);
    t.notes.push(ledger);
    t.notes.push(format!(
        "runtime bottleneck: {} (busy minus blocked time per stage)",
        runtime_bottleneck(&stats)
    ));

    // 4. Launched run (the launcher workload only).
    let mut workers = None;
    if spec.workload.launched() {
        match worker::launch(spec, work, "traced") {
            Ok(l) if l.lines == expected => {
                record(&mut t, "launched run", Ok(()));
                workers = Some(l.workers);
            }
            Ok(l) => record(
                &mut t,
                "launched run",
                Err(format!("output {:?} differs", l.lines)),
            ),
            Err(e) => record(&mut t, "launched run", Err(e)),
        }
    }
    t.metrics.extend(launch_metrics(workers.as_deref()));
    t.metrics
        .push(Metric::new("trace_overhead", overhead, "ratio"));
    t
}

/// The compiler driver's phases, one public function at a time. Returns each
/// phase's milliseconds in [`PHASES`] order, after checking that the
/// plan equals the one `compile` builds.
fn phased_compile(src: &str, opts: &CompileOptions) -> Result<Vec<f64>, String> {
    let mut ms = Vec::with_capacity(PHASES.len());
    let mut lap = {
        let mut t = Instant::now();
        move |ms: &mut Vec<f64>| {
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            t = Instant::now();
        }
    };
    let e = |e: cgp_compiler::CompileError| e.to_string();
    let typed = cgp_lang::frontend(src).map_err(|e| e.to_string())?;
    lap(&mut ms);
    let np = normalize(&typed).map_err(e)?;
    lap(&mut ms);
    let graph = build_graph(&np).map_err(e)?;
    lap(&mut ms);
    let consts: HashMap<String, i64> = opts.symbols.iter().cloned().collect();
    let atom_sets = atom_sets_with(&np, &graph, &consts).map_err(e)?;
    lap(&mut ms);
    let analysis = propagate_reqcomm(&np, &graph, atom_sets).map_err(e)?;
    lap(&mut ms);
    let env = opts.cost_env();
    let costs = chain_costs(&np, &graph, &analysis.reqcomm, &env);
    let input_vol = volume_bytes(&np, &analysis.input_set, &env, None);
    let problem = Problem::from_chain(&costs, input_vol);
    lap(&mut ms);
    let (decomposition, name) = match (&opts.force_decomposition, opts.objective) {
        (Some(d), _) => (d.clone(), "forced"),
        (None, Objective::PerPacketLatency) => {
            (decompose_dp(&problem, &opts.pipeline), "latency-dp")
        }
        (None, Objective::SteadyState { n_packets }) => (
            decompose_bottleneck_optimal(&problem, &opts.pipeline, n_packets),
            "steady-state",
        ),
    };
    let hint = match opts.objective {
        Objective::SteadyState { n_packets } => n_packets,
        Objective::PerPacketLatency => 64,
    };
    let report = build_report(
        &np,
        &graph,
        &analysis,
        &analysis.atom_sets,
        &env,
        &problem,
        &opts.pipeline,
        &decomposition,
        name,
        hint,
    );
    std::hint::black_box(&report);
    lap(&mut ms);
    let plan = build_plan(&np, &graph, &analysis, &decomposition, opts.pipeline.m()).map_err(e)?;
    lap(&mut ms);
    let reference = compile(src, opts).map_err(e)?.plan.describe();
    if plan.describe() != reference {
        return Err(format!(
            "phase-by-phase plan drifted from compile's:\n{}\nvs\n{reference}",
            plan.describe()
        ));
    }
    Ok(ms)
}

/// Timings of one sequential drive of the plan.
#[derive(Debug, Default)]
pub struct Drive {
    init_s: f64,
    step_s: [f64; UNITS],
    unpack_s: [f64; UNITS - 1],
    bytes: [f64; UNITS - 1],
    packets: [f64; UNITS - 1],
    state_bytes: f64,
    encode_s: f64,
    decode_s: f64,
    merge_s: f64,
    epilogue_s: f64,
}

fn drive(plan: &FilterPlan, host: &HostEnv, expected: &[String]) -> Result<Drive, String> {
    let e = |e: cgp_compiler::CompileError| e.to_string();
    let mut d = Drive::default();
    let t = Instant::now();
    let mut stepper = FilterStepper::new(plan, host).map_err(e)?.with_vm(true);
    d.init_s = t.elapsed().as_secs_f64();
    let ((lo, hi), n_packets) = stepper.loop_bounds().map_err(e)?;
    let ints: Vec<(&String, i64)> = host
        .values
        .iter()
        .filter_map(|(k, v)| match v {
            Value::Int(i) => Some((k, *i)),
            _ => None,
        })
        .collect();
    for (plo, phi) in split_domain(lo, hi, n_packets as usize) {
        let mut env = RuntimeEnv::for_packet(&plan.np.pkt_var, plo, phi);
        for (k, v) in &ints {
            env = env.with(k.as_str(), *v);
        }
        let mut buf: Option<Vec<u8>> = None;
        for j in 0..plan.m {
            let t = Instant::now();
            buf = stepper.step(j, (plo, phi), buf.as_deref()).map_err(e)?;
            d.step_s[j] += t.elapsed().as_secs_f64();
            if let Some(b) = &buf {
                d.packets[j] += 1.0;
                d.bytes[j] += b.len() as f64;
                let t = Instant::now();
                std::hint::black_box(unpack(&plan.layouts[j], &env, b).map_err(e)?);
                d.unpack_s[j] += t.elapsed().as_secs_f64();
            }
        }
    }
    for j in 0..plan.m - 1 {
        let t = Instant::now();
        let bytes = encode_state(&stepper.reduction_state(j));
        d.encode_s += t.elapsed().as_secs_f64();
        d.state_bytes += bytes.len() as f64;
        let t = Instant::now();
        let state = decode_state(&bytes).map_err(|e| e.to_string())?;
        d.decode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        stepper.merge_reduction(j + 1, &state).map_err(e)?;
        d.merge_s += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let out = stepper.epilogue_at(plan.m - 1).map_err(e)?;
    d.epilogue_s = t.elapsed().as_secs_f64();
    if out != expected {
        return Err(format!(
            "sequential drive output {out:?} differs from {expected:?}"
        ));
    }
    Ok(d)
}

impl Drive {
    fn metrics(&self) -> Vec<Metric> {
        let mut v = vec![Metric::new("codegen.init_s", self.init_s, "s")];
        for (j, s) in self.step_s.iter().enumerate() {
            v.push(Metric::new(&format!("codegen.step_s.f{}", j + 1), *s, "s"));
        }
        v.push(Metric::new("codegen.merge_s", self.merge_s, "s"));
        v.push(Metric::new("codegen.epilogue_s", self.epilogue_s, "s"));
        for l in 0..UNITS - 1 {
            let n = l + 1;
            v.push(Metric::new(
                &format!("packing.unpack_s.l{n}"),
                self.unpack_s[l],
                "s",
            ));
            v.push(Metric::new(
                &format!("packing.bytes.l{n}"),
                self.bytes[l],
                "B",
            ));
            v.push(Metric::new(
                &format!("packing.packets.l{n}"),
                self.packets[l],
                "count",
            ));
        }
        v.push(Metric::new("codec.state_bytes", self.state_bytes, "B"));
        v.push(Metric::new("codec.encode_s", self.encode_s, "s"));
        v.push(Metric::new("codec.decode_s", self.decode_s, "s"));
        v
    }

    /// The layer with the largest self time in the drive. A unit's step
    /// includes unpacking its input, so that share is split out.
    fn dominant(&self) -> String {
        let mut layers: Vec<(String, f64)> = vec![
            ("codegen.init_s".into(), self.init_s),
            ("codegen.merge_s".into(), self.merge_s),
            ("codegen.epilogue_s".into(), self.epilogue_s),
            ("codec.encode_s".into(), self.encode_s),
            ("codec.decode_s".into(), self.decode_s),
        ];
        for j in 0..UNITS {
            let unpack = if j > 0 { self.unpack_s[j - 1] } else { 0.0 };
            layers.push((
                format!("codegen.step_s.f{} (less unpack)", j + 1),
                self.step_s[j] - unpack,
            ));
            if j > 0 {
                layers.push((format!("packing.unpack_s.l{j}"), unpack));
            }
        }
        let total: f64 = layers.iter().map(|(_, s)| s).sum();
        let (name, s) = layers
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("layers listed");
        format!("dominant layer (sequential drive): {name} {s:.3} s of {total:.3} s")
    }
}

/// One in-process run; with `telemetry`, the run publishes into the
/// given registry. Returns its wall seconds (compile + runtime call).
fn in_process(
    spec: &Spec,
    data: &Dataset,
    expected: &[String],
    telemetry: Option<(Arc<Mutex<MetricsRegistry>>, &Path)>,
) -> Result<(f64, e2e::InProcess), String> {
    let mut exec = ExecOptions::default();
    if let Some((reg, work)) = telemetry {
        // A zero cadence with a log attaches telemetry without the
        // sampler loop or a status line.
        std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
        exec.status_every = Some(Duration::ZERO);
        exec.telemetry_log = Some(
            work.join(format!("telemetry-{}.jsonl", std::process::id()))
                .display()
                .to_string(),
        );
        exec.metrics = Some(reg);
    }
    let r = e2e::in_process(spec, data, expected, &exec);
    if let Some(path) = &exec.telemetry_log {
        let _ = std::fs::remove_file(path);
    }
    r.map(|r| (r.compile_s + r.runtime_s, r))
}

fn runtime_metrics(stats: &cgp_datacutter::RunStats) -> Vec<Metric> {
    let mut v = Vec::new();
    for j in 0..UNITS {
        let st = stats.stages.get(j).cloned().unwrap_or_default();
        let f = j + 1;
        v.push(Metric::new(
            &format!("datacutter.busy_s.f{f}"),
            st.busy.as_secs_f64(),
            "s",
        ));
        v.push(Metric::new(
            &format!("datacutter.blocked_send_s.f{f}"),
            st.blocked_send.as_secs_f64(),
            "s",
        ));
        v.push(Metric::new(
            &format!("datacutter.blocked_recv_s.f{f}"),
            st.blocked_recv.as_secs_f64(),
            "s",
        ));
    }
    let (hits, misses) = stats.stages.iter().fold((0u64, 0u64), |(h, m), s| {
        (h + s.pool_hits, m + s.pool_misses)
    });
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    v.push(Metric::new("datacutter.pool_hit_ratio", ratio, "ratio"));
    v.push(Metric::new(
        "datacutter.e2e_us.p50",
        stats.e2e_us.percentile(0.5) as f64,
        "us",
    ));
    v.push(Metric::new(
        "datacutter.e2e_us.p99",
        stats.e2e_us.percentile(0.99) as f64,
        "us",
    ));
    v
}

/// The stage whose copies were busy but neither send-blocked nor
/// recv-starved for the longest time.
fn runtime_bottleneck(stats: &cgp_datacutter::RunStats) -> String {
    stats
        .stages
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                (s.busy.saturating_sub(s.blocked_send + s.blocked_recv)).as_secs_f64(),
            )
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(n, s)| format!("{n} ({s:.3} s active)"))
        .unwrap_or_else(|| "none".into())
}

/// Predicted vs measured, per stage and per link, for the whole run
/// (`packets` packets). Stage predictions are the model's `T(C_j)` ×
/// packets against the telemetered run's active (busy − blocked)
/// seconds; link predictions are the model's bytes against the bytes
/// the sequential drive packed. A zero prediction has no ratio: the
/// ledger prints `null` there.
fn model_ledger(
    compiled: &Compiled,
    calibration: Option<&CalibrationReport>,
    drive: &Drive,
    packets: i64,
) -> (Vec<Metric>, String) {
    let times = &compiled.report.stage_times;
    let env = &compiled.pipeline;
    let ratio = |meas: f64, pred: f64| {
        if pred > 0.0 {
            format!("{:.3}", meas / pred)
        } else {
            "null".to_string()
        }
    };
    let mut metrics = Vec::new();
    let mut rows = Vec::new();
    for j in 0..UNITS {
        let pred = times.comp.get(j).copied().unwrap_or(0.0) * packets as f64;
        let meas = calibration
            .and_then(|c| c.stages.get(j))
            .map(|s| s.measured.active_s())
            .unwrap_or(0.0);
        metrics.push(Metric::new(
            &format!("model.resid_s.f{}", j + 1),
            (meas - pred).abs(),
            "s",
        ));
        rows.push(format!(
            "{{\"unit\":\"f{}\",\"pred_s\":{pred},\"meas_s\":{meas},\"ratio\":{}}}",
            j + 1,
            ratio(meas, pred)
        ));
    }
    for l in 0..UNITS - 1 {
        let per_packet = times.comm.get(l).copied().unwrap_or(0.0) - env.latency[l];
        let pred = (per_packet * env.bandwidth[l]).max(0.0) * packets as f64;
        let meas = drive.bytes[l];
        rows.push(format!(
            "{{\"link\":\"l{}\",\"pred_bytes\":{pred},\"meas_bytes\":{meas},\"ratio\":{}}}",
            l + 1,
            ratio(meas, pred)
        ));
    }
    (metrics, format!("model ledger: [{}]", rows.join(",")))
}

/// The workers' own timings and link counters (0 for in-process
/// workloads). A link's counters come from its downstream (ingress)
/// worker.
fn launch_metrics(workers: Option<&[worker::WorkerReport]>) -> Vec<Metric> {
    let get = |k: usize, key: &str| workers.map_or(0.0, |w| w[k].get(key));
    let mut v = Vec::new();
    for f in 1..=UNITS {
        v.push(Metric::new(
            &format!("launcher.worker_setup_s.f{f}"),
            get(f - 1, "setup_s"),
            "s",
        ));
        v.push(Metric::new(
            &format!("launcher.worker_run_s.f{f}"),
            get(f - 1, "run_s"),
            "s",
        ));
    }
    for l in 1..UNITS {
        let (frames, bytes) = (format!("net.frames.l{l}"), format!("net.bytes.l{l}"));
        v.push(Metric::new(&frames, get(l, &frames), "count"));
        v.push(Metric::new(&bytes, get(l, &bytes), "B"));
    }
    v
}
