//! Observability wiring shared by the figure binaries.
//!
//! Every figure binary accepts:
//!
//! - `CGP_TRACE=<path>` (env) or `--trace-out <path>` (flag, wins over the
//!   env var) — write a Chrome `trace_event` JSON file covering the run:
//!   the virtual-time simulator timeline, the seven compiler phases of the
//!   matching dialect program, and a real threaded DataCutter execution of
//!   its compiled plan (per-filter-copy spans, per-packet events);
//! - `--explain` — print the compiler's decision report for the matching
//!   dialect program: candidate boundary graph, per-boundary
//!   Gen/Cons/ReqComm byte volumes, every candidate decomposition's cost,
//!   and why the winner won — then the generated filters: each unit's
//!   atoms, its prologue slice length, the reduction roots it holds or
//!   adopts and whether it builds the host environment;
//! - `CGP_FAULTS=<spec>` (env) or `--faults <spec>` (flag, wins) — inject
//!   deterministic faults into the threaded demo run (see
//!   [`cgp_core::datacutter::FaultPlan::parse`] for the spec grammar),
//!   plus `CGP_DEADLINE_MS`/`--deadline-ms` and `CGP_STALL_MS` for the
//!   matching watchdog knobs. A chaos run reports whether its output
//!   matches the oracle (what `Interp::run_main` prints for the same
//!   program) and how many packets `drop` faults discarded;
//! - `CGP_RECOVER=1` (env) or `--recover` (flag) — mask the injected
//!   faults with checkpointed restarts and ack/replay delivery, with
//!   `CGP_CHECKPOINT_EVERY`/`--checkpoint-every` controlling commit
//!   frequency; if a stage still exhausts its restart budget, the
//!   harness replans the decomposition over the surviving units with the
//!   cost model and re-runs (`[obs] failover: ...`).
//!
//! When none is given the binaries run exactly as before — no sink is
//! installed and the tracing hooks reduce to one relaxed atomic load.

use cgp_compiler::calibrate::CalibrationReport;
use cgp_compiler::decompose::decompose_dp;
use cgp_compiler::failover::replan;
use cgp_core::apps::dialect::{
    iso_host_env, knn_host_env, vmscope_host_env, APIX_SRC, KNN_SRC, VMSCOPE_SRC, ZBUF_SRC,
};
use cgp_core::apps::isosurface::ScalarGrid;
use cgp_core::apps::vmscope::Slide;
use cgp_core::datacutter::{decode_telemetry_payload, RunControl, Transport};
use cgp_core::lang::{frontend, interp::Interp};
use cgp_core::{
    compile, run_plan_threaded_stats, run_plan_worker_io, CompileOptions, Compiled, CoreError,
    ExecOptions, NetRole, PipelineEnv, WorkerIngress,
};
use cgp_obs::metrics::MetricsRegistry;
use cgp_obs::telemetry::{TelemetrySample, TelemetrySampler, STATUS_EVERY_ENV, TELEMETRY_LOG_ENV};
use cgp_obs::trace::{self, TraceEvent};
use cgp_obs::{ChromeTraceSink, Json, TraceSink};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Command-line options shared by every figure binary that are not run
/// options (the run-option flags resolve into [`ExecOptions`] in
/// [`Obs::init`]). Supports both `--flag value` and `--flag=value`;
/// unrecognized arguments are ignored (figures keep their own flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommonOpts {
    pub explain: bool,
    pub trace_path: Option<String>,
}

/// Parse the shared non-run flags out of an argument stream.
pub fn parse_common_opts(args: impl IntoIterator<Item = String>) -> CommonOpts {
    let mut o = CommonOpts::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--explain" {
            o.explain = true;
        } else if a == "--trace-out" {
            o.trace_path = args.next();
        } else if let Some(p) = a.strip_prefix("--trace-out=") {
            o.trace_path = Some(p.to_string());
        }
    }
    o
}

/// The run-option flags every figure binary accepts, each with the
/// `CGP_*` variable it answers for (see [`ExecOptions::from_lookup`]).
/// `--recover` is bare and answers `CGP_RECOVER=1`; every other flag
/// takes a value, as `--flag value` or `--flag=value`.
const EXEC_FLAGS: [(&str, &str); 14] = [
    ("--faults", "CGP_FAULTS"),
    ("--deadline-ms", "CGP_DEADLINE_MS"),
    ("--recover", "CGP_RECOVER"),
    ("--checkpoint-every", "CGP_CHECKPOINT_EVERY"),
    ("--role", "CGP_ROLE"),
    ("--listen", "CGP_LISTEN"),
    ("--connect", "CGP_CONNECT"),
    ("--transport", "CGP_TRANSPORT"),
    ("--status-every", STATUS_EVERY_ENV),
    ("--telemetry-log", TELEMETRY_LOG_ENV),
    ("--checkpoint-dir", "CGP_CHECKPOINT_DIR"),
    ("--heartbeat-ms", "CGP_HEARTBEAT_MS"),
    ("--max-worker-restarts", "CGP_MAX_WORKER_RESTARTS"),
    ("--autoscale", "CGP_AUTOSCALE"),
];

/// The [`EXEC_FLAGS`] given in `args`, as `(variable, value)` pairs in
/// argument order.
fn exec_flags(args: &[String]) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if a == "--recover" {
            out.push(("CGP_RECOVER", "1".to_string()));
            continue;
        }
        for (flag, var) in EXEC_FLAGS.into_iter().filter(|(f, _)| *f != "--recover") {
            if a == flag {
                out.extend(args.next().map(|v| (var, v.clone())));
                break;
            }
            if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                out.push((var, v.to_string()));
                break;
            }
        }
    }
    out
}

/// Resolve the run options: a flag in `args` answers its variable (the
/// last occurrence wins), `env` answers the rest, and both go through
/// the one parser, [`ExecOptions::from_lookup`]. An error names the
/// option the way it was given — the flag, or the variable.
fn resolve_exec_options(
    args: &[String],
    env: impl Fn(&str) -> Option<String>,
) -> Result<ExecOptions, String> {
    let flags: BTreeMap<&str, String> = exec_flags(args).into_iter().collect();
    ExecOptions::from_lookup(|var| flags.get(var).cloned().or_else(|| env(var))).map_err(|e| {
        let msg = match e {
            CoreError::Config(m) => m,
            e => e.to_string(),
        };
        match EXEC_FLAGS
            .iter()
            .find(|(_, var)| flags.contains_key(var) && msg.starts_with(&format!("{var}:")))
        {
            Some((flag, var)) => msg.replacen(var, flag, 1),
            None => msg,
        }
    })
}

/// Which dialect program matches the figure being run.
#[derive(Debug, Clone, Copy)]
pub enum DialectApp {
    Zbuf,
    Apix,
    Knn { k: i64 },
    Vmscope,
}

/// Forwards to the Chrome sink while accumulating a per-phase timing
/// summary of the compiler spans.
struct SummarySink {
    inner: ChromeTraceSink,
    phases: Mutex<Vec<(String, f64)>>,
}

impl TraceSink for SummarySink {
    fn record(&self, event: TraceEvent) {
        if event.ph == 'X' && event.cat == "compiler-phase" {
            self.phases
                .lock()
                .unwrap()
                .push((event.name.clone(), event.dur_us));
        }
        self.inner.record(event);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Per-run observability state for a figure binary.
pub struct Obs {
    explain: bool,
    trace_path: Option<String>,
    sink: Option<Arc<SummarySink>>,
    exec: ExecOptions,
    chaos: bool,
    /// Telemetry plane requested (`--status-every`/`--telemetry-log` or
    /// their env forms): sample in-flight state, report latency
    /// percentiles, and calibrate the cost model post-run.
    telemetry: bool,
}

impl Obs {
    /// Parse `--trace-out`/`--explain` and the run options, and install
    /// the trace sink if tracing is asked for. Each run option comes from
    /// its flag (`--faults`, `--deadline-ms`, `--recover`, …) when given,
    /// else from its `CGP_*` variable, through the one parser
    /// [`ExecOptions::from_lookup`]. A bad value fails here, at startup,
    /// naming the option.
    pub fn init() -> Obs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let opts = parse_common_opts(args.iter().cloned());
        let explain = opts.explain;
        let trace_path = opts
            .trace_path
            .or_else(|| std::env::var(trace::TRACE_ENV).ok());
        let exec = resolve_exec_options(&args, |var| std::env::var(var).ok())
            .unwrap_or_else(|e| panic!("bad option {e}"));
        let chaos = !exec.faults.is_empty() || exec.deadline.is_some();
        // `--status-every 0` means sampling is explicitly disabled; only
        // a positive cadence (or a log sink) brings up the telemetry
        // plane.
        let sampling = exec.sampling_enabled();
        let telemetry = sampling || exec.telemetry_log.is_some();
        let sink = trace_path.as_ref().map(|p| {
            let inner = ChromeTraceSink::create(p)
                .unwrap_or_else(|e| panic!("cannot create trace file {p}: {e}"));
            let sink = Arc::new(SummarySink {
                inner,
                phases: Mutex::new(Vec::new()),
            });
            trace::install_sink(sink.clone());
            sink
        });
        Obs {
            explain,
            trace_path,
            sink,
            exec,
            chaos,
            telemetry,
        }
    }

    fn active(&self) -> bool {
        self.explain || self.sink.is_some() || self.chaos || self.telemetry
    }

    /// Handle a distributed role (`--role`/`CGP_ROLE`), if one was
    /// requested. Returns `true` when this process acted as a worker or
    /// launcher for `app` — the figure binary should return immediately,
    /// because a worker's stdout is part of the distributed protocol
    /// (`CGP_LISTENING <addr>` followed by the last stage's result
    /// lines). Returns `false` for the default local role.
    pub fn net_mode(&self, app: DialectApp) -> bool {
        match self.exec.role {
            NetRole::Local => false,
            NetRole::Worker(stage) => {
                self.run_as_worker(app, stage);
                true
            }
            NetRole::Launcher => {
                self.run_as_launcher(app);
                true
            }
        }
    }

    /// Execute one stage of `app`'s demo plan as a distributed worker.
    /// Everything informational goes to stderr; stdout carries only the
    /// protocol marker and (for the last stage) the result lines.
    fn run_as_worker(&self, app: DialectApp, stage: usize) {
        let (name, src, opts) = demo_config(app);
        let compiled = compile(src, &opts).unwrap_or_else(|e| {
            eprintln!("[obs] worker {stage}: dialect compile failed for {name}: {e}");
            std::process::exit(1);
        });
        let m = compiled.plan.m;
        let ingress = (stage > 0).then(|| {
            let addr = self.exec.listen.as_deref().unwrap_or("127.0.0.1:0");
            // Worker-mode plans spec one copy per stage, but under
            // autoscale an interior upstream stage is provisioned at the
            // copy cap and each of its copies owns an egress connection:
            // the producer count is that provisioned width.
            let producers = self.exec.provisioned_width(stage - 1, m, 1);
            let (ingress, at) = WorkerIngress::bind(addr, producers).unwrap_or_else(|e| {
                eprintln!("[obs] worker {stage}: cannot open ingress at {addr}: {e}");
                std::process::exit(1);
            });
            // Announce only once the endpoint exists, so a producer that
            // connects right after the marker finds it.
            println!("{} {at}", crate::launcher::LISTENING_MARKER);
            let _ = std::io::stdout().flush();
            ingress
        });
        match run_plan_worker_io(
            Arc::new(compiled.plan),
            demo_host_builder(app),
            stage,
            ingress,
            self.exec.connect.clone(),
            None,
            &self.exec,
        ) {
            Ok((out, stats)) => {
                for line in &out {
                    println!("{line}");
                }
                let net: Vec<String> = stats
                    .net_links
                    .iter()
                    .map(|(l, st)| format!("link {l}: {} frames, {} bytes", st.frames, st.bytes))
                    .collect();
                if self.exec.recover && stats.recoveries() > 0 {
                    eprintln!(
                        "[obs] worker {stage}/{m} for {name} recovered: {} restarts, \
                         {} replayed packets",
                        stats.recoveries(),
                        stats.replayed_packets()
                    );
                }
                eprintln!(
                    "[obs] worker {stage}/{m} for {name} finished, dropped {} packets ({})",
                    stats.dropped(),
                    net.join("; ")
                );
            }
            Err(e) => {
                eprintln!("[obs] worker {stage}/{m} for {name} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Run `app`'s demo plan split one worker process per pipeline unit,
    /// and fail loudly unless the output is byte-identical to the oracle.
    fn run_as_launcher(&self, app: DialectApp) {
        let (name, src, opts) = demo_config(app);
        let compiled = compile(src, &opts).unwrap_or_else(|e| {
            eprintln!("[obs] launcher: dialect compile failed for {name}: {e}");
            std::process::exit(1);
        });
        let m = compiled.plan.m;
        let expected = oracle_lines(app);
        let passthrough =
            crate::launcher::strip_net_flags(&std::env::args().skip(1).collect::<Vec<_>>());
        let aggregator = self
            .telemetry
            .then(|| TelemetryAggregator::start(m, &self.exec));
        let telemetry_addr = aggregator.as_ref().map(|a| a.addr.clone());
        let transport = Transport::select(self.exec.transport);
        eprintln!("[obs] launcher: data plane is {transport:?}");
        // Supervision rides on the recovery switch: with `--recover` the
        // launcher masks worker crashes with prefix restarts; without it
        // a dead worker fails the run, exactly as before.
        let mut lopts = crate::launcher::LaunchOptions::new(transport);
        lopts.telemetry = telemetry_addr.clone();
        lopts.supervise = self.exec.recover;
        if let Some(n) = self.exec.max_worker_restarts {
            lopts.max_worker_restarts = n;
        }
        let got = match crate::launcher::launch_supervised(m, &passthrough, &lopts) {
            Ok(report) => {
                if report.restart_events > 0 {
                    eprintln!(
                        "[obs] launcher: masked {} worker crash(es) with prefix restarts \
                         ({} total restarts)",
                        report.restart_events,
                        report.total_restarts()
                    );
                }
                report.lines
            }
            Err(crate::launcher::LaunchError::BudgetExhausted {
                stage,
                restarts,
                last,
            }) => {
                // Worker-mode plans run one pipeline unit per stage, so
                // the dead stage index *is* the dead unit: treat its host
                // as lost, replan the decomposition over the survivors
                // with the cost model, and re-run in-process.
                if let Some(agg) = aggregator {
                    agg.finish(name, &compiled);
                }
                println!(
                    "[obs] chaos run for {name} exhausted restarts: worker stage {stage} \
                     kept dying after {restarts} masked restart(s) (last exit: {last})"
                );
                match self.failover_replan_run(
                    name,
                    src,
                    &opts,
                    &compiled,
                    demo_host_builder(app),
                    stage,
                ) {
                    Some(out) if out == expected => {
                        println!(
                            "[obs] distributed run for {name} failed over to a replanned \
                             in-process run; output matches the oracle ({} lines)",
                            out.len()
                        );
                        return;
                    }
                    Some(out) => {
                        println!(
                            "[obs] distributed run for {name} failed over to a replanned \
                             in-process run; output differs from the oracle"
                        );
                        eprintln!("[obs] launcher: expected {expected:?}, got {out:?}");
                        std::process::exit(1);
                    }
                    None => std::process::exit(1),
                }
            }
            Err(e) => {
                eprintln!("[obs] launcher: distributed run for {name} failed: {e}");
                std::process::exit(1);
            }
        };
        if let Some(agg) = aggregator {
            agg.finish(name, &compiled);
        }
        if got != expected {
            println!(
                "[obs] distributed run for {name} across {m} workers: output differs from \
                 the oracle"
            );
            eprintln!("[obs] launcher: expected {expected:?}, got {got:?}");
            std::process::exit(1);
        }
        println!(
            "[obs] distributed run for {name} across {m} workers matches the oracle \
             ({} output lines)",
            got.len()
        );
    }

    /// Compile (and, when tracing, execute on real threads) the dialect
    /// program matching this figure, on a demo-sized workload. Emits the
    /// seven compiler phase spans, the decision report, and the runtime's
    /// per-filter spans into the trace; prints the report with `--explain`.
    pub fn compiler_demo(&self, app: DialectApp) {
        if !self.active() {
            return;
        }
        let (name, src, opts) = demo_config(app);
        let compiled = match compile(src, &opts) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("[obs] dialect compile failed for {name}: {e}");
                return;
            }
        };
        if self.explain {
            println!("--- {name}: compiler decision report ---");
            print!("{}", compiled.report.render_text());
            println!("--- {name}: generated filters ---");
            print!("{}", compiled.plan.describe());
        }
        if self.sink.is_some() || self.chaos || self.telemetry {
            let builder = demo_host_builder(app);
            let plan = Arc::new(compiled.plan.clone());
            let mut exec = self.exec.clone();
            let registry = self.telemetry.then(|| {
                let reg = Arc::new(Mutex::new(MetricsRegistry::default()));
                exec.metrics = Some(Arc::clone(&reg));
                reg
            });
            match run_plan_threaded_stats(plan, Arc::clone(&builder), None, &exec) {
                Ok((out, stats)) => {
                    if let Some(reg) = &registry {
                        let reg = reg.lock().unwrap_or_else(|e| e.into_inner());
                        match CalibrationReport::from_run(&compiled.report, &reg) {
                            Some(cal) => {
                                println!("--- {name}: cost-model calibration ---");
                                print!("{}", cal.render_text());
                            }
                            None => eprintln!("[obs] no telemetry recorded for {name}"),
                        }
                    }
                    if self.chaos {
                        println!(
                            "[obs] chaos run for {name} completed; {}",
                            verdict(&out, &oracle_lines(app))
                        );
                        println!(
                            "[obs] chaos run for {name} dropped {} packets",
                            stats.dropped()
                        );
                        if self.exec.recover {
                            println!(
                                "[obs] recovery: {} restarts, {} replayed packets, \
                                 {} checkpoints ({} bytes)",
                                stats.recoveries(),
                                stats.replayed_packets(),
                                stats.checkpoints(),
                                stats.checkpoint_bytes()
                            );
                        }
                    }
                    if stats.autoscale.escalation.is_some() {
                        self.escalation_rerun(
                            name,
                            src,
                            &opts,
                            &compiled,
                            Arc::clone(&builder),
                            &stats,
                            &out,
                        );
                    }
                }
                Err(e) => {
                    if self.chaos && self.exec.recover {
                        // Restart budget exhausted on some unit: treat the
                        // unit's host as dead, replan over the survivors
                        // with the cost model, and re-run from checkpoints.
                        println!("[obs] chaos run for {name} exhausted restarts: {e}");
                        if let Some(out) =
                            self.failover_rerun(name, src, &opts, &compiled, builder, &e)
                        {
                            println!(
                                "[obs] failover run for {name}: {}",
                                verdict(&out, &oracle_lines(app))
                            );
                        }
                    } else if self.chaos {
                        // Under injection a structured failure is the
                        // expected outcome — report it, don't die.
                        println!("[obs] chaos run for {name} failed as injected: {e}");
                    } else {
                        eprintln!("[obs] threaded demo run failed for {name}: {e}");
                    }
                }
            }
        }
    }

    /// Cost-model-driven failover: map the failed stage label back to a
    /// pipeline unit, drop that unit from the environment, re-run the
    /// decomposition DP over the survivors, recompile, and re-run. The
    /// fault plan stays armed — the recovery layer masks it on the new
    /// placement, so a completed re-run really demonstrates end-to-end
    /// self-healing. Returns the re-run's output lines on success.
    fn failover_rerun(
        &self,
        name: &str,
        src: &str,
        copts: &CompileOptions,
        compiled: &Compiled,
        builder: cgp_core::HostBuilder,
        err: &CoreError,
    ) -> Option<Vec<String>> {
        let Some(dead) = dead_unit_of(err) else {
            println!("[obs] failover: cannot identify a dead unit in `{err}`; giving up");
            return None;
        };
        self.failover_replan_run(name, src, copts, compiled, builder, dead)
    }

    /// Drop pipeline unit `dead` from the environment, re-run the
    /// decomposition DP over the survivors, recompile, and re-run
    /// in-process. Returns the re-run's output lines on success so the
    /// caller can compare them with the oracle.
    fn failover_replan_run(
        &self,
        name: &str,
        src: &str,
        copts: &CompileOptions,
        compiled: &Compiled,
        builder: cgp_core::HostBuilder,
        dead: usize,
    ) -> Option<Vec<String>> {
        self.replan_run(name, src, copts, compiled, builder, dead, &self.exec)
    }

    /// The replan-and-rerun core shared by crash failover and autoscale
    /// escalation; `exec` lets the escalation path seed the re-run with
    /// carried busy time.
    #[allow(clippy::too_many_arguments)]
    fn replan_run(
        &self,
        name: &str,
        src: &str,
        copts: &CompileOptions,
        compiled: &Compiled,
        builder: cgp_core::HostBuilder,
        dead: usize,
        exec: &ExecOptions,
    ) -> Option<Vec<String>> {
        let current = decompose_dp(&compiled.problem, &compiled.pipeline);
        let plan = match replan(&compiled.problem, &compiled.pipeline, &current, dead) {
            Ok(p) => p,
            Err(e) => {
                println!("[obs] failover: {e}");
                return None;
            }
        };
        print!("[obs] {}", plan.render_text());
        let reduced = CompileOptions {
            pipeline: plan.env.clone(),
            ..copts.clone()
        };
        let recompiled = match compile(src, &reduced) {
            Ok(c) => c,
            Err(e) => {
                println!("[obs] failover recompile failed for {name}: {e}");
                return None;
            }
        };
        let mut exec = exec.clone();
        if !exec.busy_carry.is_empty() {
            // Remap carried busy time through the survivor index map
            // (satellite of the failover plan): unit widths may change
            // under the new decomposition, so each surviving unit's
            // carry is summed over its old copies — per-stage totals
            // stay monotone across the handover even though per-copy
            // identity does not survive a re-decomposition.
            let mut carry = vec![Vec::new(); plan.env.m()];
            for (j, per_copy) in exec.busy_carry.iter().enumerate() {
                if let Some(nj) = plan.surviving_index(j) {
                    carry[nj] = vec![per_copy.iter().sum::<Duration>()];
                }
            }
            exec.busy_carry = carry;
        }
        // The fault plan stays armed — the recovery layer masks it on
        // the new placement, so a completed re-run really demonstrates
        // end-to-end self-healing. (Process-level `CGP_KILL` specs only
        // arm in worker roles, so this in-process run can't shoot
        // itself.)
        match run_plan_threaded_stats(Arc::new(recompiled.plan), builder, None, &exec) {
            Ok((out, stats)) => {
                println!(
                    "[obs] failover run for {name} completed on {} units \
                     ({} restarts, {} replayed packets)",
                    plan.env.m(),
                    stats.recoveries(),
                    stats.replayed_packets()
                );
                Some(out)
            }
            Err(e) => {
                println!("[obs] failover run for {name} failed: {e}");
                None
            }
        }
    }

    /// Autoscale escalation: the controller saturated a stage at its
    /// copy cap and the backlog never relieved — widening cannot fix a
    /// decomposition that is structurally wrong for the observed costs.
    /// Map the advised stage label back to its pipeline unit, re-plan
    /// the decomposition around it with the same cost-model replanner
    /// the crash-failover path uses, and re-run in-process seeded with
    /// the busy time already accumulated, diffing the output against
    /// the first run: re-decomposition must be invisible in the bytes.
    #[allow(clippy::too_many_arguments)]
    fn escalation_rerun(
        &self,
        name: &str,
        src: &str,
        copts: &CompileOptions,
        compiled: &Compiled,
        builder: cgp_core::HostBuilder,
        stats: &cgp_core::datacutter::RunStats,
        expected: &[String],
    ) {
        let Some(advice) = stats.autoscale.escalation.as_deref() else {
            return;
        };
        let Some(unit) = unit_of_stage_label(advice) else {
            println!("[obs] autoscale: cannot map escalated stage `{advice}` to a pipeline unit");
            return;
        };
        println!(
            "[obs] autoscale: {advice} stayed the bottleneck at its copy cap \
             after {} grow(s); escalating to re-decomposition around unit {unit}",
            stats.autoscale.grows()
        );
        let mut exec = self.exec.clone();
        exec.busy_carry = stats
            .stages
            .iter()
            .map(|s| s.busy_per_copy.clone())
            .collect();
        match self.replan_run(name, src, copts, compiled, builder, unit, &exec) {
            Some(out) if out == expected => println!(
                "[obs] autoscale: re-decomposed run for {name} matches the elastic run \
                 ({} lines)",
                out.len()
            ),
            Some(out) => eprintln!(
                "[obs] autoscale: re-decomposed output diverges for {name}: expected \
                 {expected:?}, got {out:?}"
            ),
            None => {}
        }
    }

    /// Flush the trace (writes the Chrome JSON array) and print the
    /// phase-timing summary.
    pub fn finish(self) {
        let Some(sink) = self.sink else { return };
        trace::clear_sink();
        let phases = sink.phases.lock().unwrap();
        if !phases.is_empty() {
            println!("--- compiler phase timings ---");
            for (name, dur_us) in phases.iter() {
                println!("  {name:<12} {dur_us:>10.1} us");
            }
        }
        if let Some(p) = &self.trace_path {
            println!("trace written to {p} (open in Perfetto / chrome://tracing)");
        }
    }
}

/// Pre-restart cumulative busy time the aggregator carries for each
/// source: source → stage name → `busy_us_per_copy` at the moment the
/// source's connection died without a `fin`.
type BusyCarry = BTreeMap<String, BTreeMap<String, Vec<u64>>>;

/// Launcher-side telemetry aggregator: a TCP listener workers ship
/// `Telemetry` frames to, fanned into one JSONL log, one merged live
/// status line, and one cross-process registry for calibration.
struct TelemetryAggregator {
    /// Address workers connect to (bound before any worker is spawned —
    /// workers connect with a single attempt).
    addr: String,
    control: Arc<RunControl>,
    sampler: Arc<TelemetrySampler>,
    registries: Arc<Mutex<BTreeMap<String, MetricsRegistry>>>,
    /// Latest in-flight sample per live worker (entries retired on `fin`
    /// or disconnect, so a dead worker never lingers in the status line).
    latest: Arc<Mutex<BTreeMap<String, TelemetrySample>>>,
    /// `busy_us_per_copy` carried across a worker restart: a respawned
    /// process restarts its probes from zero, so without this fold the
    /// merged view's busy time would jump backwards mid-run.
    carry: Arc<Mutex<BusyCarry>>,
    handle: std::thread::JoinHandle<()>,
}

impl TelemetryAggregator {
    fn start(workers: usize, exec: &ExecOptions) -> TelemetryAggregator {
        let every = exec
            .status_every
            .filter(|d| *d > Duration::ZERO)
            .unwrap_or(Duration::from_millis(500));
        let mut sampler = TelemetrySampler::new(every);
        if let Some(path) = &exec.telemetry_log {
            sampler = sampler.with_log_path(path).unwrap_or_else(|e| {
                eprintln!("[obs] cannot create telemetry log {path}: {e}");
                std::process::exit(1);
            });
        }
        let sampler = Arc::new(sampler);
        let registries: Arc<Mutex<BTreeMap<String, MetricsRegistry>>> = Arc::default();
        let latest: Arc<Mutex<BTreeMap<String, TelemetrySample>>> = Arc::default();
        let carry: Arc<Mutex<BusyCarry>> = Arc::default();
        // Worker connection id → source name, and the sources whose final
        // (`fin`) update arrived. A disconnect without a fin is a dead
        // worker: its stale sample must leave the status line, and its
        // partial registry snapshot must not pollute the merged
        // calibration (a restarted replacement re-reports from scratch).
        let sources: Arc<Mutex<BTreeMap<u32, String>>> = Arc::default();
        let finished: Arc<Mutex<std::collections::BTreeSet<String>>> = Arc::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
            eprintln!("[obs] cannot bind telemetry aggregator: {e}");
            std::process::exit(1);
        });
        let addr = listener.local_addr().expect("bound listener").to_string();
        let control = RunControl::new();
        let show_status = exec.sampling_enabled();
        let handle = {
            let control = Arc::clone(&control);
            let sampler = Arc::clone(&sampler);
            let registries = Arc::clone(&registries);
            let latest = Arc::clone(&latest);
            let carry = Arc::clone(&carry);
            let sources = Arc::clone(&sources);
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let on_update = {
                    let latest = Arc::clone(&latest);
                    let registries = Arc::clone(&registries);
                    let carry = Arc::clone(&carry);
                    let sources = Arc::clone(&sources);
                    let finished = Arc::clone(&finished);
                    move |worker: u32, payload: Vec<u8>| {
                        let Ok(mut update) = decode_telemetry_payload(&payload) else {
                            return;
                        };
                        sources
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(worker, update.source.clone());
                        // Fold any carried pre-restart busy time into the
                        // incoming sample before it is logged or shown:
                        // the restarted process's probes start from zero,
                        // but the *source* has been busy since the run
                        // began, and the merged view must stay monotone.
                        if let Some(sample) = update.sample.as_mut() {
                            let carry = carry.lock().unwrap_or_else(|e| e.into_inner());
                            if let Some(per_stage) = carry.get(&update.source) {
                                for st in &mut sample.stages {
                                    let Some(prev) = per_stage.get(&st.stage) else {
                                        continue;
                                    };
                                    if prev.len() > st.busy_us_per_copy.len() {
                                        st.busy_us_per_copy.resize(prev.len(), 0);
                                    }
                                    for (b, p) in st.busy_us_per_copy.iter_mut().zip(prev) {
                                        *b += *p;
                                    }
                                }
                            }
                        }
                        if update.fin {
                            // The source finished for real — nothing left
                            // to carry into a future incarnation.
                            carry
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&update.source);
                            finished
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .insert(update.source.clone());
                            // The run is over — no in-flight state left
                            // to show for this worker.
                            latest
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&update.source);
                        }
                        if let Some(sample) = update.sample {
                            sampler.log_json(&sample.to_json());
                            if !update.fin {
                                let mut latest = latest.lock().unwrap_or_else(|e| e.into_inner());
                                latest.insert(update.source.clone(), sample);
                                if show_status {
                                    // One merged line for the whole
                                    // distributed pipeline: latest sample
                                    // per live worker, in stage order
                                    // (sources sort as worker:<k>).
                                    let line: Vec<String> =
                                        latest.values().map(|s| s.render_status_line()).collect();
                                    eprintln!("{}", line.join("  "));
                                }
                            }
                        }
                        if let Some(reg) = update.registry {
                            // Registry snapshots are cumulative: keep the
                            // latest per source, never sum successive ones.
                            registries
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .insert(update.source, reg);
                        }
                    }
                };
                let on_disconnect = move |worker: u32| {
                    let Some(source) = sources
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .get(&worker)
                        .cloned()
                    else {
                        return;
                    };
                    let last = latest
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&source);
                    if !finished
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .contains(&source)
                    {
                        // A disconnect without a fin is a crash: the last
                        // sample we saw (already carry-folded) becomes
                        // the carry for the restarted replacement, so the
                        // source's cumulative busy time survives any
                        // number of restarts (replace, never add — the
                        // folded sample already includes earlier carry).
                        if let Some(sample) = last {
                            let mut carry = carry.lock().unwrap_or_else(|e| e.into_inner());
                            let per_stage = carry.entry(source.clone()).or_default();
                            for st in &sample.stages {
                                per_stage.insert(st.stage.clone(), st.busy_us_per_copy.clone());
                            }
                        }
                        let dropped = registries
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .remove(&source)
                            .is_some();
                        eprintln!(
                            "[obs] telemetry: {source} disconnected before finishing{}",
                            if dropped {
                                "; dropped its partial snapshot"
                            } else {
                                ""
                            }
                        );
                    }
                };
                let _ = cgp_core::datacutter::serve_telemetry(
                    listener,
                    workers,
                    Some(control),
                    on_update,
                    on_disconnect,
                );
            })
        };
        TelemetryAggregator {
            addr,
            control,
            sampler,
            registries,
            latest,
            carry,
            handle,
        }
    }

    /// Stop serving (the workers have exited), merge the per-worker
    /// registry snapshots, append the merged registry + calibration to
    /// the telemetry log, and print the calibration report.
    fn finish(self, name: &str, compiled: &Compiled) {
        self.control.cancel("distributed run complete");
        let _ = self.handle.join();
        let stale = self.latest.lock().unwrap_or_else(|e| e.into_inner());
        if !stale.is_empty() {
            let names: Vec<&str> = stale.keys().map(String::as_str).collect();
            eprintln!(
                "[obs] telemetry: worker(s) still marked live at shutdown: {}",
                names.join(", ")
            );
        }
        drop(stale);
        let carried = self.carry.lock().unwrap_or_else(|e| e.into_inner());
        if !carried.is_empty() {
            // Sources that died and were restarted mid-run: their busy
            // time was folded forward, so the log's view stayed monotone.
            eprintln!(
                "[obs] telemetry: carried busy time across restart(s) of: {}",
                carried.keys().cloned().collect::<Vec<_>>().join(", ")
            );
        }
        drop(carried);
        let registries = self.registries.lock().unwrap_or_else(|e| e.into_inner());
        if registries.is_empty() {
            eprintln!("[obs] telemetry: no worker snapshots received for {name}");
            return;
        }
        let mut merged = MetricsRegistry::default();
        for reg in registries.values() {
            merged.merge(reg);
        }
        let mut line = Json::obj();
        line.set("source", Json::Str("launcher".to_string()));
        line.set(
            "workers",
            Json::Arr(registries.keys().map(|k| Json::Str(k.clone())).collect()),
        );
        line.set("merged_registry", merged.to_wire_json());
        match CalibrationReport::from_run(&compiled.report, &merged) {
            Some(cal) => {
                line.set("calibration", cal.to_json());
                println!("--- {name}: cost-model calibration (distributed) ---");
                print!("{}", cal.render_text());
            }
            None => eprintln!("[obs] telemetry: merged registry for {name} is not calibratable"),
        }
        self.sampler.log_json(&line);
        println!(
            "[obs] telemetry: merged {} worker snapshot(s) for {name}",
            registries.len()
        );
    }
}

/// Demo-sized compile configuration per app (small workloads — these runs
/// exist to populate traces and reports, not to measure).
fn demo_config(app: DialectApp) -> (&'static str, &'static str, CompileOptions) {
    // knn and vmscope plan at the calibrated VM compute power (the engine
    // that actually runs their filter bodies; see
    // `cgp_compiler::cost::FilterEngine`). The iso programs stay on the
    // legacy conservative 1e8, chosen when every `cubes[c].vN` read
    // hashed its name in a per-object map. Object shapes made those reads
    // a cached slot index; whether the iso programs should move to the VM
    // power is for the calibration work to decide.
    let vm_power = cgp_compiler::cost::FilterEngine::Vm.power();
    match app {
        DialectApp::Zbuf => (
            "zbuf",
            ZBUF_SRC,
            CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 128)
                .with_symbol("ncubes", 343)
                .with_symbol("screen", 16)
                .with_selectivity(0, 0.15),
        ),
        DialectApp::Apix => (
            "apix",
            APIX_SRC,
            CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 128)
                .with_symbol("ncubes", 343)
                .with_symbol("screen", 16)
                .with_selectivity(0, 0.15),
        ),
        DialectApp::Knn { k } => (
            "knn",
            KNN_SRC,
            CompileOptions::new(PipelineEnv::uniform(3, vm_power, 1e6, 1e-5), 64)
                .with_symbol("npoints", 300)
                .with_symbol("k", k.min(50)),
        ),
        DialectApp::Vmscope => (
            "vmscope",
            VMSCOPE_SRC,
            CompileOptions::new(PipelineEnv::uniform(3, vm_power, 1e6, 1e-5), 8)
                .with_symbol("height", 32)
                .with_symbol("width", 32)
                .with_symbol("subsample", 2)
                .with_selectivity(0, 0.5),
        ),
    }
}

/// Map an executor stage label (`f{j+1}` as the probes name stages, or
/// `f{j+1}[c]` as failures name copies) back to the pipeline unit `j`.
fn unit_of_stage_label(label: &str) -> Option<usize> {
    let rest = label.strip_prefix('f')?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse::<usize>().ok()?.checked_sub(1)
}

/// Map a failed stage label back to the pipeline unit index `j`.
fn dead_unit_of(err: &CoreError) -> Option<usize> {
    let CoreError::Runtime(fe) = err else {
        return None;
    };
    unit_of_stage_label(&fe.filter)
}

/// What `Interp::run_main` prints for `app`'s demo program on its demo
/// host: the oracle every chaos and distributed run is compared with.
fn oracle_lines(app: DialectApp) -> Vec<String> {
    let (name, src, _) = demo_config(app);
    let tp = frontend(src).unwrap_or_else(|e| panic!("oracle for {name}: {e}"));
    let mut it = Interp::new(&tp, demo_host_builder(app)());
    it.run_main()
        .unwrap_or_else(|e| panic!("oracle for {name}: {e}"));
    it.output
}

/// How a run's output compares with the oracle, as the harness prints it.
fn verdict(out: &[String], oracle: &[String]) -> &'static str {
    if out == oracle {
        "output matches the oracle"
    } else {
        "output differs from the oracle"
    }
}

fn demo_host_builder(app: DialectApp) -> cgp_core::HostBuilder {
    match app {
        DialectApp::Zbuf | DialectApp::Apix => {
            let grid = ScalarGrid::synthetic(8, 8, 8, 21);
            Arc::new(move || iso_host_env(&grid, 0.8, 16, 4))
        }
        DialectApp::Knn { k } => {
            let pts = cgp_core::apps::knn::generate_points(300, 5);
            let k = k.min(50);
            Arc::new(move || knn_host_env(&pts, [0.3, 0.6, 0.2], k, 6))
        }
        DialectApp::Vmscope => {
            let slide = Slide::synthetic(32, 32, 9);
            Arc::new(move || vmscope_host_env(&slide, 2, 4))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_core::datacutter::{AutoscaleConfig, FaultPlan};
    use cgp_obs::SmallRng;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn parse_common_opts_space_and_equals_forms_agree() {
        let spaced = argv(&[
            "--explain",
            "--recover",
            "--faults",
            "panic@f2[0]#3",
            "--deadline-ms",
            "500",
            "--trace-out",
            "/tmp/t.json",
            "--checkpoint-every",
            "16",
        ]);
        let equals = argv(&[
            "--explain",
            "--recover",
            "--faults=panic@f2[0]#3",
            "--deadline-ms=500",
            "--trace-out=/tmp/t.json",
            "--checkpoint-every=16",
        ]);
        let common = parse_common_opts(spaced.clone());
        assert_eq!(common, parse_common_opts(equals.clone()));
        assert!(common.explain);
        assert_eq!(common.trace_path.as_deref(), Some("/tmp/t.json"));
        assert_eq!(exec_flags(&spaced), exec_flags(&equals));
        let exec = resolve_exec_options(&spaced, no_env).unwrap();
        assert!(exec.recover);
        assert!(!exec.faults.is_empty());
        assert_eq!(exec.deadline, Some(Duration::from_millis(500)));
        assert_eq!(exec.checkpoint_every, Some(16));
    }

    #[test]
    fn parse_common_opts_ignores_unknown_figure_flags() {
        let args = argv(&["--width", "4", "--recover", "positional"]);
        assert_eq!(parse_common_opts(args.clone()), CommonOpts::default());
        assert_eq!(exec_flags(&args), vec![("CGP_RECOVER", "1".to_string())]);
        let exec = resolve_exec_options(&args, no_env).unwrap();
        assert!(exec.recover);
        assert!(exec.faults.is_empty());
    }

    #[test]
    fn flags_win_over_their_variables() {
        let env = |var: &str| match var {
            "CGP_DEADLINE_MS" => Some("100".to_string()),
            "CGP_CHECKPOINT_EVERY" => Some("3".to_string()),
            "CGP_TRANSPORT" => Some("shm".to_string()),
            _ => None,
        };
        let exec = resolve_exec_options(&argv(&["--deadline-ms", "200"]), env).unwrap();
        assert_eq!(exec.deadline, Some(Duration::from_millis(200)), "flag wins");
        assert_eq!(exec.checkpoint_every, Some(3), "env answers the rest");
        assert_eq!(exec.transport, Some(Transport::Shm), "env answers the rest");
        let exec = resolve_exec_options(&argv(&["--transport", "tcp"]), env).unwrap();
        assert_eq!(exec.transport, Some(Transport::Tcp), "flag wins");
        // The last occurrence of a repeated flag wins.
        let exec = resolve_exec_options(&argv(&["--deadline-ms=1", "--deadline-ms", "2"]), no_env)
            .unwrap();
        assert_eq!(exec.deadline, Some(Duration::from_millis(2)));
    }

    /// `CGP_KILL` arms only in worker roles, whether the role came from
    /// `--role` or from `CGP_ROLE`.
    #[test]
    fn kill_spec_arms_only_in_worker_roles_from_either_source() {
        let env_with = |role: Option<&'static str>| {
            move |var: &str| match var {
                "CGP_KILL" => Some("f2[0]#5".to_string()),
                "CGP_ROLE" => role.map(str::to_string),
                _ => None,
            }
        };
        let armed = |args: &[&str], role| {
            let exec = resolve_exec_options(&argv(args), env_with(role)).unwrap();
            !exec.faults.is_empty()
        };
        assert!(armed(&["--role", "worker:1"], None), "worker by flag");
        assert!(armed(&[], Some("worker:1")), "worker by env");
        assert!(!armed(&["--role=launcher"], None), "launcher by flag");
        assert!(!armed(&[], Some("launcher")), "launcher by env");
        assert!(!armed(&[], None), "local default");
        // A flag overrides an env role in both directions.
        assert!(!armed(&["--role", "local"], Some("worker:1")));
        assert!(armed(&["--role", "worker:2"], Some("launcher")));
    }

    /// Every run option validates the same way whichever source set it:
    /// a bad value fails at startup, and the error names the option as
    /// it was given.
    #[test]
    fn bad_option_values_fail_by_flag_and_by_env() {
        let cases = [
            ("--faults", "CGP_FAULTS", "nonsense"),
            ("--deadline-ms", "CGP_DEADLINE_MS", "abc"),
            ("--checkpoint-every", "CGP_CHECKPOINT_EVERY", "0"),
            ("--role", "CGP_ROLE", "boss"),
            ("--transport", "CGP_TRANSPORT", "udp"),
            ("--status-every", STATUS_EVERY_ENV, "soon"),
            ("--heartbeat-ms", "CGP_HEARTBEAT_MS", "-5"),
            ("--max-worker-restarts", "CGP_MAX_WORKER_RESTARTS", "many"),
            ("--autoscale", "CGP_AUTOSCALE", "nonsense"),
            // Counts parse as whole numbers of their own type, so these
            // are errors rather than a wrapped or truncated count.
            (
                "--max-worker-restarts",
                "CGP_MAX_WORKER_RESTARTS",
                "4294967296",
            ),
            ("--autoscale", "CGP_AUTOSCALE", "max=2.5"),
            ("--autoscale", "CGP_AUTOSCALE", "max=1e30"),
            ("--autoscale", "CGP_AUTOSCALE", "cooldown=-7"),
            ("--autoscale", "CGP_AUTOSCALE", "escalate=1e12"),
        ];
        for (flag, var, bad) in cases {
            for args in [argv(&[flag, bad]), argv(&[&format!("{flag}={bad}")])] {
                let err = resolve_exec_options(&args, no_env)
                    .err()
                    .unwrap_or_else(|| panic!("{args:?} must be rejected"));
                assert!(err.starts_with(&format!("{flag}:")), "{args:?}: {err}");
            }
            let env = |name: &str| (name == var).then(|| bad.to_string());
            let err = resolve_exec_options(&[], env)
                .err()
                .unwrap_or_else(|| panic!("{var}={bad} must be rejected"));
            assert!(err.starts_with(&format!("{var}:")), "{var}={bad}: {err}");
        }
    }

    /// One drawn setting: its variable, its spelling, and how a case
    /// gives it (by flag, or by variable).
    struct Given {
        var: &'static str,
        text: String,
        by_flag: bool,
    }

    fn flag_of(var: &str) -> Option<&'static str> {
        EXEC_FLAGS.iter().find(|(_, v)| *v == var).map(|(f, _)| *f)
    }

    /// A count drawn from the edges and the middle of `0..=max`.
    fn count(rng: &mut SmallRng, max: u64) -> u64 {
        match rng.gen_range(0, 4) {
            0 => max,
            1 => rng.gen_range_u64(10),
            _ => rng.gen_range_u64(max),
        }
    }

    /// Draw a random valid setting for about half of `from_lookup`'s
    /// variables, and the typed options they must resolve to.
    fn draw(rng: &mut SmallRng) -> (Vec<(&'static str, String)>, ExecOptions) {
        let mut want = ExecOptions::default();
        let mut set: Vec<(&'static str, String)> = Vec::new();
        let boolean = |rng: &mut SmallRng| -> (String, bool) {
            let (text, on) = [
                ("1", true),
                ("true", true),
                ("Yes", true),
                ("ON", true),
                ("0", false),
                ("false", false),
                ("no", false),
                ("Off", false),
                ("", false),
            ][rng.gen_range(0, 9)];
            (text.to_string(), on)
        };
        let take = |rng: &mut SmallRng| rng.gen_bool(0.5);
        if take(rng) {
            let (c, n) = (rng.gen_range(0, 4), rng.gen_range_u64(1000));
            let spec = format!("panic@f2[{c}]#{n}");
            want.faults = FaultPlan::parse(&spec).unwrap();
            set.push(("CGP_FAULTS", spec));
        }
        for (var, slot) in [
            ("CGP_DEADLINE_MS", &mut want.deadline),
            ("CGP_STALL_MS", &mut want.stall_timeout),
            (STATUS_EVERY_ENV, &mut want.status_every),
        ] {
            if take(rng) {
                let ms = count(rng, u64::MAX);
                *slot = Some(Duration::from_millis(ms));
                set.push((var, ms.to_string()));
            }
        }
        if take(rng) {
            let ms = count(rng, u64::MAX);
            want.heartbeat = (ms > 0).then(|| Duration::from_millis(ms));
            set.push(("CGP_HEARTBEAT_MS", ms.to_string()));
        }
        if take(rng) {
            let n = count(rng, u32::MAX as u64) as u32;
            want.max_worker_restarts = Some(n);
            set.push(("CGP_MAX_WORKER_RESTARTS", n.to_string()));
        }
        if take(rng) {
            let n = count(rng, u64::MAX - 1) as usize + 1;
            want.batch = Some(n);
            set.push(("CGP_BATCH", n.to_string()));
        }
        if take(rng) {
            let n = count(rng, u64::MAX - 1) + 1;
            want.checkpoint_every = Some(n);
            set.push(("CGP_CHECKPOINT_EVERY", n.to_string()));
        }
        for (var, slot) in [
            ("CGP_RECOVER", &mut want.recover),
            ("CGP_NO_RINGS", &mut want.no_rings),
            ("CGP_SUPERVISED", &mut want.supervised),
        ] {
            if take(rng) {
                let (text, on) = boolean(rng);
                *slot = on;
                set.push((var, text));
            }
        }
        if take(rng) {
            let (text, t) = [
                ("tcp", Some(Transport::Tcp)),
                ("shm", Some(Transport::Shm)),
                (" SHM ", Some(Transport::Shm)),
                ("", None),
            ][rng.gen_range(0, 4)];
            want.transport = t;
            set.push(("CGP_TRANSPORT", text.to_string()));
        }
        if take(rng) {
            let (text, role) = match rng.gen_range(0, 4) {
                0 => ("local".to_string(), NetRole::Local),
                1 => ("launcher".to_string(), NetRole::Launcher),
                2 => (String::new(), NetRole::Local),
                _ => {
                    let k = rng.gen_range(0, 9);
                    (format!("worker:{k}"), NetRole::Worker(k))
                }
            };
            want.role = role;
            set.push(("CGP_ROLE", text));
        }
        if take(rng) {
            let spec = format!("f{}[0]#{}", rng.gen_range(1, 4), rng.gen_range_u64(100));
            if matches!(want.role, NetRole::Worker(_)) {
                let kills = FaultPlan::parse(&format!("kill@{spec}")).unwrap();
                want.faults = std::mem::take(&mut want.faults).merge(kills);
            }
            set.push(("CGP_KILL", spec));
        }
        for (var, slot, text) in [
            (
                "CGP_CHECKPOINT_LOG",
                &mut want.checkpoint_log,
                "/tmp/ckpt log.jsonl",
            ),
            ("CGP_CHECKPOINT_DIR", &mut want.checkpoint_dir, "ckpt=dir"),
            ("CGP_LISTEN", &mut want.listen, "shm:auto"),
            ("CGP_CONNECT", &mut want.connect, "127.0.0.1:4100"),
            (TELEMETRY_LOG_ENV, &mut want.telemetry_log, "/tmp/t.jsonl"),
            ("CGP_TELEMETRY", &mut want.telemetry_addr, "127.0.0.1:9"),
        ] {
            if take(rng) {
                *slot = Some(text.to_string());
                set.push((var, text.to_string()));
            }
        }
        if take(rng) {
            let (text, cfg) = match rng.gen_range(0, 4) {
                0 => ("on".to_string(), Some(AutoscaleConfig::default())),
                1 => ("off".to_string(), None),
                _ => {
                    let cfg = AutoscaleConfig {
                        max_width: count(rng, 64) as usize + 1,
                        grow_backlog: 1.0 + rng.gen_range(0, 16) as f64,
                        shrink_starved: rng.gen_range(0, 5) as f64 / 4.0,
                        cooldown_ticks: count(rng, u32::MAX as u64) as u32,
                        escalate_ticks: count(rng, u32::MAX as u64 - 1) as u32 + 1,
                    };
                    let text = format!(
                        "max={},grow={},shrink={},cooldown={},escalate={}",
                        cfg.max_width,
                        cfg.grow_backlog,
                        cfg.shrink_starved,
                        cfg.cooldown_ticks,
                        cfg.escalate_ticks
                    );
                    (text, Some(cfg))
                }
            };
            want.autoscale = cfg;
            set.push(("CGP_AUTOSCALE", text));
        }
        (set, want)
    }

    /// Decide for each setting whether it is given by flag (where one
    /// exists and, for `--recover`, only when it means on).
    fn give(rng: &mut SmallRng, set: Vec<(&'static str, String)>) -> Vec<Given> {
        set.into_iter()
            .map(|(var, text)| {
                let flaggable = match flag_of(var) {
                    Some("--recover") => text == "1",
                    Some(_) => true,
                    None => false,
                };
                let by_flag = flaggable && rng.gen_bool(0.5);
                Given { var, text, by_flag }
            })
            .collect()
    }

    /// Render the settings as an argument list and an environment. A
    /// setting given by flag also gets a valid decoy in its variable
    /// now and then, which the flag must override.
    fn render(
        rng: &mut SmallRng,
        given: &[Given],
        decoys: bool,
    ) -> (Vec<String>, BTreeMap<&'static str, String>) {
        let mut args = Vec::new();
        let mut env = BTreeMap::new();
        for g in given {
            if !g.by_flag {
                env.insert(g.var, g.text.clone());
                continue;
            }
            let flag = flag_of(g.var).expect("flaggable");
            if flag == "--recover" {
                args.push(flag.to_string());
                if decoys && rng.gen_bool(0.3) {
                    env.insert(g.var, "0".to_string());
                }
                continue;
            }
            if rng.gen_bool(0.5) {
                args.push(flag.to_string());
                args.push(g.text.clone());
            } else {
                args.push(format!("{flag}={}", g.text));
            }
            let decoy = match g.var {
                "CGP_ROLE" | "CGP_KILL" | "CGP_FAULTS" => None,
                "CGP_TRANSPORT" => Some("tcp"),
                "CGP_AUTOSCALE" => Some("max=7"),
                "CGP_LISTEN" | "CGP_CONNECT" | "CGP_CHECKPOINT_DIR" | TELEMETRY_LOG_ENV => {
                    Some("decoy")
                }
                _ => Some("17"),
            };
            if let Some(d) = decoy.filter(|_| decoys && rng.gen_bool(0.3)) {
                env.insert(g.var, d.to_string());
            }
            // Figure flags the parser must skip ride along.
            if rng.gen_bool(0.2) {
                args.push("--width".to_string());
                args.push("4".to_string());
            }
        }
        (args, env)
    }

    /// Every drawn set of valid settings, given by flags and variables
    /// in any mix, resolves to exactly the typed values drawn.
    #[test]
    fn drawn_settings_resolve_to_their_typed_values() {
        let mut rng = SmallRng::seed_from_u64(0xE0E1);
        for case in 0..400 {
            let (set, want) = draw(&mut rng);
            let given = give(&mut rng, set);
            let (args, env) = render(&mut rng, &given, true);
            let got = resolve_exec_options(&args, |v| env.get(v).cloned())
                .unwrap_or_else(|e| panic!("case {case}: {args:?} {env:?}: {e}"));
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "case {case}: {args:?} {env:?}"
            );
        }
    }

    /// One corrupted value among valid ones fails the whole resolution,
    /// and the error names the corrupted option as it was given.
    #[test]
    fn a_corrupted_setting_is_named_by_its_flag_or_variable() {
        let mut rng = SmallRng::seed_from_u64(0xE0E2);
        let corruptions: &[(&str, &[&str])] = &[
            ("CGP_DEADLINE_MS", &["abc", "12x", "-3", "1.5"]),
            ("CGP_STALL_MS", &["soon", "1e3"]),
            (STATUS_EVERY_ENV, &["fast", "-1"]),
            ("CGP_HEARTBEAT_MS", &["-5", "2.5"]),
            (
                "CGP_MAX_WORKER_RESTARTS",
                &["lots", "4294967296", "18446744073709551616"],
            ),
            ("CGP_BATCH", &["0", "big"]),
            ("CGP_CHECKPOINT_EVERY", &["0", "every"]),
            (
                "CGP_AUTOSCALE",
                &["max=0", "max=2.5", "max=1e30", "cooldown=-7", "nonsense"],
            ),
            ("CGP_TRANSPORT", &["udp", "quic"]),
            ("CGP_ROLE", &["boss", "worker:x", "worker:-1"]),
        ];
        for case in 0..400 {
            let (set, _) = draw(&mut rng);
            let (var, bad) = corruptions[rng.gen_range(0, corruptions.len())];
            let bad = bad[rng.gen_range(0, bad.len())];
            let mut given = give(&mut rng, set);
            given.retain(|g| g.var != var);
            let by_flag = flag_of(var).is_some() && rng.gen_bool(0.5);
            let at = rng.gen_range(0, given.len() + 1);
            given.insert(
                at,
                Given {
                    var,
                    text: bad.to_string(),
                    by_flag,
                },
            );
            let (args, env) = render(&mut rng, &given, false);
            let err = match resolve_exec_options(&args, |v| env.get(v).cloned()) {
                Ok(_) => panic!("case {case}: {var}={bad:?} must be rejected: {args:?} {env:?}"),
                Err(e) => e,
            };
            let name = if by_flag { flag_of(var).unwrap() } else { var };
            assert!(
                err.starts_with(&format!("{name}:")),
                "case {case}: {var}={bad:?} by {name}: {err}"
            );
        }
    }

    #[test]
    fn aggregator_retires_dead_and_finished_workers() {
        use cgp_core::datacutter::{encode_telemetry_payload, TelemetryClient};

        let exec = ExecOptions::default();
        let agg = TelemetryAggregator::start(2, &exec);

        let sample = |source: &str| TelemetrySample {
            source: source.to_string(),
            ..Default::default()
        };
        let mut reg = MetricsRegistry::default();
        reg.counter("packets", 7);

        // Worker 0 finishes cleanly: in-flight sample, then a fin update
        // carrying its final registry snapshot.
        let mut w0 = TelemetryClient::connect(&agg.addr, 0, None).unwrap();
        w0.send(&encode_telemetry_payload(
            "worker:0",
            false,
            Some(&sample("worker:0")),
            None,
        ))
        .unwrap();
        w0.send(&encode_telemetry_payload(
            "worker:0",
            true,
            Some(&sample("worker:0")),
            Some(&reg),
        ))
        .unwrap();
        w0.close();

        // Worker 1 dies mid-run: a sample and a partial snapshot, then
        // the connection drops with no fin.
        let mut w1 = TelemetryClient::connect(&agg.addr, 1, None).unwrap();
        w1.send(&encode_telemetry_payload(
            "worker:1",
            false,
            Some(&sample("worker:1")),
            Some(&reg),
        ))
        .unwrap();
        drop(w1);

        // Both connections ended, so the serve loop exits on its own.
        let _ = agg.handle.join();
        let latest = agg.latest.lock().unwrap();
        assert!(
            latest.is_empty(),
            "no dead or finished worker may linger in the status line: {:?}",
            latest.keys().collect::<Vec<_>>()
        );
        let registries = agg.registries.lock().unwrap();
        assert!(
            registries.contains_key("worker:0"),
            "the finished worker's final snapshot is kept"
        );
        assert!(
            !registries.contains_key("worker:1"),
            "the dead worker's partial snapshot must not pollute the merge"
        );
    }

    #[test]
    fn parse_common_opts_autoscale_space_and_equals_forms_agree() {
        let spaced = argv(&["--autoscale", "max=4,grow=2"]);
        let equals = argv(&["--autoscale=max=4,grow=2"]);
        assert_eq!(exec_flags(&spaced), exec_flags(&equals));
        let exec = resolve_exec_options(&spaced, no_env).unwrap();
        let cfg = exec.autoscale.expect("autoscale on");
        assert_eq!((cfg.max_width, cfg.grow_backlog), (4, 2.0));
    }

    #[test]
    fn aggregator_carries_busy_time_across_a_worker_restart() {
        use cgp_core::datacutter::{encode_telemetry_payload, TelemetryClient};
        use cgp_obs::telemetry::StageSample;

        let exec = ExecOptions::default();
        let agg = TelemetryAggregator::start(2, &exec);
        let sample = |busy: u64| TelemetrySample {
            source: "worker:1".to_string(),
            stages: vec![StageSample {
                stage: "f2".to_string(),
                busy_us_per_copy: vec![busy],
                ..Default::default()
            }],
            ..Default::default()
        };

        // First incarnation reports 5000 µs of busy time, then crashes
        // (connection drops with no fin).
        let mut w = TelemetryClient::connect(&agg.addr, 1, None).unwrap();
        w.send(&encode_telemetry_payload(
            "worker:1",
            false,
            Some(&sample(5000)),
            None,
        ))
        .unwrap();
        drop(w);
        for _ in 0..400 {
            if !agg.carry.lock().unwrap().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            agg.carry.lock().unwrap()["worker:1"]["f2"],
            vec![5000],
            "the crashed worker's last busy reading becomes the carry"
        );

        // The respawned replacement restarts its probes from zero: 100 µs
        // of fresh busy time must read as 5100 in the merged view, not
        // as a backwards jump to 100.
        let mut w = TelemetryClient::connect(&agg.addr, 1, None).unwrap();
        w.send(&encode_telemetry_payload(
            "worker:1",
            false,
            Some(&sample(100)),
            None,
        ))
        .unwrap();
        let mut merged = None;
        for _ in 0..400 {
            if let Some(s) = agg.latest.lock().unwrap().get("worker:1") {
                merged = Some(s.stages[0].busy_us_per_copy.clone());
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            merged,
            Some(vec![5100]),
            "pre-restart busy time must be carried forward across the restart"
        );
        drop(w);
        let _ = agg.handle.join();
        // A second crash replaces the carry with the folded reading —
        // 5100, never 5000 + 5100.
        assert_eq!(agg.carry.lock().unwrap()["worker:1"]["f2"], vec![5100]);
    }

    #[test]
    fn dead_unit_parses_executor_stage_labels() {
        let fe = cgp_core::datacutter::FilterError::panicked("f2[0]", "boom");
        assert_eq!(dead_unit_of(&CoreError::Runtime(fe)), Some(1));
        let fe = cgp_core::datacutter::FilterError::panicked("f10[3]", "boom");
        assert_eq!(dead_unit_of(&CoreError::Runtime(fe)), Some(9));
        let fe = cgp_core::datacutter::FilterError::panicked("watchdog", "stall");
        assert_eq!(dead_unit_of(&CoreError::Runtime(fe)), None);
    }
}
