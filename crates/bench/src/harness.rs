//! The `cgp` command line, and the trace wiring of the figure binaries.
//!
//! `cgp <zbuf|apix|knn|vmscope> [flags]` ([`cgp_main`]) compiles one of
//! the four demo apps ([`demo_apps`]) and then, by `--role`/`CGP_ROLE`:
//!
//! - `local` (the default) runs the compiled plan on threads and
//!   compares its output with the oracle (what `Interp::run_main` prints
//!   for the same program). It exits 1 when they differ, unless `drop`
//!   faults discarded packets on purpose;
//! - `launcher` runs the plan as one worker process per pipeline unit
//!   ([`crate::launcher`]), which re-executes `cgp` with
//!   `CGP_ROLE=worker:<k>`, and compares the last stage's output with the
//!   oracle;
//! - `worker:<k>` runs unit `k` alone ([`run_worker`]).
//!
//! Its flags:
//!
//! - `--explain` — print the compiler's decision report (candidate
//!   boundary graph, per-boundary Gen/Cons/ReqComm byte volumes, every
//!   candidate decomposition's cost, and why the winner won), then the
//!   generated filters: each unit's atoms, its prologue slice length, the
//!   reduction roots it holds or adopts and whether it builds the host
//!   environment;
//! - `--trace-out <path>` (or `CGP_TRACE`) — write a Chrome
//!   `trace_event` JSON file of a local run: the seven compiler phases
//!   and the runtime's per-filter-copy spans and per-packet events;
//! - 12 run options, each answering its `CGP_*` variable (see
//!   [`ExecOptions::from_lookup`]): `--faults`, `--deadline-ms`,
//!   `--recover`, `--role`, `--listen`, `--connect`, `--transport`,
//!   `--status-every`, `--telemetry-log`, `--heartbeat-ms`,
//!   `--max-worker-restarts` and `--autoscale`. `--faults <spec>`
//!   injects deterministic faults (grammar at
//!   [`cgp_core::datacutter::FaultPlan::parse`]); `--recover` masks them
//!   by restarting the whole run from packet 0, and when a unit still
//!   exhausts its restart budget `cgp` replans the decomposition over the
//!   surviving units with the cost model and re-runs (`[obs] failover:
//!   ...`); `--status-every`/`--telemetry-log` turn on the telemetry
//!   plane and the cost-model calibration report; `--autoscale` widens
//!   stages online.
//!
//! Every flag but the bare `--explain` and `--recover` takes a value, as
//! `--flag value` or `--flag=value`. An unknown argument, a missing value,
//! a missing or unknown app, or a bad value exits 2 naming it.
//!
//! The figure binaries take only `--trace-out` (or `CGP_TRACE`), which
//! traces the simulator timeline of their own runs ([`figure_main`]).

use cgp_compiler::calibrate::CalibrationReport;
use cgp_compiler::decompose::decompose_dp;
use cgp_compiler::failover::replan;
use cgp_core::apps::dialect::{demo_apps, DemoApp};
use cgp_core::datacutter::width::provisioned_width;
use cgp_core::datacutter::{decode_telemetry_payload, RunControl, Transport};
use cgp_core::{
    compile, run_plan_threaded_stats, run_plan_worker_io, CompileOptions, Compiled, CoreError,
    ExecOptions, FilterPlan, HostBuilder, NetRole, WorkerIngress,
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

/// The run-option flags `cgp` accepts, each with the `CGP_*` variable it
/// answers for (see [`ExecOptions::from_lookup`]). `--recover` is bare
/// and answers `CGP_RECOVER=1`; every other flag takes a value.
const EXEC_FLAGS: [(&str, &str); 12] = [
    ("--faults", "CGP_FAULTS"),
    ("--deadline-ms", "CGP_DEADLINE_MS"),
    ("--recover", "CGP_RECOVER"),
    ("--role", "CGP_ROLE"),
    ("--listen", "CGP_LISTEN"),
    ("--connect", "CGP_CONNECT"),
    ("--transport", "CGP_TRANSPORT"),
    ("--status-every", STATUS_EVERY_ENV),
    ("--telemetry-log", TELEMETRY_LOG_ENV),
    ("--heartbeat-ms", "CGP_HEARTBEAT_MS"),
    ("--max-worker-restarts", "CGP_MAX_WORKER_RESTARTS"),
    ("--autoscale", "CGP_AUTOSCALE"),
];

/// A command line as read, before its values are checked.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// The positional argument (`cgp`'s app).
    app: Option<String>,
    explain: bool,
    trace_path: Option<String>,
    /// The [`EXEC_FLAGS`] given, as `(variable, value)` pairs in argument
    /// order.
    exec: Vec<(&'static str, String)>,
}

/// Read `args`. `--trace-out` is always known; `cgp` (`cli`) also knows
/// `--explain`, the [`EXEC_FLAGS`] and one positional app. Any other
/// argument is an error that names it.
fn scan(args: &[String], cli: bool) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let unknown = || format!("unknown argument `{arg}`");
        if !arg.starts_with('-') {
            if !cli || out.app.is_some() {
                return Err(unknown());
            }
            out.app = Some(arg.clone());
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, v)) => (flag, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag}: missing value"))
        };
        if flag == "--trace-out" {
            out.trace_path = Some(value()?);
        } else if !cli {
            return Err(unknown());
        } else if arg == "--explain" {
            out.explain = true;
        } else if arg == "--recover" {
            out.exec.push(("CGP_RECOVER", "1".to_string()));
        } else {
            match EXEC_FLAGS
                .iter()
                .find(|(f, _)| *f == flag && *f != "--recover")
            {
                Some(&(_, var)) => out.exec.push((var, value()?)),
                None => return Err(unknown()),
            }
        }
    }
    Ok(out)
}

/// Resolve the run options: a flag in `flags` answers its variable (the
/// last occurrence wins), `env` answers the rest, and both go through
/// the one parser, [`ExecOptions::from_lookup`]. An error names the
/// option the way it was given — the flag, or the variable.
fn resolve_exec_options(
    flags: &[(&'static str, String)],
    env: impl Fn(&str) -> Option<String>,
) -> Result<ExecOptions, String> {
    let flags: BTreeMap<&str, &String> = flags.iter().map(|(var, v)| (*var, v)).collect();
    ExecOptions::from_lookup(|var| flags.get(var).map(|v| v.to_string()).or_else(|| env(var)))
        .map_err(|e| {
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

/// What `cgp` was asked to do.
struct Cli {
    app: DemoApp,
    explain: bool,
    trace_path: Option<String>,
    exec: ExecOptions,
    /// The arguments as given; a launcher forwards them to its workers.
    args: Vec<String>,
}

/// Read a `cgp` command line; `env` answers the `CGP_*` variables.
fn parse_cli(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Cli, String> {
    let scanned = scan(args, true)?;
    let apps = demo_apps();
    let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
    let name = scanned
        .app
        .ok_or_else(|| format!("missing app (one of {})", names.join(", ")))?;
    let app = apps
        .into_iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("unknown app `{name}` (one of {})", names.join(", ")))?;
    let exec = resolve_exec_options(&scanned.exec, &env).map_err(|e| format!("bad option {e}"))?;
    Ok(Cli {
        app,
        explain: scanned.explain,
        trace_path: scanned.trace_path.or_else(|| env(trace::TRACE_ENV)),
        exec,
        args: args.to_vec(),
    })
}

/// `cgp`'s `main`: parse `args` (the command line without the program
/// name), act in the requested role, and return the exit code.
pub fn cgp_main(args: &[String]) -> i32 {
    let cli = match parse_cli(args, |var| std::env::var(var).ok()) {
        Ok(cli) => cli,
        Err(e) => {
            let flags: Vec<&str> = EXEC_FLAGS.iter().map(|(f, _)| *f).collect();
            eprintln!("cgp: {e}");
            eprintln!(
                "usage: cgp <zbuf|apix|knn|vmscope> [--explain] [--trace-out <path>] [{}]",
                flags.join("|")
            );
            return 2;
        }
    };
    match cli.exec.role {
        NetRole::Worker(stage) => match compile(cli.app.src, &cli.app.opts) {
            Ok(c) => run_worker(cli.app.name, c.plan, cli.app.host, stage, &cli.exec),
            Err(e) => {
                eprintln!(
                    "[obs] worker {stage}: dialect compile failed for {}: {e}",
                    cli.app.name
                );
                1
            }
        },
        NetRole::Launcher => run_launcher(&cli),
        NetRole::Local => {
            let trace = cli.trace_path.clone().map(Trace::install);
            let code = run_local(&cli);
            if let Some(trace) = trace {
                trace.finish();
            }
            code
        }
    }
}

/// A figure binary's `main`: accept `--trace-out <path>` (or
/// `CGP_TRACE`) and nothing else, run `figure` with the trace installed,
/// and write it. Any other argument exits 2 naming it; a figure that
/// fails (a series printing other lines than the oracle) exits 1 with
/// its error.
pub fn figure_main(figure: impl FnOnce() -> Result<(), String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match scan(&args, false) {
        Ok(a) => a
            .trace_path
            .or_else(|| std::env::var(trace::TRACE_ENV).ok()),
        Err(e) => {
            eprintln!("{e}\nusage: a figure binary takes only [--trace-out <path>]");
            std::process::exit(2);
        }
    };
    let trace = path.map(Trace::install);
    let result = figure();
    if let Some(trace) = trace {
        trace.finish();
    }
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
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

/// An installed Chrome trace and where it goes.
struct Trace {
    path: String,
    sink: Arc<SummarySink>,
}

impl Trace {
    fn install(path: String) -> Trace {
        let inner = ChromeTraceSink::create(&path)
            .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"));
        let sink = Arc::new(SummarySink {
            inner,
            phases: Mutex::new(Vec::new()),
        });
        trace::install_sink(sink.clone());
        Trace { path, sink }
    }

    /// Write the Chrome JSON array and print the phase-timing summary.
    fn finish(self) {
        trace::clear_sink();
        let phases = self
            .sink
            .phases
            .lock()
            .expect("no thread panics while recording a trace event");
        if !phases.is_empty() {
            println!("--- compiler phase timings ---");
            for (name, dur_us) in phases.iter() {
                println!("  {name:<12} {dur_us:>10.1} us");
            }
        }
        println!(
            "trace written to {} (open in Perfetto / chrome://tracing)",
            self.path
        );
    }
}

/// Compile the app, print the decision report under `--explain`, run the
/// plan on threads and compare the output with the oracle. Under
/// injected faults (`--faults` or `--deadline-ms`) a failed run is the
/// expected outcome and is reported, not fatal; with `--recover` an
/// exhausted restart budget fails over to a replanned run. Returns 1 when
/// an output differs from the oracle and no `drop` fault explains it.
fn run_local(cli: &Cli) -> i32 {
    let (app, exec) = (&cli.app, &cli.exec);
    let name = app.name;
    let compiled = match compile(app.src, &app.opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[obs] dialect compile failed for {name}: {e}");
            return 1;
        }
    };
    if cli.explain {
        println!("--- {name}: compiler decision report ---");
        print!("{}", compiled.report.render_text());
        println!("--- {name}: generated filters ---");
        print!("{}", compiled.plan.describe());
    }
    let chaos = !exec.faults.is_empty() || exec.deadline.is_some();
    let oracle = app.oracle();
    let mut run_exec = exec.clone();
    let registry = (exec.sampling_enabled() || exec.telemetry_log.is_some()).then(|| {
        let reg = Arc::new(Mutex::new(MetricsRegistry::default()));
        run_exec.metrics = Some(Arc::clone(&reg));
        reg
    });
    let plan = Arc::new(compiled.plan.clone());
    let (out, stats) = match run_plan_threaded_stats(plan, Arc::clone(&app.host), None, &run_exec) {
        Ok(run) => run,
        Err(e) if chaos && exec.recover => {
            // Restart budget exhausted on some unit: treat the unit's
            // host as dead, replan over the survivors with the cost
            // model, and re-run.
            println!("[obs] chaos run for {name} exhausted restarts: {e}");
            let Some(dead) = dead_unit_of(&e) else {
                println!("[obs] failover: cannot identify a dead unit in `{e}`; giving up");
                return 0;
            };
            return match replan_run(app, exec, &compiled, dead) {
                Some(out) => {
                    println!("[obs] failover run for {name}: {}", verdict(&out, &oracle));
                    i32::from(out != oracle)
                }
                None => 0,
            };
        }
        Err(e) if chaos => {
            println!("[obs] chaos run for {name} failed as injected: {e}");
            return 0;
        }
        Err(e) => {
            eprintln!("[obs] run failed for {name}: {e}");
            return 1;
        }
    };
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
    let run = if chaos { "chaos run" } else { "run" };
    println!(
        "[obs] {run} for {name} completed; {}",
        verdict(&out, &oracle)
    );
    if chaos {
        println!(
            "[obs] chaos run for {name} dropped {} packets",
            stats.dropped()
        );
        if exec.recover {
            println!("[obs] recovery: {} restarts", stats.recoveries());
        }
    }
    if let Some(stage) = &stats.autoscale.escalation {
        println!(
            "[obs] autoscale: {stage} stayed the bottleneck at its copy cap after {} grow(s); \
             a re-decomposition is advised",
            stats.autoscale.grows()
        );
    }
    i32::from(out != oracle && stats.dropped() == 0)
}

/// Run `stage` of `plan` as one worker process of a distributed run: bind
/// its ingress and announce it on stdout ([`crate::launcher::LISTENING_MARKER`]),
/// run the unit, and print the last stage's result lines on stdout;
/// everything informational goes to stderr. Returns the exit code. Both
/// `cgp --role worker:<k>` and the conformance matrix's workers run here.
pub fn run_worker(
    name: &str,
    plan: FilterPlan,
    host: HostBuilder,
    stage: usize,
    exec: &ExecOptions,
) -> i32 {
    let m = plan.m;
    let ingress = if stage > 0 {
        let addr = exec.listen.as_deref().unwrap_or("127.0.0.1:0");
        // Worker-mode plans spec one copy per stage, but under autoscale
        // an interior upstream stage is provisioned at the copy cap and
        // each of its copies owns an egress connection: the producer
        // count is that provisioned width.
        let producers = provisioned_width(exec.autoscale.as_ref(), stage - 1, m, 1);
        match WorkerIngress::bind(addr, producers) {
            Ok((ingress, at)) => {
                // Announce only once the endpoint exists, so a producer
                // that connects right after the marker finds it.
                println!("{} {at}", crate::launcher::LISTENING_MARKER);
                let _ = std::io::stdout().flush();
                Some(ingress)
            }
            Err(e) => {
                eprintln!("[obs] worker {stage}: cannot open ingress at {addr}: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    match run_plan_worker_io(
        Arc::new(plan),
        host,
        stage,
        ingress,
        exec.connect.clone(),
        None,
        exec,
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
            eprintln!(
                "[obs] worker {stage}/{m} for {name} finished, dropped {} packets ({})",
                stats.dropped(),
                net.join("; ")
            );
            0
        }
        Err(e) => {
            eprintln!("[obs] worker {stage}/{m} for {name} failed: {e}");
            1
        }
    }
}

/// Run the app's plan split one worker process per pipeline unit, and
/// fail unless the output is byte-identical to the oracle. With
/// `--recover` the launcher supervises the workers; a unit that exhausts
/// its restart budget fails over to a replanned in-process run.
fn run_launcher(cli: &Cli) -> i32 {
    let (app, exec) = (&cli.app, &cli.exec);
    let name = app.name;
    let compiled = match compile(app.src, &app.opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[obs] launcher: dialect compile failed for {name}: {e}");
            return 1;
        }
    };
    let m = compiled.plan.m;
    let expected = app.oracle();
    let passthrough = crate::launcher::strip_net_flags(&cli.args);
    let telemetry = exec.sampling_enabled() || exec.telemetry_log.is_some();
    let aggregator = telemetry.then(|| TelemetryAggregator::start(exec));
    let transport = Transport::select(exec.transport);
    eprintln!("[obs] launcher: data plane is {transport:?}");
    // Supervision rides on the recovery switch: with `--recover` the
    // launcher masks worker crashes with whole-chain restarts; without it
    // a dead worker fails the run.
    let mut lopts = crate::launcher::LaunchOptions::new(transport);
    lopts.telemetry = aggregator.as_ref().map(|a| a.addr.clone());
    lopts.supervise = exec.recover;
    if let Some(n) = exec.max_worker_restarts {
        lopts.max_worker_restarts = n;
    }
    let launched = crate::launcher::launch_supervised(m, &passthrough, &lopts);
    if let Some(agg) = aggregator {
        agg.finish(name, &compiled);
    }
    let got = match launched {
        Ok(report) => {
            if report.restart_events > 0 {
                eprintln!(
                    "[obs] launcher: masked {} worker crash(es) with whole-chain restarts \
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
            // Worker-mode plans run one pipeline unit per stage, so the
            // dead stage index *is* the dead unit: treat its host as
            // lost, replan over the survivors, and re-run in-process.
            println!(
                "[obs] chaos run for {name} exhausted restarts: worker stage {stage} \
                 kept dying after {restarts} masked restart(s) (last exit: {last})"
            );
            return match replan_run(app, exec, &compiled, stage) {
                Some(out) if out == expected => {
                    println!(
                        "[obs] distributed run for {name} failed over to a replanned \
                         in-process run; output matches the oracle ({} lines)",
                        out.len()
                    );
                    0
                }
                Some(out) => {
                    println!(
                        "[obs] distributed run for {name} failed over to a replanned \
                         in-process run; output differs from the oracle"
                    );
                    eprintln!("[obs] launcher: expected {expected:?}, got {out:?}");
                    1
                }
                None => 1,
            };
        }
        Err(e) => {
            eprintln!("[obs] launcher: distributed run for {name} failed: {e}");
            return 1;
        }
    };
    if got != expected {
        println!(
            "[obs] distributed run for {name} across {m} workers: output differs from \
             the oracle"
        );
        eprintln!("[obs] launcher: expected {expected:?}, got {got:?}");
        return 1;
    }
    println!(
        "[obs] distributed run for {name} across {m} workers matches the oracle \
         ({} output lines)",
        got.len()
    );
    0
}

/// Cost-model failover: drop pipeline unit `dead` from the environment,
/// re-run the decomposition DP over the survivors, recompile, and re-run
/// in-process. The fault plan stays armed — a restart masks it on the
/// new placement, so a completed re-run demonstrates end-to-end
/// self-healing. (`CGP_KILL` arms only in worker roles, so this run
/// cannot shoot itself.) Returns the re-run's output lines on success.
fn replan_run(
    app: &DemoApp,
    exec: &ExecOptions,
    compiled: &Compiled,
    dead: usize,
) -> Option<Vec<String>> {
    let name = app.name;
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
        ..app.opts.clone()
    };
    let recompiled = match compile(app.src, &reduced) {
        Ok(c) => c,
        Err(e) => {
            println!("[obs] failover recompile failed for {name}: {e}");
            return None;
        }
    };
    match run_plan_threaded_stats(Arc::new(recompiled.plan), Arc::clone(&app.host), None, exec) {
        Ok((out, stats)) => {
            println!(
                "[obs] failover run for {name} completed on {} units ({} restarts)",
                plan.env.m(),
                stats.recoveries()
            );
            Some(out)
        }
        Err(e) => {
            println!("[obs] failover run for {name} failed: {e}");
            None
        }
    }
}

/// Map a failed copy's stage label (`f{j+1}[c]`) back to the pipeline
/// unit `j`.
fn dead_unit_of(err: &CoreError) -> Option<usize> {
    let CoreError::Runtime(fe) = err else {
        return None;
    };
    let rest = fe.filter.strip_prefix('f')?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse::<usize>().ok()?.checked_sub(1)
}

/// How a run's output compares with the oracle, as `cgp` prints it.
fn verdict(out: &[String], oracle: &[String]) -> &'static str {
    if out == oracle {
        "output matches the oracle"
    } else {
        "output differs from the oracle"
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
    fn start(exec: &ExecOptions) -> TelemetryAggregator {
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
        // A whole-chain restart respawns finished workers too: a source
        // that reports again after its fin is live again.
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
                        if !update.fin {
                            finished
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&update.source);
                        }
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
                    control,
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

    /// Resolve a command line of run-option flags the way `cgp` does.
    fn resolve(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<ExecOptions, String> {
        resolve_exec_options(&scan(args, true)?.exec, env)
    }

    #[test]
    fn parse_common_opts_space_and_equals_forms_agree() {
        let spaced = argv(&[
            "zbuf",
            "--explain",
            "--recover",
            "--faults",
            "panic@f2[0]#3",
            "--deadline-ms",
            "500",
            "--trace-out",
            "/tmp/t.json",
            "--max-worker-restarts",
            "16",
        ]);
        let equals = argv(&[
            "zbuf",
            "--explain",
            "--recover",
            "--faults=panic@f2[0]#3",
            "--deadline-ms=500",
            "--trace-out=/tmp/t.json",
            "--max-worker-restarts=16",
        ]);
        let scanned = scan(&spaced, true).unwrap();
        assert_eq!(scanned, scan(&equals, true).unwrap());
        let cli = parse_cli(&spaced, no_env).unwrap();
        assert_eq!(cli.app.name, "zbuf");
        assert!(cli.explain);
        assert_eq!(cli.trace_path.as_deref(), Some("/tmp/t.json"));
        assert!(cli.exec.recover);
        assert!(!cli.exec.faults.is_empty());
        assert_eq!(cli.exec.deadline, Some(Duration::from_millis(500)));
        assert_eq!(cli.exec.max_worker_restarts, Some(16));
    }

    /// A misspelled flag, a stray positional, a missing value or a
    /// missing or unknown app fails the command line by name instead of
    /// silently changing the run; the figure binaries know only
    /// `--trace-out`.
    #[test]
    fn unknown_arguments_and_apps_are_rejected_by_name() {
        let err = |args: &[&str]| {
            parse_cli(&argv(args), no_env)
                .err()
                .unwrap_or_else(|| panic!("{args:?} must be rejected"))
        };
        for (args, bad) in [
            (&["zbuf", "--recovr"][..], "--recovr"),
            (&["zbuf", "--width", "4"], "--width"),
            (&["zbuf", "--recover=1"], "--recover=1"),
            (&["zbuf", "--explain=yes"], "--explain=yes"),
            (
                &["zbuf", "--role", "launcher", "--transprt", "tcp"],
                "--transprt",
            ),
            (&["zbuf", "knn"], "knn"),
        ] {
            assert_eq!(err(args), format!("unknown argument `{bad}`"));
        }
        assert_eq!(err(&["zbuf", "--faults"]), "--faults: missing value");
        assert!(err(&["--recover"]).starts_with("missing app"));
        assert!(err(&[]).starts_with("missing app"));
        assert!(err(&["fig05", "--recover"]).starts_with("unknown app `fig05`"));
        assert!(err(&["zbuf", "--faults", "nonsense"]).starts_with("bad option --faults:"));
        for app in demo_apps() {
            assert_eq!(
                parse_cli(&argv(&[app.name]), no_env).unwrap().app.name,
                app.name
            );
        }
        let figure = scan(&argv(&["--trace-out", "t.json"]), false).unwrap();
        assert_eq!(figure.trace_path.as_deref(), Some("t.json"));
        for bad in ["--explain", "--recover", "--faults=x", "zbuf"] {
            assert_eq!(
                scan(&argv(&[bad]), false),
                Err(format!("unknown argument `{bad}`"))
            );
        }
    }

    #[test]
    fn flags_win_over_their_variables() {
        let env = |var: &str| match var {
            "CGP_DEADLINE_MS" => Some("100".to_string()),
            "CGP_MAX_WORKER_RESTARTS" => Some("3".to_string()),
            "CGP_TRANSPORT" => Some("shm".to_string()),
            _ => None,
        };
        let exec = resolve(&argv(&["--deadline-ms", "200"]), env).unwrap();
        assert_eq!(exec.deadline, Some(Duration::from_millis(200)), "flag wins");
        assert_eq!(exec.max_worker_restarts, Some(3), "env answers the rest");
        assert_eq!(exec.transport, Some(Transport::Shm), "env answers the rest");
        let exec = resolve(&argv(&["--transport", "tcp"]), env).unwrap();
        assert_eq!(exec.transport, Some(Transport::Tcp), "flag wins");
        // The last occurrence of a repeated flag wins.
        let exec = resolve(&argv(&["--deadline-ms=1", "--deadline-ms", "2"]), no_env).unwrap();
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
            let exec = resolve(&argv(args), env_with(role)).unwrap();
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
                let err = resolve(&args, no_env)
                    .err()
                    .unwrap_or_else(|| panic!("{args:?} must be rejected"));
                assert!(err.starts_with(&format!("{flag}:")), "{args:?}: {err}");
            }
            let env = |name: &str| (name == var).then(|| bad.to_string());
            let err = resolve(&[], env)
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
            let (text, on) = boolean(rng);
            want.recover = on;
            set.push(("CGP_RECOVER", text));
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
                "CGP_LISTEN" | "CGP_CONNECT" | TELEMETRY_LOG_ENV => Some("decoy"),
                _ => Some("17"),
            };
            if let Some(d) = decoy.filter(|_| decoys && rng.gen_bool(0.3)) {
                env.insert(g.var, d.to_string());
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
            let got = resolve(&args, |v| env.get(v).cloned())
                .unwrap_or_else(|e| panic!("case {case}: {args:?} {env:?}: {e}"));
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "case {case}: {args:?} {env:?}"
            );
            // The same line with an unknown flag before or after the
            // settings fails by its name.
            let mut args = args;
            let at = if rng.gen_bool(0.5) { 0 } else { args.len() };
            args.splice(at..at, argv(&["--width", "4"]));
            assert_eq!(
                resolve(&args, |v| env.get(v).cloned()).err().as_deref(),
                Some("unknown argument `--width`"),
                "case {case}: {args:?}"
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
            let err = match resolve(&args, |v| env.get(v).cloned()) {
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
        let agg = TelemetryAggregator::start(&exec);

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

        // Worker 2 finishes, then a whole-chain restart respawns it: once
        // it reports again it is live, so its death without a fin retires
        // it like any crash.
        let mut w2 = TelemetryClient::connect(&agg.addr, 2, None).unwrap();
        w2.send(&encode_telemetry_payload(
            "worker:2",
            true,
            None,
            Some(&reg),
        ))
        .unwrap();
        w2.close();
        for _ in 0..400 {
            if agg.registries.lock().unwrap().contains_key("worker:2") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut w2 = TelemetryClient::connect(&agg.addr, 2, None).unwrap();
        let sample2 = encode_telemetry_payload("worker:2", false, Some(&sample("worker:2")), None);
        w2.send(&sample2).unwrap();
        drop(w2);

        // Every connection ended; the serve loop reads each to its end
        // once the launcher cancels it.
        agg.control.cancel("workers exited");
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
        assert!(
            !registries.contains_key("worker:2"),
            "a respawned worker that died before finishing leaves no snapshot"
        );
    }

    #[test]
    fn parse_common_opts_autoscale_space_and_equals_forms_agree() {
        let spaced = argv(&["--autoscale", "max=4,grow=2"]);
        let equals = argv(&["--autoscale=max=4,grow=2"]);
        assert_eq!(scan(&spaced, true), scan(&equals, true));
        let exec = resolve(&spaced, no_env).unwrap();
        let cfg = exec.autoscale.expect("autoscale on");
        assert_eq!((cfg.max_width, cfg.grow_backlog), (4, 2.0));
    }

    #[test]
    fn aggregator_carries_busy_time_across_a_worker_restart() {
        use cgp_core::datacutter::{encode_telemetry_payload, TelemetryClient};
        use cgp_obs::telemetry::StageSample;

        let exec = ExecOptions::default();
        let agg = TelemetryAggregator::start(&exec);
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
        agg.control.cancel("workers exited");
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
