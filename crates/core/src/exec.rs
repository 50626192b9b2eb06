//! Threaded execution of compiled filter plans on the DataCutter runtime.
//!
//! Each pipeline unit of the plan becomes one DataCutter stage; stages may
//! be *transparently copied* (`widths`). Packets travel as tagged buffers:
//!
//! - tag `0` — per-packet data, laid out by the compiler's pack layouts;
//! - tag `1` — a filter copy's reduction-variable state: the roots its
//!   unit holds or has adopted, shipped at end-of-work (a copy with none
//!   ships nothing). Downstream, a unit that has a root merges it via the
//!   object's `reduce` method (associativity/commutativity make the merge
//!   order irrelevant); a unit that lacks it adopts the partial unmerged.
//!
//! The source stage's copies partition the packet sequence round-robin
//! (the paper's "data available at w nodes"); interior stages receive
//! whatever the runtime's round-robin delivers. The last stage runs the
//! epilogue once every state shipped to it has been merged or adopted.
//!
//! Each filter copy runs only its own pipeline unit, and that unit's whole
//! lifecycle — its prologue slice, packet steps, reduction merges,
//! epilogue — on the register bytecode VM. Dialect values are
//! thread-local (`Rc`-based), so a copy whose unit reads an extern
//! ([`cgp_compiler::FilterSpec::needs_host`]) rebuilds its host bindings
//! on the thread that runs it through the provided builder — deterministic
//! builders make every copy see the same data, while the analysis
//! guarantees only the source actually touches the extern arrays per
//! packet. Any other copy binds an empty host environment.

use crate::codec::{decode_state, encode_state};
use crate::error::CoreError;
use cgp_compiler::FilterPlan;
use cgp_compiler::FilterStepper;
pub use cgp_datacutter::WorkerIngress;
use cgp_datacutter::{
    AutoscaleConfig, Buffer, FaultPlan, Filter, FilterIo, FilterResult, NetTuning, Pipeline,
    RunOptions, RunStats, StageSpec, TelemetryConfig, Transport, WorkerEndpoints,
};
use cgp_lang::interp::{split_domain, HostEnv};
use cgp_obs::metrics::MetricsRegistry;
use cgp_obs::telemetry::{TelemetrySampler, STATUS_EVERY_ENV, TELEMETRY_LOG_ENV};
use std::num::{IntErrorKind, ParseIntError};
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TAG_DATA: u8 = 0;
const TAG_REDUCTION: u8 = 1;

/// Packets per source flush: one lock acquisition and one wakeup per
/// batch, as many packets as a consumer drains per lock
/// ([`RunOptions::batch`]).
const BATCH: usize = 8;

/// Per-stage restart budget when none is given
/// ([`ExecOptions::max_worker_restarts`]), in-process and in a
/// supervising launcher alike.
pub const RESTART_BUDGET: u32 = 2;

/// A deterministic host-environment builder, invoked once per filter copy
/// whose unit reads an extern, on that copy's thread.
pub type HostBuilder = Arc<dyn Fn() -> HostEnv + Send + Sync>;

/// How this process participates in a run.
///
/// Distributed runs can't ship closures between processes; instead every
/// participant recompiles the same program with the same options, which
/// deterministically yields the same plan, stage names, and round-robin
/// packet routing. The role then selects which slice of the shared plan
/// this process executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetRole {
    /// Run the whole pipeline in this process (the default).
    #[default]
    Local,
    /// Run only pipeline unit `stage`, bridging its boundary streams
    /// to the neighbouring workers ([`run_plan_worker_io`]).
    Worker(usize),
    /// Spawn one worker process per pipeline unit on this machine and
    /// collect the last stage's output (the `cgp` CLI implements
    /// this on top of [`NetRole::Worker`]).
    Launcher,
}

/// Every run setting of a threaded plan run, as read from `cgp`'s flags
/// and `CGP_*` variables ([`ExecOptions::from_lookup`]): fault injection,
/// watchdogs, restarts, the distributed role and links,
/// telemetry and elastic width. The runtime's share becomes one
/// DataCutter [`RunOptions`] per run.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Deterministic fault-injection plan (empty = no injection).
    pub faults: FaultPlan,
    /// Hard wall-clock limit for the run.
    pub deadline: Option<Duration>,
    /// Cancel if no packet moves for this long.
    pub stall_timeout: Option<Duration>,
    /// Restart on failure: a failed in-process run reruns the whole
    /// pipeline from packet 0, charging the stage that failed against
    /// [`ExecOptions::max_worker_restarts`]. A worker never restarts
    /// itself: its failed copy fails the worker by name, and its
    /// supervising launcher restarts the whole chain; a vanished upstream
    /// producer leaves the worker's ingress waiting for that teardown
    /// instead of failing the run. Off, a failed filter copy fails the
    /// run.
    pub recover: bool,
    /// Heartbeat cadence for distributed TCP links: idle links exchange
    /// `Heartbeat` frames this often and presume a peer dead after ~4
    /// missed beats. `None` disables the liveness protocol.
    pub heartbeat: Option<Duration>,
    /// Per-stage restart budget under [`ExecOptions::recover`], in-process
    /// and in a supervising launcher alike (`None` = [`RESTART_BUDGET`]).
    pub max_worker_restarts: Option<u32>,
    /// How this process participates in the run (local / worker /
    /// launcher).
    pub role: NetRole,
    /// Listen address of a worker's ingress: `host:port` (port 0 picks a
    /// free port), `shm:<base>` or `shm:auto` (see
    /// [`WorkerIngress::bind`]).
    pub listen: Option<String>,
    /// Address of the downstream worker's listener.
    pub connect: Option<String>,
    /// Sample in-flight telemetry (queue depths, busy fractions, latency
    /// percentiles) at this cadence; whether a run has telemetry at all
    /// is [`ExecOptions::telemetry_sink`]'s rule.
    pub status_every: Option<Duration>,
    /// Append each telemetry sample as a JSON line to this path.
    pub telemetry_log: Option<String>,
    /// Launcher aggregator address: ship each sample (and the final
    /// metrics snapshot) there as `Telemetry` frames. Best-effort — a
    /// dead aggregator never fails the run.
    pub telemetry_addr: Option<String>,
    /// Attach this registry so the run publishes its counters and
    /// latency histograms into it (callers read it post-run, e.g. for
    /// cost-model calibration).
    pub metrics: Option<Arc<Mutex<MetricsRegistry>>>,
    /// Distributed transport between same-host workers
    /// (`CGP_TRANSPORT`); `None` lets [`Transport::select`] pick.
    /// Cross-host links always use TCP.
    pub transport: Option<Transport>,
    /// Elastic copy-width autoscaling (`CGP_AUTOSCALE`, parsed by
    /// [`AutoscaleConfig::parse`]; `None` is fixed width). Requires
    /// telemetry with a nonzero cadence, so it turns telemetry on.
    pub autoscale: Option<AutoscaleConfig>,
}

impl ExecOptions {
    /// Parse options from `lookup`, which answers a variable name with
    /// its value (`None` = unset). Errors name the variable. The
    /// variables:
    ///
    /// - `CGP_FAULTS` — fault spec (see [`FaultPlan::parse`]);
    /// - `CGP_DEADLINE_MS` — run deadline in milliseconds;
    /// - `CGP_STALL_MS` — stall timeout in milliseconds;
    /// - `CGP_RECOVER` — `1`/`true`/`on` restarts a failed run;
    /// - `CGP_HEARTBEAT_MS` — heartbeat cadence on distributed TCP links
    ///   (`0`/unset disables the liveness protocol);
    /// - `CGP_MAX_WORKER_RESTARTS` — per-stage restart budget, in-process
    ///   and for a supervising launcher;
    /// - `CGP_KILL` — deterministic self-SIGKILL spec (`stage[copy]#pkt`),
    ///   honored only in worker roles;
    /// - `CGP_ROLE` — `local` (default), `launcher`, or `worker:<stage>`;
    /// - `CGP_LISTEN` — worker ingress address (`host:port`,
    ///   `shm:<base>` or `shm:auto`);
    /// - `CGP_CONNECT` — downstream worker's listener address;
    /// - `CGP_STATUS_EVERY` — telemetry sampling cadence in milliseconds
    ///   (`0` disables in-flight sampling);
    /// - `CGP_TELEMETRY_LOG` — JSONL path for telemetry samples;
    /// - `CGP_TELEMETRY` — launcher telemetry aggregator address;
    /// - `CGP_TRANSPORT` — `shm` (default) or `tcp` for same-host
    ///   worker links;
    /// - `CGP_AUTOSCALE` — elastic copy-width autoscaling: `on` for
    ///   defaults or `key=value` pairs (`max`, `grow`, `shrink`,
    ///   `cooldown`, `escalate`); `0`/`off`/empty disables.
    ///
    /// Counts parse as whole numbers of their own type: a fractional,
    /// negative or out-of-range value is an error, never a wrapped or
    /// truncated count.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<ExecOptions, CoreError> {
        let mut opts = ExecOptions::default();
        if let Some(spec) = lookup("CGP_FAULTS") {
            opts.faults = FaultPlan::parse(&spec)
                .map_err(|e| CoreError::Config(format!("CGP_FAULTS: {e}")))?;
        }
        let ms = |var: &str| whole::<u64>(&lookup, var);
        opts.deadline = ms("CGP_DEADLINE_MS")?.map(Duration::from_millis);
        opts.stall_timeout = ms("CGP_STALL_MS")?.map(Duration::from_millis);
        let flag = |var: &str| -> Result<Option<bool>, CoreError> {
            match lookup(var) {
                Some(v) => match v.trim().to_ascii_lowercase().as_str() {
                    "1" | "true" | "yes" | "on" => Ok(Some(true)),
                    "0" | "false" | "no" | "off" | "" => Ok(Some(false)),
                    other => Err(CoreError::Config(format!(
                        "{var}: expected a boolean, got `{other}`"
                    ))),
                },
                None => Ok(None),
            }
        };
        if let Some(b) = flag("CGP_RECOVER")? {
            opts.recover = b;
        }
        if let Some(v) = lookup("CGP_TRANSPORT").filter(|v| !v.trim().is_empty()) {
            let t = v
                .parse()
                .map_err(|e| CoreError::Config(format!("CGP_TRANSPORT: {e}")))?;
            opts.transport = Some(t);
        }
        opts.heartbeat = ms("CGP_HEARTBEAT_MS")?
            .filter(|&n| n > 0)
            .map(Duration::from_millis);
        opts.max_worker_restarts = whole::<u32>(&lookup, "CGP_MAX_WORKER_RESTARTS")?;
        if let Some(v) = lookup("CGP_ROLE") {
            opts.role =
                Self::parse_role(&v).map_err(|e| CoreError::Config(format!("CGP_ROLE: {e}")))?;
        }
        // A deterministic self-SIGKILL (`CGP_KILL=f2[0]#5`) is honored
        // only by worker processes: the launcher that spawned them (and
        // its in-process failover run) shares the environment, and a
        // kill rule firing there would take the whole supervisor down.
        if let Some(spec) = lookup("CGP_KILL") {
            if !spec.is_empty() && matches!(opts.role, NetRole::Worker(_)) {
                let kills = FaultPlan::parse(&format!("kill@{spec}"))
                    .map_err(|e| CoreError::Config(format!("CGP_KILL: {e}")))?;
                opts.faults = std::mem::take(&mut opts.faults).merge(kills);
            }
        }
        for (var, slot) in [
            ("CGP_LISTEN", &mut opts.listen),
            ("CGP_CONNECT", &mut opts.connect),
            (TELEMETRY_LOG_ENV, &mut opts.telemetry_log),
            ("CGP_TELEMETRY", &mut opts.telemetry_addr),
        ] {
            if let Some(v) = lookup(var) {
                if !v.is_empty() {
                    *slot = Some(v);
                }
            }
        }
        if let Some(n) = ms(STATUS_EVERY_ENV)? {
            // 0 explicitly disables in-flight sampling (it is not an
            // error, and must never become a zero-interval spin loop).
            opts.status_every = Some(Duration::from_millis(n));
        }
        if let Some(spec) = lookup("CGP_AUTOSCALE") {
            opts.autoscale = AutoscaleConfig::parse(&spec)
                .map_err(|e| CoreError::Config(format!("CGP_AUTOSCALE: {e}")))?;
        }
        Ok(opts)
    }

    /// The run's telemetry sink, or `None` when the run has no telemetry:
    /// the one rule for whether it has. A run has telemetry when it
    /// samples (a nonzero [`ExecOptions::status_every`]; 0 is the
    /// explicit off switch, never a zero-interval spin), writes a log,
    /// ships to a launcher or autoscales (the width controller ticks on
    /// the sampler's clock). The sink samples every `status_every` (500
    /// ms when unset; 0 records only the final sample, with no sampler
    /// thread), prints a status line when it samples and no launcher
    /// merges the line instead, and creates [`ExecOptions::telemetry_log`].
    pub fn telemetry_sink(&self) -> Result<Option<TelemetrySampler>, CoreError> {
        let sampling = self.status_every.is_some_and(|d| d > Duration::ZERO);
        let logs_or_ships = self.telemetry_log.is_some() || self.telemetry_addr.is_some();
        if !(sampling || logs_or_ships || self.autoscale.is_some()) {
            return Ok(None);
        }
        let every = self.status_every.unwrap_or(Duration::from_millis(500));
        let sink = TelemetrySampler::new(every)
            .with_status_line(sampling && self.telemetry_addr.is_none());
        let Some(path) = &self.telemetry_log else {
            return Ok(Some(sink));
        };
        let sink = sink.with_log_path(path);
        sink.map(Some)
            .map_err(|e| CoreError::Config(format!("telemetry log `{path}`: {e}")))
    }

    /// Parse a role spec: `local`, `launcher`, or `worker:<stage>`
    /// (stage is zero-based).
    fn parse_role(spec: &str) -> Result<NetRole, String> {
        match spec.trim() {
            "" | "local" => Ok(NetRole::Local),
            "launcher" => Ok(NetRole::Launcher),
            s => {
                let stage = s.strip_prefix("worker:").and_then(|r| r.parse().ok());
                stage.map(NetRole::Worker).ok_or_else(|| {
                    format!("expected `local`, `launcher`, or `worker:<stage>`, got `{s}`")
                })
            }
        }
    }
}

/// Parse `var`'s value, if set, as a whole number of `T`. The error names
/// the variable, and says whether the value was not a whole number or is
/// out of `T`'s range.
fn whole<T: FromStr<Err = ParseIntError>>(
    lookup: &impl Fn(&str) -> Option<String>,
    var: &str,
) -> Result<Option<T>, CoreError> {
    let Some(v) = lookup(var) else {
        return Ok(None);
    };
    v.parse::<T>().map(Some).map_err(|e| {
        let why = match e.kind() {
            IntErrorKind::PosOverflow => "out of range",
            _ => "not a number",
        };
        CoreError::Config(format!("{var}: {why}: {v}"))
    })
}

/// Run a compiled plan on real threads through the DataCutter runtime.
/// `widths[j]` is the number of transparent copies of pipeline unit `j`
/// (`None` = all width 1); `opts` carries the fault-tolerance, telemetry
/// and engine knobs (`&ExecOptions::default()` for a plain run). Returns
/// the epilogue's `print` output and the runtime's per-stage statistics,
/// so callers can surface failure/recovery counters.
pub fn run_plan_threaded_stats(
    plan: Arc<FilterPlan>,
    host_builder: HostBuilder,
    widths: Option<&[usize]>,
    opts: &ExecOptions,
) -> Result<(Vec<String>, RunStats), CoreError> {
    let (pipeline, output) = build_pipeline(plan, host_builder, widths, opts)?;
    let stats = pipeline.run().map_err(CoreError::Runtime)?;
    let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
    Ok((std::mem::take(&mut *out), stats))
}

/// Run only pipeline unit `stage` of the plan in this process, as one
/// worker of a distributed run ([`Pipeline::run_worker`]).
///
/// The caller supplies the stage's ingress endpoint (required iff
/// `stage > 0` — made by [`WorkerIngress::bind`] before the run, so
/// launchers learn ephemeral ports and ring paths first) and the
/// downstream worker's address (required iff `stage` is not the last).
/// The egress transport is chosen by that address: `shm:<base>`
/// attaches to the downstream worker's shared-memory rings, anything
/// else is dialled over TCP. All workers must be given the same
/// program, compile options, and `widths` so they derive the same plan
/// and topology. The returned output lines are non-empty only for the
/// last stage's worker.
pub fn run_plan_worker_io(
    plan: Arc<FilterPlan>,
    host_builder: HostBuilder,
    stage: usize,
    ingress: Option<WorkerIngress>,
    connect: Option<String>,
    widths: Option<&[usize]>,
    opts: &ExecOptions,
) -> Result<(Vec<String>, RunStats), CoreError> {
    let (pipeline, output) = build_pipeline(plan, host_builder, widths, opts)?;
    let stats = pipeline
        .run_worker(WorkerEndpoints {
            stage,
            ingress,
            connect,
        })
        .map_err(CoreError::Runtime)?;
    let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
    Ok((std::mem::take(&mut *out), stats))
}

/// Shared plan→pipeline construction for local and worker runs: the
/// stage list (names `f1..fm` and factories) and every fault-tolerance
/// knob are identical in both modes, which is what makes
/// a distributed run byte-identical to the in-process one.
type BuiltPipeline = (Pipeline, Arc<Mutex<Vec<String>>>);

fn build_pipeline(
    plan: Arc<FilterPlan>,
    host_builder: HostBuilder,
    widths: Option<&[usize]>,
    opts: &ExecOptions,
) -> Result<BuiltPipeline, CoreError> {
    let m = plan.m;
    let widths: Vec<usize> = match widths {
        Some(w) => {
            if w.len() != m {
                return Err(CoreError::Config(format!(
                    "widths has {} entries for {} pipeline units",
                    w.len(),
                    m
                )));
            }
            if *w.last().expect("m >= 1") != 1 {
                return Err(CoreError::Config(
                    "the final (view) stage cannot be transparently copied — results are \
                     merged and viewed at one host"
                        .into(),
                ));
            }
            w.to_vec()
        }
        None => vec![1; m],
    };
    let output: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut pipeline = Pipeline::new(run_options(opts)?);
    for (j, &width) in widths.iter().enumerate() {
        let plan = Arc::clone(&plan);
        let hb = Arc::clone(&host_builder);
        let out = Arc::clone(&output);
        pipeline = pipeline.add_stage(StageSpec::new(
            format!("f{}", j + 1),
            width,
            Box::new(move |copy| {
                Box::new(PlanFilter {
                    plan: Arc::clone(&plan),
                    host_builder: Arc::clone(&hb),
                    j,
                    copy,
                    width,
                    m,
                    output: Arc::clone(&out),
                    lines: Vec::new(),
                })
            }),
        ));
    }
    Ok((pipeline, output))
}

/// The runtime's share of `opts`, as the one [`RunOptions`] value a run
/// takes. The telemetry sink and the registry a telemetered run needs
/// are built here, once per run.
fn run_options(opts: &ExecOptions) -> Result<RunOptions, CoreError> {
    let telemetry = opts.telemetry_sink()?.map(|sink| {
        let source = match opts.role {
            NetRole::Worker(k) => format!("worker:{k}"),
            _ => "local".to_string(),
        };
        let mut cfg = TelemetryConfig::new(Arc::new(sink), source);
        cfg.ship_to = opts.telemetry_addr.clone();
        cfg
    });
    // The final telemetry frame ships a registry snapshot (the launcher
    // merges them for calibration), so a telemetered run needs one even
    // when the caller won't read it.
    let metrics = opts
        .metrics
        .clone()
        .or_else(|| telemetry.as_ref().map(|_| Arc::default()));
    Ok(RunOptions {
        faults: opts.faults.clone(),
        deadline: opts.deadline,
        stall_timeout: opts.stall_timeout,
        metrics,
        restart_budget: if opts.recover {
            opts.max_worker_restarts.unwrap_or(RESTART_BUDGET)
        } else {
            0
        },
        net_tuning: NetTuning {
            heartbeat: opts.heartbeat,
            supervised: opts.recover,
        },
        telemetry,
        autoscale: opts.autoscale.clone(),
        ..RunOptions::default()
    })
}

struct PlanFilter {
    plan: Arc<FilterPlan>,
    host_builder: HostBuilder,
    j: usize,
    copy: usize,
    width: usize,
    m: usize,
    output: Arc<Mutex<Vec<String>>>,
    /// The final unit's epilogue lines, published to `output` by
    /// `finalize`, which a failed or cancelled attempt never reaches.
    lines: Vec<String>,
}

impl PlanFilter {
    /// Build a tagged packet in pooled storage (tag byte + payload).
    fn tagged(io: &mut FilterIo, tag: u8, payload: &[u8]) -> Buffer {
        let mut buf = io.alloc(payload.len() + 1);
        buf.push(tag);
        buf.extend_from_slice(payload);
        io.seal(buf)
    }
}

impl PlanFilter {
    fn run_unit_of_work(&mut self, io: &mut FilterIo) -> Result<(), CoreError> {
        let plan = Arc::clone(&self.plan);
        let j = self.j;
        let host = if plan.filters[j].needs_host {
            (self.host_builder)()
        } else {
            HostEnv::new()
        };
        let mut stepper = FilterStepper::new(&plan, &host)
            .map_err(CoreError::Compile)?
            .with_vm(true);
        // This copy runs only its own unit. Start it before reading any
        // input, so a failing prologue slice fails the copy up front and
        // a copy that never receives a packet still ships the roots its
        // unit holds.
        stepper.start(j).map_err(CoreError::Compile)?;

        if j == 0 {
            // Source: generate this copy's share of the packets, shipping
            // them in batches so downstream queue synchronization is
            // amortized over `BATCH` packets.
            let ((lo, hi), n_packets) = stepper.loop_bounds().map_err(CoreError::Compile)?;
            let mut pending: Vec<Buffer> = Vec::with_capacity(BATCH);
            for (i, (plo, phi)) in split_domain(lo, hi, n_packets as usize).iter().enumerate() {
                if i % self.width != self.copy {
                    continue;
                }
                let out = stepper
                    .step(0, (*plo, *phi), None)
                    .map_err(CoreError::Compile)?;
                if let Some(payload) = out {
                    pending.push(Self::tagged(io, TAG_DATA, &payload));
                    if pending.len() >= BATCH {
                        let batch = std::mem::replace(&mut pending, Vec::with_capacity(BATCH));
                        io.write_batch(batch).map_err(CoreError::Runtime)?;
                    }
                }
            }
            io.write_batch(pending).map_err(CoreError::Runtime)?;
        } else {
            // Interior/terminal: consume tagged buffers until end-of-work.
            while let Some(buf) = io.read() {
                let bytes = buf.as_slice();
                let (tag, body) = bytes
                    .split_first()
                    .ok_or_else(|| CoreError::Config("empty buffer".into()))?;
                match *tag {
                    TAG_DATA => {
                        // Packet header: lo, hi.
                        if body.len() < 16 {
                            return Err(CoreError::Config("short packet header".into()));
                        }
                        let lo = i64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                        let hi = i64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                        let out = stepper
                            .step(j, (lo, hi), Some(body))
                            .map_err(CoreError::Compile)?;
                        if let Some(payload) = out {
                            let fwd = Self::tagged(io, TAG_DATA, &payload);
                            io.write(fwd).map_err(CoreError::Runtime)?;
                        }
                    }
                    TAG_REDUCTION => {
                        let partial = decode_state(body).map_err(CoreError::Codec)?;
                        stepper
                            .merge_reduction(j, &partial)
                            .map_err(CoreError::Compile)?;
                    }
                    t => return Err(CoreError::Config(format!("unknown buffer tag {t}"))),
                }
            }
        }

        // End of work: ship the reduction roots this copy holds or
        // adopted downstream, or finish here.
        if j < self.m - 1 {
            let state = stepper.reduction_state(j);
            if !state.is_empty() {
                let buf = Self::tagged(io, TAG_REDUCTION, &encode_state(&state));
                io.write(buf).map_err(CoreError::Runtime)?;
            }
        } else {
            self.lines = stepper.epilogue_at(j).map_err(CoreError::Compile)?;
        }
        Ok(())
    }
}

impl Filter for PlanFilter {
    fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        self.run_unit_of_work(io).map_err(|e| match e {
            // Stream/injected errors are already structured — pass them
            // through so their kind survives (the executor renames them
            // to this stage's label).
            CoreError::Runtime(fe) => fe,
            other => cgp_datacutter::FilterError::new(
                format!("f{}[{}]", self.j + 1, self.copy),
                other.to_string(),
            ),
        })
    }

    fn finalize(&mut self, _io: &mut FilterIo) -> FilterResult<()> {
        self.output
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(&mut self.lines);
        Ok(())
    }

    fn name(&self) -> &str {
        "plan-filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_compiler::cost::PipelineEnv;
    use cgp_compiler::{compile, CompileOptions, Decomposition};
    use cgp_datacutter::width::provisioned_width;
    use cgp_lang::interp::Interp;
    use cgp_lang::{ArrayVal, Value};

    const SRC: &str = r#"
        extern int n;
        extern double[] data;
        runtime_define int num_packets;
        class Acc implements Reducinterface {
            double total;
            void reduce(Acc other) { total = total + other.total; }
            void add(double x) { total = total + x; }
        }
        class A {
            void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; num_packets) {
                    foreach (i in pkt) {
                        double v = data[i] * 2.0 + 1.0;
                        if (v > 60.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
            }
        }
    "#;

    fn host() -> HostEnv {
        let data = Value::array(ArrayVal::F64(
            (0..200).map(|i| (i * 13 % 101) as f64).collect(),
        ));
        HostEnv::new()
            .bind("n", Value::Int(200))
            .bind("num_packets", Value::Int(10))
            .bind("data", data)
    }

    fn oracle() -> Vec<String> {
        let tp = cgp_lang::frontend(SRC).unwrap();
        let mut it = Interp::new(&tp, host());
        it.run_main().unwrap();
        it.output
    }

    #[test]
    fn threaded_run_matches_oracle() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let (out, _) = run_plan_threaded_stats(
            Arc::new(c.plan),
            Arc::new(host),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out, oracle());
    }

    #[test]
    fn threaded_run_with_transparent_copies() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        for widths in [[1usize, 2, 1], [2, 2, 1], [4, 4, 1]] {
            let (out, _) = run_plan_threaded_stats(
                Arc::new(c.plan.clone()),
                Arc::new(host),
                Some(&widths),
                &ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(out, oracle(), "widths={widths:?}");
        }
    }

    #[test]
    fn single_unit_plan_runs() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(1, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let (out, _) = run_plan_threaded_stats(
            Arc::new(c.plan),
            Arc::new(host),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out, oracle());
    }

    #[test]
    fn injected_panic_is_isolated_and_named() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let exec = ExecOptions {
            faults: FaultPlan::new().panic_at("f2", 0, 3),
            deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let err = run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &exec)
            .expect_err("injected panic must fail the run");
        let CoreError::Runtime(fe) = err else {
            panic!("expected a runtime error, got {err}");
        };
        assert_eq!(fe.kind, cgp_datacutter::ErrorKind::Panicked);
        assert!(fe.filter.contains("f2"), "error names the stage: {fe}");
    }

    #[test]
    fn recovery_masks_an_injected_panic_and_matches_oracle() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let exec = ExecOptions {
            faults: FaultPlan::new().panic_at("f2", 0, 3),
            deadline: Some(Duration::from_secs(30)),
            recover: true,
            ..Default::default()
        };
        let (out, stats) =
            run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &exec).unwrap();
        assert_eq!(out, oracle(), "recovered run must be byte-identical");
        assert_eq!(stats.recoveries(), 1, "one restart for the one panic");
        assert_eq!(stats.stages[1].recoveries, 1, "charged to f2");
    }

    #[test]
    fn recovery_with_copies_recomputes_the_reduction_from_packet_zero() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        // Panic late (packet 4 of the ~5 this copy sees), after both f2
        // copies have folded packets into their partial reductions: the
        // restart discards every partial and recomputes from packet 0,
        // so no packet is lost or counted twice.
        let exec = ExecOptions {
            faults: FaultPlan::new().panic_at("f2", 1, 4),
            deadline: Some(Duration::from_secs(30)),
            recover: true,
            ..Default::default()
        };
        let widths = [1usize, 2, 1];
        let (out, stats) =
            run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), Some(&widths), &exec)
                .unwrap();
        assert_eq!(out, oracle(), "recovered run must be byte-identical");
        assert_eq!(stats.recoveries(), 1);
    }

    /// Autoscaling with a copy cap of `max`, other knobs at default.
    fn cap(max: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            max_width: max,
            ..Default::default()
        }
    }

    /// Host one worker per pipeline unit (on threads — the process
    /// boundary is exercised by the bench launcher; the carriers and
    /// topology are identical), stage `s` with `execs[s]`, and return
    /// every worker's result.
    fn host_workers(
        plan: &FilterPlan,
        widths: [usize; 3],
        execs: [ExecOptions; 3],
        transport: Transport,
    ) -> Vec<Result<(Vec<String>, RunStats), CoreError>> {
        let plan = Arc::new(plan.clone());
        // Every downstream ingress exists before any producer connects,
        // mirroring the launcher's bind-then-announce order. Producers per
        // link = the upstream stage's *provisioned* width (autoscale
        // provisions interior stages at the cap).
        let (mut ingresses, mut connects) = ([None, None, None], [None, None, None]);
        for s in 1..3 {
            let autoscale = execs[s - 1].autoscale.as_ref();
            let producers = provisioned_width(autoscale, s - 1, 3, widths[s - 1]);
            let (ingress, at) = WorkerIngress::bind(transport.fresh_addr(), producers).unwrap();
            ingresses[s] = Some(ingress);
            connects[s - 1] = Some(at);
        }
        let handles: Vec<_> = execs
            .into_iter()
            .enumerate()
            .map(|(s, exec)| {
                let plan = Arc::clone(&plan);
                let ingress = ingresses[s].take();
                let connect = connects[s].clone();
                std::thread::spawn(move || {
                    run_plan_worker_io(
                        plan,
                        Arc::new(host),
                        s,
                        ingress,
                        connect,
                        Some(&widths),
                        &exec,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Run the chain of workers to completion and return its output.
    fn run_distributed(
        plan: &FilterPlan,
        widths: [usize; 3],
        exec: ExecOptions,
        transport: Transport,
    ) -> Vec<String> {
        let execs = [exec.clone(), exec.clone(), exec];
        let results: Vec<_> = host_workers(plan, widths, execs, transport)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        // Only the last stage's worker produces output; interior workers
        // report network traffic on their links.
        assert!(results[0].0.is_empty() && results[1].0.is_empty());
        assert!(
            results[1]
                .1
                .net_links
                .iter()
                .any(|(l, st)| *l == 1 && st.frames > 0),
            "middle worker saw ingress traffic: {:?}",
            results[1].1.net_links
        );
        assert!(
            results[1]
                .1
                .net_links
                .iter()
                .any(|(l, st)| *l == 2 && st.frames > 0),
            "middle worker saw egress traffic: {:?}",
            results[1].1.net_links
        );
        results.into_iter().next_back().unwrap().0
    }

    #[test]
    fn distributed_workers_match_in_process_run() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let out = run_distributed(&c.plan, [1, 2, 1], ExecOptions::default(), Transport::Tcp);
        assert_eq!(out, oracle(), "distributed run must be byte-identical");
    }

    /// Mask a worker's fault the way the supervising launcher does under
    /// `--recover`: the worker never restarts itself, so the injected
    /// fault fails it, naming the copy; the chain is torn down, and a
    /// fresh chain on fresh links, respawned without the injected faults,
    /// reruns from packet 0. Threads cannot be killed as worker processes
    /// are, so the first chain's last worker runs unsupervised: its lost
    /// link fails it at once instead of waiting for a launcher's teardown.
    fn run_distributed_restarting(
        plan: &FilterPlan,
        widths: [usize; 3],
        exec: ExecOptions,
        transport: Transport,
    ) -> Vec<String> {
        let unsupervised = ExecOptions {
            recover: false,
            ..exec.clone()
        };
        let first = host_workers(
            plan,
            widths,
            [exec.clone(), exec.clone(), unsupervised],
            transport,
        );
        let err = first[1]
            .as_ref()
            .expect_err("the injected fault fails its worker");
        let CoreError::Runtime(fe) = err else {
            panic!("{transport:?}: expected a runtime error, got {err}");
        };
        assert_eq!(fe.kind, cgp_datacutter::ErrorKind::Panicked, "{fe}");
        assert_eq!(fe.filter, "f2[0]", "{transport:?}: {fe}");
        // The producer completes or loses its link; the last worker loses
        // its producer and publishes nothing.
        assert!(first[2].is_err(), "{transport:?}: {:?}", first[2]);
        let respawn = ExecOptions {
            faults: FaultPlan::new(),
            ..exec
        };
        run_distributed(plan, widths, respawn, transport)
    }

    #[test]
    fn distributed_recovery_masks_a_fault_and_matches_oracle() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let exec = ExecOptions {
            faults: FaultPlan::new().panic_at("f2", 0, 3),
            deadline: Some(Duration::from_secs(30)),
            recover: true,
            ..Default::default()
        };
        let out = run_distributed_restarting(&c.plan, [1, 2, 1], exec, Transport::Tcp);
        assert_eq!(out, oracle(), "restarted distributed run must match");
    }

    #[test]
    fn distributed_shm_workers_match_in_process_run() {
        if !cgp_datacutter::shm_supported() {
            return;
        }
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let out = run_distributed(&c.plan, [1, 2, 1], ExecOptions::default(), Transport::Shm);
        assert_eq!(out, oracle(), "shm-transport run must be byte-identical");
    }

    #[test]
    fn distributed_shm_recovery_masks_a_fault_and_matches_oracle() {
        if !cgp_datacutter::shm_supported() {
            return;
        }
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        // The failed chain's rings are dropped with its workers; the
        // restarted chain binds fresh ones and must deliver byte-identical
        // output regardless.
        let exec = ExecOptions {
            faults: FaultPlan::new().panic_at("f2", 0, 3),
            deadline: Some(Duration::from_secs(30)),
            recover: true,
            ..Default::default()
        };
        let out = run_distributed_restarting(&c.plan, [1, 2, 1], exec, Transport::Shm);
        assert_eq!(out, oracle(), "restarted shm run must match");
    }

    #[test]
    fn telemetered_run_matches_oracle_and_feeds_calibration() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let reg = Arc::new(Mutex::new(MetricsRegistry::default()));
        let exec = ExecOptions {
            status_every: Some(Duration::from_millis(5)),
            metrics: Some(Arc::clone(&reg)),
            ..Default::default()
        };
        let (out, stats) =
            run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &exec).unwrap();
        assert_eq!(out, oracle(), "telemetry must not perturb output");
        assert!(stats.e2e_us.count > 0, "end-to-end latencies recorded");
        assert!(stats.stages[1].residence_us.count > 0);
        let reg = reg.lock().unwrap();
        assert!(reg.get_counter("stage.f2.buffers_in") > 0);
        assert!(reg.get_counter("stage.f3.busy_us") > 0);
        assert!(reg.get_histogram("pipeline.e2e_us").is_some());
        let cal = cgp_compiler::CalibrationReport::from_run(&c.report, &reg)
            .expect("telemetered registry is calibratable");
        assert_eq!(cal.stages.len(), 3);
        let text = cal.render_text();
        assert!(text.contains("measured bottleneck"), "{text}");
    }

    #[test]
    fn autoscaled_run_matches_oracle_and_provisions_to_cap() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let exec = ExecOptions {
            autoscale: Some(AutoscaleConfig {
                max_width: 3,
                cooldown_ticks: 0,
                ..Default::default()
            }),
            status_every: Some(Duration::from_millis(2)),
            ..Default::default()
        };
        let (out, stats) =
            run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &exec).unwrap();
        assert_eq!(out, oracle(), "autoscaled run must be byte-identical");
        // The interior stage is provisioned at the cap (routing gates
        // decide how many copies see traffic); endpoints keep spec width.
        assert_eq!(stats.stages[1].busy_per_copy.len(), 3);
        assert_eq!(stats.stages[0].busy_per_copy.len(), 1);
        assert_eq!(stats.stages[2].busy_per_copy.len(), 1);
    }

    #[test]
    fn autoscale_config_errors_are_surfaced() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        // Autoscaling rides the sampler clock: an explicit zero cadence
        // contradicts it and is rejected rather than silently ignored.
        let no_clock = ExecOptions {
            autoscale: Some(AutoscaleConfig::default()),
            status_every: Some(Duration::ZERO),
            ..Default::default()
        };
        let err = run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &no_clock)
            .expect_err("autoscale without a sampling cadence must fail");
        assert!(err.to_string().contains("cadence"), "{err}");
    }

    #[test]
    fn autoscaled_distributed_run_matches_oracle() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        // Every worker derives the same provisioned widths from the
        // shared autoscale config, so boundary streams line up even
        // though each process widens (or not) on its own telemetry.
        let exec = ExecOptions {
            autoscale: Some(cap(3)),
            status_every: Some(Duration::from_millis(2)),
            ..Default::default()
        };
        let out = run_distributed(&c.plan, [1, 1, 1], exec, Transport::Tcp);
        assert_eq!(out, oracle(), "autoscaled distributed run must match");
    }

    #[cfg(unix)]
    #[test]
    fn autoscaled_distributed_shm_run_matches_oracle() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        // Over shared memory the ingress ring count is fixed at create
        // time, so it must be derived from the *provisioned* width of
        // the upstream stage — one ring per provisioned copy — or the
        // widened copies find no ring to write into.
        let exec = ExecOptions {
            autoscale: Some(cap(3)),
            status_every: Some(Duration::from_millis(2)),
            ..Default::default()
        };
        let out = run_distributed(&c.plan, [1, 1, 1], exec, Transport::Shm);
        assert_eq!(out, oracle(), "autoscaled shm run must match");
    }

    #[test]
    fn vm_and_interpreter_runs_are_byte_identical() {
        // The threaded runtime runs every lifecycle stage on the VM;
        // `run_plan_sequential` interprets the same plan, and `run_main`
        // interprets the uncompiled program.
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let sequential = cgp_compiler::run_plan_sequential(&c.plan, &host()).unwrap();
        let (threaded, _) = run_plan_threaded_stats(
            Arc::new(c.plan),
            Arc::new(host),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(
            threaded, sequential,
            "runtime diverged from the sequential plan"
        );
        assert_eq!(threaded, oracle());
    }

    #[test]
    fn vm_run_under_injected_fault_and_recovery_matches_oracle() {
        // The chaos case: a panic injected mid-stream, masked by the
        // whole-run restart, must stay byte-identical.
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let exec = ExecOptions {
            faults: FaultPlan::new().panic_at("f2", 0, 3),
            deadline: Some(Duration::from_secs(30)),
            recover: true,
            ..Default::default()
        };
        let (out, stats) =
            run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &exec).unwrap();
        assert_eq!(out, oracle());
        assert_eq!(stats.recoveries(), 1);
    }

    /// [`SRC`] whose reduction also counts merges: each `reduce` adds one
    /// plus the partial's own count, so the final count is the number of
    /// states shipped across the whole run.
    const COUNTING_SRC: &str = r#"
        extern int n;
        extern double[] data;
        runtime_define int num_packets;
        class Acc implements Reducinterface {
            double total;
            int merges;
            void reduce(Acc other) {
                total = total + other.total;
                merges = merges + other.merges + 1;
            }
            void add(double x) { total = total + x; }
        }
        class A {
            void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; num_packets) {
                    foreach (i in pkt) {
                        double v = data[i] * 2.0 + 1.0;
                        if (v > 60.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
                print(acc.merges);
            }
        }
    "#;

    #[test]
    fn idle_copy_starts_and_ships_its_state() {
        // Two packets into four f2 copies: at least two copies get no
        // packet. Each must still start its unit and, if it holds or
        // adopted a reduction root, ship it once.
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 2).with_symbol("n", 200);
        let two_packets = || host().bind("num_packets", Value::Int(2));
        let tp = cgp_lang::frontend(COUNTING_SRC).unwrap();
        let mut it = Interp::new(&tp, two_packets());
        it.run_main().unwrap();
        let run = |plan: FilterPlan| {
            let (out, stats) = run_plan_threaded_stats(
                Arc::new(plan),
                Arc::new(two_packets),
                Some(&[1, 4, 1]),
                &ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(
                out[0], it.output[0],
                "the reduction total matches the oracle"
            );
            (out[1].clone(), stats.stages[1].buffers_in)
        };

        // `acc.add` on f2: all four copies hold `acc`, the idle ones
        // included. f1 holds nothing and ships no state.
        let forced = opts.clone().with_decomposition(Decomposition {
            unit_of: vec![0, 0, 0, 0, 1],
            cost: f64::NAN,
        });
        let plan = compile(COUNTING_SRC, &forced).unwrap().plan;
        assert_eq!(plan.filters[1].holds, ["acc"]);
        assert_eq!(
            run(plan),
            ("3".into(), 2),
            "f3 adopts one of the four f2 states and merges three"
        );

        // The DP puts every atom on f1: one f2 copy adopts f1's state and
        // forwards it, f3 adopts that, and nothing merges.
        let plan = compile(COUNTING_SRC, &opts).unwrap().plan;
        assert_eq!(plan.decomposition.unit_of, [0; 5]);
        assert_eq!(run(plan), ("0".into(), 3), "two packets plus f1's state");
    }

    #[test]
    fn a_reduction_seeded_in_the_prologue_counts_once() {
        // Only the holder's slice runs `acc.add(10.0)`; every other unit
        // adopts the holder's copy instead of merging a seeded one.
        let src = SRC.replace(
            "Acc acc = new Acc();",
            "Acc acc = new Acc();
                acc.add(10.0);",
        );
        let tp = cgp_lang::frontend(&src).unwrap();
        let mut it = Interp::new(&tp, host());
        it.run_main().unwrap();
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let cut = opts.clone().with_decomposition(Decomposition {
            unit_of: vec![0, 0, 0, 0, 1],
            cost: f64::NAN,
        });
        for opts in [opts, cut] {
            let plan = compile(&src, &opts).unwrap().plan;
            let unit_of = plan.decomposition.unit_of.clone();
            let sequential = cgp_compiler::run_plan_sequential(&plan, &host()).unwrap();
            assert_eq!(sequential, it.output, "sequential {unit_of:?}");
            let (threaded, _) = run_plan_threaded_stats(
                Arc::new(plan),
                Arc::new(host),
                None,
                &ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(threaded, it.output, "threaded {unit_of:?}");
        }
    }

    #[test]
    fn failing_prologue_fails_the_run_with_the_diagnostic() {
        let src = SRC
            .replace(
                "void add(double x) { total = total + x; }",
                "void add(double x) { total = total + x; }
             void setup() { double[] t = new double[2]; t[5] = 1.0; }",
            )
            .replace(
                "Acc acc = new Acc();",
                "Acc acc = new Acc();
             acc.setup();",
            );
        let tp = cgp_lang::frontend(&src).unwrap();
        let diag = Interp::new(&tp, host())
            .run_main()
            .expect_err("the oracle fails in the prologue");
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(&src, &opts).unwrap();
        let exec = ExecOptions {
            deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let err = run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &exec)
            .expect_err("a failing prologue must fail the run");
        let CoreError::Runtime(fe) = &err else {
            panic!("expected a runtime error naming a stage, got {err}");
        };
        assert!(
            ["f1", "f2", "f3"].iter().any(|s| fe.filter.contains(s)),
            "error names a stage: {fe}"
        );
        assert!(
            fe.to_string().contains(&diag.message),
            "error carries the interpreter's diagnostic {:?}: {fe}",
            diag.message
        );
    }

    #[test]
    fn parse_role_accepts_the_documented_forms() {
        assert_eq!(ExecOptions::parse_role("local").unwrap(), NetRole::Local);
        assert_eq!(ExecOptions::parse_role("").unwrap(), NetRole::Local);
        assert_eq!(
            ExecOptions::parse_role("launcher").unwrap(),
            NetRole::Launcher
        );
        assert_eq!(
            ExecOptions::parse_role("worker:2").unwrap(),
            NetRole::Worker(2)
        );
        assert!(ExecOptions::parse_role("worker").is_err());
        assert!(ExecOptions::parse_role("worker:x").is_err());
        assert!(ExecOptions::parse_role("supervisor").is_err());
    }

    /// One rule decides whether a run has telemetry: sampling (a nonzero
    /// cadence), a log, a launcher address or autoscaling turns it on.
    /// The sink's status line prints only when it samples and no launcher
    /// merges the line.
    #[test]
    fn telemetry_sink_follows_one_rule() {
        let log = std::env::temp_dir().join(format!("cgp-sink-{}.jsonl", std::process::id()));
        let ms = |n| Some(Duration::from_millis(n));
        // (status_every, log, launcher address, autoscale) → the sink's
        // (cadence in ms, status line), or no telemetry.
        let cases = [
            ((None, false, false, false), None),
            ((ms(0), false, false, false), None),
            ((ms(1), false, false, false), Some((1, true))),
            ((ms(500), false, false, false), Some((500, true))),
            // A zero cadence with a log attaches telemetry without a
            // sampler thread.
            ((ms(0), true, false, false), Some((0, false))),
            ((None, true, false, false), Some((500, false))),
            ((ms(5), false, true, false), Some((5, false))),
            ((None, false, true, false), Some((500, false))),
            ((None, false, false, true), Some((500, false))),
            ((ms(50), true, false, true), Some((50, true))),
        ];
        for ((status_every, logs, ships, scales), want) in cases {
            let opts = ExecOptions {
                status_every,
                telemetry_log: logs.then(|| log.display().to_string()),
                telemetry_addr: ships.then(|| "127.0.0.1:9".to_string()),
                autoscale: scales.then(AutoscaleConfig::default),
                ..Default::default()
            };
            let sink = opts.telemetry_sink().unwrap();
            let got = sink.map(|s| (s.every().as_millis() as u64, s.shows_status_line()));
            assert_eq!(got, want, "{opts:?}");
        }
        let _ = std::fs::remove_file(&log);
        let unwritable = ExecOptions {
            telemetry_log: Some("/nonexistent-dir/t.jsonl".to_string()),
            ..Default::default()
        };
        let err = unwritable.telemetry_sink().unwrap_err().to_string();
        assert!(err.contains("telemetry log `/nonexistent-dir/"), "{err}");
    }

    #[test]
    fn status_every_zero_runs_to_completion() {
        // A zero cadence must not spin, divide by zero, or change the
        // output — it simply runs without the sampler thread.
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let exec = ExecOptions {
            status_every: Some(Duration::ZERO),
            ..Default::default()
        };
        let (out, _) =
            run_plan_threaded_stats(Arc::new(c.plan), Arc::new(host), None, &exec).unwrap();
        assert_eq!(out, oracle());
    }

    #[test]
    fn bad_widths_rejected() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 20).with_symbol("n", 200);
        let c = compile(SRC, &opts).unwrap();
        let err = run_plan_threaded_stats(
            Arc::new(c.plan),
            Arc::new(host),
            Some(&[1, 2]),
            &ExecOptions::default(),
        );
        assert!(err.is_err());
    }
}
