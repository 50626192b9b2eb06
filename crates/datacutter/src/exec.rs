//! Threaded pipeline executor.
//!
//! Builds the logical streams between consecutive stages (honouring each
//! stage's transparent-copy width) and runs every filter copy through the
//! unit-of-work cycle `init → process → finalize → close-output`: the
//! last stage's first copy on the calling thread, every other copy on a
//! thread of its own.
//!
//! ## Failure semantics
//!
//! The executor is panic-isolated and deadlock-averse:
//!
//! - **Panic isolation** — a panic inside any filter phase is caught per
//!   copy and converted into a structured
//!   [`ErrorKind::Panicked`](crate::error::ErrorKind) error naming the
//!   `stage[copy]`, and other copies' stats updates never see a poisoned
//!   lock.
//! - **Failure** — a copy that fails records its error before its output
//!   closes, so a downstream failure it causes never outranks it as the
//!   run's error. Without a restart budget it then drains its input, so
//!   its neighbours finish and the run fails with its error.
//! - **Fault injection** — a [`FaultPlan`] injects deterministic
//!   fail/panic/delay/drop faults at stage × copy × packet index
//!   ([`RunOptions::faults`]).
//! - **Restart** — with a restart budget ([`RunOptions::restart_budget`])
//!   a failed run restarts whole: the first failure cancels the attempt,
//!   so every blocked copy wakes and no copy of the cancelled attempt
//!   runs `finalize` (it publishes nothing), and once every copy has
//!   joined, every stage reruns from packet 0 on fresh streams with
//!   fresh filter instances. The restart is charged to the stage that
//!   failed; once that stage has used its budget, its failure is the
//!   run's error. Fault injectors outlive the attempt, so a rule at
//!   packet n fires once per run and an every-packet rule fails every
//!   attempt. A worker ([`Pipeline::run_worker`]) never restarts itself:
//!   a failed copy fails the worker, and its supervising launcher
//!   restarts the whole chain the same way.
//! - **Deadline & stall detection** — [`RunOptions::deadline`] /
//!   [`RunOptions::stall_timeout`] arm a watchdog that cancels the
//!   run's channels, wakes every blocked copy, and reports *where* the
//!   pipeline was blocked (using the `blocked_send`/`blocked_recv`
//!   instrumentation) instead of hanging. The deadline spans every
//!   attempt, and a stall is never restarted. Cancellation is
//!   cooperative: filters blocked in stream operations unwedge
//!   automatically; long compute loops should poll
//!   [`FilterIo::cancelled`].
//!
//! Failures surface as counters on [`StageStats`] (`failures`, `panics`,
//! `recoveries`, `dropped`), as `fault`-category trace events and one
//! `restart` event per restart through `cgp_obs`, and optionally into a
//! shared [`MetricsRegistry`] ([`RunOptions::metrics`]).

use crate::buffer::BufferPool;
use crate::error::{ErrorKind, FilterError, FilterResult};
use crate::fault::{FaultInjector, FaultPlan, RunControl};
use crate::filter::{FilterFactory, FilterIo};
use crate::link::{egress_pump, serve_ingress, NetLinkStats, NetTuning, WorkerIngress};
use crate::net::TelemetryClient;
use crate::stream::{logical_stream, StreamReader, StreamWriter};
use crate::telemetry::{
    build_sample, encode_telemetry_payload, now_us, CopyProbe, LinkProbe, StageProbe,
    TelemetryConfig,
};
use crate::width::{
    provisioned_width, AutoscaleConfig, AutoscaleReport, StageWidth, WidthController,
};
use cgp_obs::metrics::{Histogram, MetricsRegistry};
use cgp_obs::trace::{self, PID_RUNTIME};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

/// Poison-tolerant lock: a panicked copy must not turn every other
/// copy's bookkeeping into a second panic.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Marks filter-copy worker threads so the process panic hook stays
    /// quiet for panics the executor catches and converts.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread quiet for one filter copy and restores the
/// previous mark when the copy returns or unwinds, so the calling thread,
/// which hosts a copy too, keeps its own panic output afterwards.
struct QuietPanics(bool);

impl QuietPanics {
    fn enter() -> QuietPanics {
        QuietPanics(QUIET_PANICS.with(|q| q.replace(true)))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        QUIET_PANICS.with(|q| q.set(self.0));
    }
}

static HOOK_INIT: Once = Once::new();

/// Install (once per process) a panic-hook wrapper that suppresses the
/// default "thread panicked" stderr noise for isolated filter copies.
/// Panics on every other thread keep the previous hook's behaviour.
fn install_quiet_panic_hook() {
    HOOK_INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Render a caught panic payload (usually `&str` or `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One pipeline stage: a logical filter with `width` transparent copies.
pub struct StageSpec {
    pub name: String,
    pub width: usize,
    pub factory: FilterFactory,
}

impl StageSpec {
    pub fn new(name: impl Into<String>, width: usize, factory: FilterFactory) -> Self {
        assert!(width >= 1);
        StageSpec {
            name: name.into(),
            width,
            factory,
        }
    }
}

/// Per-stage statistics from a run. The traffic, blocked and busy
/// figures are read off the stage's probe when the run ends, so they are
/// counted on every run; telemetry adds only the latency histogram. A
/// restarted run reports its last attempt's figures, and its failure
/// counters over every attempt.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    pub name: String,
    pub buffers_in: u64,
    pub bytes_in: u64,
    pub buffers_out: u64,
    pub bytes_out: u64,
    /// Wall-clock busy time **summed over copies**: with `w` transparent
    /// copies running concurrently this can legitimately exceed
    /// [`RunStats::wall`] (up to `w × wall`). Use [`busy_per_copy`]
    /// for per-thread intervals and `busy / width` for an average.
    ///
    /// [`busy_per_copy`]: StageStats::busy_per_copy
    pub busy: Duration,
    /// Wall-clock busy time of each transparent copy, indexed by copy;
    /// `busy` is exactly the sum of these entries.
    pub busy_per_copy: Vec<Duration>,
    /// Total time this stage's copies spent blocked in sends
    /// (throttled by downstream backpressure), summed over copies.
    pub blocked_send: Duration,
    /// Total time this stage's copies spent blocked in receives
    /// (starved for upstream data), summed over copies.
    pub blocked_recv: Duration,
    /// Copies of this stage that failed on their own, over every attempt
    /// of the run (a copy a failure elsewhere cancelled does not count).
    pub failures: u64,
    /// Packets injected `drop` faults discarded across this stage's
    /// copies: intentional loss, which a restart does not resurrect.
    pub dropped: u64,
    /// Copies that ended in a caught panic, over every attempt.
    pub panics: u64,
    /// Packet-storage allocations served from the run's [`BufferPool`]
    /// (zero when the pipeline runs without a pool).
    pub pool_hits: u64,
    /// Packet-storage allocations that fell through to the heap.
    pub pool_misses: u64,
    /// Restarts of the whole run charged to this stage.
    pub recoveries: u64,
    /// Per-packet residence latency at this stage (upstream send →
    /// delivery here), µs. Populated only when telemetry is attached
    /// ([`RunOptions::telemetry`]); empty otherwise.
    pub residence_us: Histogram,
}

/// Result of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub wall: Duration,
    pub stages: Vec<StageStats>,
    /// Per-link network transfer counters from a distributed run
    /// ([`Pipeline::run_worker`]), keyed by the downstream stage index of
    /// the link. Empty for in-process runs.
    pub net_links: Vec<(u32, NetLinkStats)>,
    /// Pipeline-wide end-to-end latency (ingest origin → delivery at the
    /// final stage), µs. Populated only when telemetry is attached and
    /// the final stage ran in this process; empty otherwise.
    pub e2e_us: Histogram,
    /// Width decisions the elastic controller made during this run
    /// ([`RunOptions::autoscale`]); empty for fixed-width runs.
    pub autoscale: AutoscaleReport,
}

impl RunStats {
    /// Failed copies summed over stages (a successful run can still
    /// have non-zero failures if restarts recovered them).
    pub fn failures(&self) -> u64 {
        self.stages.iter().map(|s| s.failures).sum()
    }

    /// Packets dropped by injected faults, summed over stages.
    pub fn dropped(&self) -> u64 {
        self.stages.iter().map(|s| s.dropped).sum()
    }

    /// Caught panics summed over stages.
    pub fn panics(&self) -> u64 {
        self.stages.iter().map(|s| s.panics).sum()
    }

    /// Restarts of the run, summed over the stages they were charged to.
    pub fn recoveries(&self) -> u64 {
        self.stages.iter().map(|s| s.recoveries).sum()
    }
}

/// Where a worker process's stage attaches to the rest of a distributed
/// pipeline ([`Pipeline::run_worker`]).
#[derive(Debug)]
pub struct WorkerEndpoints {
    /// Index of the stage this process executes.
    pub stage: usize,
    /// Ingress endpoint for the link from the upstream stage's process
    /// (required iff `stage > 0`).
    pub ingress: Option<WorkerIngress>,
    /// Address of the downstream stage's listener (required iff `stage`
    /// is not the last stage). A `shm:<base>` address selects the
    /// shared-memory transport; anything else is dialled over TCP.
    pub connect: Option<String>,
}

/// How one pipeline run behaves: every setting apart from the stage list.
///
/// [`RunOptions::default`] is the data plane every compiled plan runs:
/// 32-packet queues, up to 8 packets moved per lock, a [`BufferPool`],
/// no faults, no watchdog, no restarts, default [`NetTuning`], no
/// telemetry and fixed widths. Set fields with struct update syntax:
///
/// ```
/// use cgp_datacutter::RunOptions;
/// use std::time::Duration;
///
/// let opts = RunOptions {
///     capacity: 8,
///     deadline: Some(Duration::from_secs(30)),
///     ..Default::default()
/// };
/// assert_eq!(opts.batch, 8);
/// ```
///
/// [`Pipeline::run`] checks the settings before any copy starts: a zero
/// capacity, or autoscaling without a sampling cadence, is a named error.
#[derive(Clone)]
pub struct RunOptions {
    /// Queue depth (buffers in flight) per stream; provides backpressure.
    /// Must be at least 1.
    pub capacity: usize,
    /// Max packets moved per lock acquisition on every stream (adaptive:
    /// a busy consumer drains up to `batch` queued packets after each
    /// blocking receive, an idle one keeps per-packet latency). 1 is
    /// strict per-packet synchronization; 0 counts as 1.
    pub batch: usize,
    /// Recycle packet storage through a shared [`BufferPool`]: filters
    /// that build packets via [`FilterIo::alloc`]/[`FilterIo::seal`] get
    /// recycled allocations, and per-stage hit/miss counts land in
    /// [`StageStats`] (and the metrics registry, when attached).
    pub pool: Option<BufferPool>,
    /// Deterministic fault-injection plan (chaos testing); an empty plan
    /// injects nothing.
    pub faults: FaultPlan,
    /// Hard wall-clock limit for the run, over every attempt. On expiry
    /// the watchdog cancels every stream, blocked copies unwedge, and the
    /// run returns a structured [`ErrorKind::Stalled`] error naming where
    /// copies were blocked, instead of hanging.
    pub deadline: Option<Duration>,
    /// Cancel the run if no packet moves anywhere in the pipeline for
    /// this long (should comfortably exceed the slowest per-packet
    /// compute time).
    pub stall_timeout: Option<Duration>,
    /// Registry each attempt publishes its counters into when it ends:
    /// per-stage failures, drops, panics, restarts and pool counts,
    /// per-link network counters, per-stage rates (busy, blocked and
    /// buffer counts), and, with telemetry, latency histograms.
    pub metrics: Option<Arc<Mutex<MetricsRegistry>>>,
    /// Whole-run restarts each stage may be charged before its failure
    /// becomes the run's error (see the module docs). With a budget, the
    /// first failure cancels the attempt; 0 fails the run on its first
    /// failure, letting the other copies finish. A worker never restarts
    /// itself, but a budget still cancels its attempt on a failure, so
    /// no end-of-work crosses its links.
    pub restart_budget: u32,
    /// Liveness of the distributed links: heartbeat cadence and silence
    /// deadline on TCP links, and supervised ingress, where a vanished
    /// producer leaves the link waiting for the launcher to tear the
    /// chain down instead of failing the run. Inert for in-process runs.
    pub net_tuning: NetTuning,
    /// Latency telemetry and live sampling. The per-stage and per-link
    /// counters run on every run; this adds the rest. Packets are stamped
    /// at ingest so [`StageStats::residence_us`] and [`RunStats::e2e_us`]
    /// report real p50/p95/p99 latencies, and a sampler thread snapshots
    /// queue depth, per-copy busy/active time, latency percentiles and
    /// net-link counters on the sampler's cadence, without stopping the
    /// pipeline. When `ship_to` is set, every sample (and the final
    /// registry snapshot) is also shipped to the launcher as a
    /// `Telemetry` frame (see [`crate::net::serve_telemetry`]).
    pub telemetry: Option<TelemetryConfig>,
    /// Elastic copy-width autoscaling; requires telemetry with a nonzero
    /// sampling cadence (the controller ticks on the sampler's clock).
    /// Interior stages are provisioned at `max(spec width,
    /// cfg.max_width)` transparent copies; only the active prefix
    /// receives packets, and a [`WidthController`] grows and shrinks that
    /// prefix online from the live probes. Endpoint stages never scale:
    /// the source partitions the domain by copy at startup, and the final
    /// stage is the reduction's convergence point. Decisions land in
    /// [`RunStats::autoscale`].
    pub autoscale: Option<AutoscaleConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            capacity: 32,
            batch: 8,
            pool: Some(BufferPool::new()),
            faults: FaultPlan::default(),
            deadline: None,
            stall_timeout: None,
            metrics: None,
            restart_budget: 0,
            net_tuning: NetTuning::default(),
            telemetry: None,
            autoscale: None,
        }
    }
}

/// A linear pipeline of stages connected by logical streams, run under
/// one [`RunOptions`].
pub struct Pipeline {
    stages: Vec<StageSpec>,
    opts: RunOptions,
}

/// Fault injectors indexed `[stage][copy]`; they outlive every attempt.
type Injectors = Vec<Vec<Option<FaultInjector>>>;

/// What one attempt produced: its stats, and its root-cause error with
/// the index of the stage that raised it.
type Attempt = (RunStats, Option<(usize, FilterError)>);

impl Pipeline {
    /// An empty pipeline that runs under `opts`.
    pub fn new(opts: RunOptions) -> Self {
        Pipeline {
            stages: Vec::new(),
            opts,
        }
    }

    pub fn add_stage(mut self, stage: StageSpec) -> Self {
        self.stages.push(stage);
        self
    }

    /// Run one unit of work through the whole pipeline in this process,
    /// restarting the whole run on a failure while the failed stage's
    /// [`RunOptions::restart_budget`] lasts.
    pub fn run(self) -> FilterResult<RunStats> {
        self.run_inner(None)
    }

    /// Run only `endpoints.stage` of the pipeline in this process,
    /// bridging its boundary streams over TCP (see [`crate::net`]).
    ///
    /// Every worker process is built with the *same* stage list (names,
    /// widths, factories); `endpoints` selects which stage this process
    /// executes. The stage's copies still talk to ordinary local streams
    /// — an ingress serve loop replays the upstream producers onto a
    /// local stream with the in-process round-robin routing, and one
    /// egress pump per copy relays its output to the downstream worker —
    /// so batching, backpressure, cancellation and fault injection
    /// behave exactly as under [`Pipeline::run`], and the distributed
    /// run's results are byte-identical to the in-process run's. A
    /// worker never restarts itself: a failed copy fails the worker,
    /// naming its `stage[copy]`, and a supervising launcher restarts the
    /// whole chain.
    pub fn run_worker(self, endpoints: WorkerEndpoints) -> FilterResult<RunStats> {
        self.run_inner(Some(endpoints))
    }

    fn run_inner(self, mut worker: Option<WorkerEndpoints>) -> FilterResult<RunStats> {
        let Pipeline { stages, opts } = self;
        if stages.is_empty() {
            return Err(FilterError::new("pipeline", "no stages"));
        }
        if opts.capacity == 0 {
            return Err(FilterError::new(
                "pipeline",
                "stream capacity must be at least 1 (RunOptions::capacity is 0)",
            ));
        }
        if opts.autoscale.is_some()
            && opts
                .telemetry
                .as_ref()
                .is_none_or(|t| t.sampler.every() <= Duration::ZERO)
        {
            return Err(FilterError::new(
                "pipeline",
                "autoscaling requires telemetry with a nonzero sampling cadence \
                 (the width controller ticks on the sampler's clock)",
            ));
        }
        let n = stages.len();
        if let Some(w) = &worker {
            if w.stage >= n {
                return Err(FilterError::new(
                    "pipeline",
                    format!("worker stage {} out of range ({n} stages)", w.stage),
                ));
            }
            if (w.stage > 0) != w.ingress.is_some() {
                return Err(FilterError::new(
                    "pipeline",
                    if w.stage > 0 {
                        "a worker for a non-first stage needs an ingress endpoint \
                         (a TCP listener or a shm ingress)"
                    } else {
                        "the first stage has no ingress link but an ingress endpoint was provided"
                    },
                ));
            }
            if (w.stage < n - 1) != w.connect.is_some() {
                return Err(FilterError::new(
                    "pipeline",
                    if w.stage < n - 1 {
                        "a worker for a non-last stage needs a connect address for its \
                         egress link"
                    } else {
                        "the last stage has no egress link but a connect address was provided"
                    },
                ));
            }
        }
        install_quiet_panic_hook();
        let t0 = Instant::now();
        // Elastic width: interior stages are provisioned at
        // max(spec width, max_width) transparent copies — threads,
        // queues, probes — with only the active prefix (initially the
        // spec width) in the round-robin rotation. Lazily spawning
        // copies on grow would deadlock (an unspawned copy's writers
        // never close, so downstream readers wait for its Ends forever);
        // a parked provisioned copy just blocks in its first receive.
        // Endpoints keep their spec width: the source partitions the
        // domain by copy at startup and the final stage is the
        // reduction's convergence point. Every process of a distributed
        // run derives the same provisioned widths from the shared
        // autoscale config, so ingress/egress connection counts agree
        // across process boundaries.
        let eff_width: Vec<usize> = (0..n)
            .map(|s| provisioned_width(opts.autoscale.as_ref(), s, n, stages[s].width))
            .collect();
        let mut injectors: Injectors = stages
            .iter()
            .zip(&eff_width)
            .map(|(st, &w)| (0..w).map(|c| opts.faults.injector(&st.name, c)).collect())
            .collect();
        let budget = if worker.is_some() {
            0
        } else {
            opts.restart_budget
        };
        let mut charged = vec![0u32; n];
        let (mut failures, mut panics) = (vec![0u64; n], vec![0u64; n]);
        loop {
            let (mut stats, error) = attempt(
                &stages,
                &opts,
                worker.take(),
                &eff_width,
                &mut injectors,
                t0,
            );
            for (s, st) in stats.stages.iter().enumerate() {
                failures[s] += st.failures;
                panics[s] += st.panics;
            }
            let Some((s, e)) = error else {
                for (s, st) in stats.stages.iter_mut().enumerate() {
                    (st.failures, st.panics) = (failures[s], panics[s]);
                    st.recoveries = u64::from(charged[s]);
                }
                return Ok(stats);
            };
            // A stall is the run's own limit, not a fault to recompute.
            if matches!(e.kind, ErrorKind::Stalled | ErrorKind::Cancelled) || charged[s] >= budget {
                return Err(e);
            }
            charged[s] += 1;
            let name = &stages[s].name;
            trace::instant(
                "restart",
                "recovery",
                PID_RUNTIME,
                0,
                vec![
                    ("stage", name.clone().into()),
                    ("restart", u64::from(charged[s]).into()),
                    ("error", e.to_string().into()),
                ],
            );
            if let Some(registry) = &opts.metrics {
                plock(registry).counter(&format!("stage.{name}.recoveries"), 1);
            }
        }
    }
}

/// Run every copy of `stages` once — all of them in this process, or
/// only `worker`'s stage — on fresh streams, and join them. `t0` is when
/// the run started: the deadline and the reported times span every
/// attempt.
fn attempt(
    stages: &[StageSpec],
    opts: &RunOptions,
    worker: Option<WorkerEndpoints>,
    eff_width: &[usize],
    injectors: &mut Injectors,
    t0: Instant,
) -> Attempt {
    let n = stages.len();
    let batch = opts.batch.max(1);
    let restarting = opts.restart_budget > 0;
    let control = RunControl::new();
    let (active_stage, ingress, connect) = match worker {
        Some(w) => (Some(w.stage), w.ingress, w.connect),
        None => (None, None, None),
    };
    let stage_widths: Vec<Option<Arc<StageWidth>>> = (0..n)
        .map(|s| {
            (opts.autoscale.is_some() && s > 0 && s < n - 1)
                .then(|| StageWidth::new(stages[s].width, eff_width[s]))
        })
        .collect();

    // Build streams between consecutive stages. A worker process only
    // materialises its own stage's boundary streams: the ingress link
    // keeps the full upstream-width → local-width topology (writer `p` is
    // driven by remote producer `p`, so round-robin routing is reproduced
    // exactly), while each copy's egress is a private 1→1 stream drained
    // by a socket pump.
    let mut writers_per_stage: Vec<Vec<Option<StreamWriter>>> = eff_width
        .iter()
        .map(|&w| (0..w).map(|_| None).collect())
        .collect();
    let mut readers_per_stage: Vec<Vec<Option<StreamReader>>> = eff_width
        .iter()
        .map(|&w| (0..w).map(|_| None).collect())
        .collect();
    let mut ingress_writers: Vec<StreamWriter> = Vec::new();
    let mut egress_readers: Vec<StreamReader> = Vec::new();
    let stream = |producers, consumers| {
        logical_stream(producers, consumers, opts.capacity, Arc::clone(&control))
    };
    match active_stage {
        None => {
            for s in 0..n.saturating_sub(1) {
                let (ws, rs) = stream(eff_width[s], eff_width[s + 1]);
                for (i, w) in ws.into_iter().enumerate() {
                    writers_per_stage[s][i] = Some(w);
                }
                for (i, r) in rs.into_iter().enumerate() {
                    readers_per_stage[s + 1][i] = Some(r);
                }
            }
        }
        Some(k) => {
            if k > 0 {
                let (ws, rs) = stream(eff_width[k - 1], eff_width[k]);
                ingress_writers = ws;
                for (i, r) in rs.into_iter().enumerate() {
                    readers_per_stage[k][i] = Some(r);
                }
            }
            if k < n - 1 {
                for slot in writers_per_stage[k].iter_mut() {
                    let (mut ws, mut rs) = stream(1, 1);
                    *slot = ws.pop();
                    egress_readers.push(rs.pop().expect("1→1 stream"));
                }
            }
        }
    }
    // Attach the width gates to every writer feeding a scalable
    // stage. In a worker process the gate for stage k sits on the
    // ingress writers — this process holds the queues feeding its
    // own stage — so each worker controls its own stage's active
    // width without any cross-process coordination.
    match active_stage {
        None => {
            for s in 0..n.saturating_sub(1) {
                if let Some(w) = &stage_widths[s + 1] {
                    for writer in writers_per_stage[s].iter_mut().flatten() {
                        writer.set_active_width(Arc::clone(w));
                    }
                }
            }
        }
        Some(k) => {
            if let Some(w) = &stage_widths[k] {
                for writer in &mut ingress_writers {
                    writer.set_active_width(Arc::clone(w));
                }
            }
        }
    }

    // One probe per locally-run stage, attached to every stream
    // endpoint the stage's copies touch: the run's counters, read
    // mid-run by the telemetry sampler and once more at the end for
    // the stage stats.
    let probes: Vec<Option<Arc<StageProbe>>> = (0..n)
        .map(|s| {
            active_stage
                .is_none_or(|k| k == s)
                .then(|| StageProbe::new(stages[s].name.clone(), eff_width[s], s == n - 1))
        })
        .collect();
    // The width controller, ticked by the sampler thread on the
    // telemetry cadence. Empty (and elided) when no scalable stage
    // runs in this process.
    let controller: Mutex<Option<WidthController>> = Mutex::new(
        opts.autoscale
            .as_ref()
            .map(|cfg| {
                let mut ctl = WidthController::new(cfg.clone());
                for s in 0..n {
                    if let (Some(w), Some(p)) = (&stage_widths[s], &probes[s]) {
                        ctl.watch(Arc::clone(w), Arc::clone(p));
                    }
                }
                ctl
            })
            .filter(|ctl| !ctl.is_empty()),
    );
    if opts.telemetry.is_some() {
        // Packets arriving over TCP get a fresh residence stamp here:
        // origin ticks don't cross process boundaries (the clocks are
        // not comparable), so the ingress bridge re-stamps send time
        // only.
        for w in &mut ingress_writers {
            w.enable_stamping();
        }
    }
    // One probe per worker link: the ingress link's, and the egress
    // link's, shared by every copy's pump.
    let link_probes: Vec<(u32, Arc<LinkProbe>)> = active_stage
        .into_iter()
        .flat_map(|k| [(k > 0).then_some(k), (k < n - 1).then_some(k + 1)])
        .flatten()
        .map(|link| (link as u32, Arc::default()))
        .collect();
    let link_probe = |link: usize| {
        link_probes
            .iter()
            .find(|(l, _)| *l as usize == link)
            .map(|(_, p)| Arc::clone(p))
            .expect("a probe per worker link")
    };

    // Start every copy. Trace tids number filter copies globally
    // (stage by stage), one timeline row per copy.
    let tid_base: Vec<u32> = eff_width
        .iter()
        .scan(0u32, |acc, w| {
            let base = *acc;
            *acc += *w as u32;
            Some(base)
        })
        .collect();
    if trace::enabled() {
        trace::name_process(PID_RUNTIME, "datacutter");
    }
    let stats: Arc<Mutex<Vec<StageStats>>> = Arc::new(Mutex::new(
        stages
            .iter()
            .enumerate()
            .map(|(s, spec)| StageStats {
                name: spec.name.clone(),
                busy_per_copy: vec![Duration::ZERO; eff_width[s]],
                ..Default::default()
            })
            .collect(),
    ));
    // Every copy and bridge error, with the index of its stage.
    let errors: Arc<Mutex<Vec<(usize, FilterError)>>> = Arc::new(Mutex::new(Vec::new()));
    // Copies that were blocked inside a stream op when the run was
    // cancelled — the stall report names these.
    let stalled_at: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let total_copies: usize = match active_stage {
        None => eff_width.iter().sum(),
        Some(k) => eff_width[k],
    };
    // Network bridge threads participate in the same completion
    // count, so the watchdog covers a wedged socket too.
    let net_threads = usize::from(ingress.is_some()) + egress_readers.len();
    // (remaining threads, condvar) — workers count down, the watchdog
    // waits with a timeout.
    let done = Arc::new((Mutex::new(total_copies + net_threads), Condvar::new()));
    // Telemetry shipping connection, shared between the sampler loop
    // and the final flush after the scope ends.
    let telemetry_client: Mutex<Option<TelemetryClient>> = Mutex::new(None);
    let worker_id: u32 = active_stage.map_or(0, |k| k as u32);

    std::thread::scope(|scope| {
        if opts.deadline.is_some() || opts.stall_timeout.is_some() {
            let control = Arc::clone(&control);
            let done = Arc::clone(&done);
            let (deadline, stall_timeout) = (opts.deadline, opts.stall_timeout);
            scope.spawn(move || {
                watchdog(&control, &done, t0, deadline, stall_timeout);
            });
        }
        // Sampler: periodic in-flight snapshots from the probes. Not
        // counted in `done` — it waits on the same condvar with its
        // cadence as the timeout and exits once the count hits zero.
        // A zero cadence disables in-flight sampling entirely (the
        // final fin-stamped flush below still runs): spawning the
        // loop with a zero timeout would busy-spin it.
        if let Some(tcfg) = opts
            .telemetry
            .as_ref()
            .filter(|t| t.sampler.every() > Duration::ZERO)
        {
            let sampler = Arc::clone(&tcfg.sampler);
            let source = tcfg.source.clone();
            let ship = tcfg.ship_to.clone();
            let every = sampler.every();
            let done = Arc::clone(&done);
            let control = Arc::clone(&control);
            let pool = opts.pool.clone();
            let probes = &probes;
            let link_probes = &link_probes;
            let client_slot = &telemetry_client;
            let controller_slot = &controller;
            scope.spawn(move || {
                if let Some(addr) = &ship {
                    // Telemetry is best-effort: a missing aggregator
                    // never fails (or delays) the run beyond the
                    // connect attempt.
                    if let Ok(c) =
                        TelemetryClient::connect(addr, worker_id, Some(Arc::clone(&control)))
                    {
                        *plock(client_slot) = Some(c);
                    }
                }
                let (remaining, cv) = &*done;
                loop {
                    {
                        let left = plock(remaining);
                        if *left == 0 {
                            break;
                        }
                        let (g, _) = cv
                            .wait_timeout(left, every)
                            .unwrap_or_else(|e| e.into_inner());
                        if *g == 0 {
                            break;
                        }
                    }
                    let now = now_us();
                    let sample = build_sample(
                        &source,
                        t0.elapsed().as_micros() as u64,
                        now,
                        false,
                        probes,
                        pool.as_ref(),
                        link_probes,
                    );
                    // Width decisions ride the sampling clock: one
                    // controller tick per recorded sample, reading
                    // the same probes at the same instant.
                    if let Some(ctl) = plock(controller_slot).as_mut() {
                        ctl.tick(now);
                    }
                    let stamped = sampler.record(sample);
                    let mut slot = plock(client_slot);
                    if let Some(client) = slot.as_mut() {
                        let payload =
                            encode_telemetry_payload(&source, false, Some(&stamped), None);
                        if client.send(&payload).is_err() {
                            *slot = None;
                        }
                    }
                }
            });
        }
        // Ingress bridge: replay the upstream producers onto the local
        // ingress stream (one bridge per producer copy).
        if let Some(ingress) = ingress {
            let k = active_stage.expect("ingress implies worker mode");
            let writers = std::mem::take(&mut ingress_writers);
            let control = Arc::clone(&control);
            let errors = Arc::clone(&errors);
            let done = Arc::clone(&done);
            let probe = link_probe(k);
            let tuning = opts.net_tuning;
            scope.spawn(move || {
                let ctl = Some(Arc::clone(&control));
                // On error the serve loop has already cancelled the
                // run and closed its local writers.
                if let Err(e) = serve_ingress(ingress, k as u32, writers, ctl, probe, tuning) {
                    plock(&errors).push((k, e));
                }
                countdown(&done);
            });
        }
        // Egress bridges: one pump per copy drains the copy's private
        // 1→1 stream into the downstream worker's ingress.
        for (c, mut reader) in egress_readers.drain(..).enumerate() {
            let k = active_stage.expect("egress readers imply worker mode");
            let addr = connect.clone().expect("egress readers imply connect");
            let control = Arc::clone(&control);
            let errors = Arc::clone(&errors);
            let done = Arc::clone(&done);
            reader.set_batch(batch);
            let probe = link_probe(k + 1);
            let tuning = opts.net_tuning;
            scope.spawn(move || {
                let pumped = egress_pump(
                    reader,
                    &addr,
                    (k + 1) as u32,
                    c as u32,
                    Some(Arc::clone(&control)),
                    probe,
                    tuning,
                );
                if let Err(e) = pumped {
                    let failed = e.kind != ErrorKind::Cancelled;
                    let reason = format!("egress link {} failed: {e}", k + 1);
                    plock(&errors).push((k, e));
                    // Wake the (possibly blocked) local producer.
                    if failed {
                        control.cancel(reason);
                    }
                }
                countdown(&done);
            });
        }
        // The last stage's first copy runs on this thread, once every
        // other copy is spawned, instead of this thread idling in the
        // scope's join. Besides saving a spawn per run, this keeps that
        // copy's allocations in this thread's allocator arena from run
        // to run. A spawned thread takes over an arena an exited one
        // left behind, and a light copy that takes over a heavy copy's
        // arena leaves that memory idle while the heavy copy grows a
        // new one, so the resident set would vary from run to run.
        let caller_stage = active_stage.unwrap_or(n - 1);
        let mut on_caller = None;
        for ((s, stage), stage_injectors) in stages.iter().enumerate().zip(injectors.iter_mut()) {
            if active_stage.is_some_and(|k| k != s) {
                continue;
            }
            for (c, injector) in stage_injectors.iter_mut().enumerate() {
                let tid = tid_base[s] + c as u32;
                let mut io = FilterIo {
                    input: readers_per_stage[s][c].take(),
                    output: writers_per_stage[s][c].take(),
                    copy_index: c,
                    width: eff_width[s],
                    injector: injector.take(),
                    control: Arc::clone(&control),
                    pool: opts.pool.clone(),
                    pool_hits: 0,
                    pool_misses: 0,
                    dropped: 0,
                };
                if let Some(r) = io.input.as_mut() {
                    r.set_trace_tid(tid);
                    r.set_batch(batch);
                }
                if let Some(w) = io.output.as_mut() {
                    w.set_trace_tid(tid);
                }
                let probe = probes[s].clone().expect("a probe per local stage");
                if let Some(r) = io.input.as_mut() {
                    r.attach_probe(Arc::clone(&probe), c);
                }
                if let Some(w) = io.output.as_mut() {
                    w.attach_probe(Arc::clone(&probe), c);
                    if opts.telemetry.is_some() {
                        w.enable_stamping();
                        if s == 0 {
                            // The true source stamps fresh ingest
                            // origins for end-to-end latency.
                            w.mark_source();
                        }
                    }
                }
                let stats = Arc::clone(&stats);
                let errors = Arc::clone(&errors);
                let stalled_at = Arc::clone(&stalled_at);
                let control = Arc::clone(&control);
                let done = Arc::clone(&done);
                let factory = &stage.factory;
                let stage_name = stage.name.clone();
                let copy = move || {
                    let _quiet = QuietPanics::enter();
                    let label = format!("{stage_name}[{c}]");
                    if trace::enabled() {
                        trace::name_thread(PID_RUNTIME, tid, label.clone());
                    }
                    let mut copy_span = trace::span(label.clone(), "filter", PID_RUNTIME, tid);
                    let t = Instant::now();
                    // Publish the start tick so mid-run snapshots (and
                    // crashed copies) report real busy time.
                    let cp = probe.copy(c);
                    cp.mark_started(now_us());
                    let mut filter = (factory)(c);
                    let unit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        {
                            let _s = trace::span("init", "filter-phase", PID_RUNTIME, tid);
                            filter.init(&mut io)?;
                        }
                        let processed = {
                            let _s = trace::span("process", "filter-phase", PID_RUNTIME, tid);
                            filter.process(&mut io)
                        };
                        // An input-side injected failure parks its error
                        // and fabricates end-of-work: the attempt is
                        // doomed whatever `process` made of the
                        // truncated input.
                        if let Some(e) = io.take_injected_error() {
                            return Err(e);
                        }
                        processed?;
                        // A failure elsewhere cut this copy's input
                        // short: its results must not be published.
                        if control.is_cancelled() {
                            return Err(FilterError::cancelled(
                                label.clone(),
                                "run cancelled before finalize",
                            ));
                        }
                        let _s = trace::span("finalize", "filter-phase", PID_RUNTIME, tid);
                        filter.finalize(&mut io)
                    }));
                    let panicked = unit.is_err();
                    let result = unit.unwrap_or_else(|payload| {
                        Err(FilterError::panicked(label.clone(), panic_message(payload)))
                    });
                    // A failure parked by a phase that then panicked, or
                    // by `finalize`, is still this copy's own. An error
                    // raised once the run was cancelled is that
                    // cancellation's consequence (a last unit's epilogue
                    // over a cut-short stream, say), never the root cause.
                    let cancelled = control.is_cancelled();
                    let result = io.take_injected_error().map_or(result, Err).map_err(|e| {
                        let kind = if cancelled {
                            ErrorKind::Cancelled
                        } else {
                            e.kind
                        };
                        FilterError { kind, ..e }
                    });
                    // The next attempt counts packets on from here.
                    *injector = io.injector.take();
                    let recv_stalled = io
                        .input
                        .as_ref()
                        .is_some_and(|r| r.cancelled_while_blocked());
                    let send_stalled = io
                        .output
                        .as_ref()
                        .is_some_and(|w| w.cancelled_while_blocked());
                    // Record a failure before closing the output, so a
                    // downstream failure it causes never outranks it. A
                    // run that restarts on failure then cancels the
                    // attempt: downstream must see the cancellation, not
                    // an end-of-work it could finalize on. One that does
                    // not lets its neighbours finish instead: the output
                    // closes and the input drains.
                    let failed = result
                        .as_ref()
                        .is_err_and(|e| e.kind != ErrorKind::Cancelled);
                    let errored = result.is_err();
                    if let Err(e) = result {
                        let e = FilterError {
                            filter: label.clone(),
                            ..e
                        };
                        if failed && trace::enabled() {
                            trace::instant(
                                "failure",
                                "fault",
                                PID_RUNTIME,
                                tid,
                                vec![("error", e.to_string().into())],
                            );
                        }
                        plock(&errors).push((s, e));
                        if failed && restarting {
                            control.cancel(format!("{label} failed"));
                        }
                    }
                    if let Some(w) = io.output.as_mut() {
                        w.close();
                    }
                    if errored {
                        while io.read().is_some() {}
                    }
                    if let Some(r) = io.input.as_mut() {
                        r.flush_probe_locals();
                    }
                    cp.mark_finished(t.elapsed());
                    if copy_span.is_recording() {
                        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
                        copy_span.arg("buffers_in", load(&cp.buffers_in));
                        copy_span.arg("buffers_out", load(&cp.buffers_out));
                        let (recv, send) = (cp.blocked_recv(), cp.blocked_send());
                        copy_span.arg("blocked_recv_us", recv.as_micros() as u64);
                        copy_span.arg("blocked_send_us", send.as_micros() as u64);
                    }
                    if recv_stalled {
                        plock(&stalled_at).push(format!(
                            "{label} blocked in recv ({}ms starved)",
                            cp.blocked_recv().as_millis()
                        ));
                    }
                    if send_stalled {
                        plock(&stalled_at).push(format!(
                            "{label} blocked in send ({}ms backpressured)",
                            cp.blocked_send().as_millis()
                        ));
                    }
                    {
                        let mut st = plock(&stats);
                        let entry = &mut st[s];
                        entry.failures += u64::from(failed);
                        entry.dropped += io.dropped;
                        entry.panics += u64::from(panicked);
                        entry.pool_hits += io.pool_hits;
                        entry.pool_misses += io.pool_misses;
                    }
                    drop(copy_span);
                    countdown(&done);
                };
                if s == caller_stage && c == 0 {
                    on_caller = Some(copy);
                } else {
                    scope.spawn(copy);
                }
            }
        }
        if let Some(mut copy) = on_caller {
            copy();
        }
    });

    let mut stages = plock(&stats).clone();
    let autoscale = plock(&controller)
        .take()
        .map(WidthController::into_report)
        .unwrap_or_default();
    let mut e2e_us = Histogram::default();
    for (st, probe) in stages.iter_mut().zip(&probes) {
        if let Some(p) = probe {
            read_probe(st, p);
            if let Some(h) = p.e2e() {
                e2e_us = h;
            }
        }
    }
    let net_links: Vec<(u32, NetLinkStats)> = link_probes
        .iter()
        .map(|(link, p)| (*link, p.stats()))
        .collect();
    if let Some(registry) = &opts.metrics {
        let mut reg = plock(registry);
        for (link, st) in &net_links {
            reg.counter(&format!("net.link{link}.frames"), st.frames);
            reg.counter(&format!("net.link{link}.bytes"), st.bytes);
            if st.timeouts > 0 {
                reg.counter(&format!("net.link{link}.timeouts"), st.timeouts);
            }
        }
        for (st, probe) in stages.iter().zip(&probes) {
            let name = &st.name;
            let rare = [
                ("failures", st.failures),
                ("dropped", st.dropped),
                ("panics", st.panics),
                ("pool.hits", st.pool_hits),
                ("pool.misses", st.pool_misses),
            ];
            for (key, v) in rare.into_iter().filter(|(_, v)| *v > 0) {
                reg.counter(&format!("stage.{name}.{key}"), v);
            }
            // Measured per-stage rates for post-run cost-model
            // calibration — pushed for every locally-run stage, so
            // the launcher's merged registry has a complete picture.
            if probe.is_some() {
                let rates = [
                    ("busy_us", st.busy.as_micros() as u64),
                    ("blocked_send_us", st.blocked_send.as_micros() as u64),
                    ("blocked_recv_us", st.blocked_recv.as_micros() as u64),
                    ("buffers_in", st.buffers_in),
                    ("buffers_out", st.buffers_out),
                ];
                for (key, v) in rates {
                    reg.counter(&format!("stage.{name}.{key}"), v);
                }
                if st.residence_us.count > 0 {
                    reg.merge_histogram(&format!("stage.{name}.residence_us"), &st.residence_us);
                }
            }
        }
        if e2e_us.count > 0 {
            reg.merge_histogram("pipeline.e2e_us", &e2e_us);
        }
        if autoscale.grows() > 0 {
            reg.counter("autoscale.grows", autoscale.grows());
        }
        if autoscale.shrinks() > 0 {
            reg.counter("autoscale.shrinks", autoscale.shrinks());
        }
        if autoscale.escalation.is_some() {
            reg.counter("autoscale.escalations", 1);
        }
    }

    // Final telemetry flush: a fin-stamped sample plus the full
    // registry snapshot, recorded locally and shipped to the launcher
    // when configured — even when the run itself failed.
    if let Some(tcfg) = &opts.telemetry {
        let sample = build_sample(
            &tcfg.source,
            t0.elapsed().as_micros() as u64,
            now_us(),
            true,
            &probes,
            opts.pool.as_ref(),
            &link_probes,
        );
        let stamped = tcfg.sampler.record(sample);
        let mut client = plock(&telemetry_client).take();
        if client.is_none() {
            if let Some(addr) = &tcfg.ship_to {
                client = TelemetryClient::connect(addr, worker_id, Some(Arc::clone(&control))).ok();
            }
        }
        if let Some(mut client) = client {
            let payload = {
                let reg = opts.metrics.as_ref().map(|m| plock(m));
                encode_telemetry_payload(&tcfg.source, true, Some(&stamped), reg.as_deref())
            };
            let _ = client.send(&payload);
            client.close();
        }
    }

    let mut errors = std::mem::take(&mut *plock(&errors));
    // A real failure outranks the cancellation noise it causes.
    let error = match errors
        .iter()
        .position(|(_, e)| e.kind != ErrorKind::Cancelled)
    {
        Some(i) => Some(errors.swap_remove(i)),
        None => control.reason().map(|reason| {
            let blocked = plock(&stalled_at);
            let detail = if blocked.is_empty() {
                "no copy was blocked in a stream operation".to_string()
            } else {
                blocked.join("; ")
            };
            let e = FilterError::stalled("pipeline", format!("{reason}; {detail}"));
            (0, e)
        }),
    }
    .or_else(|| errors.into_iter().next());
    let stats = RunStats {
        wall: t0.elapsed(),
        stages,
        net_links,
        e2e_us,
        autoscale,
    };
    (stats, error)
}

/// Fill a locally run stage's traffic, blocked and busy figures from its
/// probe, once every copy has exited.
fn read_probe(st: &mut StageStats, probe: &StageProbe) {
    let sum = |f: fn(&CopyProbe) -> &AtomicU64| {
        probe
            .copies
            .iter()
            .map(|c| f(c).load(Ordering::Relaxed))
            .sum()
    };
    st.buffers_in = sum(|c| &c.buffers_in);
    st.bytes_in = sum(|c| &c.bytes_in);
    st.buffers_out = sum(|c| &c.buffers_out);
    st.bytes_out = sum(|c| &c.bytes_out);
    st.blocked_send = probe.copies.iter().map(CopyProbe::blocked_send).sum();
    st.blocked_recv = probe.copies.iter().map(CopyProbe::blocked_recv).sum();
    st.busy_per_copy = probe.copies.iter().map(CopyProbe::busy).collect();
    st.busy = st.busy_per_copy.iter().sum();
    st.residence_us = probe.residence();
}

/// Decrement the shared completion count, waking the watchdog when the
/// last thread finishes.
fn countdown(done: &(Mutex<usize>, Condvar)) {
    let (remaining, cv) = done;
    let mut left = plock(remaining);
    *left -= 1;
    if *left == 0 {
        cv.notify_all();
    }
}

/// Deadline/stall watchdog: waits for all copies to finish; on deadline
/// expiry (counted from `start`) or lack of progress, cancels the run
/// (waking every blocked stream operation) with a reason the final error
/// reports.
fn watchdog(
    control: &RunControl,
    done: &(Mutex<usize>, Condvar),
    start: Instant,
    deadline: Option<Duration>,
    stall_timeout: Option<Duration>,
) {
    let tick = Duration::from_millis(10);
    let (remaining, cv) = done;
    let mut last_progress = control.progress();
    let mut last_change = Instant::now();
    let mut left = plock(remaining);
    loop {
        if *left == 0 {
            return;
        }
        let (g, _) = cv
            .wait_timeout(left, tick)
            .unwrap_or_else(|e| e.into_inner());
        left = g;
        if *left == 0 {
            return;
        }
        if let Some(d) = deadline {
            if start.elapsed() >= d {
                control.cancel(format!("run deadline {d:?} exceeded"));
                return;
            }
        }
        if let Some(s) = stall_timeout {
            let p = control.progress();
            if p != last_progress {
                last_progress = p;
                last_change = Instant::now();
            } else if last_change.elapsed() >= s {
                control.cancel(format!("no packet progress for {s:?} (stall timeout)"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::filter::{ClosureFilter, Filter};

    fn source(n: u64) -> FilterFactory {
        Box::new(move |_| {
            Box::new(ClosureFilter::new("src", move |io: &mut FilterIo| {
                for i in 0..n {
                    io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
                }
                Ok(())
            }))
        })
    }

    #[test]
    fn three_stage_pipeline_computes() {
        let total = Arc::new(AtomicU64::new(0));
        let total2 = Arc::clone(&total);
        let stats = Pipeline::new(RunOptions::default())
            .add_stage(StageSpec::new("source", 1, source(100)))
            .add_stage(StageSpec::new(
                "square",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("square", |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            let v = b.u64_le("square")?;
                            io.write(Buffer::from_vec((v * v).to_le_bytes().to_vec()))?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .add_stage(StageSpec::new(
                "sum",
                1,
                Box::new(move |_| {
                    let total = Arc::clone(&total2);
                    Box::new(ClosureFilter::new("sum", move |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            total.fetch_add(b.u64_le("sum")?, Ordering::Relaxed);
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap();
        let expect: u64 = (0..100u64).map(|i| i * i).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
        assert_eq!(stats.stages[0].buffers_out, 100);
        assert_eq!(stats.stages[2].buffers_in, 100);
        assert_eq!(stats.failures(), 0);
        assert_eq!(stats.panics(), 0);
    }

    #[test]
    fn transparent_copies_preserve_totals() {
        for width in [1usize, 2, 4] {
            let total = Arc::new(AtomicU64::new(0));
            let total2 = Arc::clone(&total);
            Pipeline::new(RunOptions::default())
                .add_stage(StageSpec::new("source", 1, source(200)))
                .add_stage(StageSpec::new(
                    "work",
                    width,
                    Box::new(|_| {
                        Box::new(ClosureFilter::new("work", |io: &mut FilterIo| {
                            while let Some(b) = io.read() {
                                io.write(b)?;
                            }
                            Ok(())
                        }))
                    }),
                ))
                .add_stage(StageSpec::new(
                    "sum",
                    1,
                    Box::new(move |_| {
                        let total = Arc::clone(&total2);
                        Box::new(ClosureFilter::new("sum", move |io: &mut FilterIo| {
                            while let Some(b) = io.read() {
                                total.fetch_add(b.u64_le("sum")?, Ordering::Relaxed);
                            }
                            Ok(())
                        }))
                    }),
                ))
                .run()
                .unwrap();
            assert_eq!(
                total.load(Ordering::Relaxed),
                (0..200).sum::<u64>(),
                "width={width}"
            );
        }
    }

    #[test]
    fn finalize_flushes_partial_state() {
        // Each copy accumulates locally, flushing its partial sum at
        // finalize — the reduction pattern.
        struct Acc {
            sum: u64,
        }
        impl Filter for Acc {
            fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
                while let Some(b) = io.read() {
                    self.sum += b.u64_le("acc")?;
                }
                Ok(())
            }
            fn finalize(&mut self, io: &mut FilterIo) -> FilterResult<()> {
                io.write(Buffer::from_vec(self.sum.to_le_bytes().to_vec()))
            }
            fn name(&self) -> &str {
                "acc"
            }
        }
        let total = Arc::new(AtomicU64::new(0));
        let total2 = Arc::clone(&total);
        Pipeline::new(RunOptions::default())
            .add_stage(StageSpec::new("source", 1, source(100)))
            .add_stage(StageSpec::new(
                "acc",
                3,
                Box::new(|_| Box::new(Acc { sum: 0 })),
            ))
            .add_stage(StageSpec::new(
                "merge",
                1,
                Box::new(move |_| {
                    let total = Arc::clone(&total2);
                    Box::new(ClosureFilter::new("merge", move |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            total.fetch_add(b.u64_le("merge")?, Ordering::Relaxed);
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn error_propagates_and_does_not_hang() {
        let err = Pipeline::new(RunOptions::default())
            .add_stage(StageSpec::new("source", 1, source(1000)))
            .add_stage(StageSpec::new(
                "bad",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("bad", |io: &mut FilterIo| {
                        let _ = io.read();
                        Err(FilterError::new("bad", "intentional"))
                    }))
                }),
            ))
            .run()
            .unwrap_err();
        assert!(err.filter.contains("bad"));
        assert!(err.message.contains("intentional"));
        assert_eq!(err.kind, ErrorKind::Failed);
    }

    #[test]
    fn the_last_stages_first_copy_runs_on_the_calling_thread() {
        // Every copy records the thread it ran on; sink[0] then panics, so
        // the calling thread must get its own panic output back after.
        type Ran = Arc<Mutex<Vec<(&'static str, usize, std::thread::ThreadId)>>>;
        let ran: Ran = Arc::default();
        let stage = |name: &'static str, ran: &Ran| -> FilterFactory {
            let ran = Arc::clone(ran);
            Box::new(move |c| {
                let ran = Arc::clone(&ran);
                Box::new(ClosureFilter::new(name, move |io: &mut FilterIo| {
                    plock(&ran).push((name, c, std::thread::current().id()));
                    if name == "source" {
                        for i in 0..10u64 {
                            io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
                        }
                    }
                    while io.read().is_some() {}
                    if name == "sink" && c == 0 {
                        panic!("intentional");
                    }
                    Ok(())
                }))
            })
        };
        let err = Pipeline::new(RunOptions::default())
            .add_stage(StageSpec::new("source", 1, stage("source", &ran)))
            .add_stage(StageSpec::new("sink", 2, stage("sink", &ran)))
            .run()
            .unwrap_err();
        assert_eq!(
            (err.kind, err.filter.as_str()),
            (ErrorKind::Panicked, "sink[0]")
        );
        let caller = std::thread::current().id();
        let ran = plock(&ran);
        assert_eq!(ran.len(), 3);
        for &(name, c, thread) in ran.iter() {
            let on_caller = name == "sink" && c == 0;
            assert_eq!(thread == caller, on_caller, "{name}[{c}]");
        }
        assert!(
            !QUIET_PANICS.with(Cell::get),
            "the caller's panics print again"
        );
    }

    #[test]
    fn malformed_packet_is_a_structured_error_not_a_panic() {
        let err = Pipeline::new(RunOptions::default())
            .add_stage(StageSpec::new(
                "source",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("src", |io: &mut FilterIo| {
                        io.write(Buffer::from_vec(vec![1, 2, 3])) // short
                    }))
                }),
            ))
            .add_stage(StageSpec::new(
                "sum",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("sum", |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            b.u64_le("sum")?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
        assert_eq!(err.filter, "sum[0]");
    }

    #[test]
    fn empty_pipeline_is_an_error() {
        assert!(Pipeline::new(RunOptions::default()).run().is_err());
    }

    #[test]
    fn a_failure_outranks_the_downstream_failure_it_causes() {
        // `mid[0]` panics on its first packet and then drains its input,
        // which the source holds open for a while; meanwhile the sink
        // sees its input end early and fails on its own.
        let source = Box::new(|_| {
            Box::new(ClosureFilter::new("source", |io: &mut FilterIo| {
                io.write(Buffer::from_vec(0u64.to_le_bytes().to_vec()))?;
                std::thread::sleep(Duration::from_millis(300));
                io.write(Buffer::from_vec(1u64.to_le_bytes().to_vec()))
            })) as Box<dyn Filter>
        });
        let forward = Box::new(|_| {
            Box::new(ClosureFilter::new("mid", |io: &mut FilterIo| {
                while let Some(b) = io.read() {
                    io.write(b)?;
                }
                Ok(())
            })) as Box<dyn Filter>
        });
        let sink = Box::new(|_| {
            Box::new(ClosureFilter::new("sink", |io: &mut FilterIo| {
                if io.read().is_none() {
                    return Err(FilterError::new("sink", "input ended before any packet"));
                }
                while io.read().is_some() {}
                Ok(())
            })) as Box<dyn Filter>
        });
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("mid", 0, 0),
            deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let err = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source))
            .add_stage(StageSpec::new("mid", 1, forward))
            .add_stage(StageSpec::new("sink", 1, sink))
            .run()
            .expect_err("the injected panic fails the run");
        assert_eq!(err.kind, ErrorKind::Panicked, "{err}");
        assert_eq!(err.filter, "mid[0]");
    }

    #[test]
    fn zero_capacity_is_a_named_error_before_any_copy_starts() {
        let started = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&started);
        let opts = RunOptions {
            capacity: 0,
            ..Default::default()
        };
        let err = Pipeline::new(opts)
            .add_stage(StageSpec::new(
                "source",
                1,
                Box::new(move |_| {
                    s2.fetch_add(1, Ordering::Relaxed);
                    Box::new(ClosureFilter::new("source", |_: &mut FilterIo| Ok(())))
                }),
            ))
            .run()
            .expect_err("capacity 0 must be rejected");
        assert!(err.message.contains("capacity"), "{err}");
        assert_eq!(started.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backpressure_small_capacity_still_completes() {
        let total = Arc::new(AtomicU64::new(0));
        let total2 = Arc::clone(&total);
        let opts = RunOptions {
            capacity: 1,
            ..Default::default()
        };
        Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(500)))
            .add_stage(StageSpec::new(
                "sink",
                1,
                Box::new(move |_| {
                    let total = Arc::clone(&total2);
                    Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
                        while let Some(_b) = io.read() {
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn recovery_survives_a_panic_in_a_stateless_stage_exactly_once() {
        let total = Arc::new(AtomicU64::new(0));
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("work", 0, 50),
            restart_budget: 2,
            ..Default::default()
        };
        let stats = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(200)))
            .add_stage(StageSpec::new(
                "work",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("work", |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            io.write(b)?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .add_stage(StageSpec::new("sum", 1, sum_sink(&total)))
            .run()
            .unwrap();
        // The whole run restarted from packet 0, and only the completed
        // attempt published its sum.
        assert_eq!(total.load(Ordering::Relaxed), (0..200).sum::<u64>());
        assert_eq!(stats.panics(), 1);
        assert_eq!(stats.recoveries(), 1);
        assert_eq!(
            stats.stages[1].recoveries, 1,
            "charged to the stage that failed"
        );
    }

    #[test]
    fn a_cancelled_attempt_never_runs_finalize() {
        // The source fails after the sink has read some packets, so the
        // sink's `process` sees its input end early; its `finalize` runs
        // only in an attempt that completes: once when a restart masks
        // a fault at packet 5, never when every attempt fails.
        for (rule, completes) in [("source[0]@5:fail", true), ("source[0]@*:fail", false)] {
            let finalized = Arc::new(AtomicU64::new(0));
            let f2 = Arc::clone(&finalized);
            struct Sink(Arc<AtomicU64>);
            impl Filter for Sink {
                fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
                    while io.read().is_some() {}
                    Ok(())
                }
                fn finalize(&mut self, _io: &mut FilterIo) -> FilterResult<()> {
                    self.0.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
            }
            let opts = RunOptions {
                faults: FaultPlan::parse(rule).unwrap(),
                restart_budget: 1,
                capacity: 1,
                batch: 1,
                ..Default::default()
            };
            let run = Pipeline::new(opts)
                .add_stage(StageSpec::new("source", 1, source(10)))
                .add_stage(StageSpec::new(
                    "sink",
                    1,
                    Box::new(move |_| Box::new(Sink(Arc::clone(&f2)))),
                ))
                .run();
            assert_eq!(run.is_ok(), completes, "{rule}: {run:?}");
            assert_eq!(
                finalized.load(Ordering::Relaxed),
                u64::from(completes),
                "{rule}: only a completed attempt finalizes"
            );
        }
    }

    /// Pass-through filter that burns `us` of wall time per packet — a
    /// deliberately compute-bound stage for autoscale tests.
    fn spin_work(us: u64) -> FilterFactory {
        Box::new(move |_| {
            Box::new(ClosureFilter::new("work", move |io: &mut FilterIo| {
                while let Some(b) = io.read() {
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_micros(us) {
                        std::hint::spin_loop();
                    }
                    io.write(b)?;
                }
                Ok(())
            }))
        })
    }

    fn sampler_ms(ms: u64) -> Arc<cgp_obs::telemetry::TelemetrySampler> {
        Arc::new(cgp_obs::telemetry::TelemetrySampler::new(
            Duration::from_millis(ms),
        ))
    }

    /// A sink that sums its input and publishes the sum in `finalize`,
    /// so a restarted run counts each packet once.
    fn sum_sink(total: &Arc<AtomicU64>) -> FilterFactory {
        struct Sum {
            sum: u64,
            total: Arc<AtomicU64>,
        }
        impl Filter for Sum {
            fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
                while let Some(b) = io.read() {
                    self.sum += b.u64_le("sum")?;
                }
                Ok(())
            }
            fn finalize(&mut self, _io: &mut FilterIo) -> FilterResult<()> {
                self.total.fetch_add(self.sum, Ordering::Relaxed);
                Ok(())
            }
        }
        let total = Arc::clone(total);
        Box::new(move |_| {
            Box::new(Sum {
                sum: 0,
                total: Arc::clone(&total),
            })
        })
    }

    #[test]
    fn autoscale_preconditions_are_enforced() {
        let opts = RunOptions {
            autoscale: Some(AutoscaleConfig::default()),
            ..Default::default()
        };
        let err = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(10)))
            .add_stage(StageSpec::new("work", 1, spin_work(0)))
            .add_stage(StageSpec::new("sum", 1, source(0)))
            .run()
            .unwrap_err();
        assert!(err.message.contains("telemetry"), "{err}");
    }

    #[test]
    fn autoscaled_run_widens_under_load_with_identical_output() {
        let total = Arc::new(AtomicU64::new(0));
        let opts = RunOptions {
            telemetry: Some(TelemetryConfig::new(sampler_ms(2), "local")),
            autoscale: Some(
                AutoscaleConfig::parse("max=4,grow=2,cooldown=0")
                    .unwrap()
                    .unwrap(),
            ),
            ..Default::default()
        };
        let stats = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(300)))
            .add_stage(StageSpec::new("work", 1, spin_work(400)))
            .add_stage(StageSpec::new("sum", 1, sum_sink(&total)))
            .run()
            .unwrap();
        // Output is width-independent: the exact fixed-width total.
        assert_eq!(total.load(Ordering::Relaxed), (0..300).sum::<u64>());
        // The interior stage was provisioned at the cap (all four copy
        // threads ran and reported), and the step load actually widened
        // the rotation.
        assert_eq!(stats.stages[1].busy_per_copy.len(), 4);
        assert!(
            stats.autoscale.grows() >= 1,
            "a 400µs/packet bottleneck behind a fast source must widen: {:?}",
            stats.autoscale.events
        );
        let first = &stats.autoscale.events[0];
        assert_eq!((first.stage.as_str(), first.from, first.to), ("work", 1, 2));
    }

    #[test]
    fn autoscaled_recovery_masks_a_mid_run_fault_with_identical_output() {
        let total = Arc::new(AtomicU64::new(0));
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("work", 0, 50),
            restart_budget: 2,
            telemetry: Some(TelemetryConfig::new(sampler_ms(2), "local")),
            autoscale: Some(
                AutoscaleConfig::parse("max=4,grow=2,cooldown=0")
                    .unwrap()
                    .unwrap(),
            ),
            ..Default::default()
        };
        let stats = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(300)))
            .add_stage(StageSpec::new("work", 1, spin_work(300)))
            .add_stage(StageSpec::new("sum", 1, sum_sink(&total)))
            .run()
            .unwrap();
        // A copy panic mid-scale is masked by a restart of the whole run
        // and the total stays exact — width decisions are routing-only.
        assert_eq!(total.load(Ordering::Relaxed), (0..300).sum::<u64>());
        assert_eq!(stats.panics(), 1);
        assert_eq!(stats.recoveries(), 1);
    }

    #[test]
    fn restart_budget_exhaustion_surfaces_the_error() {
        let opts = RunOptions {
            // Panic on every packet: every restart runs into the same
            // panic until the budget runs out.
            faults: FaultPlan::parse("work[0]@*:panic").unwrap(),
            restart_budget: 2,
            ..Default::default()
        };
        let err = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(10)))
            .add_stage(StageSpec::new(
                "work",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("work", |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            io.write(b)?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Panicked);
        assert_eq!(err.filter, "work[0]");
    }

    #[test]
    fn the_deadline_spans_every_attempt_and_a_stall_is_not_restarted() {
        // Each attempt fails after 100 ms, and the budget would allow ten
        // restarts: the 250 ms deadline, counted from the run's start,
        // cancels the third attempt, and the failure that attempt raises
        // after the cancellation does not outrank the stall.
        let opts = RunOptions {
            deadline: Some(Duration::from_millis(250)),
            restart_budget: 10,
            ..Default::default()
        };
        let t = Instant::now();
        let err = Pipeline::new(opts)
            .add_stage(StageSpec::new(
                "slow",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("slow", |_: &mut FilterIo| {
                        std::thread::sleep(Duration::from_millis(100));
                        Err(FilterError::new("slow", "fails after 100 ms"))
                    }))
                }),
            ))
            .run()
            .expect_err("the deadline ends the run");
        assert_eq!(err.kind, ErrorKind::Stalled, "{err}");
        assert!(err.message.contains("250ms"), "{err}");
        assert!(t.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn deadline_on_healthy_pipeline_is_inert() {
        let opts = RunOptions {
            deadline: Some(Duration::from_secs(30)),
            stall_timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let stats = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(50)))
            .add_stage(StageSpec::new(
                "sink",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("sink", |io: &mut FilterIo| {
                        while io.read().is_some() {}
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap();
        assert_eq!(stats.stages[1].buffers_in, 50);
    }
}
