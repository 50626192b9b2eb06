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
//!   `stage[copy]`; the copy's streams are closed and drained so
//!   neighbouring copies terminate instead of blocking forever, and other
//!   copies' stats updates never see a poisoned lock. The error is
//!   recorded before the streams close, so a downstream failure it
//!   causes never outranks it as the run's error.
//! - **Fault injection** — a [`FaultPlan`] injects deterministic
//!   fail/panic/delay/drop faults at stage × copy × packet index
//!   ([`RunOptions::faults`]).
//! - **Restart** — with recovery on ([`RunOptions::recovery`]), every
//!   failure except a cancellation restarts the copy: a fresh filter
//!   instance gets its committed checkpoint back and its unacknowledged
//!   input replayed, up to [`RecoveryOptions::max_restarts`] times with
//!   exponential backoff. Without recovery a failed copy fails the run.
//! - **Deadline & stall detection** — [`RunOptions::deadline`] /
//!   [`RunOptions::stall_timeout`] arm a watchdog that cancels the
//!   run's channels, wakes every blocked copy, and reports *where* the
//!   pipeline was blocked (using the `blocked_send`/`blocked_recv`
//!   instrumentation) instead of hanging. Cancellation is cooperative:
//!   filters blocked in stream operations unwedge automatically;
//!   long compute loops should poll [`FilterIo::cancelled`].
//!
//! Failures surface as counters on [`StageStats`] (`failures`, `panics`,
//! `recoveries`, `dropped`), as `fault`-category trace events through
//! `cgp_obs`, and optionally into a shared [`MetricsRegistry`]
//! ([`RunOptions::metrics`]).

use crate::buffer::BufferPool;
use crate::error::{ErrorKind, FilterError, FilterResult};
use crate::fault::{FaultPlan, RunControl};
use crate::filter::{FilterFactory, FilterIo, RecoveryCtx};
use crate::link::{egress_pump, serve_ingress, NetLinkStats, NetTuning, WorkerIngress};
use crate::net::TelemetryClient;
use crate::recover::{CheckpointStore, RecoveryOptions};
use crate::stream::logical_stream;
use crate::telemetry::{
    build_sample, encode_telemetry_payload, now_us, LinkProbe, StageProbe, TelemetryConfig,
};
use crate::width::{AutoscaleConfig, AutoscaleReport, StageWidth, WidthController};
use cgp_obs::metrics::{Histogram, MetricsRegistry};
use cgp_obs::trace::{self, PID_RUNTIME};
use std::cell::Cell;
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
    /// Whether the filter accumulates cross-packet state (reduction
    /// accumulators). Under recovery, stateful stages acknowledge inputs
    /// only at checkpoint commits ([`FilterIo::commit_checkpoint`]) and
    /// get their snapshot restored on restart; stateless stages
    /// acknowledge as they read. Inert without recovery.
    pub stateful: bool,
}

impl StageSpec {
    pub fn new(name: impl Into<String>, width: usize, factory: FilterFactory) -> Self {
        assert!(width >= 1);
        StageSpec {
            name: name.into(),
            width,
            factory,
            stateful: false,
        }
    }

    /// Mark this stage as holding cross-packet state (see
    /// [`StageSpec::stateful`]).
    pub fn stateful(mut self) -> Self {
        self.stateful = true;
        self
    }
}

/// Per-stage statistics from a run.
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
    /// Failed unit-of-work attempts across this stage's copies
    /// (including attempts whose copy later succeeded on a restart).
    pub failures: u64,
    /// Packets injected `drop` faults discarded across this stage's
    /// copies: intentional loss, which recovery does not resurrect.
    pub dropped: u64,
    /// Attempts that ended in a caught panic.
    pub panics: u64,
    /// Packet-storage allocations served from the run's [`BufferPool`]
    /// (zero when the pipeline runs without a pool).
    pub pool_hits: u64,
    /// Packet-storage allocations that fell through to the heap.
    pub pool_misses: u64,
    /// Copy restarts performed under recovery.
    pub recoveries: u64,
    /// Packets re-delivered from replay buffers after restarts.
    pub replayed_packets: u64,
    /// Checkpoint commits across this stage's copies.
    pub checkpoints: u64,
    /// Snapshot bytes written across this stage's checkpoint commits.
    pub checkpoint_bytes: u64,
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
    /// Failed attempts summed over stages (a successful run can still
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

    /// Recovery restarts summed over stages.
    pub fn recoveries(&self) -> u64 {
        self.stages.iter().map(|s| s.recoveries).sum()
    }

    /// Replayed packets summed over stages.
    pub fn replayed_packets(&self) -> u64 {
        self.stages.iter().map(|s| s.replayed_packets).sum()
    }

    /// Checkpoint commits summed over stages.
    pub fn checkpoints(&self) -> u64 {
        self.stages.iter().map(|s| s.checkpoints).sum()
    }

    /// Snapshot bytes summed over stages.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.checkpoint_bytes).sum()
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
/// [`RunOptions::default`] is a plain in-process run: 64-packet queues,
/// per-packet synchronization, no pool, rings on, no faults, no watchdog,
/// recovery off, default [`NetTuning`], no telemetry and fixed widths.
/// Set fields with struct update syntax:
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
/// assert_eq!(opts.batch, 1);
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
    /// blocking receive, an idle one keeps per-packet latency). 1, the
    /// default, is strict per-packet synchronization; 0 counts as 1.
    pub batch: usize,
    /// Recycle packet storage through a shared [`BufferPool`]: filters
    /// that build packets via [`FilterIo::alloc`]/[`FilterIo::seal`] get
    /// recycled allocations, and per-stage hit/miss counts land in
    /// [`StageStats`] (and the metrics registry, when attached).
    pub pool: Option<BufferPool>,
    /// Whether 1→1 non-recovering links use the lock-free SPSC ring
    /// instead of the mutex channel (on by default). Off forces every
    /// link onto the mutex path, for A/B measurement and as an escape
    /// hatch.
    pub same_host_rings: bool,
    /// Deterministic fault-injection plan (chaos testing); an empty plan
    /// injects nothing.
    pub faults: FaultPlan,
    /// Hard wall-clock limit for the run. On expiry the watchdog cancels
    /// every stream, blocked copies unwedge, and the run returns a
    /// structured [`ErrorKind::Stalled`] error naming where copies were
    /// blocked, instead of hanging.
    pub deadline: Option<Duration>,
    /// Cancel the run if no packet moves anywhere in the pipeline for
    /// this long (should comfortably exceed the slowest per-packet
    /// compute time).
    pub stall_timeout: Option<Duration>,
    /// Registry the run publishes its counters into at end of run:
    /// per-stage failures, drops, panics, pool and recovery counts,
    /// per-link network counters, and (with telemetry) per-stage rates
    /// and latency histograms.
    pub metrics: Option<Arc<Mutex<MetricsRegistry>>>,
    /// The recovery layer: ack/replay delivery on every stream,
    /// checkpointing for stateful stages ([`StageSpec::stateful`]), and
    /// supervised copy restarts on any failure but a cancellation. Off,
    /// a failed copy fails the run.
    pub recovery: RecoveryOptions,
    /// Checkpoint store used under recovery (e.g. one mirrored to a JSONL
    /// audit log via [`CheckpointStore::with_jsonl`]); `None` is a fresh
    /// in-memory store per run.
    pub checkpoint_store: Option<CheckpointStore>,
    /// Liveness of the distributed links: heartbeat cadence and silence
    /// deadline on TCP links, and supervised (lenient) ingress, where a
    /// dead producer parks its slot awaiting a respawned process instead
    /// of failing the run. Inert for in-process runs.
    pub net_tuning: NetTuning,
    /// The live telemetry plane. Per-stage probes feed a sampler thread
    /// that snapshots queue depth, per-copy busy/active time, latency
    /// percentiles, replay-buffer occupancy, and net-link counters on the
    /// sampler's cadence, without stopping the pipeline. Packets are
    /// stamped at ingest so [`StageStats::residence_us`] and
    /// [`RunStats::e2e_us`] report real p50/p95/p99 latencies. When
    /// `ship_to` is set, every sample (and the final registry snapshot)
    /// is also shipped to the launcher as a `Telemetry` frame (see
    /// [`crate::net::serve_telemetry`]).
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
            capacity: 64,
            batch: 1,
            pool: None,
            same_host_rings: true,
            faults: FaultPlan::default(),
            deadline: None,
            stall_timeout: None,
            metrics: None,
            recovery: RecoveryOptions::default(),
            checkpoint_store: None,
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

    /// Run one unit of work through the whole pipeline in this process.
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
    /// so batching, backpressure, cancellation, fault injection and
    /// recovery behave exactly as under [`Pipeline::run`], and the
    /// distributed run's results are byte-identical to the in-process
    /// run's.
    pub fn run_worker(self, endpoints: WorkerEndpoints) -> FilterResult<RunStats> {
        self.run_inner(Some(endpoints))
    }

    fn run_inner(self, worker: Option<WorkerEndpoints>) -> FilterResult<RunStats> {
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
        let batch = opts.batch.max(1);
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
        let control = RunControl::new();
        let (active_stage, ingress, connect) = match worker {
            Some(w) => (Some(w.stage), w.ingress, w.connect),
            None => (None, None, None),
        };

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
            .map(|s| match &opts.autoscale {
                Some(cfg) if s > 0 && s < n - 1 => stages[s].width.max(cfg.max_width),
                _ => stages[s].width,
            })
            .collect();
        let stage_widths: Vec<Option<Arc<StageWidth>>> = (0..n)
            .map(|s| {
                (opts.autoscale.is_some() && s > 0 && s < n - 1)
                    .then(|| StageWidth::new(stages[s].width, eff_width[s]))
            })
            .collect();

        // Build streams between consecutive stages. A worker process only
        // materialises its own stage's boundary streams: the ingress link
        // keeps the full upstream-width → local-width topology (writer
        // `p` is driven by remote producer `p`, so round-robin routing is
        // reproduced exactly), while each copy's egress is a private 1→1
        // stream drained by a socket pump.
        let mut writers_per_stage: Vec<Vec<Option<crate::stream::StreamWriter>>> =
            (0..n).map(|_| Vec::new()).collect();
        let mut readers_per_stage: Vec<Vec<Option<crate::stream::StreamReader>>> =
            (0..n).map(|_| Vec::new()).collect();
        for s in 0..n {
            readers_per_stage[s] = (0..eff_width[s]).map(|_| None).collect();
            writers_per_stage[s] = (0..eff_width[s]).map(|_| None).collect();
        }
        let mut ingress_writers: Vec<crate::stream::StreamWriter> = Vec::new();
        let mut egress_readers: Vec<crate::stream::StreamReader> = Vec::new();
        match active_stage {
            None => {
                for s in 0..n.saturating_sub(1) {
                    let (ws, rs) = logical_stream(
                        eff_width[s],
                        eff_width[s + 1],
                        opts.capacity,
                        Some(Arc::clone(&control)),
                        opts.recovery.enabled,
                        opts.same_host_rings,
                    );
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
                    let (ws, rs) = logical_stream(
                        eff_width[k - 1],
                        eff_width[k],
                        opts.capacity,
                        Some(Arc::clone(&control)),
                        opts.recovery.enabled,
                        opts.same_host_rings,
                    );
                    ingress_writers = ws;
                    for (i, r) in rs.into_iter().enumerate() {
                        readers_per_stage[k][i] = Some(r);
                    }
                }
                if k < n - 1 {
                    for slot in writers_per_stage[k].iter_mut().take(eff_width[k]) {
                        let (mut ws, mut rs) = logical_stream(
                            1,
                            1,
                            opts.capacity,
                            Some(Arc::clone(&control)),
                            opts.recovery.enabled,
                            opts.same_host_rings,
                        );
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

        // Live telemetry: one probe per locally-run stage, attached to
        // every stream endpoint the stage's copies touch. All `None`
        // when telemetry is off — the stream hot path then pays nothing
        // beyond an `Option` check.
        let probes: Vec<Option<Arc<StageProbe>>> = (0..n)
            .map(|s| {
                (opts.telemetry.is_some() && active_stage.is_none_or(|k| k == s))
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
        let mut link_probes: Vec<(u32, Arc<LinkProbe>)> = Vec::new();
        if opts.telemetry.is_some() {
            // Packets arriving over TCP get a fresh residence stamp here:
            // origin ticks don't cross process boundaries (the clocks are
            // not comparable), so the ingress bridge re-stamps send time
            // only.
            for w in &mut ingress_writers {
                w.enable_stamping();
            }
            if let Some(k) = active_stage {
                if k > 0 {
                    link_probes.push((k as u32, Arc::new(LinkProbe::default())));
                }
                if k < n - 1 {
                    link_probes.push(((k + 1) as u32, Arc::new(LinkProbe::default())));
                }
            }
        }
        let link_probe = |link: u32| {
            link_probes
                .iter()
                .find(|(l, _)| *l == link)
                .map(|(_, p)| Arc::clone(p))
        };
        let ingress_probe = active_stage.and_then(|k| link_probe(k as u32));
        let egress_probe = active_stage.and_then(|k| link_probe((k + 1) as u32));

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
        let errors: Arc<Mutex<Vec<FilterError>>> = Arc::new(Mutex::new(Vec::new()));
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
        let net_stats: Arc<Mutex<Vec<(u32, NetLinkStats)>>> = Arc::new(Mutex::new(Vec::new()));
        let recovery = opts.recovery;
        let store = opts
            .recovery
            .enabled
            .then(|| opts.checkpoint_store.clone().unwrap_or_default());
        // Telemetry shipping connection, shared between the sampler loop
        // and the final flush after the scope ends.
        let telemetry_client: Mutex<Option<TelemetryClient>> = Mutex::new(None);
        let worker_id: u32 = active_stage.map_or(0, |k| k as u32);

        std::thread::scope(|scope| {
            if opts.deadline.is_some() || opts.stall_timeout.is_some() {
                let control = Arc::clone(&control);
                let done = Arc::clone(&done);
                let deadline = opts.deadline;
                let stall_timeout = opts.stall_timeout;
                scope.spawn(move || {
                    watchdog(&control, &done, deadline, stall_timeout);
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
                let link = active_stage.expect("ingress implies worker mode") as u32;
                let writers = std::mem::take(&mut ingress_writers);
                let control = Arc::clone(&control);
                let errors = Arc::clone(&errors);
                let done = Arc::clone(&done);
                let net_stats = Arc::clone(&net_stats);
                let probe = ingress_probe.clone();
                let tuning = opts.net_tuning;
                scope.spawn(move || {
                    let ctl = Some(Arc::clone(&control));
                    match serve_ingress(ingress, link, writers, ctl, probe, tuning) {
                        Ok(st) => plock(&net_stats).push((link, st)),
                        // The serve loop has already cancelled the run and
                        // closed its local writers.
                        Err(e) => plock(&errors).push(e),
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
                let net_stats = Arc::clone(&net_stats);
                reader.set_batch(batch);
                let probe = egress_probe.clone();
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
                    match pumped {
                        Ok(st) => plock(&net_stats).push(((k + 1) as u32, st)),
                        Err(e) => {
                            // Wake the (possibly blocked) local producer.
                            if e.kind != ErrorKind::Cancelled {
                                control.cancel(format!("egress link {} failed: {e}", k + 1));
                            }
                            plock(&errors).push(e);
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
            for (s, stage) in stages.iter().enumerate() {
                if active_stage.is_some_and(|k| k != s) {
                    continue;
                }
                for c in 0..eff_width[s] {
                    let tid = tid_base[s] + c as u32;
                    let injector = opts.faults.injector(&stage.name, c);
                    let mut io = FilterIo {
                        input: readers_per_stage[s][c].take(),
                        output: writers_per_stage[s][c].take(),
                        copy_index: c,
                        width: eff_width[s],
                        injector,
                        control: Some(Arc::clone(&control)),
                        pool: opts.pool.clone(),
                        pool_hits: 0,
                        pool_misses: 0,
                        dropped: 0,
                        recovery: store.as_ref().map(|st| RecoveryCtx {
                            store: st.clone(),
                            stage: stage.name.clone(),
                            copy: c,
                            checkpoint_every: recovery.checkpoint_every,
                            auto_ack: !stage.stateful,
                            accepted: 0,
                            accepted_total: 0,
                            committed_out: 0,
                            checkpoints: 0,
                            checkpoint_bytes: 0,
                            tid,
                        }),
                    };
                    if let Some(r) = io.input.as_mut() {
                        r.set_trace_tid(tid);
                        r.set_batch(batch);
                    }
                    if let Some(w) = io.output.as_mut() {
                        w.set_trace_tid(tid);
                    }
                    let probe = probes[s].clone();
                    if let Some(p) = &probe {
                        if let Some(r) = io.input.as_mut() {
                            r.attach_probe(Arc::clone(p), c);
                        }
                        if let Some(w) = io.output.as_mut() {
                            w.attach_probe(Arc::clone(p), c);
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
                        if let Some(p) = &probe {
                            p.copy(c).mark_started(now_us());
                        }
                        let mut failures_here = 0u64;
                        let mut panics_here = 0u64;
                        let mut recoveries_here = 0u64;
                        let result = loop {
                            // Fresh filter instance per attempt: a failed
                            // attempt may have corrupted per-copy state.
                            let mut filter = (factory)(c);
                            let unit =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    {
                                        let _s =
                                            trace::span("init", "filter-phase", PID_RUNTIME, tid);
                                        filter.init(&mut io)?;
                                    }
                                    // A restarted copy gets its committed
                                    // snapshot back before processing the
                                    // replayed input tail.
                                    if recovery.enabled {
                                        if let Some(snap) = io.latest_snapshot() {
                                            let _s = trace::span(
                                                "restore",
                                                "recovery",
                                                PID_RUNTIME,
                                                tid,
                                            );
                                            filter.restore(&snap)?;
                                        }
                                    }
                                    let processed = {
                                        let _s = trace::span(
                                            "process",
                                            "filter-phase",
                                            PID_RUNTIME,
                                            tid,
                                        );
                                        filter.process(&mut io)
                                    };
                                    // An input-side injected failure parks
                                    // its error and fabricates end-of-work:
                                    // the attempt is doomed whatever
                                    // `process` made of the truncated
                                    // input, so `finalize` must not run
                                    // and publish its results.
                                    if let Some(e) = io.take_injected_error() {
                                        return Err(e);
                                    }
                                    processed?;
                                    let _s =
                                        trace::span("finalize", "filter-phase", PID_RUNTIME, tid);
                                    filter.finalize(&mut io)
                                }));
                            let attempt_result: FilterResult<()> = match unit {
                                Ok(r) => r,
                                Err(payload) => {
                                    panics_here += 1;
                                    Err(FilterError::panicked(
                                        label.clone(),
                                        panic_message(payload),
                                    ))
                                }
                            };
                            // A failure parked by a phase that then
                            // panicked, or by `finalize`, is still the
                            // attempt's root cause; taking it after every
                            // attempt also keeps it from failing the next.
                            let attempt_result = match io.take_injected_error() {
                                Some(e) => Err(e),
                                None => attempt_result,
                            };
                            match attempt_result {
                                Err(e) => {
                                    failures_here += 1;
                                    if trace::enabled() {
                                        trace::instant(
                                            "failure",
                                            "fault",
                                            PID_RUNTIME,
                                            tid,
                                            vec![("error", e.to_string().into())],
                                        );
                                    }
                                    // Restart: a fresh instance, the
                                    // committed checkpoint and the unacked
                                    // input replayed, within the restart
                                    // budget. Without recovery nothing
                                    // brings back the state and input the
                                    // failed attempt consumed, so its
                                    // error is final.
                                    if recovery.enabled
                                        && e.kind != ErrorKind::Cancelled
                                        && recoveries_here < recovery.max_restarts as u64
                                        && !control.is_cancelled()
                                    {
                                        recoveries_here += 1;
                                        if trace::enabled() {
                                            trace::instant(
                                                "recovery",
                                                "recovery",
                                                PID_RUNTIME,
                                                tid,
                                                vec![
                                                    ("restart", recoveries_here.into()),
                                                    ("error", e.to_string().into()),
                                                ],
                                            );
                                        }
                                        let _ = control.cancellable_sleep(
                                            restart_backoff(recoveries_here),
                                            &label,
                                        );
                                        io.begin_attempt();
                                        continue;
                                    }
                                    break Err(e);
                                }
                                Ok(()) => {
                                    // Completed unit of work: everything
                                    // delivered was processed — release
                                    // the replay buffers feeding this copy.
                                    io.commit_final();
                                    break Ok(());
                                }
                            }
                        };
                        // Close output so downstream sees end-of-work even
                        // on error; drop the injector first so draining
                        // cannot re-fire faults. Sample the was-blocked-
                        // when-cancelled flags now — the drain below also
                        // touches the (cancelled) channel and would set
                        // them spuriously.
                        io.injector = None;
                        let recv_stalled = io
                            .input
                            .as_ref()
                            .is_some_and(|r| r.cancelled_while_blocked());
                        let send_stalled = io
                            .output
                            .as_ref()
                            .is_some_and(|w| w.cancelled_while_blocked());
                        // Record a failure before closing the output: a
                        // downstream copy that fails because this stream
                        // ended early must not outrank the root cause.
                        let failed = result.is_err();
                        if let Err(e) = result {
                            plock(&errors).push(FilterError {
                                filter: label.clone(),
                                ..e
                            });
                        }
                        if let Some(w) = io.output.as_mut() {
                            w.close();
                        }
                        // Drain remaining input on error to unblock
                        // upstream writers.
                        if failed {
                            while io.read().is_some() {}
                        }
                        let busy = t.elapsed();
                        if let Some(p) = &probe {
                            p.copy(c).mark_finished(busy.as_micros() as u64);
                        }
                        {
                            let mut st = plock(&stats);
                            let entry = &mut st[s];
                            if let Some(r) = &io.input {
                                let (b, by) = r.stats();
                                entry.buffers_in += b;
                                entry.bytes_in += by;
                                entry.blocked_recv += r.blocked();
                                if copy_span.is_recording() {
                                    copy_span.arg("buffers_in", b);
                                    copy_span
                                        .arg("blocked_recv_us", r.blocked().as_micros() as u64);
                                }
                                if recv_stalled {
                                    plock(&stalled_at).push(format!(
                                        "{label} blocked in recv ({}ms starved)",
                                        r.blocked().as_millis()
                                    ));
                                }
                            }
                            if let Some(w) = &io.output {
                                let (b, by) = w.stats();
                                entry.buffers_out += b;
                                entry.bytes_out += by;
                                entry.blocked_send += w.blocked();
                                if copy_span.is_recording() {
                                    copy_span.arg("buffers_out", b);
                                    copy_span
                                        .arg("blocked_send_us", w.blocked().as_micros() as u64);
                                }
                                if send_stalled {
                                    plock(&stalled_at).push(format!(
                                        "{label} blocked in send ({}ms backpressured)",
                                        w.blocked().as_millis()
                                    ));
                                }
                            }
                            entry.busy += busy;
                            // Accumulated at copy exit; mid-run
                            // snapshots read the live per-copy probe
                            // instead, so a sample taken before this line
                            // (or a crashed copy's) still shows real busy
                            // time.
                            entry.busy_per_copy[c] += busy;
                            entry.failures += failures_here;
                            entry.dropped += io.dropped;
                            entry.panics += panics_here;
                            entry.recoveries += recoveries_here;
                            if let Some(r) = &io.input {
                                entry.replayed_packets += r.recovery_stats().0;
                            }
                            let (ck, ckb) = io.checkpoint_counts();
                            entry.checkpoints += ck;
                            entry.checkpoint_bytes += ckb;
                            let (ph, pm) = io.pool_counts();
                            entry.pool_hits += ph;
                            entry.pool_misses += pm;
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
        for (s, probe) in probes.iter().enumerate() {
            if let Some(p) = probe {
                stages[s].residence_us = p.residence();
                if let Some(h) = p.e2e() {
                    e2e_us = h;
                }
            }
        }
        // Merge per-thread samples (each egress pump reports separately)
        // into one entry per link.
        let mut net_links: Vec<(u32, NetLinkStats)> = Vec::new();
        for (link, st) in std::mem::take(&mut *plock(&net_stats)) {
            if let Some((_, agg)) = net_links.iter_mut().find(|(l, _)| *l == link) {
                agg.frames += st.frames;
                agg.bytes += st.bytes;
                agg.deduped += st.deduped;
                agg.timeouts += st.timeouts;
                agg.reconnects += st.reconnects;
            } else {
                net_links.push((link, st));
            }
        }
        net_links.sort_by_key(|(link, _)| *link);
        if let Some(registry) = &opts.metrics {
            let mut reg = plock(registry);
            for (link, st) in &net_links {
                reg.counter(&format!("net.link{link}.frames"), st.frames);
                reg.counter(&format!("net.link{link}.bytes"), st.bytes);
                if st.deduped > 0 {
                    reg.counter(&format!("net.link{link}.deduped"), st.deduped);
                }
                if st.timeouts > 0 {
                    reg.counter(&format!("net.link{link}.timeouts"), st.timeouts);
                }
                if st.reconnects > 0 {
                    reg.counter(&format!("net.link{link}.reconnects"), st.reconnects);
                }
            }
            for (s, st) in stages.iter().enumerate() {
                if st.failures > 0 {
                    reg.counter(&format!("stage.{}.failures", st.name), st.failures);
                }
                if st.dropped > 0 {
                    reg.counter(&format!("stage.{}.dropped", st.name), st.dropped);
                }
                if st.panics > 0 {
                    reg.counter(&format!("stage.{}.panics", st.name), st.panics);
                }
                if st.pool_hits > 0 {
                    reg.counter(&format!("stage.{}.pool.hits", st.name), st.pool_hits);
                }
                if st.pool_misses > 0 {
                    reg.counter(&format!("stage.{}.pool.misses", st.name), st.pool_misses);
                }
                if st.recoveries > 0 {
                    reg.counter(&format!("stage.{}.recoveries", st.name), st.recoveries);
                }
                if st.replayed_packets > 0 {
                    reg.counter(&format!("stage.{}.replayed", st.name), st.replayed_packets);
                }
                if st.checkpoints > 0 {
                    reg.counter(&format!("stage.{}.checkpoints", st.name), st.checkpoints);
                    reg.counter(
                        &format!("stage.{}.checkpoint_bytes", st.name),
                        st.checkpoint_bytes,
                    );
                }
                // Measured per-stage rates for post-run cost-model
                // calibration — pushed for every locally-run stage when
                // telemetry is on, so the launcher's merged registry has
                // a complete picture.
                if opts.telemetry.is_some() && active_stage.is_none_or(|k| k == s) {
                    reg.counter(
                        &format!("stage.{}.busy_us", st.name),
                        st.busy.as_micros() as u64,
                    );
                    reg.counter(
                        &format!("stage.{}.blocked_send_us", st.name),
                        st.blocked_send.as_micros() as u64,
                    );
                    reg.counter(
                        &format!("stage.{}.blocked_recv_us", st.name),
                        st.blocked_recv.as_micros() as u64,
                    );
                    reg.counter(&format!("stage.{}.buffers_in", st.name), st.buffers_in);
                    reg.counter(&format!("stage.{}.buffers_out", st.name), st.buffers_out);
                    if st.residence_us.count > 0 {
                        reg.merge_histogram(
                            &format!("stage.{}.residence_us", st.name),
                            &st.residence_us,
                        );
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
                    client =
                        TelemetryClient::connect(addr, worker_id, Some(Arc::clone(&control))).ok();
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

        let errors = std::mem::take(&mut *plock(&errors));
        // A real failure outranks the cancellation noise it causes.
        if let Some(e) = errors.iter().find(|e| e.kind != ErrorKind::Cancelled) {
            return Err(e.clone());
        }
        if let Some(reason) = control.reason() {
            let blocked = plock(&stalled_at);
            let detail = if blocked.is_empty() {
                "no copy was blocked in a stream operation".to_string()
            } else {
                blocked.join("; ")
            };
            return Err(FilterError::stalled(
                "pipeline",
                format!("{reason}; {detail}"),
            ));
        }
        if let Some(e) = errors.first() {
            return Err(e.clone());
        }
        Ok(RunStats {
            wall: t0.elapsed(),
            stages,
            net_links,
            e2e_us,
            autoscale,
        })
    }
}

/// Backoff before restart `n` (1-based) of a failed copy: 10 ms, doubling,
/// capped at 2 s.
fn restart_backoff(n: u64) -> Duration {
    let doublings = n.saturating_sub(1).min(20) as u32;
    (Duration::from_millis(10) * (1 << doublings)).min(Duration::from_secs(2))
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
/// expiry or lack of progress, cancels the run (waking every blocked
/// stream operation) with a reason the final error reports.
fn watchdog(
    control: &RunControl,
    done: &(Mutex<usize>, Condvar),
    deadline: Option<Duration>,
    stall_timeout: Option<Duration>,
) {
    let start = Instant::now();
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let total2 = Arc::clone(&total);
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("work", 0, 50),
            recovery: crate::recover::RecoveryOptions::on(),
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
        // The panicked packet and everything unacked was replayed; dedup
        // kept the totals exact.
        assert_eq!(total.load(Ordering::Relaxed), (0..200).sum::<u64>());
        assert_eq!(stats.panics(), 1);
        assert_eq!(stats.recoveries(), 1);
        assert!(stats.replayed_packets() >= 1);
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

    fn sum_sink(total: &Arc<AtomicU64>) -> FilterFactory {
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
            recovery: crate::recover::RecoveryOptions::on(),
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
        // A copy panic mid-scale is masked by the replay protocol and
        // the total stays byte-exact — width decisions are routing-only.
        assert_eq!(total.load(Ordering::Relaxed), (0..300).sum::<u64>());
        assert_eq!(stats.panics(), 1);
        assert_eq!(stats.recoveries(), 1);
    }

    #[test]
    fn recovery_restores_a_checkpointed_stateful_stage() {
        struct CkptSum {
            sum: u64,
        }
        impl Filter for CkptSum {
            fn restore(&mut self, snapshot: &[u8]) -> FilterResult<()> {
                let bytes: [u8; 8] = snapshot
                    .try_into()
                    .map_err(|_| FilterError::malformed("ckpt-sum", "bad snapshot"))?;
                self.sum = u64::from_le_bytes(bytes);
                Ok(())
            }
            fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
                while let Some(b) = io.read() {
                    self.sum += b.u64_le("ckpt-sum")?;
                    if io.checkpoint_due() {
                        io.commit_checkpoint(&self.sum.to_le_bytes())?;
                    }
                }
                Ok(())
            }
            fn finalize(&mut self, io: &mut FilterIo) -> FilterResult<()> {
                io.write(Buffer::from_vec(self.sum.to_le_bytes().to_vec()))
            }
            fn name(&self) -> &str {
                "ckpt-sum"
            }
        }
        let total = Arc::new(AtomicU64::new(0));
        let total2 = Arc::clone(&total);
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("acc", 0, 150),
            recovery: crate::recover::RecoveryOptions::on().with_checkpoint_every(16),
            ..Default::default()
        };
        let stats = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(200)))
            .add_stage(
                StageSpec::new("acc", 1, Box::new(|_| Box::new(CkptSum { sum: 0 }))).stateful(),
            )
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
        // 150 packets accepted before the panic, far past several
        // checkpoints: the restart restored state and replayed only the
        // unacked tail, so the final sum is exact (no loss, no double
        // counting).
        assert_eq!(total.load(Ordering::Relaxed), (0..200).sum::<u64>());
        assert_eq!(stats.recoveries(), 1);
        assert!(stats.checkpoints() >= 9, "got {}", stats.checkpoints());
        assert!(stats.checkpoint_bytes() >= 8 * stats.checkpoints());
        // Replay is bounded by the ack cadence, not the run length.
        assert!(
            stats.replayed_packets() <= 16 + 64 + 1,
            "replayed {} packets",
            stats.replayed_packets()
        );
    }

    #[test]
    fn stateful_stage_without_restore_fails_the_restart_loudly() {
        struct NoRestore {
            sum: u64,
        }
        impl Filter for NoRestore {
            fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
                while let Some(b) = io.read() {
                    self.sum += b.u64_le("no-restore")?;
                    if io.checkpoint_due() {
                        io.commit_checkpoint(&self.sum.to_le_bytes())?;
                    }
                }
                Ok(())
            }
            fn name(&self) -> &str {
                "no-restore"
            }
        }
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("acc", 0, 50),
            recovery: crate::recover::RecoveryOptions::on()
                .with_checkpoint_every(8)
                .with_max_restarts(1),
            ..Default::default()
        };
        let err = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(100)))
            .add_stage(
                StageSpec::new("acc", 1, Box::new(|_| Box::new(NoRestore { sum: 0 }))).stateful(),
            )
            .run()
            .unwrap_err();
        assert!(
            err.message.contains("no restore support"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn restart_budget_exhaustion_surfaces_the_error() {
        let opts = RunOptions {
            // Panic on every packet: restarts keep replaying into the
            // same panic until the budget runs out.
            faults: FaultPlan::parse("work[0]@*:panic").unwrap(),
            recovery: crate::recover::RecoveryOptions::on().with_max_restarts(2),
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
    fn restart_backoff_doubles_and_caps() {
        assert_eq!(restart_backoff(1), Duration::from_millis(10));
        assert_eq!(restart_backoff(2), Duration::from_millis(20));
        assert_eq!(restart_backoff(3), Duration::from_millis(40));
        assert_eq!(restart_backoff(20), Duration::from_secs(2), "capped");
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
