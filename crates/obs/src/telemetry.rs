//! Live telemetry plane: periodic in-flight snapshots of a running
//! pipeline.
//!
//! The metrics registry ([`crate::metrics`]) is an *end-of-run* artifact:
//! per-thread registries merge once every copy exits. This module is the
//! *during-the-run* counterpart. A [`TelemetrySampler`] receives one
//! [`TelemetrySample`] per sampling tick (every `CGP_STATUS_EVERY` ms),
//! each bundling per-stage in-flight gauges ([`StageSample`]: queue
//! depth, incremental busy time per copy, blocked time) plus run-wide
//! counters and latency percentiles, and fans it out to:
//!
//! - a JSONL log (`CGP_TELEMETRY_LOG`), one sample per line, written
//!   atomically per line so it can be tailed while the run is live;
//! - an optional single-line status renderer on stderr;
//! - the latest-sample slot, for pollers.
//!
//! The sampler is deliberately passive: the *probing* (lock-light atomic
//! reads against the executor's shared state) lives next to the executor
//! in `cgp-datacutter`; this crate only defines the sample model, its
//! JSON codec (used verbatim as the payload of the network `Telemetry`
//! frame), and the fan-out. Samples therefore serialize/deserialize
//! losslessly, so a launcher can merge snapshots shipped by worker
//! processes with its own.

use crate::json::Json;
use std::fs::File;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Sampling cadence in milliseconds. A nonzero cadence turns telemetry
/// on and starts a sampler thread; 0 starts none, so alone it leaves
/// telemetry off, and with a log, a launcher address or autoscaling the
/// run still stamps packets and records its final sample. The probes
/// count on every run either way.
pub const STATUS_EVERY_ENV: &str = "CGP_STATUS_EVERY";
/// JSONL sink for samples (and, on a launcher, merged registries).
pub const TELEMETRY_LOG_ENV: &str = "CGP_TELEMETRY_LOG";

/// One stage's in-flight gauges at a sampling tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageSample {
    pub stage: String,
    /// Packets waiting in the stage's input queues (including locally
    /// drained-but-unconsumed packets).
    pub queue_depth: u64,
    /// Wall-clock busy time of each copy so far, µs — maintained
    /// incrementally, so mid-run snapshots and crashed copies report
    /// real busy time.
    pub busy_us_per_copy: Vec<u64>,
    /// Fraction of each copy's busy time spent neither send-blocked nor
    /// recv-starved (i.e. actually computing), 0..=1.
    pub active_frac_per_copy: Vec<f64>,
    pub blocked_send_us: u64,
    pub blocked_recv_us: u64,
    pub buffers_in: u64,
    pub buffers_out: u64,
    /// Per-stage residence latency (send → delivery), interpolated
    /// percentiles in µs; 0 when no packet has been stamped yet.
    pub residence_p50_us: u64,
    pub residence_p95_us: u64,
    pub residence_p99_us: u64,
}

/// One sampling tick over the whole (local part of the) pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySample {
    /// Which process produced this sample (`local`, `worker:2`, ...).
    pub source: String,
    /// Monotone per-source sample number (stamped by the sampler).
    pub seq: u64,
    /// Time since the run started, µs.
    pub elapsed_us: u64,
    /// Set on the last sample a source emits (end of its run).
    pub fin: bool,
    pub stages: Vec<StageSample>,
    /// Run-wide counters (pool hit/miss, `net.link<k>.*`, ...), sorted
    /// by name for deterministic rendering.
    pub counters: Vec<(String, u64)>,
    /// End-to-end (ingest origin → last-stage delivery) latency
    /// percentiles in µs, recorded at the final stage; count is the
    /// number of packets measured.
    pub e2e_count: u64,
    pub e2e_p50_us: u64,
    pub e2e_p95_us: u64,
    pub e2e_p99_us: u64,
}

impl StageSample {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("stage", Json::Str(self.stage.clone()));
        o.set("queue_depth", Json::Num(self.queue_depth as f64));
        o.set(
            "busy_us_per_copy",
            Json::Arr(
                self.busy_us_per_copy
                    .iter()
                    .map(|&v| Json::Num(v as f64))
                    .collect(),
            ),
        );
        o.set(
            "active_frac_per_copy",
            Json::Arr(
                self.active_frac_per_copy
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect(),
            ),
        );
        o.set("blocked_send_us", Json::Num(self.blocked_send_us as f64));
        o.set("blocked_recv_us", Json::Num(self.blocked_recv_us as f64));
        o.set("buffers_in", Json::Num(self.buffers_in as f64));
        o.set("buffers_out", Json::Num(self.buffers_out as f64));
        o.set("residence_p50_us", Json::Num(self.residence_p50_us as f64));
        o.set("residence_p95_us", Json::Num(self.residence_p95_us as f64));
        o.set("residence_p99_us", Json::Num(self.residence_p99_us as f64));
        o
    }

    fn from_json(j: &Json) -> Option<StageSample> {
        let num = |k: &str| j.get(k)?.as_f64().map(|v| v as u64);
        Some(StageSample {
            stage: j.get("stage")?.as_str()?.to_string(),
            queue_depth: num("queue_depth")?,
            busy_us_per_copy: j
                .get("busy_us_per_copy")?
                .as_arr()?
                .iter()
                .map(|v| v.as_f64().map(|f| f as u64))
                .collect::<Option<Vec<_>>>()?,
            active_frac_per_copy: j
                .get("active_frac_per_copy")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<_>>>()?,
            blocked_send_us: num("blocked_send_us")?,
            blocked_recv_us: num("blocked_recv_us")?,
            buffers_in: num("buffers_in")?,
            buffers_out: num("buffers_out")?,
            residence_p50_us: num("residence_p50_us")?,
            residence_p95_us: num("residence_p95_us")?,
            residence_p99_us: num("residence_p99_us")?,
        })
    }
}

impl TelemetrySample {
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("source", Json::Str(self.source.clone()));
        o.set("seq", Json::Num(self.seq as f64));
        o.set("elapsed_us", Json::Num(self.elapsed_us as f64));
        o.set("fin", Json::Bool(self.fin));
        o.set(
            "stages",
            Json::Arr(self.stages.iter().map(StageSample::to_json).collect()),
        );
        let mut counters = Json::obj();
        for (name, v) in &self.counters {
            counters.set(name.clone(), Json::Num(*v as f64));
        }
        o.set("counters", counters);
        o.set("e2e_count", Json::Num(self.e2e_count as f64));
        o.set("e2e_p50_us", Json::Num(self.e2e_p50_us as f64));
        o.set("e2e_p95_us", Json::Num(self.e2e_p95_us as f64));
        o.set("e2e_p99_us", Json::Num(self.e2e_p99_us as f64));
        o
    }

    /// Decode [`to_json`](Self::to_json) output. `None` on any
    /// structural mismatch (hardened against malformed remote input).
    pub fn from_json(j: &Json) -> Option<TelemetrySample> {
        let num = |k: &str| j.get(k)?.as_f64().map(|v| v as u64);
        let Json::Obj(counter_entries) = j.get("counters")? else {
            return None;
        };
        Some(TelemetrySample {
            source: j.get("source")?.as_str()?.to_string(),
            seq: num("seq")?,
            elapsed_us: num("elapsed_us")?,
            fin: j.get("fin")?.as_bool()?,
            stages: j
                .get("stages")?
                .as_arr()?
                .iter()
                .map(StageSample::from_json)
                .collect::<Option<Vec<_>>>()?,
            counters: counter_entries
                .iter()
                .map(|(k, v)| v.as_f64().map(|f| (k.clone(), f as u64)))
                .collect::<Option<Vec<_>>>()?,
            e2e_count: num("e2e_count")?,
            e2e_p50_us: num("e2e_p50_us")?,
            e2e_p95_us: num("e2e_p95_us")?,
            e2e_p99_us: num("e2e_p99_us")?,
        })
    }

    /// Compact one-line rendering for a live status line.
    pub fn render_status_line(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "[telemetry {}] t={:.1}s",
            self.source,
            self.elapsed_us as f64 / 1e6
        );
        for s in &self.stages {
            let busy: u64 = s.busy_us_per_copy.iter().sum();
            let active = if s.active_frac_per_copy.is_empty() {
                0.0
            } else {
                s.active_frac_per_copy.iter().sum::<f64>() / s.active_frac_per_copy.len() as f64
            };
            let _ = write!(
                line,
                " | {} q={} busy={}ms act={:.0}%",
                s.stage,
                s.queue_depth,
                busy / s.busy_us_per_copy.len().max(1) as u64 / 1000,
                active * 100.0
            );
            if s.residence_p99_us > 0 {
                let _ = write!(line, " p99={}us", s.residence_p99_us);
            }
        }
        if self.e2e_count > 0 {
            let _ = write!(
                line,
                " | e2e p50={}us p99={}us",
                self.e2e_p50_us, self.e2e_p99_us
            );
        }
        line
    }
}

/// Fan-out sink for periodic [`TelemetrySample`]s: stamps sequence
/// numbers, appends JSONL lines, optionally renders a live status line,
/// and retains the latest sample for pollers. All methods take `&self`
/// (internally synchronized) so a sampler can be shared across the
/// executor's scope threads.
#[derive(Debug)]
pub struct TelemetrySampler {
    every: Duration,
    log: Option<Mutex<File>>,
    latest: Mutex<Option<TelemetrySample>>,
    seq: AtomicU64,
    status: bool,
}

impl TelemetrySampler {
    pub fn new(every: Duration) -> Self {
        TelemetrySampler {
            every,
            log: None,
            latest: Mutex::new(None),
            seq: AtomicU64::new(0),
            status: false,
        }
    }

    /// Append samples as JSON lines to `path` (created/truncated).
    pub fn with_log_path(mut self, path: &str) -> std::io::Result<Self> {
        self.log = Some(Mutex::new(File::create(path)?));
        Ok(self)
    }

    /// Also render each sample as a one-line status update on stderr.
    pub fn with_status_line(mut self, on: bool) -> Self {
        self.status = on;
        self
    }

    /// Sampling cadence the probing loop should use.
    pub fn every(&self) -> Duration {
        self.every
    }

    /// Whether samples print as a status line on stderr (a launcher
    /// prints one merged line for its workers instead).
    pub fn shows_status_line(&self) -> bool {
        self.status
    }

    /// Record one sample: stamp its sequence number, fan out, and return
    /// the stamped sample (callers that also ship samples over the wire
    /// forward the returned value).
    pub fn record(&self, mut sample: TelemetrySample) -> TelemetrySample {
        sample.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.log_json(&sample.to_json());
        if self.status {
            eprintln!("{}", sample.render_status_line());
        }
        *lock(&self.latest) = Some(sample.clone());
        sample
    }

    /// Append an arbitrary JSON line to the telemetry log (used by the
    /// launcher-side aggregator for remote samples and merged
    /// registries). A no-op without a log sink.
    pub fn log_json(&self, j: &Json) {
        if let Some(log) = &self.log {
            let mut f = log.lock().unwrap_or_else(|e| e.into_inner());
            let _ = writeln!(f, "{j}");
        }
    }

    /// The most recent sample recorded, if any.
    pub fn latest(&self) -> Option<TelemetrySample> {
        lock(&self.latest).clone()
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySample {
        TelemetrySample {
            source: "worker:1".into(),
            seq: 0,
            elapsed_us: 1_500_000,
            fin: false,
            stages: vec![StageSample {
                stage: "f1".into(),
                queue_depth: 7,
                busy_us_per_copy: vec![1000, 900],
                active_frac_per_copy: vec![0.75, 0.5],
                blocked_send_us: 300,
                blocked_recv_us: 175,
                buffers_in: 42,
                buffers_out: 40,
                residence_p50_us: 80,
                residence_p95_us: 200,
                residence_p99_us: 420,
            }],
            counters: vec![("pool.hits".into(), 12), ("pool.misses".into(), 2)],
            e2e_count: 40,
            e2e_p50_us: 900,
            e2e_p95_us: 2000,
            e2e_p99_us: 2500,
        }
    }

    #[test]
    fn sample_json_roundtrip() {
        let s = sample();
        let text = s.to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(TelemetrySample::from_json(&parsed).unwrap(), s);
    }

    #[test]
    fn from_json_rejects_malformed() {
        let truncated = Json::parse("{\"source\":\"x\",\"seq\":1}").unwrap();
        assert!(TelemetrySample::from_json(&truncated).is_none());
        let not_obj = Json::parse("[1,2]").unwrap();
        assert!(TelemetrySample::from_json(&not_obj).is_none());
    }

    #[test]
    fn sampler_stamps_and_retains() {
        let sampler = TelemetrySampler::new(Duration::from_millis(50));
        assert!(sampler.latest().is_none());
        let a = sampler.record(sample());
        let b = sampler.record(sample());
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert_eq!(sampler.samples(), 2);
        assert_eq!(sampler.latest().unwrap().seq, 1);
        assert_eq!(sampler.every(), Duration::from_millis(50));
    }

    #[test]
    fn sampler_writes_jsonl() {
        let path =
            std::env::temp_dir().join(format!("cgp_telemetry_test_{}.jsonl", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let sampler = TelemetrySampler::new(Duration::from_millis(10))
            .with_log_path(&path)
            .unwrap();
        sampler.record(sample());
        sampler.record(sample());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let parsed = Json::parse(line).unwrap();
            assert!(TelemetrySample::from_json(&parsed).is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn status_line_mentions_stages_and_latency() {
        let line = sample().render_status_line();
        assert!(line.contains("worker:1"));
        assert!(line.contains("f1"));
        assert!(line.contains("p99=420us"));
        assert!(line.contains("e2e p50=900us"));
    }
}
