//! Executor-side probes: the runtime's counters.
//!
//! `cgp_obs::telemetry` defines the sample model and the fan-out sink;
//! this module owns the *probing*: shared, lock-light state the stream
//! endpoints, link bridges and filter copies update as they run. Every
//! run counts into them; [`StageStats`] and [`NetLinkStats`] are read off
//! them when the run ends, and with telemetry on a sampler thread in the
//! executor also reads them every `CGP_STATUS_EVERY` ms without stopping
//! the pipeline.
//!
//! - [`CopyProbe`] — per filter copy: incremental busy time (start tick
//!   published at spawn, so a mid-run snapshot or a crashed copy reports
//!   real busy time, not zero), blocked-send/recv time in nanoseconds,
//!   buffer and byte counts in each direction, input queue depth. All
//!   atomics, all relaxed.
//! - [`StageProbe`] — per logical stage: the copy probes plus the
//!   per-stage residence-latency histogram (and, on the final stage, the
//!   pipeline-wide end-to-end histogram). The histograms sit behind a
//!   `Mutex`, but each is only locked by its own copy's reader thread
//!   (uncontended fast path) and briefly by the sampler.
//! - [`LinkProbe`] — per network link: frame/byte/timeout
//!   counters updated by the ingress/egress bridges.
//!
//! What [`RunOptions::telemetry`] adds on top is latency: packets are
//! stamped only when it is on, so the histograms stay empty without it,
//! and the sampler thread runs only with it.
//!
//! [`RunOptions::telemetry`]: crate::exec::RunOptions::telemetry
//! [`StageStats`]: crate::exec::StageStats
//! [`NetLinkStats`]: crate::link::NetLinkStats

use crate::error::{FilterError, FilterResult};
use crate::link::NetLinkStats;
use cgp_obs::metrics::{Histogram, MetricsRegistry};
use cgp_obs::telemetry::{StageSample, TelemetrySample, TelemetrySampler};
use cgp_obs::{trace, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Monotone microsecond tick shared with the trace layer, so packet
/// stamps and trace events live on one clock. Floored at 1: stamp 0
/// means "unstamped", and the epoch is lazily initialized, so the very
/// first tick of a process would otherwise read as missing.
pub(crate) fn now_us() -> u64 {
    (trace::now_us() as u64).max(1)
}

/// [`now_us`] for an [`std::time::Instant`] already in hand: no clock
/// read, just the epoch subtraction.
pub(crate) fn instant_us(at: std::time::Instant) -> u64 {
    (trace::instant_us(at) as u64).max(1)
}

/// Lock-light counters for one filter copy.
#[derive(Default)]
pub struct CopyProbe {
    /// Tick when the copy thread started (0 = not yet started). Published
    /// at spawn so busy time accrues incrementally.
    started_us: AtomicU64,
    /// Final busy time, ns, published at copy exit (0 = still running).
    final_busy_ns: AtomicU64,
    /// Time spent blocked in sends (downstream backpressure), ns.
    pub(crate) blocked_send_ns: AtomicU64,
    /// Time spent blocked in receives (starved for input), ns.
    pub(crate) blocked_recv_ns: AtomicU64,
    pub(crate) buffers_in: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) buffers_out: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    /// Input queue backlog observed at the last delivery.
    pub(crate) queue_depth: AtomicU64,
}

impl CopyProbe {
    pub(crate) fn mark_started(&self, now: u64) {
        self.started_us.store(now.max(1), Ordering::Relaxed);
    }

    pub(crate) fn mark_finished(&self, busy: Duration) {
        self.final_busy_ns
            .store((busy.as_nanos() as u64).max(1), Ordering::Relaxed);
    }

    /// Busy wall-time so far, µs: the final value for finished copies,
    /// `now − start` for running ones, 0 before the copy starts.
    pub fn busy_us(&self, now: u64) -> u64 {
        let fin = self.final_busy_ns.load(Ordering::Relaxed);
        if fin != 0 {
            return fin.div_ceil(1000);
        }
        match self.started_us.load(Ordering::Relaxed) {
            0 => 0,
            start => now.saturating_sub(start),
        }
    }

    /// Final busy time (zero while the copy runs).
    pub(crate) fn busy(&self) -> Duration {
        Duration::from_nanos(self.final_busy_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn blocked_send(&self) -> Duration {
        Duration::from_nanos(self.blocked_send_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn blocked_recv(&self) -> Duration {
        Duration::from_nanos(self.blocked_recv_ns.load(Ordering::Relaxed))
    }

    /// Fraction of busy time spent neither send-blocked nor recv-starved.
    pub(crate) fn active_frac(&self, now: u64) -> f64 {
        let busy = self.busy_us(now);
        if busy == 0 {
            return 0.0;
        }
        let blocked = (self.blocked_send() + self.blocked_recv()).as_micros();
        (1.0 - blocked as f64 / busy as f64).clamp(0.0, 1.0)
    }
}

/// Shared in-flight state for one logical stage.
pub struct StageProbe {
    pub name: String,
    pub(crate) copies: Vec<CopyProbe>,
    /// Residence latency (upstream send → delivery at this stage), µs.
    pub(crate) residence_us: Mutex<Histogram>,
    /// End-to-end latency (ingest origin → delivery), µs; `Some` only on
    /// the pipeline's final stage.
    pub(crate) e2e_us: Option<Mutex<Histogram>>,
}

impl StageProbe {
    pub(crate) fn new(name: String, width: usize, last: bool) -> Arc<Self> {
        Arc::new(StageProbe {
            name,
            copies: (0..width).map(|_| CopyProbe::default()).collect(),
            residence_us: Mutex::new(Histogram::default()),
            e2e_us: last.then(|| Mutex::new(Histogram::default())),
        })
    }

    pub(crate) fn copy(&self, c: usize) -> &CopyProbe {
        &self.copies[c]
    }

    /// Snapshot this stage's gauges (called from the sampler thread).
    pub fn sample(&self, now: u64) -> StageSample {
        let queue_depth = self
            .copies
            .iter()
            .map(|c| c.queue_depth.load(Ordering::Relaxed))
            .sum();
        let residence = plock(&self.residence_us).clone();
        StageSample {
            stage: self.name.clone(),
            queue_depth,
            busy_us_per_copy: self.copies.iter().map(|c| c.busy_us(now)).collect(),
            active_frac_per_copy: self.copies.iter().map(|c| c.active_frac(now)).collect(),
            blocked_send_us: self
                .copies
                .iter()
                .map(|c| c.blocked_send().as_micros() as u64)
                .sum(),
            blocked_recv_us: self
                .copies
                .iter()
                .map(|c| c.blocked_recv().as_micros() as u64)
                .sum(),
            buffers_in: self
                .copies
                .iter()
                .map(|c| c.buffers_in.load(Ordering::Relaxed))
                .sum(),
            buffers_out: self
                .copies
                .iter()
                .map(|c| c.buffers_out.load(Ordering::Relaxed))
                .sum(),
            residence_p50_us: residence.percentile(0.5),
            residence_p95_us: residence.percentile(0.95),
            residence_p99_us: residence.percentile(0.99),
        }
    }

    /// Snapshot of the per-stage residence-latency histogram.
    pub fn residence(&self) -> Histogram {
        plock(&self.residence_us).clone()
    }

    /// Snapshot of the end-to-end histogram (final stage only).
    pub fn e2e(&self) -> Option<Histogram> {
        self.e2e_us.as_ref().map(|h| plock(h).clone())
    }
}

/// Counters for one network link, shared with its ingress or egress
/// bridge threads; [`NetLinkStats`] is read off them.
#[derive(Default)]
pub struct LinkProbe {
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
    pub timeouts: AtomicU64,
}

impl LinkProbe {
    pub(crate) fn count_frame(&self, payload_bytes: u64) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload_bytes, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> NetLinkStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetLinkStats {
            frames: get(&self.frames),
            bytes: get(&self.bytes),
            timeouts: get(&self.timeouts),
        }
    }
}

/// Build one in-flight sample from the live probes. Called from the
/// executor's sampler thread on every tick and once more (with
/// `fin = true`) after the run finishes.
pub(crate) fn build_sample(
    source: &str,
    elapsed_us: u64,
    now: u64,
    fin: bool,
    probes: &[Option<Arc<StageProbe>>],
    pool: Option<&crate::buffer::BufferPool>,
    links: &[(u32, Arc<LinkProbe>)],
) -> TelemetrySample {
    let mut stages = Vec::new();
    let mut e2e = Histogram::default();
    for probe in probes.iter().flatten() {
        stages.push(probe.sample(now));
        if let Some(h) = probe.e2e() {
            e2e = h;
        }
    }
    let mut counters: Vec<(String, u64)> = Vec::new();
    if let Some(p) = pool {
        let st = p.stats();
        counters.push(("pool.hits".to_string(), st.hits));
        counters.push(("pool.misses".to_string(), st.misses));
        counters.push(("pool.recycled".to_string(), st.recycled));
    }
    for (link, p) in links {
        counters.push((
            format!("net.link{link}.frames"),
            p.frames.load(Ordering::Relaxed),
        ));
        counters.push((
            format!("net.link{link}.bytes"),
            p.bytes.load(Ordering::Relaxed),
        ));
    }
    TelemetrySample {
        source: source.to_string(),
        seq: 0, // stamped by TelemetrySampler::record
        elapsed_us,
        fin,
        stages,
        counters,
        e2e_count: e2e.count,
        e2e_p50_us: e2e.percentile(0.5),
        e2e_p95_us: e2e.percentile(0.95),
        e2e_p99_us: e2e.percentile(0.99),
    }
}

/// Telemetry configuration attached to a pipeline
/// ([`RunOptions::telemetry`]).
///
/// [`RunOptions::telemetry`]: crate::exec::RunOptions::telemetry
#[derive(Clone)]
pub struct TelemetryConfig {
    /// Sink + cadence; shared so callers can poll
    /// [`TelemetrySampler::latest`] while the run is live.
    pub sampler: Arc<TelemetrySampler>,
    /// Identity stamped on every sample (`local`, `worker:2`, ...).
    pub source: String,
    /// Launcher telemetry address: when set, every sample (and the final
    /// registry snapshot) is also shipped as a `Telemetry` frame.
    pub ship_to: Option<String>,
}

impl TelemetryConfig {
    pub fn new(sampler: Arc<TelemetrySampler>, source: impl Into<String>) -> Self {
        TelemetryConfig {
            sampler,
            source: source.into(),
            ship_to: None,
        }
    }
}

/// Encode a worker's telemetry update as the JSON payload of a
/// `Telemetry` frame: the sample, plus the worker's registry snapshot on
/// its final (`fin`) update.
pub fn encode_telemetry_payload(
    sample: &TelemetrySample,
    registry: Option<&MetricsRegistry>,
) -> Vec<u8> {
    let mut o = sample.to_json();
    if let Some(r) = registry {
        o.set("registry", r.to_wire_json());
    }
    o.to_string().into_bytes()
}

/// Decode a `Telemetry` frame payload into its sample and registry;
/// structured errors on malformed input (the launcher treats them like
/// any other hardened-decode failure).
pub fn decode_telemetry_payload(
    bytes: &[u8],
) -> FilterResult<(TelemetrySample, Option<MetricsRegistry>)> {
    let bad = |what: &str| FilterError::malformed("telemetry", format!("payload: {what}"));
    let text = std::str::from_utf8(bytes).map_err(|_| bad("not utf-8"))?;
    let j = Json::parse(text).map_err(|e| bad(&e.to_string()))?;
    let sample = TelemetrySample::from_json(&j).ok_or_else(|| bad("bad sample"))?;
    let registry = match j.get("registry") {
        Some(r) => Some(MetricsRegistry::from_wire_json(r).ok_or_else(|| bad("bad registry"))?),
        None => None,
    };
    Ok((sample, registry))
}

fn plock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_probe_busy_is_incremental() {
        let p = CopyProbe::default();
        assert_eq!(p.busy_us(1000), 0, "not started");
        p.mark_started(1000);
        assert_eq!(p.busy_us(3500), 2500, "running: now - start");
        p.mark_finished(Duration::from_micros(2600));
        assert_eq!(p.busy_us(9999), 2600, "finished: final value wins");
    }

    /// Tick 0 is the "unstamped" sentinel: both clock reads floor at 1,
    /// so an event genuinely falling in the process's first microsecond
    /// (or on the lazily-initialized epoch itself) is still
    /// distinguishable from "never stamped".
    #[test]
    fn origin_tick_sentinel_reserves_zero() {
        assert!(now_us() >= 1);
        assert!(instant_us(std::time::Instant::now()) >= 1);
        // A copy started at raw tick 0 must still read as started —
        // mark_started floors the stamp, so busy time accrues instead of
        // reporting 0 forever.
        let p = CopyProbe::default();
        p.mark_started(0);
        assert_eq!(p.busy_us(5), 4, "floored start tick 1, busy = now - 1");
        assert!(p.busy_us(1) == 0, "same-tick snapshot: no busy yet");
        // Clock skew between sampler and copy never wraps: busy
        // saturates at 0 when now < start.
        let q = CopyProbe::default();
        q.mark_started(1000);
        assert_eq!(q.busy_us(999), 0, "saturating, not wrapping");
        // A copy whose entire life fit in the first microsecond (raw
        // busy 0) still publishes a nonzero final value — 0 would read
        // as "still running" and busy would jump back to now - start.
        q.mark_finished(Duration::ZERO);
        assert_eq!(q.busy_us(5000), 1, "floored final value wins");
    }

    /// Residence values sit right against the sentinel when a packet is
    /// sent and delivered within the same floored tick: the histogram
    /// must take 0 and 1 as ordinary values and keep them through a
    /// cross-thread merge.
    #[test]
    fn histogram_merges_sentinel_adjacent_residences() {
        let mut a = Histogram::default();
        a.record(0); // delivered on the sender's tick
        a.record(1); // one floored tick later
        let mut b = Histogram::default();
        b.record(1);
        b.record(u64::MAX); // wrapped/garbage stamp parks in the top bucket
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, u64::MAX);
        // Quantiles stay near the sentinel-adjacent values (the median
        // interpolates inside the [1,2) bucket) — they neither vanish
        // nor smear toward the garbage stamp.
        assert_eq!(a.percentile(0.0), 0);
        assert!((1..=2).contains(&a.percentile(0.5)));
        assert_eq!(a.percentile(1.0), u64::MAX);
    }

    #[test]
    fn active_frac_subtracts_blocked_time() {
        let p = CopyProbe::default();
        p.mark_started(1000);
        p.blocked_send_ns.store(250_000, Ordering::Relaxed);
        p.blocked_recv_ns.store(250_000, Ordering::Relaxed);
        assert!((p.active_frac(2000) - 0.5).abs() < 1e-9);
        // Blocked can transiently exceed busy (racy reads): clamped.
        p.blocked_send_ns.store(5_000_000, Ordering::Relaxed);
        assert_eq!(p.active_frac(2000), 0.0);
    }

    #[test]
    fn stage_probe_samples_gauges() {
        let probe = StageProbe::new("f2".into(), 2, true);
        probe.copy(0).mark_started(1000);
        probe.copy(1).mark_started(1000);
        probe.copy(0).queue_depth.store(3, Ordering::Relaxed);
        probe.copy(1).queue_depth.store(4, Ordering::Relaxed);
        probe.copy(0).buffers_in.store(10, Ordering::Relaxed);
        plock(&probe.residence_us).record(100);
        if let Some(h) = probe.e2e_us.as_ref() {
            plock(h).record(900);
        }
        let s = probe.sample(2000);
        assert_eq!(s.stage, "f2");
        assert_eq!(s.queue_depth, 7, "round-robin depths sum");
        assert_eq!(s.busy_us_per_copy, vec![1000, 1000]);
        assert_eq!(s.buffers_in, 10);
        assert_eq!(s.residence_p50_us, 100);
        assert_eq!(probe.e2e().unwrap().count, 1);
    }

    #[test]
    fn telemetry_payload_roundtrip() {
        let mut reg = MetricsRegistry::new();
        reg.counter("net.link1.frames", 3);
        reg.observe("stage.f1.residence_us", 120);
        let sample = TelemetrySample {
            source: "worker:0".into(),
            seq: 4,
            elapsed_us: 10,
            fin: true,
            stages: Vec::new(),
            counters: vec![("pool.hits".into(), 1)],
            ..Default::default()
        };
        let bytes = encode_telemetry_payload(&sample, Some(&reg));
        let (back, registry) = decode_telemetry_payload(&bytes).unwrap();
        assert_eq!(back, sample);
        let registry = registry.unwrap();
        assert_eq!(registry.get_counter("net.link1.frames"), 3);
        assert_eq!(
            registry.get_histogram("stage.f1.residence_us"),
            reg.get_histogram("stage.f1.residence_us")
        );
        let (_, none) = decode_telemetry_payload(&encode_telemetry_payload(&sample, None)).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn telemetry_payload_rejects_malformed() {
        let sample = TelemetrySample::default().to_json().to_string();
        let bad_registry = format!("{},\"registry\":{{}}}}", &sample[..sample.len() - 1]);
        let deep = "[".repeat(100_000);
        for bad in [
            "\u{fffd}",
            "{}",
            "{\"source\":\"x\"}",
            "3",
            &bad_registry,
            &deep,
        ] {
            let err = decode_telemetry_payload(bad.as_bytes()).unwrap_err();
            assert_eq!(err.kind, crate::error::ErrorKind::Malformed, "{bad}: {err}");
        }
        assert!(decode_telemetry_payload(b"\xff\xfe").is_err());
        let err = decode_telemetry_payload(deep.as_bytes()).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }
}
