//! Post-run calibration of the §4 cost model against measured telemetry.
//!
//! The decomposition picks a cut using *predicted* per-packet stage times
//! (`StageTimes`). A telemetry-enabled run measures the real thing: per
//! stage, how long its copies were busy, how much of that busy time was
//! spent blocked on the downstream queue (send) or waiting for input
//! (recv), and how many packets passed through. This module joins the
//! two views into a [`CalibrationReport`]:
//!
//! - per-stage residuals (measured active seconds/packet vs the model's
//!   `T(C_i)`),
//! - a *measured* bottleneck — the stage with the largest active
//!   (non-blocked) service time per packet — with an attribution of
//!   `compute-bound`, `send-blocked`, or `recv-starved` per stage,
//! - agreement or disagreement with the model's predicted bottleneck.
//!
//! Measured rates come from the registry keys the runtime publishes when
//! telemetry is on: `stage.<name>.busy_us`, `.blocked_send_us`,
//! `.blocked_recv_us`, `.buffers_in`/`.buffers_out` counters and the
//! `stage.<name>.residence_us` / `pipeline.e2e_us` histograms. Stage
//! names follow the executor's `f1..fm` convention, so unit `C_j` is
//! stage `f{j+1}`.
//!
//! Blocked time is attributed to the *neighbour*: a send-blocked stage is
//! throttled by its downstream, a recv-starved one by its upstream —
//! neither is the bottleneck itself, which is why the bottleneck ranking
//! uses active time only.

use crate::cost::StageTimes;
use crate::report::DecisionReport;
use cgp_obs::json::Json;
use cgp_obs::metrics::MetricsRegistry;

/// Per-stage rates measured by the telemetry plane, extracted from a
/// (possibly cross-process-merged) [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredStage {
    /// Runtime stage name (`f1`, `f2`, ...).
    pub name: String,
    /// Packets processed (buffers in; buffers out for the source, which
    /// has no input stream).
    pub packets: u64,
    /// Total busy seconds across the stage's copies (wall time inside
    /// `process`, including blocked time).
    pub busy_s: f64,
    /// Seconds blocked pushing into a full downstream queue.
    pub blocked_send_s: f64,
    /// Seconds blocked waiting on an empty input queue.
    pub blocked_recv_s: f64,
    /// Per-packet residence latency percentiles (0 when the stage has no
    /// input stream or telemetry recorded no residence samples).
    pub residence_p50_us: u64,
    pub residence_p99_us: u64,
}

impl MeasuredStage {
    /// Read one stage's measured rates from registry keys. Returns `None`
    /// when the registry holds no telemetry for this stage (telemetry was
    /// off, or the stage ran in a process whose registry wasn't merged).
    pub(crate) fn from_registry(reg: &MetricsRegistry, name: &str) -> Option<MeasuredStage> {
        let key = |suffix: &str| format!("stage.{name}.{suffix}");
        let busy_us = reg.get_counter(&key("busy_us"));
        let buffers_in = reg.get_counter(&key("buffers_in"));
        let buffers_out = reg.get_counter(&key("buffers_out"));
        if busy_us == 0 && buffers_in == 0 && buffers_out == 0 {
            return None;
        }
        let secs = |us: u64| us as f64 / 1e6;
        let (p50, p99) = match reg.get_histogram(&key("residence_us")) {
            Some(h) if h.count > 0 => (h.percentile(0.5), h.percentile(0.99)),
            _ => (0, 0),
        };
        Some(MeasuredStage {
            name: name.to_string(),
            packets: if buffers_in > 0 {
                buffers_in
            } else {
                buffers_out
            },
            busy_s: secs(busy_us),
            blocked_send_s: secs(reg.get_counter(&key("blocked_send_us"))),
            blocked_recv_s: secs(reg.get_counter(&key("blocked_recv_us"))),
            residence_p50_us: p50,
            residence_p99_us: p99,
        })
    }

    /// Busy seconds actually spent computing (busy minus blocked).
    pub fn active_s(&self) -> f64 {
        (self.busy_s - self.blocked_send_s - self.blocked_recv_s).max(0.0)
    }

    /// Measured service time: active seconds per packet (the quantity the
    /// model's `T(C_i)` predicts).
    pub(crate) fn active_s_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.active_s() / self.packets as f64
        }
    }

    /// Where this stage's busy time went: `compute-bound` when active
    /// time dominates, `send-blocked` / `recv-starved` when waiting on a
    /// neighbour dominates.
    pub fn attribution(&self) -> &'static str {
        let active = self.active_s();
        if self.blocked_send_s >= active && self.blocked_send_s >= self.blocked_recv_s {
            "send-blocked"
        } else if self.blocked_recv_s >= active && self.blocked_recv_s > self.blocked_send_s {
            "recv-starved"
        } else {
            "compute-bound"
        }
    }
}

/// Per-link traffic measured by the net/shm transport probes
/// (`net.link<k>.frames` / `.bytes` counters), joined with
/// the model's per-packet volume prediction where one exists. Bytes per
/// frame is the measured `Vol(f)` the volume model predicts — the
/// per-link analogue of a stage residual — and is what the same-host
/// [`LinkClass`](crate::cost::LinkClass) constants were calibrated
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredLink {
    /// Link index `k` from the registry key (link `L_k` joins `C_k` and
    /// `C_{k+1}`).
    pub link: usize,
    /// Data frames moved across the link.
    pub frames: u64,
    /// Payload bytes moved across the link.
    pub bytes: u64,
    /// The model's `T(L_k)`, seconds per packet (`None` when the link
    /// index is outside the predicted pipeline — e.g. telemetry from a
    /// wider run than the plan).
    pub predicted_s_per_packet: Option<f64>,
}

impl MeasuredLink {
    /// Measured payload bytes per frame (0 for an idle link).
    pub(crate) fn bytes_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.bytes as f64 / self.frames as f64
        }
    }

    /// Collect every `net.link<k>.*` family present in `reg`, sorted by
    /// link index. Empty when the run was in-process or untelemetered.
    pub(crate) fn from_registry(reg: &MetricsRegistry, times: &StageTimes) -> Vec<MeasuredLink> {
        let mut links: Vec<usize> = reg
            .counters()
            .filter_map(|(name, _)| {
                let rest = name.strip_prefix("net.link")?;
                let (idx, _) = rest.split_once('.')?;
                idx.parse::<usize>().ok()
            })
            .collect();
        links.sort_unstable();
        links.dedup();
        links
            .into_iter()
            .map(|k| MeasuredLink {
                link: k,
                frames: reg.get_counter(&format!("net.link{k}.frames")),
                bytes: reg.get_counter(&format!("net.link{k}.bytes")),
                predicted_s_per_packet: times.comm.get(k).copied(),
            })
            .collect()
    }
}

/// One stage's predicted-vs-measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCalibration {
    /// Pipeline unit index (`C_unit`; stage name is `f{unit+1}`).
    pub unit: usize,
    pub measured: MeasuredStage,
    /// The model's `T(C_unit)`, seconds per packet.
    pub predicted_s_per_packet: f64,
    /// `measured / predicted` ratio (`> 1` = the model was optimistic);
    /// infinite when the model predicted zero for a stage that did work.
    pub residual_ratio: f64,
}

/// The calibration verdict appended to the decision report.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    pub stages: Vec<StageCalibration>,
    /// Per-link measured traffic (empty for in-process runs, which move
    /// buffers over channels rather than framed transports).
    pub links: Vec<MeasuredLink>,
    /// The model's predicted bottleneck, e.g. `("C", 1)` or `("L", 0)`.
    pub predicted_bottleneck: (&'static str, usize),
    /// Unit index of the stage with the largest measured active
    /// seconds/packet.
    pub measured_bottleneck: usize,
    /// End-to-end pipeline latency percentiles `(count, p50, p95, p99)`
    /// in µs, when `pipeline.e2e_us` was recorded (in-process runs only —
    /// origin stamps don't cross process boundaries).
    pub e2e_us: Option<(u64, u64, u64, u64)>,
}

impl CalibrationReport {
    /// Join a decision report's predictions with a run's merged registry.
    /// Returns `None` when the registry holds no stage telemetry (the run
    /// was untelemetered), so callers can append calibration output
    /// unconditionally.
    pub fn from_run(report: &DecisionReport, reg: &MetricsRegistry) -> Option<CalibrationReport> {
        Self::from_parts(&report.stage_times, reg)
    }

    /// [`CalibrationReport::from_run`] against raw stage times, so the
    /// unit tests can calibrate synthetic registries without compiling a
    /// program.
    pub(crate) fn from_parts(
        times: &StageTimes,
        reg: &MetricsRegistry,
    ) -> Option<CalibrationReport> {
        let m = times.comp.len();
        let mut stages = Vec::with_capacity(m);
        for unit in 0..m {
            let measured = MeasuredStage::from_registry(reg, &format!("f{}", unit + 1))?;
            let predicted = times.comp[unit];
            let measured_rate = measured.active_s_per_packet();
            let residual_ratio = if predicted > 0.0 {
                measured_rate / predicted
            } else if measured_rate > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            stages.push(StageCalibration {
                unit,
                measured,
                predicted_s_per_packet: predicted,
                residual_ratio,
            });
        }
        let measured_bottleneck = stages
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.measured
                    .active_s_per_packet()
                    .total_cmp(&b.measured.active_s_per_packet())
            })
            .map(|(i, _)| i)?;
        let e2e_us = reg
            .get_histogram("pipeline.e2e_us")
            .filter(|h| h.count > 0)
            .map(|h| {
                (
                    h.count,
                    h.percentile(0.5),
                    h.percentile(0.95),
                    h.percentile(0.99),
                )
            });
        Some(CalibrationReport {
            stages,
            links: MeasuredLink::from_registry(reg, times),
            predicted_bottleneck: times.bottleneck(),
            measured_bottleneck,
            e2e_us,
        })
    }

    /// Do the measured and predicted bottlenecks name the same unit? A
    /// predicted *link* bottleneck counts as agreement when the measured
    /// bottleneck stage sits on either end of that link and is dominated
    /// by blocking rather than compute.
    pub fn agrees(&self) -> bool {
        let (kind, idx) = self.predicted_bottleneck;
        match kind {
            "C" => idx == self.measured_bottleneck,
            // Link L_i joins C_i and C_{i+1}: sender blocks on send,
            // receiver starves on recv.
            _ => {
                let b = &self.stages[self.measured_bottleneck];
                (b.unit == idx && b.measured.attribution() == "send-blocked")
                    || (b.unit == idx + 1 && b.measured.attribution() == "recv-starved")
            }
        }
    }

    /// Human-readable rendering, appended after
    /// [`DecisionReport::render_text`] by `--explain` output paths.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "=== cost-model calibration ===");
        for c in &self.stages {
            let m = &c.measured;
            let _ = writeln!(
                s,
                "  {} (C{}): measured {:.6e} s/pkt vs predicted {:.6e} s/pkt (x{:.2}) — {} \
                 [{} pkts, busy {:.3} s, send-blocked {:.3} s, recv-starved {:.3} s]",
                m.name,
                c.unit,
                m.active_s_per_packet(),
                c.predicted_s_per_packet,
                c.residual_ratio,
                m.attribution(),
                m.packets,
                m.busy_s,
                m.blocked_send_s,
                m.blocked_recv_s,
            );
            if m.residence_p99_us > 0 {
                let _ = writeln!(
                    s,
                    "      residence p50 {} us, p99 {} us",
                    m.residence_p50_us, m.residence_p99_us
                );
            }
        }
        for l in &self.links {
            let _ = write!(
                s,
                "  L{}: {} frames, {} bytes ({:.0} B/frame measured Vol)",
                l.link,
                l.frames,
                l.bytes,
                l.bytes_per_frame()
            );
            if let Some(p) = l.predicted_s_per_packet {
                let _ = write!(s, ", predicted {p:.6e} s/pkt");
            }
            let _ = writeln!(s);
        }
        let b = &self.stages[self.measured_bottleneck];
        let _ = writeln!(
            s,
            "measured bottleneck: {} (C{}), {}; model predicted {}{} — {}",
            b.measured.name,
            b.unit,
            b.measured.attribution(),
            self.predicted_bottleneck.0,
            self.predicted_bottleneck.1,
            if self.agrees() {
                "agreement"
            } else {
                "MISMATCH"
            }
        );
        if let Some((count, p50, p95, p99)) = self.e2e_us {
            let _ = writeln!(
                s,
                "pipeline e2e latency: p50 {p50} us, p95 {p95} us, p99 {p99} us ({count} packets)"
            );
        }
        s
    }

    /// JSON form (embedded in telemetry logs and machine-readable
    /// reports).
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set(
            "stages",
            Json::Arr(
                self.stages
                    .iter()
                    .map(|c| {
                        let m = &c.measured;
                        let mut o = Json::obj();
                        o.set("name", Json::Str(m.name.clone()));
                        o.set("unit", Json::Num(c.unit as f64));
                        o.set("packets", Json::Num(m.packets as f64));
                        o.set("busy_s", Json::Num(m.busy_s));
                        o.set("blocked_send_s", Json::Num(m.blocked_send_s));
                        o.set("blocked_recv_s", Json::Num(m.blocked_recv_s));
                        o.set("measured_s_per_packet", Json::Num(m.active_s_per_packet()));
                        o.set(
                            "predicted_s_per_packet",
                            Json::Num(c.predicted_s_per_packet),
                        );
                        o.set(
                            "residual_ratio",
                            if c.residual_ratio.is_finite() {
                                Json::Num(c.residual_ratio)
                            } else {
                                Json::Null
                            },
                        );
                        o.set("attribution", Json::Str(m.attribution().to_string()));
                        o.set("residence_p50_us", Json::Num(m.residence_p50_us as f64));
                        o.set("residence_p99_us", Json::Num(m.residence_p99_us as f64));
                        o
                    })
                    .collect(),
            ),
        );
        root.set(
            "links",
            Json::Arr(
                self.links
                    .iter()
                    .map(|l| {
                        let mut o = Json::obj();
                        o.set("link", Json::Num(l.link as f64));
                        o.set("frames", Json::Num(l.frames as f64));
                        o.set("bytes", Json::Num(l.bytes as f64));
                        o.set("bytes_per_frame", Json::Num(l.bytes_per_frame()));
                        o.set(
                            "predicted_s_per_packet",
                            match l.predicted_s_per_packet {
                                Some(p) => Json::Num(p),
                                None => Json::Null,
                            },
                        );
                        o
                    })
                    .collect(),
            ),
        );
        root.set(
            "predicted_bottleneck",
            Json::Str(format!(
                "{}{}",
                self.predicted_bottleneck.0, self.predicted_bottleneck.1
            )),
        );
        root.set(
            "measured_bottleneck",
            Json::Str(format!("C{}", self.measured_bottleneck)),
        );
        root.set("agreement", Json::Bool(self.agrees()));
        match self.e2e_us {
            Some((count, p50, p95, p99)) => {
                let mut e = Json::obj();
                e.set("count", Json::Num(count as f64));
                e.set("p50_us", Json::Num(p50 as f64));
                e.set("p95_us", Json::Num(p95 as f64));
                e.set("p99_us", Json::Num(p99 as f64));
                root.set("e2e_us", e);
            }
            None => root.set("e2e_us", Json::Null),
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_obs::metrics::Histogram;

    /// Build a registry describing an m-stage telemetered run where stage
    /// `slow` (0-based) does `slow_factor`× the work of the others.
    fn synthetic_registry(m: usize, slow: usize, slow_factor: u64) -> MetricsRegistry {
        let mut reg = MetricsRegistry::default();
        let packets = 100u64;
        for j in 0..m {
            let name = format!("f{}", j + 1);
            let busy = if j == slow { 1000 * slow_factor } else { 1000 };
            reg.counter(&format!("stage.{name}.busy_us"), busy);
            // Neighbours of the slow stage spend their time blocked on
            // it rather than computing.
            if j + 1 == slow {
                reg.counter(&format!("stage.{name}.blocked_send_us"), busy * 3 / 4);
            }
            if j == slow + 1 {
                reg.counter(&format!("stage.{name}.blocked_recv_us"), busy * 3 / 4);
            }
            if j > 0 {
                reg.counter(&format!("stage.{name}.buffers_in"), packets);
                let mut h = Histogram::default();
                for i in 0..packets {
                    h.record(50 + i * if j == slow { 40 } else { 4 });
                }
                reg.merge_histogram(&format!("stage.{name}.residence_us"), &h);
            }
            reg.counter(&format!("stage.{name}.buffers_out"), packets);
        }
        let mut e2e = Histogram::default();
        for i in 0..packets {
            e2e.record(500 + i * 10);
        }
        reg.merge_histogram("pipeline.e2e_us", &e2e);
        reg
    }

    fn times(m: usize) -> StageTimes {
        StageTimes {
            comp: vec![10e-6; m],
            comm: vec![1e-6; m - 1],
        }
    }

    #[test]
    fn names_the_injected_bottleneck_stage() {
        let reg = synthetic_registry(3, 1, 8);
        let report = CalibrationReport::from_parts(&times(3), &reg).unwrap();
        assert_eq!(report.measured_bottleneck, 1);
        assert_eq!(report.stages[1].measured.attribution(), "compute-bound");
        assert_eq!(report.stages[0].measured.attribution(), "send-blocked");
        assert_eq!(report.stages[2].measured.attribution(), "recv-starved");
        let text = report.render_text();
        assert!(
            text.contains("measured bottleneck: f2 (C1), compute-bound"),
            "{text}"
        );
        assert!(text.contains("pipeline e2e latency: p50"), "{text}");
    }

    #[test]
    fn residuals_compare_measured_to_predicted() {
        let reg = synthetic_registry(3, 2, 4);
        let report = CalibrationReport::from_parts(&times(3), &reg).unwrap();
        // Slow stage: 4000 us active over 100 packets = 40 us/pkt against
        // a 10 us/pkt prediction.
        let slow = &report.stages[2];
        assert!((slow.measured.active_s_per_packet() - 40e-6).abs() < 1e-12);
        assert!((slow.residual_ratio - 4.0).abs() < 1e-9);
        // The send-blocked neighbour's active time excludes its blocking.
        let blocked = &report.stages[1];
        assert!(blocked.measured.active_s() < blocked.measured.busy_s);
    }

    #[test]
    fn agreement_with_a_matching_model_prediction() {
        let reg = synthetic_registry(3, 1, 8);
        // Model also predicts C1 as the bottleneck.
        let times = StageTimes {
            comp: vec![10e-6, 80e-6, 10e-6],
            comm: vec![1e-6, 1e-6],
        };
        let report = CalibrationReport::from_parts(&times, &reg).unwrap();
        assert_eq!(report.predicted_bottleneck, ("C", 1));
        assert!(report.agrees());
        assert!(report.render_text().contains("agreement"));
    }

    #[test]
    fn link_bottleneck_agrees_via_blocking_attribution() {
        // Model says link L1 is the bottleneck; the measured picture has
        // C1 send-blocked on that link with barely any compute anywhere.
        let mut reg = MetricsRegistry::default();
        for (name, busy, send) in [("f1", 100u64, 0u64), ("f2", 10_000, 9_000), ("f3", 100, 0)] {
            reg.counter(&format!("stage.{name}.busy_us"), busy);
            reg.counter(&format!("stage.{name}.blocked_send_us"), send);
            reg.counter(&format!("stage.{name}.buffers_out"), 100);
            reg.counter(&format!("stage.{name}.buffers_in"), 100);
        }
        let times = StageTimes {
            comp: vec![1e-6, 1e-6, 1e-6],
            comm: vec![1e-6, 50e-6],
        };
        let report = CalibrationReport::from_parts(&times, &reg).unwrap();
        assert_eq!(report.predicted_bottleneck, ("L", 1));
        assert_eq!(report.measured_bottleneck, 1);
        assert_eq!(report.stages[1].measured.attribution(), "send-blocked");
        assert!(report.agrees());
    }

    #[test]
    fn link_traffic_is_surfaced_with_predictions_joined() {
        let mut reg = synthetic_registry(3, 1, 2);
        reg.counter("net.link0.frames", 100);
        reg.counter("net.link0.bytes", 100 * 1024);
        reg.counter("net.link1.frames", 100);
        reg.counter("net.link1.bytes", 100 * 256);
        // An out-of-plan link index (e.g. telemetry merged from a wider
        // run) still surfaces, just without a prediction.
        reg.counter("net.link7.frames", 5);
        reg.counter("net.link7.bytes", 5);
        let report = CalibrationReport::from_parts(&times(3), &reg).unwrap();
        assert_eq!(report.links.len(), 3);
        let l0 = &report.links[0];
        assert_eq!((l0.link, l0.frames, l0.bytes), (0, 100, 100 * 1024));
        assert!((l0.bytes_per_frame() - 1024.0).abs() < 1e-9);
        assert_eq!(l0.predicted_s_per_packet, Some(1e-6));
        assert_eq!(report.links[2].predicted_s_per_packet, None);
        let text = report.render_text();
        assert!(text.contains("L0: 100 frames"), "{text}");
        assert!(text.contains("1024 B/frame"), "{text}");
        let j = Json::parse(&report.to_json().to_string()).unwrap();
        let links = j.get("links").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(links.len(), 3);
        // In-process runs (no net.link counters) surface an empty list.
        let bare = CalibrationReport::from_parts(&times(3), &synthetic_registry(3, 1, 2)).unwrap();
        assert!(bare.links.is_empty());
    }

    #[test]
    fn untelemetered_registry_yields_no_report() {
        let reg = MetricsRegistry::default();
        assert!(CalibrationReport::from_parts(&times(3), &reg).is_none());
        // A registry with only failure counters (telemetry off) is also
        // not calibratable.
        let mut reg = MetricsRegistry::default();
        reg.counter("stage.f1.failures", 2);
        assert!(CalibrationReport::from_parts(&times(3), &reg).is_none());
    }

    #[test]
    fn json_round_trips_through_the_obs_parser() {
        let reg = synthetic_registry(2, 0, 3);
        let report = CalibrationReport::from_parts(&times(2), &reg).unwrap();
        let j = report.to_json();
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(
            parsed.get("measured_bottleneck").and_then(|v| v.as_str()),
            Some("C0")
        );
        // Uniform comp predictions tie-break to C0, which is also the
        // measured bottleneck here.
        assert_eq!(
            parsed.get("agreement").and_then(|v| v.as_bool()),
            Some(true)
        );
        let stages = parsed.get("stages").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(stages.len(), 2);
    }
}
