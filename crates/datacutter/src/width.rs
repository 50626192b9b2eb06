//! Elastic copy-width autoscaling driven by live telemetry.
//!
//! The §4 cost model picks a static copy width per stage at compile
//! time from *predicted* per-packet costs. At runtime the prediction can
//! be wrong — input-dependent compute, a step change in load, a noisy
//! neighbour — and the live telemetry plane already measures the truth:
//! queue depths, per-copy busy/blocked time, send-blocked and
//! recv-starved fractions. This module feeds those measurements back
//! into the width decision *online*:
//!
//! - Scalable stages are **provisioned** at `max_width` transparent
//!   copies up front (threads, queues, probes), but only the first
//!   `width` of them are **active**: the upstream writers' round-robin
//!   only rotates over the active prefix ([`StageWidth`]), so inactive
//!   copies sit parked in a blocked receive and cost nothing but an
//!   idle thread.
//! - A [`WidthController`] ticks on the telemetry sampler's cadence,
//!   attributes the bottleneck the same way post-run calibration does
//!   (the stage with the deepest sustained input backlog that is itself
//!   busy — not starved by its upstream and not backpressured by its
//!   downstream), and grows that stage's active prefix by one copy —
//!   the new copy joins the round-robin for packets not yet routed.
//!   Under recovery this is replay-safe: targets are recorded per packet
//!   when first sent, and a rewound producer only recomputes targets for
//!   packets that were *never* sent.
//! - Shrinking retires the highest active copy after a drain barrier:
//!   only when the stage's input queues are empty **and** the retirement
//!   candidate spent the last tick starved (nothing queued, nothing in
//!   flight toward it) is it removed from the rotation. The retired copy
//!   keeps draining anything already delivered and exits normally at
//!   end-of-stream, so no packet is lost or reordered relative to a
//!   fixed-width run's merge semantics.
//! - When widening stops helping — the bottleneck stage is pinned at
//!   `max_width` and still backlogged for `escalate_ticks` consecutive
//!   ticks — the imbalance is structural (the *decomposition* is wrong,
//!   not the width) and the controller raises an escalation advice in
//!   [`AutoscaleReport`]. The advice is reported, not acted on: the run
//!   finishes at the capped width, and the `cgp` CLI prints it as one
//!   `[obs] autoscale:` line.
//!
//! Every decision is about *routing*, never about data: output is
//! byte-identical to a fixed-width run because reduction merges are
//! associative/commutative and the replay protocol already tolerates
//! any packet→copy assignment.

use crate::error::{FilterError, FilterResult};
use crate::telemetry::StageProbe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Hysteresis and budget knobs for the online width controller
/// (`CGP_AUTOSCALE` / `--autoscale`; see [`AutoscaleConfig::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Hard per-stage copy budget (the `max` key); stages are
    /// provisioned at this width and never grow past it.
    pub max_width: usize,
    /// Grow when a stage's input backlog exceeds this many queued
    /// packets per active copy.
    pub grow_backlog: f64,
    /// Retire the highest active copy when it spent at least this
    /// fraction of the last tick starved for input (and the stage's
    /// queues are empty — the drain barrier).
    pub shrink_starved: f64,
    /// Ticks to wait after any width change before the next one
    /// (per stage) — the pipeline needs a tick to re-settle.
    pub cooldown_ticks: u32,
    /// Consecutive ticks the bottleneck must sit saturated at
    /// `max_width` before escalation to re-decomposition is advised.
    pub escalate_ticks: u32,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            max_width: 4,
            grow_backlog: 4.0,
            shrink_starved: 0.5,
            cooldown_ticks: 2,
            escalate_ticks: 8,
        }
    }
}

impl AutoscaleConfig {
    /// Parse an autoscale spec:
    ///
    /// - `0` / `off` / `false` / empty → `None` (disabled);
    /// - `1` / `on` / `true` → defaults;
    /// - comma-separated `key=value` pairs over `max`, `grow`, `shrink`,
    ///   `cooldown`, `escalate` (e.g. `max=8,grow=2,escalate=4`).
    pub fn parse(spec: &str) -> FilterResult<Option<AutoscaleConfig>> {
        let bad = |what: String| FilterError::new("autoscale", what);
        let s = spec.trim().to_ascii_lowercase();
        match s.as_str() {
            "" | "0" | "off" | "false" | "no" => return Ok(None),
            "1" | "on" | "true" | "yes" => return Ok(Some(AutoscaleConfig::default())),
            _ => {}
        }
        let mut cfg = AutoscaleConfig::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key=value, got `{part}`")))?;
            let num = || -> FilterResult<f64> {
                value
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| bad(format!("`{key}`: not a number: {value}")))
            };
            match key.trim() {
                "max" => {
                    cfg.max_width = whole(key, value)?;
                    if cfg.max_width == 0 {
                        return Err(bad("`max`: must be at least 1".into()));
                    }
                }
                "grow" => cfg.grow_backlog = num()?.max(1.0),
                "shrink" => cfg.shrink_starved = num()?.clamp(0.0, 1.0),
                "cooldown" => cfg.cooldown_ticks = whole(key, value)?,
                "escalate" => cfg.escalate_ticks = whole::<u32>(key, value)?.max(1),
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        Ok(Some(cfg))
    }
}

/// Parse `value` as a whole number of `T`: a fractional, negative or
/// out-of-range value is an error naming `key`, never a wrapped or
/// truncated count.
fn whole<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    key: &str,
    value: &str,
) -> FilterResult<T> {
    value.trim().parse::<T>().map_err(|e| {
        let why = match e.kind() {
            std::num::IntErrorKind::PosOverflow => "out of range",
            _ => "not a whole number",
        };
        FilterError::new("autoscale", format!("`{}`: {why}: {value}", key.trim()))
    })
}

/// Shared handle gating how many of a stage's provisioned copies the
/// upstream round-robin currently rotates over. Writers read it per
/// packet (one relaxed load); the controller writes it on its tick.
#[derive(Debug)]
pub struct StageWidth {
    active: AtomicUsize,
    provisioned: usize,
}

impl StageWidth {
    pub fn new(initial: usize, provisioned: usize) -> Arc<StageWidth> {
        let provisioned = provisioned.max(1);
        Arc::new(StageWidth {
            active: AtomicUsize::new(initial.clamp(1, provisioned)),
            provisioned,
        })
    }

    /// Copies currently in the round-robin rotation.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Copies physically provisioned (threads + queues).
    pub fn provisioned(&self) -> usize {
        self.provisioned
    }

    pub(crate) fn set_active(&self, width: usize) {
        self.active
            .store(width.clamp(1, self.provisioned), Ordering::Relaxed);
    }
}

/// Provisioned copy count of stage `s` of `n` whose spec width is
/// `spec_width`. Under `autoscale` an interior stage runs at
/// `max(spec_width, max_width)` copies up front and the routing gate
/// decides how many see traffic; endpoints, and every stage of a
/// fixed-width run, keep the spec width. The executor sizes its stages
/// with this, and anything sizing a cross-process link to a stage (a
/// worker's shm ingress rings in particular) must use it too, so both
/// ends agree on the producer count.
pub fn provisioned_width(
    autoscale: Option<&AutoscaleConfig>,
    s: usize,
    n: usize,
    spec_width: usize,
) -> usize {
    match autoscale {
        Some(cfg) if s > 0 && s + 1 < n => spec_width.max(cfg.max_width),
        _ => spec_width,
    }
}

/// One width decision the controller made.
#[derive(Debug, Clone)]
pub struct AutoscaleEvent {
    /// Controller tick (sampler cadence units) the decision fired on.
    pub tick: u64,
    pub stage: String,
    pub from: usize,
    pub to: usize,
    /// Human-readable trigger (`backlog 9.0 packets/copy` etc.).
    pub reason: String,
}

/// What the controller did over a run ([`RunStats::autoscale`]).
///
/// [`RunStats::autoscale`]: crate::exec::RunStats
#[derive(Debug, Clone, Default)]
pub struct AutoscaleReport {
    pub events: Vec<AutoscaleEvent>,
    /// Set when widening stopped helping: the named stage sat saturated
    /// at `max_width` with sustained backlog, so the imbalance is
    /// structural and only re-decomposition (replan + redeploy over the
    /// measured environment) can move the bottleneck.
    pub escalation: Option<String>,
}

impl AutoscaleReport {
    pub fn grows(&self) -> u64 {
        self.events.iter().filter(|e| e.to > e.from).count() as u64
    }

    pub fn shrinks(&self) -> u64 {
        self.events.iter().filter(|e| e.to < e.from).count() as u64
    }
}

/// Per-copy cumulative counters at the previous tick, for per-tick
/// deltas. (The blocked counters only advance when a blocking call
/// *completes*, so a copy parked in an indefinite receive shows busy
/// time but no blocked delta — the signals below are chosen to read
/// correctly through that.)
#[derive(Default, Clone)]
struct PrevCopy {
    busy_us: u64,
    send_us: u64,
    recv_us: u64,
}

struct WatchedStage {
    width: Arc<StageWidth>,
    probe: Arc<StageProbe>,
    /// Ticks left before this stage may change width again.
    cooldown: u32,
    /// Consecutive ticks spent saturated at `max_width` with backlog.
    saturated: u32,
    prev: Vec<PrevCopy>,
}

/// Per-stage per-tick reading the decisions are made from.
struct Obs {
    backlog_per_copy: f64,
    queue_depth: u64,
    /// Busy-weighted send-blocked fraction over the active copies.
    send_blocked: f64,
    /// Busy-weighted recv-starved fraction over the active copies.
    starved: f64,
    /// Starved fraction of the highest active copy (the retirement
    /// candidate under a shrink).
    last_starved: f64,
}

/// Samples the live probes on the telemetry cadence and adjusts each
/// watched stage's active width (see the module docs for the policy).
pub struct WidthController {
    cfg: AutoscaleConfig,
    stages: Vec<WatchedStage>,
    tick: u64,
    report: AutoscaleReport,
}

/// Cap on recorded events: a pathological oscillation must not grow the
/// report without bound (decisions keep happening, recording stops).
const MAX_EVENTS: usize = 256;

impl WidthController {
    pub fn new(cfg: AutoscaleConfig) -> WidthController {
        WidthController {
            cfg,
            stages: Vec::new(),
            tick: 0,
            report: AutoscaleReport::default(),
        }
    }

    /// Register a scalable stage (its shared width handle and probe).
    pub fn watch(&mut self, width: Arc<StageWidth>, probe: Arc<StageProbe>) {
        let provisioned = width.provisioned();
        self.stages.push(WatchedStage {
            width,
            probe,
            cooldown: 0,
            saturated: 0,
            prev: vec![PrevCopy::default(); provisioned],
        });
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    fn observe(st: &mut WatchedStage, now: u64) -> Obs {
        let active = st.width.active();
        let queue_depth: u64 = st
            .probe
            .copies
            .iter()
            .map(|c| c.queue_depth.load(Ordering::Relaxed))
            .sum();
        let (mut busy_sum, mut send_sum, mut recv_sum) = (0u64, 0u64, 0u64);
        let mut last_starved = 0.0;
        for (c, copy) in st.probe.copies.iter().enumerate() {
            let busy = copy.busy_us(now);
            let send = copy.blocked_send().as_micros() as u64;
            let recv = copy.blocked_recv().as_micros() as u64;
            let prev = &mut st.prev[c];
            let d_busy = busy.saturating_sub(prev.busy_us);
            let d_send = send.saturating_sub(prev.send_us);
            let d_recv = recv.saturating_sub(prev.recv_us);
            prev.busy_us = busy;
            prev.send_us = send;
            prev.recv_us = recv;
            if c < active {
                busy_sum += d_busy;
                send_sum += d_send;
                recv_sum += d_recv;
                if c == active - 1 && d_busy > 0 {
                    last_starved = (d_recv as f64 / d_busy as f64).clamp(0.0, 1.0);
                }
            }
        }
        let busy = busy_sum.max(1) as f64;
        Obs {
            backlog_per_copy: queue_depth as f64 / active as f64,
            queue_depth,
            send_blocked: (send_sum as f64 / busy).clamp(0.0, 1.0),
            starved: (recv_sum as f64 / busy).clamp(0.0, 1.0),
            last_starved,
        }
    }

    /// One controller tick at clock `now` (µs). At most one width change
    /// fires per tick — the grow on the attributed bottleneck wins over
    /// any shrink — so the pipeline re-settles between decisions.
    pub fn tick(&mut self, now: u64) {
        self.tick += 1;
        let observed: Vec<Obs> = self
            .stages
            .iter_mut()
            .map(|st| Self::observe(st, now))
            .collect();
        // Bottleneck attribution, the same reading post-run calibration
        // gives the measured rates: the constraining stage is the one
        // with the deepest sustained input backlog that is itself the
        // problem — a starved stage's backlog is its upstream's fault,
        // and a send-blocked one's is its downstream's.
        let bottleneck = observed
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o.backlog_per_copy >= self.cfg.grow_backlog
                    && o.send_blocked < 0.5
                    && o.starved < 0.5
            })
            .max_by(|(_, a), (_, b)| {
                a.backlog_per_copy
                    .partial_cmp(&b.backlog_per_copy)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i);
        let mut changed = false;
        for (i, st) in self.stages.iter_mut().enumerate() {
            let obs = &observed[i];
            let active = st.width.active();
            let cap = self.cfg.max_width.min(st.width.provisioned());
            let cooling = st.cooldown > 0;
            if cooling {
                st.cooldown -= 1;
            }
            if bottleneck == Some(i) {
                if active < cap {
                    st.saturated = 0;
                    if !cooling && !changed {
                        st.width.set_active(active + 1);
                        st.cooldown = self.cfg.cooldown_ticks;
                        changed = true;
                        if self.report.events.len() < MAX_EVENTS {
                            self.report.events.push(AutoscaleEvent {
                                tick: self.tick,
                                stage: st.probe.name.clone(),
                                from: active,
                                to: active + 1,
                                reason: format!("backlog {:.1} packets/copy", obs.backlog_per_copy),
                            });
                        }
                    }
                } else {
                    // Saturated at the budget and still the bottleneck:
                    // widening no longer moves it.
                    st.saturated += 1;
                    if st.saturated >= self.cfg.escalate_ticks && self.report.escalation.is_none() {
                        self.report.escalation = Some(st.probe.name.clone());
                    }
                }
            } else {
                st.saturated = 0;
                // Drain barrier before retiring: queues empty *and* the
                // highest active copy spent the tick starved — nothing
                // queued and nothing in flight toward it.
                if active > 1
                    && obs.queue_depth == 0
                    && obs.last_starved >= self.cfg.shrink_starved
                    && !cooling
                    && !changed
                {
                    st.width.set_active(active - 1);
                    st.cooldown = self.cfg.cooldown_ticks;
                    changed = true;
                    if self.report.events.len() < MAX_EVENTS {
                        self.report.events.push(AutoscaleEvent {
                            tick: self.tick,
                            stage: st.probe.name.clone(),
                            from: active,
                            to: active - 1,
                            reason: format!(
                                "idle: queues drained, copy starved {:.0}% of the tick",
                                obs.last_starved * 100.0
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Consume the controller's decision log at end of run.
    pub fn into_report(self) -> AutoscaleReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioned_width_sizes_interior_links_at_the_cap() {
        assert_eq!(provisioned_width(None, 1, 3, 2), 2);
        let cap = AutoscaleConfig {
            max_width: 3,
            ..Default::default()
        };
        let elastic = Some(&cap);
        // Endpoints keep the spec width; interior stages are provisioned
        // at the cap (and a wider spec wins over a narrower cap).
        assert_eq!(provisioned_width(elastic, 0, 3, 1), 1);
        assert_eq!(provisioned_width(elastic, 1, 3, 1), 3);
        assert_eq!(provisioned_width(elastic, 2, 3, 1), 1);
        assert_eq!(provisioned_width(elastic, 1, 3, 5), 5);
    }

    fn probe(width: usize) -> Arc<StageProbe> {
        StageProbe::new("f2".into(), width, false)
    }

    /// Make copy `c` of `p` look `started`-at with the given cumulative
    /// blocked-recv time.
    fn load_copy(p: &StageProbe, c: usize, started: u64, recv_us: u64) {
        p.copy(c).mark_started(started);
        p.copy(c)
            .blocked_recv_ns
            .store(recv_us * 1000, Ordering::Relaxed);
    }

    #[test]
    fn parse_accepts_the_documented_forms() {
        assert_eq!(AutoscaleConfig::parse("0").unwrap(), None);
        assert_eq!(AutoscaleConfig::parse("off").unwrap(), None);
        assert_eq!(AutoscaleConfig::parse("").unwrap(), None);
        assert_eq!(
            AutoscaleConfig::parse("1").unwrap(),
            Some(AutoscaleConfig::default())
        );
        assert_eq!(
            AutoscaleConfig::parse("on").unwrap(),
            Some(AutoscaleConfig::default())
        );
        let cfg = AutoscaleConfig::parse("max=8, grow=2, shrink=0.6, cooldown=1, escalate=3")
            .unwrap()
            .unwrap();
        assert_eq!(cfg.max_width, 8);
        assert_eq!(cfg.grow_backlog, 2.0);
        assert_eq!(cfg.shrink_starved, 0.6);
        assert_eq!(cfg.cooldown_ticks, 1);
        assert_eq!(cfg.escalate_ticks, 3);
        assert!(AutoscaleConfig::parse("max=0").is_err());
        assert!(AutoscaleConfig::parse("bogus=1").is_err());
        assert!(AutoscaleConfig::parse("max").is_err());
        assert!(AutoscaleConfig::parse("max=lots").is_err());
        for bad in [
            "max=2.5",
            "max=1e30",
            "max=-1",
            "cooldown=-7",
            "escalate=1e12",
        ] {
            let err = AutoscaleConfig::parse(bad).expect_err(bad).to_string();
            let key = bad.split('=').next().unwrap();
            assert!(err.contains(&format!("`{key}`")), "{bad}: {err}");
        }
    }

    #[test]
    fn stage_width_clamps_to_provisioned() {
        let w = StageWidth::new(2, 4);
        assert_eq!(w.active(), 2);
        assert_eq!(w.provisioned(), 4);
        w.set_active(9);
        assert_eq!(w.active(), 4, "clamped to provisioned");
        w.set_active(0);
        assert_eq!(w.active(), 1, "never below 1");
    }

    #[test]
    fn controller_grows_the_backlogged_busy_stage() {
        let cfg = AutoscaleConfig {
            cooldown_ticks: 0,
            ..Default::default()
        };
        let p = probe(4);
        let w = StageWidth::new(1, 4);
        let mut ctl = WidthController::new(cfg);
        ctl.watch(Arc::clone(&w), Arc::clone(&p));
        // Copy 0: fully busy since tick 1000 (no blocked time), with a
        // deep input backlog — the canonical step-load signature.
        load_copy(&p, 0, 1000, 0);
        p.copy(0).queue_depth.store(20, Ordering::Relaxed);
        ctl.tick(2000);
        assert_eq!(w.active(), 2, "backlogged busy stage widens");
        ctl.tick(3000);
        assert_eq!(w.active(), 3, "keeps widening while backlogged");
        let report = ctl.into_report();
        assert_eq!(report.grows(), 2);
        assert_eq!(report.events[0].from, 1);
        assert_eq!(report.events[0].to, 2);
        assert!(report.events[0].reason.contains("backlog"));
    }

    #[test]
    fn starved_stage_is_not_grown() {
        // Backlog alone is not attribution: a stage that spent the tick
        // starved is waiting on its upstream — widening it adds nothing.
        let cfg = AutoscaleConfig {
            cooldown_ticks: 0,
            ..Default::default()
        };
        let p = probe(4);
        let w = StageWidth::new(1, 4);
        let mut ctl = WidthController::new(cfg);
        ctl.watch(Arc::clone(&w), Arc::clone(&p));
        load_copy(&p, 0, 1000, 900); // 90% of the tick starved
        p.copy(0).queue_depth.store(20, Ordering::Relaxed);
        ctl.tick(2000);
        assert_eq!(w.active(), 1, "starved stage left alone");
    }

    #[test]
    fn cooldown_spaces_width_changes() {
        let cfg = AutoscaleConfig {
            cooldown_ticks: 2,
            ..Default::default()
        };
        let p = probe(4);
        let w = StageWidth::new(1, 4);
        let mut ctl = WidthController::new(cfg);
        ctl.watch(Arc::clone(&w), Arc::clone(&p));
        load_copy(&p, 0, 1000, 0);
        p.copy(0).queue_depth.store(20, Ordering::Relaxed);
        ctl.tick(2000);
        assert_eq!(w.active(), 2);
        ctl.tick(3000);
        ctl.tick(4000);
        assert_eq!(w.active(), 2, "cooldown holds the width");
        ctl.tick(5000);
        assert_eq!(w.active(), 3, "cooldown expired");
    }

    #[test]
    fn idle_copy_retires_only_after_drain_barrier() {
        let cfg = AutoscaleConfig {
            cooldown_ticks: 0,
            ..Default::default()
        };
        let p = probe(4);
        let w = StageWidth::new(3, 4);
        let mut ctl = WidthController::new(cfg);
        ctl.watch(Arc::clone(&w), Arc::clone(&p));
        // Copies 0-1 busy; copy 2 (highest active) spent the whole tick
        // starved and the queues are empty → drain barrier passed.
        load_copy(&p, 0, 1000, 0);
        load_copy(&p, 1, 1000, 0);
        load_copy(&p, 2, 1000, 900);
        ctl.tick(2000);
        assert_eq!(w.active(), 2, "idle copy retired");
        // With backlog present the same starvation does NOT retire the
        // next copy — the barrier requires empty queues.
        p.copy(0).queue_depth.store(1, Ordering::Relaxed);
        load_copy(&p, 1, 1000, 1800);
        ctl.tick(3000);
        assert_eq!(w.active(), 2, "no shrink while packets are queued");
        let report = ctl.into_report();
        assert_eq!(report.shrinks(), 1);
        assert!(report.events[0].reason.contains("idle"), "{report:?}");
    }

    #[test]
    fn saturated_bottleneck_escalates_to_replan_advice() {
        let cfg = AutoscaleConfig {
            max_width: 2,
            cooldown_ticks: 0,
            escalate_ticks: 3,
            ..Default::default()
        };
        let p = probe(2);
        let w = StageWidth::new(2, 2);
        let mut ctl = WidthController::new(cfg);
        ctl.watch(Arc::clone(&w), Arc::clone(&p));
        load_copy(&p, 0, 1000, 0);
        load_copy(&p, 1, 1000, 0);
        p.copy(0).queue_depth.store(30, Ordering::Relaxed);
        ctl.tick(2000);
        ctl.tick(3000);
        assert!(
            ctl.report.escalation.is_none(),
            "not yet: {:?}",
            ctl.report.escalation
        );
        ctl.tick(4000);
        let report = ctl.into_report();
        assert_eq!(w.active(), 2, "cannot widen past the budget");
        assert_eq!(
            report.escalation.as_deref(),
            Some("f2"),
            "structural imbalance advises re-decomposition"
        );
    }

    #[test]
    fn relief_resets_the_escalation_streak() {
        let cfg = AutoscaleConfig {
            max_width: 1,
            cooldown_ticks: 0,
            escalate_ticks: 2,
            ..Default::default()
        };
        let p = probe(1);
        let w = StageWidth::new(1, 1);
        let mut ctl = WidthController::new(cfg);
        ctl.watch(Arc::clone(&w), Arc::clone(&p));
        load_copy(&p, 0, 1000, 0);
        p.copy(0).queue_depth.store(30, Ordering::Relaxed);
        ctl.tick(2000);
        // Backlog clears before the streak completes.
        p.copy(0).queue_depth.store(0, Ordering::Relaxed);
        ctl.tick(3000);
        p.copy(0).queue_depth.store(30, Ordering::Relaxed);
        ctl.tick(4000);
        assert!(
            ctl.report.escalation.is_none(),
            "streak restarted after relief"
        );
    }
}
