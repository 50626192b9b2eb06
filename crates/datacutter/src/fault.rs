//! Fault tolerance: deterministic fault injection and the shared
//! run-control state behind the executor's deadline/stall watchdog.
//!
//! A [`FaultPlan`] injects failures at precise points — *stage* × *copy* ×
//! *packet index* — so failure-path behaviour is reproducible in tests and
//! chaos runs. Plans are built programmatically or parsed from a compact
//! spec (the `CGP_FAULTS` env var / `--faults` flag on the fig binaries):
//!
//! ```text
//! spec    := entry (';' entry)*
//! entry   := 'seed=' u64            -- seed for probabilistic triggers
//!          | site '@' packet ':' action
//! site    := stage ('[' copy ']')?  -- omitted copy = every copy
//! stage   := name | '*'             -- stage name ('*' = every stage)
//! copy    := usize | '*'            -- transparent-copy index
//! packet  := u64 | '*' | '%' f64    -- exact index, every packet, or
//!                                      per-packet probability (seeded,
//!                                      deterministic)
//! action  := 'fail' | 'panic' | 'drop' | 'kill' | 'delay:' ms
//! ```
//!
//! Example: `square[0]@5:panic;sink[*]@%0.01:fail;src[1]@*:delay:2`.
//!
//! Probabilistic triggers are *seedable*: the decision for a given
//! (seed, stage, copy, packet) tuple is a pure function, so a chaos run
//! replays identically under the same seed.

use crate::error::{FilterError, FilterResult};
use cgp_obs::rng::SmallRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::channel::CancelToken;

/// What to inject when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The filter copy reports a structured error for this unit of work.
    Fail,
    /// The filter copy panics (exercises the executor's panic isolation).
    Panic,
    /// The packet is discarded (counted in `StageStats::dropped`).
    DropPacket,
    /// Packet handling is delayed (cancellable; exercises the stall
    /// detector and backpressure paths).
    Delay(Duration),
    /// The whole process dies instantly (`SIGKILL` to itself): no panic
    /// unwinding, no `Drop`, no flushing — the failure unit is the OS
    /// process, exercising the launcher's supervision layer. Driven by
    /// the `CGP_KILL` env var in chaos runs (the supervisor strips that
    /// var on respawn so the kill fires exactly once).
    Kill,
}

/// When a rule fires, relative to the packets one filter copy handles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Exactly the packet with this 0-based index.
    Packet(u64),
    /// Every packet.
    Every,
    /// Each packet independently with this probability, decided
    /// deterministically from the plan seed.
    Prob(f64),
}

/// One injection rule. `None` selectors are wildcards.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Stage name; `None` matches every stage.
    pub stage: Option<String>,
    /// Transparent-copy index; `None` matches every copy.
    pub copy: Option<usize>,
    pub trigger: Trigger,
    pub action: FaultAction,
}

/// A deterministic fault-injection plan for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Seed for probabilistic triggers (ignored by exact-index rules).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Inject a failure at `stage[copy]` packet `packet`.
    pub fn fail_at(self, stage: &str, copy: usize, packet: u64) -> Self {
        self.rule(FaultRule {
            stage: Some(stage.into()),
            copy: Some(copy),
            trigger: Trigger::Packet(packet),
            action: FaultAction::Fail,
        })
    }

    /// Inject a panic at `stage[copy]` packet `packet`.
    pub fn panic_at(self, stage: &str, copy: usize, packet: u64) -> Self {
        self.rule(FaultRule {
            stage: Some(stage.into()),
            copy: Some(copy),
            trigger: Trigger::Packet(packet),
            action: FaultAction::Panic,
        })
    }

    /// Drop the packet with index `packet` at `stage[copy]`.
    pub fn drop_at(self, stage: &str, copy: usize, packet: u64) -> Self {
        self.rule(FaultRule {
            stage: Some(stage.into()),
            copy: Some(copy),
            trigger: Trigger::Packet(packet),
            action: FaultAction::DropPacket,
        })
    }

    /// Append every rule of `other` (its seed is ignored; the receiver's
    /// seed governs probabilistic triggers).
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.rules.extend(other.rules);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parse the compact spec grammar (see module docs). Returns a
    /// human-readable description of the first problem on failure.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed `{seed}`"))?;
                continue;
            }
            plan.rules.push(parse_rule(entry)?);
        }
        Ok(plan)
    }

    /// Build the per-copy injector, or `None` when no rule can apply to
    /// `stage[copy]` (the common case: zero overhead on the data path).
    pub fn injector(&self, stage: &str, copy: usize) -> Option<FaultInjector> {
        let rules: Vec<(Trigger, FaultAction)> = self
            .rules
            .iter()
            .filter(|r| r.stage.as_deref().is_none_or(|s| s == stage))
            .filter(|r| r.copy.is_none_or(|c| c == copy))
            .map(|r| (r.trigger, r.action))
            .collect();
        if rules.is_empty() {
            return None;
        }
        Some(FaultInjector {
            rules,
            seed: self.seed,
            site: fnv(stage.as_bytes()) ^ (copy as u64).wrapping_mul(0x9e3779b97f4a7c15),
            label: format!("{stage}[{copy}]"),
            packet: 0,
            pending: None,
        })
    }
}

fn parse_rule(entry: &str) -> Result<FaultRule, String> {
    // Alias form `action@stage[copy]#packet` (e.g. `panic@reduce[0]#500`),
    // reading as "inject <action> at <site>, packet <n>"; the `#` is
    // unambiguous — the canonical form never contains one.
    if let Some((action, site_packet)) = entry.split_once('@') {
        if let Some((site, packet)) = site_packet.rsplit_once('#') {
            return parse_rule_parts(site, packet, action, entry);
        }
    }
    let err = || format!("bad fault rule `{entry}` (want stage[copy]@packet:action)");
    let (site, rest) = entry.split_once('@').ok_or_else(err)?;
    let (packet, action) = rest.split_once(':').ok_or_else(err)?;
    parse_rule_parts(site, packet, action, entry)
}

fn parse_rule_parts(
    site: &str,
    packet: &str,
    action: &str,
    entry: &str,
) -> Result<FaultRule, String> {
    // Every error names the component that failed — with two accepted
    // spellings (`stage[copy]@packet:action` and the action-first alias
    // `action@stage[copy]#packet`), "bad rule" alone leaves the user
    // guessing which piece the parser choked on.
    let site = site.trim();
    let (stage, copy) = match site.strip_suffix(']').and_then(|s| s.split_once('[')) {
        Some((stage, copy)) => (stage, Some(copy)),
        // Omitting the `[copy]` segment selects every transparent copy
        // of the stage — `kill@f3#4` arms all of f3, matching the
        // documented `action@stage#packet` alias semantics. A stray
        // bracket is still a malformed site, not a stage name.
        None if !site.contains('[') && !site.contains(']') => (site, None),
        None => {
            return Err(format!(
                "bad site `{site}` in `{entry}`: want stage or stage[copy]"
            ))
        }
    };
    let stage = match stage.trim() {
        "*" => None,
        name if !name.is_empty() => Some(name.to_string()),
        _ => {
            return Err(format!(
                "empty stage name in `{entry}` (use `*` for any stage)"
            ))
        }
    };
    let copy = match copy.map(str::trim) {
        None | Some("*") => None,
        Some(c) => Some(
            c.parse::<usize>()
                .map_err(|_| format!("bad copy index `{c}` in `{entry}`: want a number or `*`"))?,
        ),
    };
    let trigger = match packet.trim() {
        "*" => Trigger::Every,
        p if p.starts_with('%') => {
            let prob = p[1..]
                .parse::<f64>()
                .map_err(|_| format!("bad probability `{p}` in `{entry}`: want %<fraction>"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!(
                    "probability {prob} out of range [0,1] in `{entry}`"
                ));
            }
            Trigger::Prob(prob)
        }
        p => Trigger::Packet(p.parse::<u64>().map_err(|_| {
            format!("bad packet selector `{p}` in `{entry}`: want an index, `*`, or %<fraction>")
        })?),
    };
    let action = match action.trim() {
        "fail" => FaultAction::Fail,
        "panic" => FaultAction::Panic,
        "drop" => FaultAction::DropPacket,
        "kill" => FaultAction::Kill,
        a => match a.strip_prefix("delay:") {
            Some(ms) => FaultAction::Delay(Duration::from_millis(
                ms.parse::<u64>()
                    .map_err(|_| format!("bad delay milliseconds `{ms}` in `{entry}`"))?,
            )),
            None => {
                return Err(format!(
                    "unknown fault action `{a}` in `{entry}`: want \
                     fail|panic|drop|kill|delay:<ms>"
                ))
            }
        },
    };
    Ok(FaultRule {
        stage,
        copy,
        trigger,
        action,
    })
}

/// Die as an external SIGKILL would: immediately and without unwinding,
/// `Drop`, or atexit handlers. Used by [`FaultAction::Kill`] so process
/// chaos tests exercise the exact failure mode a crashed or OOM-killed
/// worker presents to its peers (sockets reset mid-frame, shm rings left
/// with the producer-closed flag unset).
pub(crate) fn die_hard() -> ! {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
            fn getpid() -> i32;
        }
        // SAFETY: plain syscalls; SIGKILL (9) cannot be caught or blocked,
        // so this call does not return.
        unsafe {
            kill(getpid(), 9);
        }
    }
    // Non-unix (or the impossible post-SIGKILL instant): hard abort.
    std::process::abort();
}

/// FNV-1a, used to give each (stage, copy) site a stable hash for
/// seeding probabilistic triggers.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-filter-copy injection state, consulted once per packet by
/// [`FilterIo`](crate::FilterIo).
#[derive(Debug)]
pub struct FaultInjector {
    rules: Vec<(Trigger, FaultAction)>,
    seed: u64,
    site: u64,
    label: String,
    packet: u64,
    pending: Option<FilterError>,
}

impl FaultInjector {
    /// Called for each packet this copy handles; returns the action to
    /// inject, if any. First matching rule wins.
    pub fn on_packet(&mut self) -> Option<FaultAction> {
        let idx = self.packet;
        self.packet += 1;
        for (trigger, action) in &self.rules {
            let fires = match trigger {
                Trigger::Packet(p) => *p == idx,
                Trigger::Every => true,
                Trigger::Prob(p) => {
                    let mut rng = SmallRng::seed_from_u64(
                        self.seed ^ self.site ^ idx.wrapping_mul(0x2545f4914f6cdd1d),
                    );
                    rng.gen_f64() < *p
                }
            };
            if fires {
                return Some(*action);
            }
        }
        None
    }

    /// `stage[copy]` label of the owning filter copy.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Packets this copy has handled so far.
    pub fn packets_seen(&self) -> u64 {
        self.packet
    }

    /// Record an injected failure to be surfaced after the filter's
    /// unit of work returns (the read path cannot return an error
    /// directly — it signals end-of-work and parks the error here).
    pub fn set_pending(&mut self, e: FilterError) {
        if self.pending.is_none() {
            self.pending = Some(e);
        }
    }

    /// Take the parked injected failure, if any.
    pub fn take_pending(&mut self) -> Option<FilterError> {
        self.pending.take()
    }

    /// The structured error an injected `Fail` action produces.
    pub fn injected_error(&self, packet: u64) -> FilterError {
        FilterError::new(
            self.label.clone(),
            format!("injected failure at packet {packet}"),
        )
    }
}

/// Shared state for one pipeline run: the cancellation token wired into
/// every stream channel, a global progress counter the stall detector
/// watches, and the reason the run was cancelled (for the final error).
#[derive(Default)]
pub struct RunControl {
    token: CancelToken,
    progress: AtomicU64,
    cancelled: AtomicBool,
    reason: Mutex<Option<String>>,
}

impl RunControl {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The cancel token stream channels are built against.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Cancel the run, recording why (first reason wins); wakes every
    /// blocked stream operation.
    pub fn cancel(&self, reason: impl Into<String>) {
        let mut r = self.reason.lock().unwrap_or_else(|e| e.into_inner());
        if r.is_none() {
            *r = Some(reason.into());
        }
        drop(r);
        self.cancelled.store(true, Ordering::Release);
        self.token.cancel();
    }

    pub fn reason(&self) -> Option<String> {
        self.reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Bump the global progress counter (one successful packet send or
    /// receive); the stall detector watches this.
    pub fn note_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Sleep that wakes early (returning an error) if the run is
    /// cancelled — injected delays must never outlive the deadline.
    pub fn cancellable_sleep(&self, total: Duration, who: &str) -> FilterResult<()> {
        let slice = Duration::from_millis(5);
        let mut left = total;
        while left > Duration::ZERO {
            if self.is_cancelled() {
                return Err(FilterError::cancelled(
                    who,
                    "delay interrupted by run cancellation",
                ));
            }
            let step = left.min(slice);
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan =
            FaultPlan::parse("seed=7; square[0]@5:panic; sink[*]@%0.01:fail; src[1]@*:delay:2")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.rules[0],
            FaultRule {
                stage: Some("square".into()),
                copy: Some(0),
                trigger: Trigger::Packet(5),
                action: FaultAction::Panic,
            }
        );
        assert_eq!(plan.rules[1].stage, Some("sink".into()));
        assert_eq!(plan.rules[1].copy, None);
        assert_eq!(plan.rules[1].trigger, Trigger::Prob(0.01));
        assert_eq!(plan.rules[1].action, FaultAction::Fail);
        assert_eq!(
            plan.rules[2].action,
            FaultAction::Delay(Duration::from_millis(2))
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("a[0]@1:explode").is_err());
        assert!(FaultPlan::parse("a[zero]@1:fail").is_err());
        assert!(FaultPlan::parse("a[0]@%1.5:fail").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("explode@a[0]#1").is_err());
        // A `fail-` suffix is an unknown action, and the error lists the
        // valid ones.
        let err = FaultPlan::parse("a[0]@1:fail-fast").unwrap_err();
        assert!(
            err.contains("want fail|panic|drop|kill|delay:<ms>"),
            "{err}"
        );
        assert!(FaultPlan::parse("panic@a[#1").is_err(), "stray bracket");
        assert!(FaultPlan::parse("panic@a]0[#1").is_err(), "stray bracket");
    }

    /// Regression: a site without the `[copy]` segment means "any copy"
    /// in both spellings — it used to be a parse error, so a
    /// `CGP_KILL=f3#4` spec against a widened last stage could not be
    /// written at all.
    #[test]
    fn omitted_copy_segment_means_any_copy() {
        let cases: &[(&str, Option<&str>, Option<usize>)] = &[
            // (spec, stage, copy)
            ("panic@a#1", Some("a"), None),
            ("kill@f3#4", Some("f3"), None),
            ("a@1:panic", Some("a"), None),
            ("*@1:drop", None, None),
            ("drop@*#1", None, None),
            // The explicit forms are untouched.
            ("a[2]@1:panic", Some("a"), Some(2)),
            ("panic@a[*]#1", Some("a"), None),
        ];
        for (spec, stage, copy) in cases {
            let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            assert_eq!(plan.rules.len(), 1, "`{spec}`");
            assert_eq!(plan.rules[0].stage.as_deref(), *stage, "`{spec}`");
            assert_eq!(plan.rules[0].copy, *copy, "`{spec}`");
        }
        // An omitted-copy rule arms every copy of the stage.
        let plan = FaultPlan::parse("kill@f3#4").unwrap();
        for copy in [0usize, 1, 7] {
            assert!(plan.injector("f3", copy).is_some(), "copy {copy}");
        }
        assert!(plan.injector("f2", 0).is_none(), "stage filter still holds");
    }

    /// Malformed specs — in both the canonical and the action-first
    /// alias spelling — produce an error naming the component that
    /// failed, never a panic or a generic "bad rule".
    #[test]
    fn parse_errors_name_the_failing_component() {
        let cases: &[(&str, &str)] = &[
            // (spec, substring the error must contain)
            ("panic@a[0#1", "bad site `a[0`"),
            ("panic@[0]#1", "empty stage name"),
            ("drop@f2[two]#3", "bad copy index `two`"),
            ("panic@f2[0]#abc", "bad packet selector `abc`"),
            ("fail@f2[0]#%zz", "bad probability `%zz`"),
            ("fail@f2[0]#%1.5", "out of range"),
            ("explode@f2[0]#1", "unknown fault action `explode`"),
            ("delay:soon@f2[0]#1", "bad delay milliseconds `soon`"),
            // Canonical spelling hits the same named errors.
            ("f2[two]@3:drop", "bad copy index `two`"),
            ("f2[0]@abc:panic", "bad packet selector `abc`"),
            ("f2[0]@1:explode", "unknown fault action `explode`"),
            ("f2[0]@1:delay:soon", "bad delay milliseconds `soon`"),
            ("[0]@1:panic", "empty stage name"),
        ];
        for (spec, want) in cases {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(
                err.contains(want),
                "`{spec}`: error `{err}` does not name the component (`{want}`)"
            );
        }
        // Well-formed variants of each component still parse.
        for spec in [
            "panic@f2[0]#3",
            "drop@*[*]#*",
            "fail@f2[1]#%0.25",
            "delay:15@f2[0]#9",
            "f2[0]@3:panic",
        ] {
            assert!(FaultPlan::parse(spec).is_ok(), "`{spec}` should parse");
        }
    }

    /// The alias spelling `action@stage[copy]#packet` parses to the same
    /// rule as the canonical `stage[copy]@packet:action`.
    #[test]
    fn parse_accepts_action_first_alias_form() {
        let canonical = FaultPlan::parse("reduce[0]@500:panic").unwrap();
        let alias = FaultPlan::parse("panic@reduce[0]#500").unwrap();
        assert_eq!(alias.rules, canonical.rules);
        let plan = FaultPlan::parse("delay:250@f2[*]#*; fail@*[1]#%0.5").unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(
            plan.rules[0].action,
            FaultAction::Delay(Duration::from_millis(250))
        );
        assert_eq!(plan.rules[0].trigger, Trigger::Every);
        assert_eq!(plan.rules[0].stage.as_deref(), Some("f2"));
        assert_eq!(plan.rules[1].action, FaultAction::Fail);
        assert_eq!(plan.rules[1].trigger, Trigger::Prob(0.5));
        assert_eq!(plan.rules[1].copy, Some(1));
    }

    #[test]
    fn injector_fires_at_exact_packet_only() {
        let plan = FaultPlan::new().panic_at("square", 1, 3);
        assert!(plan.injector("square", 0).is_none(), "copy filter");
        assert!(plan.injector("other", 1).is_none(), "stage filter");
        let mut inj = plan.injector("square", 1).unwrap();
        for i in 0..10u64 {
            let got = inj.on_packet();
            if i == 3 {
                assert_eq!(got, Some(FaultAction::Panic), "packet {i}");
            } else {
                assert_eq!(got, None, "packet {i}");
            }
        }
    }

    #[test]
    fn wildcard_rules_apply_everywhere() {
        let plan = FaultPlan::parse("*[*]@*:drop").unwrap();
        let mut inj = plan.injector("anything", 7).unwrap();
        assert_eq!(inj.on_packet(), Some(FaultAction::DropPacket));
        assert_eq!(inj.on_packet(), Some(FaultAction::DropPacket));
    }

    #[test]
    fn probabilistic_trigger_is_deterministic_for_a_seed() {
        let plan = FaultPlan::parse("s[0]@%0.3:fail").unwrap().with_seed(42);
        let decisions = |plan: &FaultPlan| -> Vec<bool> {
            let mut inj = plan.injector("s", 0).unwrap();
            (0..200).map(|_| inj.on_packet().is_some()).collect()
        };
        let a = decisions(&plan);
        let b = decisions(&plan);
        assert_eq!(a, b, "same seed, same decisions");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((20..=100).contains(&fired), "~30% of 200, got {fired}");
        let other = decisions(&plan.clone().with_seed(43));
        assert_ne!(a, other, "different seed, different decisions");
    }

    #[test]
    fn run_control_cancel_keeps_first_reason() {
        let rc = RunControl::new();
        assert!(!rc.is_cancelled());
        rc.note_progress();
        assert_eq!(rc.progress(), 1);
        rc.cancel("deadline");
        rc.cancel("later");
        assert!(rc.is_cancelled());
        assert_eq!(rc.reason().as_deref(), Some("deadline"));
    }

    #[test]
    fn cancellable_sleep_aborts_on_cancel() {
        let rc = RunControl::new();
        rc.cancel("now");
        let t = std::time::Instant::now();
        assert!(rc.cancellable_sleep(Duration::from_secs(10), "x").is_err());
        assert!(t.elapsed() < Duration::from_secs(1));
    }
}
