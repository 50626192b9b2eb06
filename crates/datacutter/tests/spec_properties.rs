//! Seeded properties of the decoders that read operator input:
//! [`FaultPlan::parse`] (`CGP_FAULTS`, `--faults`) and
//! [`AutoscaleConfig::parse`] (`CGP_AUTOSCALE`, `--autoscale`).
//!
//! For each spec parser:
//!
//! - a spec rendered from a generated value parses back to that value;
//! - every prefix, and every random mutation, of a generated spec returns
//!   `Ok` or `Err` and never panics;
//! - renderings that differ only in whitespace parse the same.
//!
//! The autoscale parser also rejects, by key, an integer setting given
//! as a fraction, a negative number or a value out of its type's range.
//!
//! Cases come from a seeded PRNG (the build is offline, so no proptest);
//! a failure names its case and spec.

use cgp_datacutter::{AutoscaleConfig, FaultAction, FaultPlan, FaultRule, Trigger};
use cgp_obs::SmallRng;
use std::time::Duration;

/// Whitespace the parsers must ignore when `on`, else none.
fn ws(rng: &mut SmallRng, on: bool) -> &'static str {
    if !on {
        return "";
    }
    ["", "", " ", "  ", "\t"][rng.gen_range(0, 5)]
}

fn pick<T: Copy>(items: &[T], rng: &mut SmallRng) -> T {
    items[rng.gen_range(0, items.len())]
}

/// A generated fault spec's value: the plan's seed and rules.
struct GenPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl GenPlan {
    fn random(rng: &mut SmallRng) -> GenPlan {
        let seed = pick(&[0, rng.gen_range_u64(100), rng.next_u64()], rng);
        let rules = (0..rng.gen_range(0, 6))
            .map(|_| FaultRule {
                stage: rng.gen_bool(0.8).then(|| {
                    pick(&["f1", "f2", "f3", "src", "sink_2", "re-duce"], rng).to_string()
                }),
                copy: rng.gen_bool(0.6).then(|| rng.gen_range(0, 16)),
                trigger: match rng.gen_range(0, 4) {
                    0 => Trigger::Every,
                    1 => Trigger::Prob(pick(&[0.0, 1.0, rng.gen_f64()], rng)),
                    _ => Trigger::Packet(pick(&[0, rng.gen_range_u64(64), rng.next_u64()], rng)),
                },
                action: match rng.gen_range(0, 5) {
                    0 => FaultAction::Fail,
                    1 => FaultAction::Panic,
                    2 => FaultAction::DropPacket,
                    3 => FaultAction::Kill,
                    _ => FaultAction::Delay(Duration::from_millis(rng.gen_range_u64(10_000))),
                },
            })
            .collect();
        GenPlan { seed, rules }
    }

    fn plan(&self) -> FaultPlan {
        let plan = FaultPlan::new().with_seed(self.seed);
        self.rules.iter().cloned().fold(plan, FaultPlan::rule)
    }

    /// The spec, each rule in a randomly chosen spelling; the seed entry
    /// at a random position (left out when 0, the default, four times in
    /// five). With `spaced`, random whitespace wherever the grammar
    /// allows it, plus a stray empty entry now and then.
    fn render(&self, rng: &mut SmallRng, spaced: bool) -> String {
        let mut entries: Vec<String> = Vec::new();
        for r in &self.rules {
            let mut site = r.stage.clone().unwrap_or_else(|| "*".into());
            match r.copy {
                Some(c) => site += &format!("[{}{c}{}]", ws(rng, spaced), ws(rng, spaced)),
                None if rng.gen_bool(0.5) => site += "[*]",
                None => {}
            }
            let packet = match r.trigger {
                Trigger::Every => "*".to_string(),
                Trigger::Prob(p) => format!("%{p}"),
                Trigger::Packet(n) => n.to_string(),
            };
            let action = match r.action {
                FaultAction::Fail => "fail".to_string(),
                FaultAction::Panic => "panic".to_string(),
                FaultAction::DropPacket => "drop".to_string(),
                FaultAction::Kill => "kill".to_string(),
                FaultAction::Delay(d) => format!("delay:{}", d.as_millis()),
            };
            let w: Vec<&str> = (0..4).map(|_| ws(rng, spaced)).collect();
            entries.push(if rng.gen_bool(0.3) {
                format!("{action}{}@{}{site}{}#{}{packet}", w[0], w[1], w[2], w[3])
            } else {
                format!("{site}{}@{}{packet}{}:{}{action}", w[0], w[1], w[2], w[3])
            });
        }
        if self.seed != 0 || rng.gen_bool(0.2) {
            let at = rng.gen_range(0, entries.len() + 1);
            entries.insert(at, format!("seed={}{}", ws(rng, spaced), self.seed));
        }
        if spaced && rng.gen_bool(0.3) {
            let at = rng.gen_range(0, entries.len() + 1);
            entries.insert(at, String::new());
        }
        let entries: Vec<String> = entries
            .iter()
            .map(|e| format!("{}{e}{}", ws(rng, spaced), ws(rng, spaced)))
            .collect();
        entries.join(";")
    }
}

/// A generated autoscale spec's value: `None` is disabled, `Some` the
/// keys it sets (each in its parsed range) over the defaults.
fn random_autoscale(rng: &mut SmallRng) -> (Option<AutoscaleConfig>, Vec<&'static str>) {
    if rng.gen_bool(0.15) {
        return (None, Vec::new());
    }
    let mut cfg = AutoscaleConfig::default();
    let mut keys = Vec::new();
    for key in ["max", "grow", "shrink", "cooldown", "escalate"] {
        if !rng.gen_bool(0.6) {
            continue;
        }
        keys.push(key);
        match key {
            "max" => cfg.max_width = rng.gen_range(1, 65),
            "grow" => cfg.grow_backlog = 1.0 + 15.0 * rng.gen_f64(),
            "shrink" => cfg.shrink_starved = pick(&[0.0, 1.0, rng.gen_f64()], rng),
            "cooldown" => cfg.cooldown_ticks = rng.gen_range(0, 100) as u32,
            _ => cfg.escalate_ticks = rng.gen_range(1, 100) as u32,
        }
    }
    rng.shuffle(&mut keys);
    (Some(cfg), keys)
}

/// The autoscale spec for `value` (see [`random_autoscale`]): a switch
/// word when no key is set, else `key=value` pairs in the drawn order;
/// all in upper case three times in ten (the parser ignores case);
/// spaced as in [`GenPlan::render`].
fn render_autoscale(
    value: &(Option<AutoscaleConfig>, Vec<&'static str>),
    rng: &mut SmallRng,
    spaced: bool,
) -> String {
    let (cfg, keys) = value;
    let spec = match cfg {
        None => pick(&["", "0", "off", "false", "no"], rng).to_string(),
        Some(_) if keys.is_empty() => pick(&["1", "on", "true", "yes"], rng).to_string(),
        Some(c) => {
            let mut parts: Vec<String> = keys
                .iter()
                .map(|&k| {
                    let v = match k {
                        "max" => c.max_width.to_string(),
                        "grow" => c.grow_backlog.to_string(),
                        "shrink" => c.shrink_starved.to_string(),
                        "cooldown" => c.cooldown_ticks.to_string(),
                        _ => c.escalate_ticks.to_string(),
                    };
                    let w: Vec<&str> = (0..4).map(|_| ws(rng, spaced)).collect();
                    format!("{}{k}{}={}{v}{}", w[0], w[1], w[2], w[3])
                })
                .collect();
            if spaced && rng.gen_bool(0.3) {
                let at = rng.gen_range(0, parts.len() + 1);
                parts.insert(at, ws(rng, true).to_string());
            }
            parts.join(",")
        }
    };
    let spec = format!("{}{spec}{}", ws(rng, spaced), ws(rng, spaced));
    if rng.gen_bool(0.3) {
        spec.to_ascii_uppercase()
    } else {
        spec
    }
}

/// Every char-boundary prefix of `spec`, then `n` random mutations of
/// it: a character replaced, deleted or inserted, drawn from the
/// grammars' punctuation, digits, letters and a non-ASCII character.
fn prefixes_and_mutations(spec: &str, rng: &mut SmallRng, n: usize) -> Vec<String> {
    const ALPHABET: &[char] = &[
        '@', ':', '#', '[', ']', '*', '%', ';', '=', ',', '.', '-', ' ', '0', '1', '9', 'e', 'x',
        'f', 'a', 'é',
    ];
    let mut out: Vec<String> = spec
        .char_indices()
        .map(|(i, _)| spec[..i].to_string())
        .collect();
    for _ in 0..n {
        let mut chars: Vec<char> = spec.chars().collect();
        let at = rng.gen_range(0, chars.len() + 1);
        let c = pick(ALPHABET, rng);
        match rng.gen_range(0, 3) {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
        out.push(chars.into_iter().collect());
    }
    out
}

#[test]
fn generated_fault_specs_parse_to_their_plan() {
    let mut rng = SmallRng::seed_from_u64(0xFA01);
    for case in 0..500 {
        let g = GenPlan::random(&mut rng);
        let spec = g.render(&mut rng, false);
        let got = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("case {case} {spec:?}: {e}"));
        assert_eq!(got, g.plan(), "case {case}: {spec:?}");
    }
}

#[test]
fn fault_spec_prefixes_and_mutations_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xFA02);
    for _ in 0..200 {
        let spec = GenPlan::random(&mut rng).render(&mut rng, true);
        for s in prefixes_and_mutations(&spec, &mut rng, 20) {
            let _ = FaultPlan::parse(&s);
        }
    }
}

#[test]
fn fault_specs_differing_in_whitespace_parse_the_same() {
    let mut rng = SmallRng::seed_from_u64(0xFA03);
    for case in 0..500 {
        let g = GenPlan::random(&mut rng);
        let (plain, spaced) = (g.render(&mut rng, false), g.render(&mut rng, true));
        assert_eq!(
            FaultPlan::parse(&spaced),
            FaultPlan::parse(&plain),
            "case {case}: {spaced:?} vs {plain:?}"
        );
    }
}

#[test]
fn generated_autoscale_specs_parse_to_their_config() {
    let mut rng = SmallRng::seed_from_u64(0xA501);
    for case in 0..500 {
        let value = random_autoscale(&mut rng);
        let spec = render_autoscale(&value, &mut rng, false);
        let got =
            AutoscaleConfig::parse(&spec).unwrap_or_else(|e| panic!("case {case} {spec:?}: {e}"));
        assert_eq!(got, value.0, "case {case}: {spec:?}");
    }
}

#[test]
fn autoscale_spec_prefixes_and_mutations_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xA502);
    for _ in 0..200 {
        let value = random_autoscale(&mut rng);
        let spec = render_autoscale(&value, &mut rng, true);
        for s in prefixes_and_mutations(&spec, &mut rng, 20) {
            let _ = AutoscaleConfig::parse(&s);
        }
    }
}

#[test]
fn autoscale_specs_differing_in_whitespace_parse_the_same() {
    let mut rng = SmallRng::seed_from_u64(0xA503);
    for case in 0..500 {
        let value = random_autoscale(&mut rng);
        let plain = render_autoscale(&value, &mut rng, false);
        let spaced = render_autoscale(&value, &mut rng, true);
        let (a, b) = (
            AutoscaleConfig::parse(&spaced),
            AutoscaleConfig::parse(&plain),
        );
        assert_eq!(
            a.map_err(|e| e.to_string()),
            b.map_err(|e| e.to_string()),
            "case {case}: {spaced:?} vs {plain:?}"
        );
    }
}

/// An integer key given a fraction, a negative number, an exponent or a
/// value beyond its type is rejected with an error naming the key; none
/// of them is truncated or wrapped into a count.
#[test]
fn autoscale_integer_keys_reject_fractions_and_out_of_range_values() {
    let mut rng = SmallRng::seed_from_u64(0xA504);
    for case in 0..300 {
        let (key, too_big) = pick(
            &[
                ("max", "18446744073709551616"),
                ("cooldown", "4294967296"),
                ("escalate", "4294967297"),
            ],
            &mut rng,
        );
        let n = rng.gen_range(1, 64);
        let bad = match rng.gen_range(0, 4) {
            0 => format!("{n}.5"),
            1 => format!("-{n}"),
            2 => format!("1e{}", rng.gen_range(1, 40)),
            _ => too_big.to_string(),
        };
        // The bad key rides among valid ones, at a random position.
        let value = random_autoscale(&mut rng);
        let mut parts: Vec<String> = match &value.0 {
            Some(_) if !value.1.is_empty() => render_autoscale(&value, &mut rng, false)
                .split(',')
                .map(str::to_string)
                .collect(),
            _ => Vec::new(),
        };
        let at = rng.gen_range(0, parts.len() + 1);
        parts.insert(at, format!("{key}={bad}"));
        let spec = parts.join(",");
        let err = match AutoscaleConfig::parse(&spec) {
            Ok(cfg) => panic!("case {case}: {spec:?} must be rejected, parsed as {cfg:?}"),
            Err(e) => e.to_string(),
        };
        assert!(
            err.contains(&format!("`{key}`")),
            "case {case}: {spec:?}: error does not name `{key}`: {err}"
        );
    }
    let err = AutoscaleConfig::parse("max=2.5").expect_err("max=2.5");
    assert!(err.to_string().contains("`max`"), "{err}");
}
