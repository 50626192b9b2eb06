//! Counter / histogram metrics registry.
//!
//! Each worker (filter copy, compiler phase, bench iteration) can own a
//! private [`MetricsRegistry`] and record without contention; at end of
//! run the registries are [merged](MetricsRegistry::merge) into one
//! snapshot. Counters are monotone sums; histograms keep log-spaced
//! bucket counts plus exact sum/min/max, so merged quantile estimates
//! never require storing samples.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Monotone counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    pub value: u64,
}

impl Counter {
    pub fn add(&mut self, delta: u64) {
        self.value += delta;
    }
}

/// Number of log-spaced histogram buckets. Bucket `i` covers values in
/// `[2^(i-1), 2^i)` (bucket 0 is `[0, 1)`), so 64 buckets span any u64.
const BUCKETS: usize = 64;

/// Log-2 bucketed histogram over non-negative integer samples
/// (bytes, microseconds, queue depths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

fn bucket_of(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        // Saturating: a wrapped or garbage stamp (u64::MAX-ish) must park
        // in the top bucket, not abort the recording thread on overflow.
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Interpolated quantile estimate: locates the bucket containing rank
    /// `q·count`, then interpolates linearly within the bucket's value
    /// range `[2^(i-1), 2^i)` by the rank's position among the bucket's
    /// samples. Clamped to the observed `[min, max]`, so a single-sample
    /// histogram returns the exact sample. Merge-stable: it reads only
    /// the bucket counts and the exact min/max.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extreme quantiles are known exactly — don't interpolate.
        if q == 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Bucket edges tightened to the observed range: the top
                // bucket is unbounded above, so its only honest upper
                // edge is `max` (interpolating toward u64::MAX would put
                // every mid-quantile estimate at the clamp).
                let lo = (if i == 0 { 0u64 } else { 1u64 << (i - 1) }).max(self.min);
                let hi = if i >= BUCKETS - 1 {
                    self.max
                } else {
                    (1u64 << i).min(self.max)
                };
                let hi = hi.max(lo);
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Lossless JSON encoding (bucket counts included, sparse), so a
    /// histogram shipped across processes can be [`merge`](Self::merge)d
    /// faithfully on the receiving side.
    pub fn to_wire_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", Json::Num(self.count as f64));
        o.set("sum", Json::Num(self.sum as f64));
        o.set(
            "min",
            Json::Num(if self.count == 0 {
                0.0
            } else {
                self.min as f64
            }),
        );
        o.set("max", Json::Num(self.max as f64));
        let mut buckets = Vec::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                buckets.push(Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]));
            }
        }
        o.set("buckets", Json::Arr(buckets));
        o
    }

    /// Decode [`to_wire_json`](Self::to_wire_json) output. `None` on any
    /// structural mismatch (hardened against malformed remote input).
    pub fn from_wire_json(j: &Json) -> Option<Histogram> {
        let mut h = Histogram {
            count: j.get("count")?.as_f64()? as u64,
            sum: j.get("sum")?.as_f64()? as u64,
            min: j.get("min")?.as_f64()? as u64,
            max: j.get("max")?.as_f64()? as u64,
            buckets: [0; BUCKETS],
        };
        if h.count == 0 {
            return Some(Histogram::default());
        }
        let Json::Arr(buckets) = j.get("buckets")? else {
            return None;
        };
        for pair in buckets {
            let Json::Arr(kv) = pair else { return None };
            if kv.len() != 2 {
                return None;
            }
            let i = kv[0].as_f64()? as usize;
            if i >= BUCKETS {
                return None;
            }
            h.buckets[i] = kv[1].as_f64()? as u64;
        }
        if h.buckets.iter().try_fold(0u64, |a, &n| a.checked_add(n)) != Some(h.count) {
            return None;
        }
        Some(h)
    }
}

/// Named counters and histograms. Keys are sorted (BTreeMap) so every
/// rendering is deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&mut self, name: &str, delta: u64) {
        self.counters
            .entry(name.to_string())
            .or_default()
            .add(delta);
    }

    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    pub fn get_counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.value)
    }

    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, c)| (k.as_str(), c.value))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters add, histograms merge
    /// bucket-wise. Associative and commutative, so per-thread
    /// registries can be folded in any order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, c) in &other.counters {
            self.counters.entry(name.clone()).or_default().add(c.value);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Fold a pre-aggregated histogram into the named histogram (e.g. a
    /// per-stage latency histogram collected outside the registry).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// JSON snapshot: `{"counters": {...}, "histograms": {name:
    /// {count, sum, min, max, mean, p50, p95, p99}}}`. Percentiles are
    /// interpolated ([`Histogram::percentile`]).
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, c) in &self.counters {
            counters.set(name.clone(), Json::Num(c.value as f64));
        }
        let mut histograms = Json::obj();
        for (name, h) in &self.histograms {
            let mut o = Json::obj();
            o.set("count", Json::Num(h.count as f64));
            o.set("sum", Json::Num(h.sum as f64));
            o.set(
                "min",
                Json::Num(if h.count == 0 { 0.0 } else { h.min as f64 }),
            );
            o.set("max", Json::Num(h.max as f64));
            o.set("mean", Json::Num(h.mean()));
            o.set("p50", Json::Num(h.percentile(0.5) as f64));
            o.set("p95", Json::Num(h.percentile(0.95) as f64));
            o.set("p99", Json::Num(h.percentile(0.99) as f64));
            histograms.set(name.clone(), o);
        }
        let mut root = Json::obj();
        root.set("counters", counters);
        root.set("histograms", histograms);
        root
    }

    /// Lossless JSON encoding of the whole registry (bucket-level
    /// histograms via [`Histogram::to_wire_json`]), for shipping a
    /// snapshot across processes and merging it on the far side.
    pub fn to_wire_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, c) in &self.counters {
            counters.set(name.clone(), Json::Num(c.value as f64));
        }
        let mut histograms = Json::obj();
        for (name, h) in &self.histograms {
            histograms.set(name.clone(), h.to_wire_json());
        }
        let mut root = Json::obj();
        root.set("counters", counters);
        root.set("histograms", histograms);
        root
    }

    /// Decode [`to_wire_json`](Self::to_wire_json) output. `None` on any
    /// structural mismatch (hardened against malformed remote input).
    pub fn from_wire_json(j: &Json) -> Option<MetricsRegistry> {
        let mut reg = MetricsRegistry::new();
        let Json::Obj(counters) = j.get("counters")? else {
            return None;
        };
        for (name, v) in counters {
            // A repeated name adds up, as `counter` does, but a sum past
            // u64::MAX is malformed rather than an overflow.
            let c = reg.counters.entry(name.clone()).or_default();
            c.value = c.value.checked_add(v.as_f64()? as u64)?;
        }
        let Json::Obj(histograms) = j.get("histograms")? else {
            return None;
        };
        for (name, v) in histograms {
            reg.histograms
                .insert(name.clone(), Histogram::from_wire_json(v)?);
        }
        Some(reg)
    }

    /// Plain-text table for report printers.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, c) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {}", c.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<40} n={} mean={:.1} min={} max={} p50={} p99={}",
                    h.count,
                    h.mean(),
                    if h.count == 0 { 0 } else { h.min },
                    h.max,
                    h.percentile(0.5),
                    h.percentile(0.99),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut r = MetricsRegistry::new();
        r.counter("packets", 3);
        r.counter("packets", 4);
        assert_eq!(r.get_counter("packets"), 7);
        assert_eq!(r.get_counter("missing"), 0);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 106);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        // p50 falls in the bucket holding 2 (values [2,4)).
        assert!((2..4).contains(&h.percentile(0.5)));
        // p100 is the exact maximum.
        assert_eq!(h.percentile(1.0), 100);
    }

    #[test]
    fn percentile_empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn percentile_single_sample_is_exact() {
        let mut h = Histogram::default();
        h.record(37);
        // Every percentile of a one-sample distribution is that sample —
        // the min/max clamp recovers it despite the coarse bucket.
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.percentile(q), 37, "q={q}");
        }
    }

    #[test]
    fn percentile_interpolates_within_and_across_buckets() {
        let mut h = Histogram::default();
        for v in [2u64, 2, 3, 100] {
            h.record(v);
        }
        // Rank 2 of 4 lands in the bucket covering [2,4) which holds 3
        // samples; interpolation keeps the estimate inside the bucket,
        // strictly below its upper bound of 4.
        let p50 = h.percentile(0.5);
        assert!((2..4).contains(&p50), "p50={p50}");
        // Rank 4 crosses into the [64,128) bucket; the estimate is
        // clamped to the observed max.
        let p99 = h.percentile(0.99);
        assert!((64..=100).contains(&p99), "p99={p99}");
        // Degenerate q values hit the exact extremes.
        assert_eq!(h.percentile(0.0), h.min);
        assert_eq!(h.percentile(1.0), h.max);
    }

    #[test]
    fn percentile_q0_is_min_and_q1_is_max() {
        let mut h = Histogram::default();
        for v in [5u64, 9, 1200, 77777] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 5);
        assert_eq!(h.percentile(1.0), 77777);
        // Out-of-range q is clamped, not propagated.
        assert_eq!(h.percentile(-3.0), 5);
        assert_eq!(h.percentile(7.0), 77777);
    }

    #[test]
    fn percentile_top_unbounded_bucket_interpolates_to_observed_max() {
        let mut h = Histogram::default();
        // Both samples land in the unbounded last bucket [2^62, ∞); the
        // interpolation edge must be the observed max, not u64::MAX.
        h.record(1 << 62);
        h.record(1 << 63);
        for q in [0.25, 0.5, 0.75, 0.99] {
            let p = h.percentile(q);
            assert!(
                ((1u64 << 62)..=(1u64 << 63)).contains(&p),
                "q={q} escaped the observed range: {p}"
            );
        }
        assert_eq!(h.percentile(1.0), 1 << 63);
    }

    #[test]
    fn percentile_never_leaves_observed_range() {
        let mut h = Histogram::default();
        for v in [3u64, 3, 3, 900] {
            h.record(v);
        }
        for i in 0..=100u32 {
            let q = f64::from(i) / 100.0;
            let p = h.percentile(q);
            assert!((3..=900).contains(&p), "q={q} p={p}");
        }
    }

    #[test]
    fn percentile_is_merge_stable() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in 0..200u64 {
            let h = if v % 2 == 0 { &mut a } else { &mut b };
            h.record(v * 3);
            whole.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.percentile(0.5), whole.percentile(0.5));
        assert_eq!(a.percentile(0.99), whole.percentile(0.99));
    }

    #[test]
    fn histogram_wire_roundtrip() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 5, 1000, 1 << 62] {
            h.record(v);
        }
        let j = h.to_wire_json();
        let parsed = crate::json::Json::parse(&j.to_string()).unwrap();
        let back = Histogram::from_wire_json(&parsed).unwrap();
        assert_eq!(back.count, h.count);
        assert_eq!(back.min, h.min);
        assert_eq!(back.buckets, h.buckets);
        // Empty histogram round-trips too.
        let e = Histogram::default();
        let back = Histogram::from_wire_json(&e.to_wire_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn histogram_wire_rejects_malformed() {
        // Bucket counts not matching `count`.
        let mut h = Histogram::default();
        h.record(7);
        let text = h
            .to_wire_json()
            .to_string()
            .replace("\"count\":1", "\"count\":2");
        let parsed = crate::json::Json::parse(&text).unwrap();
        assert!(Histogram::from_wire_json(&parsed).is_none());
        // Bucket index out of range.
        let bad = Json::parse("{\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[99,1]]}")
            .unwrap();
        assert!(Histogram::from_wire_json(&bad).is_none());
        // Bucket counts, or a repeated counter, summing past u64::MAX.
        let huge = "18446744073709551615";
        let bad = Json::parse(&format!(
            "{{\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[1,{huge}],[2,2]]}}"
        ))
        .unwrap();
        assert!(Histogram::from_wire_json(&bad).is_none());
        let bad = Json::parse(&format!(
            "{{\"counters\":{{\"c\":{huge},\"c\":{huge}}},\"histograms\":{{}}}}"
        ))
        .unwrap();
        assert!(MetricsRegistry::from_wire_json(&bad).is_none());
    }

    #[test]
    fn registry_wire_roundtrip_preserves_merge() {
        let mut a = MetricsRegistry::new();
        a.counter("net.link1.frames", 12);
        a.counter("net.link1.bytes", 4096);
        a.observe("stage.f1.residence_us", 10);
        a.observe("stage.f1.residence_us", 1000);
        let text = a.to_wire_json().to_string();
        let parsed = crate::json::Json::parse(&text).unwrap();
        let back = MetricsRegistry::from_wire_json(&parsed).unwrap();
        assert_eq!(back.get_counter("net.link1.frames"), 12);
        assert_eq!(
            back.get_histogram("stage.f1.residence_us"),
            a.get_histogram("stage.f1.residence_us")
        );
        // Merging the decoded copy equals merging the original.
        let mut m1 = MetricsRegistry::new();
        m1.counter("net.link1.frames", 1);
        let mut m2 = m1.clone();
        m1.merge(&a);
        m2.merge(&back);
        assert_eq!(m1.get_counter("net.link1.frames"), 13);
        assert_eq!(
            m1.get_histogram("stage.f1.residence_us"),
            m2.get_histogram("stage.f1.residence_us")
        );
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        // The top bucket absorbs everything from 2^62 up.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_is_commutative_and_matches_single_stream() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let mut whole = MetricsRegistry::new();
        for v in 0..100u64 {
            let r = if v % 2 == 0 { &mut a } else { &mut b };
            r.counter("n", 1);
            r.observe("lat", v * 17);
            whole.counter("n", 1);
            whole.observe("lat", v * 17);
        }
        // Disjoint names survive a merge too.
        a.counter("only_a", 5);
        whole.counter("only_a", 5);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        for m in [&ab, &ba] {
            assert_eq!(m.get_counter("n"), whole.get_counter("n"));
            assert_eq!(m.get_counter("only_a"), 5);
            let (h, w) = (
                m.get_histogram("lat").unwrap(),
                whole.get_histogram("lat").unwrap(),
            );
            assert_eq!(h, w);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut r = MetricsRegistry::new();
        r.observe("x", 9);
        let before = r.get_histogram("x").unwrap().clone();
        r.merge(&MetricsRegistry::new());
        assert_eq!(r.get_histogram("x").unwrap(), &before);
    }

    #[test]
    fn json_snapshot_parses() {
        let mut r = MetricsRegistry::new();
        r.counter("c", 2);
        r.observe("h", 10);
        let text = r.to_json().to_string();
        let parsed = crate::json::Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("counters").unwrap().get("c").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("h")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}
