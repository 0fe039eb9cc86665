//! Process-wide metrics: counters, gauges, and log-bucketed latency
//! histograms, exported as [`Json`].
//!
//! A profile (`EXPLAIN ANALYZE`) accounts for a *single* query; this
//! module holds what only a running process can know — cumulative
//! counters, latency distributions, and per-rule normalization accounting
//! across every query it serves. It keeps only series a serving process
//! writes: anything a profile already sums (per-operator rows, build
//! rows, q-errors) is read from the profiles, never re-summed here. The
//! design is dependency-free and mirrors the usual client-library shape:
//!
//! * a [`Registry`] owns named series; registration takes a lock, but
//!   the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles are
//!   `Arc`-shared atomics, so the hot path is a single
//!   `fetch_add(Relaxed)` — cache the handle in a `OnceLock` and never
//!   touch the lock again;
//! * series are identified by a metric name plus ordered labels
//!   (`normalize_rule_fired_total{rule="beta"}`), one series per label
//!   combination;
//! * [`Histogram`]s are log₂-bucketed: bucket *i* counts observations
//!   `v ≤ 2^i` (the last bucket is +∞), which spans 1 ns to ~4.6 s in
//!   63 buckets with ≤ 2× relative error — plenty for latency work.
//!   [`HistogramSnapshot::quantile`] reads p50/p95/p99 back out;
//! * [`Registry::snapshot`] captures a consistent-enough point-in-time
//!   view; [`Snapshot::diff`] subtracts an earlier snapshot so tests
//!   and the bench harness can meter a *known workload* without caring
//!   what ran before;
//! * [`Snapshot::to_json`] is the one export format, rendered through
//!   the repo's own [`Json`].
//!
//! The process-wide registry is [`global()`]. The store, the normalizer,
//! the analyzer, phase timings, the serving layer and the umbrella OQL
//! path feed it; the executor registers nothing (a profiled run's counts
//! stay in its profile).

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: bucket `i < 63` counts observations
/// `≤ 2^i`; bucket 63 is the +∞ overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (heap sizes, pool occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` observations (typically
/// nanoseconds). Recording is lock-free: one bucket increment plus
/// count/sum updates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// The bucket an observation lands in: the smallest `i` with `v ≤ 2^i`
/// (so a value exactly on a power of two lands in *its own* bucket, not
/// the next one up), clamped to the +∞ bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i` (`None` for the +∞ bucket).
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i < HISTOGRAM_BUCKETS - 1 {
        Some(1u64 << i)
    } else {
        None
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observe a nanosecond duration held as `u128` (the type
    /// `Instant::elapsed().as_nanos()` returns), saturating.
    #[inline]
    pub fn observe_nanos(&self, nanos: u128) {
        self.observe(u64::try_from(nanos).unwrap_or(u64::MAX));
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// One registered series: a metric name plus its ordered labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metric series. Cheap to share (`Arc` the handles,
/// not the registry); all recording is atomic.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, Metric>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    SeriesKey {
        name: name.to_string(),
        labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register the label-less counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or register a counter series. Panics if `name`+`labels` is
    /// already registered as a different metric type — that is a
    /// programming error, not a runtime condition.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut series = self.series.lock().unwrap();
        match series
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("`{name}` is registered as a {}", other.kind()),
        }
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut series = self.series.lock().unwrap();
        match series
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("`{name}` is registered as a {}", other.kind()),
        }
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut series = self.series.lock().unwrap();
        match series
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("`{name}` is registered as a {}", other.kind()),
        }
    }

    /// A point-in-time view of every registered series. Each series is
    /// read atomically; the snapshot as a whole is not a transaction,
    /// which is the usual (and sufficient) exporter guarantee.
    pub fn snapshot(&self) -> Snapshot {
        let series = self.series.lock().unwrap();
        Snapshot {
            series: series
                .iter()
                .map(|(k, m)| SeriesSnapshot {
                    key: k.clone(),
                    value: match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// The process-wide registry every instrumented layer records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// Frozen value of one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (*not* cumulative), length
    /// [`HISTOGRAM_BUCKETS`].
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) read from the buckets: the
    /// rank-`⌈q·count⌉` observation, linearly interpolated inside the
    /// bucket that holds it (observations are assumed uniform across a
    /// bucket's `(lower, upper]` range, so uniform data recovers exact
    /// quantiles; skewed data is off by at most the bucket width).
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            let before = seen;
            seen += n;
            if seen >= rank {
                // The +∞ bucket has no bound; the mean of what landed
                // there is the best point estimate we can give.
                let Some(upper) = bucket_bound(i) else {
                    return Some(self.sum.checked_div(self.count).unwrap_or(u64::MAX));
                };
                let lower = if i == 0 { 0 } else { bucket_bound(i - 1).unwrap_or(0) };
                let into = (rank - before) as f64 / *n as f64;
                return Some((lower as f64 + (upper - lower) as f64 * into).round() as u64);
            }
        }
        None
    }

    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// One series in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    pub key: SeriesKey,
    pub value: MetricValue,
}

/// A frozen view of a [`Registry`], ordered by series key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub series: Vec<SeriesSnapshot>,
}

impl Snapshot {
    /// Look up a series by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let k = key(name, labels);
        self.series.iter().find(|s| s.key == k).map(|s| &s.value)
    }

    /// Counter value (0 when absent — counters that never fired are
    /// simply unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_with(name, &[])
    }

    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name, &[]) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.get(name, labels) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// `self − earlier`: what a workload between two snapshots did.
    /// Counters and histogram buckets subtract (saturating, so a series
    /// born after `earlier` passes through unchanged); gauges keep
    /// their current value — a gauge is a level, not a flow.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let before: BTreeMap<&SeriesKey, &MetricValue> =
            earlier.series.iter().map(|s| (&s.key, &s.value)).collect();
        Snapshot {
            series: self
                .series
                .iter()
                .map(|s| {
                    let value = match (&s.value, before.get(&s.key)) {
                        (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                            MetricValue::Counter(now.saturating_sub(*then))
                        }
                        (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                            MetricValue::Histogram(HistogramSnapshot {
                                buckets: now
                                    .buckets
                                    .iter()
                                    .zip(&then.buckets)
                                    .map(|(a, b)| a.saturating_sub(*b))
                                    .collect(),
                                count: now.count.saturating_sub(then.count),
                                sum: now.sum.saturating_sub(then.sum),
                            })
                        }
                        (v, _) => v.clone(),
                    };
                    SeriesSnapshot { key: s.key.clone(), value }
                })
                .collect(),
        }
    }

    /// Render as a JSON document: one object per series with `name`,
    /// `labels`, `type`, and the value (histograms carry count/sum,
    /// p50/p95/p99, and the non-empty buckets).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.series
                .iter()
                .map(|s| {
                    let labels = Json::Obj(
                        s.key
                            .labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                            .collect(),
                    );
                    let mut fields = vec![
                        ("name", Json::str(s.key.name.clone())),
                        ("labels", labels),
                    ];
                    match &s.value {
                        MetricValue::Counter(n) => {
                            fields.push(("type", Json::str("counter")));
                            fields.push(("value", Json::from(*n)));
                        }
                        MetricValue::Gauge(v) => {
                            fields.push(("type", Json::str("gauge")));
                            fields.push(("value", Json::Int(*v)));
                        }
                        MetricValue::Histogram(h) => {
                            fields.push(("type", Json::str("histogram")));
                            fields.push(("count", Json::from(h.count)));
                            fields.push(("sum", Json::from(h.sum)));
                            fields.push(("p50", opt_u64(h.p50())));
                            fields.push(("p95", opt_u64(h.p95())));
                            fields.push(("p99", opt_u64(h.p99())));
                            fields.push((
                                "buckets",
                                Json::Arr(
                                    h.buckets
                                        .iter()
                                        .enumerate()
                                        .filter(|(_, n)| **n > 0)
                                        .map(|(i, n)| {
                                            Json::obj(vec![
                                                (
                                                    "le",
                                                    match bucket_bound(i) {
                                                        Some(b) => Json::from(b),
                                                        None => Json::str("+Inf"),
                                                    },
                                                ),
                                                ("count", Json::from(*n)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ));
                        }
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map(Json::from).unwrap_or(Json::Null)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let r = Registry::new();
        let c = r.counter("requests_total");
        c.inc();
        c.add(4);
        let g = r.gauge("pool_size");
        g.set(7);
        g.add(-2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("requests_total"), 5);
        assert_eq!(snap.gauge("pool_size"), Some(5));
        // Handles are shared: a second lookup hits the same atomic.
        r.counter("requests_total").inc();
        assert_eq!(r.snapshot().counter("requests_total"), 6);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        r.counter_with("rule_fired", &[("rule", "beta")]).add(3);
        r.counter_with("rule_fired", &[("rule", "proj")]).add(1);
        let snap = r.snapshot();
        assert_eq!(snap.counter_with("rule_fired", &[("rule", "beta")]), 3);
        assert_eq!(snap.counter_with("rule_fired", &[("rule", "proj")]), 1);
        assert_eq!(snap.counter_with("rule_fired", &[("rule", "other")]), 0);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("x").inc();
        let _ = r.gauge("x");
    }

    #[test]
    fn histogram_bucket_boundaries_on_powers_of_two() {
        // A value exactly 2^k lands in the bucket whose inclusive upper
        // bound is 2^k — not the next one up.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for k in 0..63u32 {
            let v = 1u64 << k;
            let i = bucket_index(v);
            assert_eq!(
                bucket_bound(i),
                Some(v),
                "2^{k} must land in the bucket bounded by itself"
            );
            if v > 1 {
                assert_eq!(bucket_index(v + 1), i + 1, "2^{k}+1 spills to the next bucket");
            }
        }
        // Everything past 2^62 lands in +Inf.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // Uniform data across whole buckets interpolates to the exact
        // quantile (1..=64 fill their buckets completely).
        assert_eq!(s.p50(), Some(50), "interpolated p50 of 1..=100 is exact");
        // 65..=100 only part-fills the (64, 128] bucket, so tail
        // quantiles interpolate over the full bucket range — still
        // within the bucket, never past its bound.
        let p95 = s.p95().unwrap();
        assert!((95..=128).contains(&p95), "p95 = {p95}");
        let p99 = s.p99().unwrap();
        assert!((p95..=128).contains(&p99), "p99 = {p99}");
        assert!(Histogram::default().snapshot().p50().is_none());
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // 512 values uniformly filling the (512, 1024] bucket. Before
        // interpolation every quantile snapped to the bucket bound 1024,
        // overstating the median by 2×; now each rank lands on its exact
        // value.
        let h = Histogram::default();
        for v in 513..=1024u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(768), "exact p50 of 513..=1024");
        assert_eq!(s.quantile(1.0), Some(1024), "max rank still hits the bound");
        // The smallest rank interpolates just past the lower bound.
        let p_min = s.quantile(0.001).unwrap();
        assert!((513..=514).contains(&p_min), "p0.1 = {p_min}");
        // Monotone in q.
        let qs: Vec<u64> =
            [0.1, 0.25, 0.5, 0.75, 0.9, 0.99].iter().map(|&q| s.quantile(q).unwrap()).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_keeps_gauges() {
        let r = Registry::new();
        r.counter("c").add(10);
        r.gauge("g").set(3);
        r.histogram("h").observe(5);
        let before = r.snapshot();
        r.counter("c").add(7);
        r.gauge("g").set(9);
        r.histogram("h").observe(5);
        r.histogram("h").observe(4096);
        r.counter_with("born_later", &[]).inc();
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("c"), 7);
        assert_eq!(d.gauge("g"), Some(9), "gauges are levels, not flows");
        let h = d.histogram_with("h", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5 + 4096);
        assert_eq!(d.counter("born_later"), 1, "new series pass through");
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let r = Registry::new();
        assert_eq!(r.snapshot().to_json().render(), "[]");
    }

    #[test]
    fn json_export_round_trips_hostile_labels() {
        let label = "tricky \"quote\" \\slash\nnewline";
        let r = Registry::new();
        r.counter_with("ops_total", &[("label", label)]).add(2);
        r.gauge("level").set(-4);
        let doc = Json::parse(&r.snapshot().to_json().render()).unwrap();
        let series = doc.as_arr().unwrap();
        assert_eq!(series.len(), 2);
        let ops = &series[1];
        assert_eq!(ops.get("name").and_then(Json::as_str), Some("ops_total"));
        let got = ops.get("labels").and_then(|l| l.get("label")).and_then(Json::as_str);
        assert_eq!(got, Some(label));
        assert_eq!(series[0].get("value").and_then(Json::as_i64), Some(-4));
    }

    #[test]
    fn json_export_carries_quantiles() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [10u64, 20, 30, 4000] {
            h.observe(v);
        }
        let json = r.snapshot().to_json().render();
        assert!(json.contains("\"p50\""), "{json}");
        assert!(json.contains("\"p95\""), "{json}");
        assert!(json.contains("\"buckets\""), "{json}");
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let c = r.counter("shared");
                let h = r.histogram("hist");
                for i in 0..1000u64 {
                    c.inc();
                    h.observe(i);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("shared"), 4000);
        assert_eq!(snap.histogram_with("hist", &[]).unwrap().count, 4000);
    }

    #[test]
    fn histogram_extreme_observations() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        // Sum saturates the atomic add naturally: 0 + u64::MAX.
        assert_eq!(snap.sum, u64::MAX);
        assert_eq!(snap.buckets[0], 1, "0 lands in the first bucket");
        assert_eq!(
            snap.buckets[HISTOGRAM_BUCKETS - 1],
            1,
            "u64::MAX lands in the +Inf bucket"
        );
        // p50 is the first bucket's bound; p99 falls in +Inf, whose
        // point estimate is the mean of everything observed.
        assert_eq!(snap.quantile(0.5), Some(1));
        assert_eq!(snap.quantile(0.99), Some(snap.sum / snap.count));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.0), None);
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.p95(), None);
        assert_eq!(snap.p99(), None);
    }

    #[test]
    fn diff_of_identical_registries_is_all_zero() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(3);
        r.histogram("h").observe(100);
        let a = r.snapshot();
        let b = r.snapshot();
        let d = b.diff(&a);
        // Same series set, every flow zeroed; the gauge keeps its level.
        assert_eq!(d.series.len(), b.series.len());
        assert_eq!(d.counter("c"), 0);
        assert_eq!(d.gauge("g"), Some(3));
        let h = d.histogram_with("h", &[]).unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0);
        assert!(h.buckets.iter().all(|&n| n == 0));
        // And a diff of two truly empty registries is empty outright.
        let empty = Registry::new();
        let e = empty.snapshot().diff(&empty.snapshot());
        assert!(e.series.is_empty());
    }
}
