//! Process-wide metrics: one fixed catalog of counters, gauges, and
//! log-bucketed latency histograms, exported as [`Json`].
//!
//! A profile (`EXPLAIN ANALYZE`) accounts for a *single* query; this
//! module holds what only a running process can know — cumulative
//! counters, latency distributions, and per-rule normalization accounting
//! across every query it serves. It keeps only series a serving process
//! writes: anything a profile already sums (per-operator rows, build
//! rows, q-errors) is read from the profiles, never re-summed here.
//!
//! * The [`Registry`] is a const-initialised struct whose fields are the
//!   series, so a recording site writes `metrics::global().<series>`
//!   directly: one `fetch_add(Relaxed)`, no lookup, lock or cached
//!   handle. A labelled family is an array indexed by the enum that
//!   names its labels ([`Phase`], [`Rule`], [`Code`], [`Stage`]).
//! * [`Histogram`]s are log₂-bucketed: bucket *i* counts observations
//!   `v ≤ 2^i` (the last bucket is +∞), which spans 1 ns to ~4.6 s in
//!   63 buckets with ≤ 2× relative error — plenty for latency work.
//!   [`HistogramSnapshot::quantile`] reads p50/p95/p99 back out.
//! * [`Registry::snapshot`], the one place a series is named, lists
//!   every series (`normalize_rule_fired_total{rule="beta"}`), zeros
//!   included, in key order; [`Snapshot::diff`] subtracts an earlier
//!   snapshot, so tests and the bench harness meter a *known workload*
//!   whatever ran before; [`Snapshot::to_json`] is the one export format.
//!
//! The process-wide registry is [`global()`].

use crate::analysis::verify::Stage;
use crate::analysis::Code;
use crate::json::Json;
use crate::normalize::Rule;
use crate::trace::Phase;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of histogram buckets: bucket `i < 63` counts observations
/// `≤ 2^i`; bucket 63 is the +∞ overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

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

    fn read(&self) -> MetricValue {
        MetricValue::Counter(self.get())
    }
}

/// A value that can go up and down (heap sizes, pool occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

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

    fn read(&self) -> MetricValue {
        MetricValue::Gauge(self.get())
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
        Histogram::new()
    }
}

impl Histogram {
    const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

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

    fn read(&self) -> MetricValue {
        MetricValue::Histogram(self.snapshot())
    }
}

/// One series in a snapshot: a metric name plus its ordered labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    SeriesKey {
        name: name.to_string(),
        labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

/// Every series this process writes, one field each. A labelled family
/// is an array in its label enum's declaration order (`Phase::index`,
/// `Rule::number() - 1`, `Code as usize`, `Stage as usize`). What each
/// series counts is tabled in `docs/observability.md` ("The series").
#[derive(Debug)]
pub struct Registry {
    pub oql_queries_total: Counter,
    pub oql_query_errors_total: Counter,
    pub oql_query_nanos: Histogram,
    pub query_phase_nanos: [Histogram; Phase::ALL.len()],
    pub normalize_runs_total: Counter,
    pub normalize_steps_total: Counter,
    pub normalize_rule_fired_total: [Counter; Rule::COUNT],
    pub store_objects_inserted_total: Counter,
    pub store_heap_objects: Gauge,
    pub store_queries_total: Counter,
    pub store_query_errors_total: Counter,
    pub store_query_nanos: Histogram,
    pub store_state_reads_total: Counter,
    pub store_extent_scans_total: Counter,
    pub analysis_diagnostics_total: [Counter; Code::all().len()],
    pub analysis_verify_failures_total: [Counter; Stage::ALL.len()],
    pub recorder_records_total: Counter,
    pub recorder_errors_total: Counter,
    pub recorder_slow_captures_total: Counter,
    pub plan_cache_hits_total: Counter,
    pub plan_cache_misses_total: Counter,
    pub plan_cache_invalidations_total: Counter,
    pub plan_cache_evictions_total: Counter,
    pub prepare_nanos: Histogram,
    pub serving_statements_total: Counter,
    pub serving_requests_in_flight: Gauge,
}

impl Registry {
    /// A registry with every series at zero.
    const fn new() -> Registry {
        Registry {
            oql_queries_total: Counter::new(),
            oql_query_errors_total: Counter::new(),
            oql_query_nanos: Histogram::new(),
            query_phase_nanos: [const { Histogram::new() }; Phase::ALL.len()],
            normalize_runs_total: Counter::new(),
            normalize_steps_total: Counter::new(),
            normalize_rule_fired_total: [const { Counter::new() }; Rule::COUNT],
            store_objects_inserted_total: Counter::new(),
            store_heap_objects: Gauge::new(),
            store_queries_total: Counter::new(),
            store_query_errors_total: Counter::new(),
            store_query_nanos: Histogram::new(),
            store_state_reads_total: Counter::new(),
            store_extent_scans_total: Counter::new(),
            analysis_diagnostics_total: [const { Counter::new() }; Code::all().len()],
            analysis_verify_failures_total: [const { Counter::new() }; Stage::ALL.len()],
            recorder_records_total: Counter::new(),
            recorder_errors_total: Counter::new(),
            recorder_slow_captures_total: Counter::new(),
            plan_cache_hits_total: Counter::new(),
            plan_cache_misses_total: Counter::new(),
            plan_cache_invalidations_total: Counter::new(),
            plan_cache_evictions_total: Counter::new(),
            prepare_nanos: Histogram::new(),
            serving_statements_total: Counter::new(),
            serving_requests_in_flight: Gauge::new(),
        }
    }

    /// A point-in-time view of every series, in key order. Each series
    /// is read atomically; the snapshot as a whole is not a transaction,
    /// which is the usual (and sufficient) exporter guarantee.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.push("oql_queries_total", &[], self.oql_queries_total.read());
        s.push("oql_query_errors_total", &[], self.oql_query_errors_total.read());
        s.push("oql_query_nanos", &[], self.oql_query_nanos.read());
        for (phase, h) in Phase::ALL.iter().zip(&self.query_phase_nanos) {
            s.push("query_phase_nanos", &[("phase", phase.as_str())], h.read());
        }
        s.push("normalize_runs_total", &[], self.normalize_runs_total.read());
        s.push("normalize_steps_total", &[], self.normalize_steps_total.read());
        for (rule, c) in Rule::all().iter().zip(&self.normalize_rule_fired_total) {
            s.push("normalize_rule_fired_total", &[("rule", rule.name())], c.read());
        }
        s.push("store_objects_inserted_total", &[], self.store_objects_inserted_total.read());
        s.push("store_heap_objects", &[], self.store_heap_objects.read());
        s.push("store_queries_total", &[], self.store_queries_total.read());
        s.push("store_query_errors_total", &[], self.store_query_errors_total.read());
        s.push("store_query_nanos", &[], self.store_query_nanos.read());
        s.push("store_state_reads_total", &[], self.store_state_reads_total.read());
        s.push("store_extent_scans_total", &[], self.store_extent_scans_total.read());
        for (code, c) in Code::all().iter().zip(&self.analysis_diagnostics_total) {
            s.push("analysis_diagnostics_total", &[("code", code.as_str())], c.read());
        }
        for (stage, c) in Stage::ALL.iter().zip(&self.analysis_verify_failures_total) {
            s.push("analysis_verify_failures_total", &[("stage", stage.as_str())], c.read());
        }
        s.push("recorder_records_total", &[], self.recorder_records_total.read());
        s.push("recorder_errors_total", &[], self.recorder_errors_total.read());
        s.push("recorder_slow_captures_total", &[], self.recorder_slow_captures_total.read());
        s.push("plan_cache_hits_total", &[], self.plan_cache_hits_total.read());
        s.push("plan_cache_misses_total", &[], self.plan_cache_misses_total.read());
        s.push("plan_cache_invalidations_total", &[], self.plan_cache_invalidations_total.read());
        s.push("plan_cache_evictions_total", &[], self.plan_cache_evictions_total.read());
        s.push("prepare_nanos", &[], self.prepare_nanos.read());
        s.push("serving_statements_total", &[], self.serving_statements_total.read());
        s.push("serving_requests_in_flight", &[], self.serving_requests_in_flight.read());
        s.series.sort_by(|a, b| a.key.cmp(&b.key));
        s
    }
}

/// The process-wide registry every instrumented layer records into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
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
    fn push(&mut self, name: &str, labels: &[(&str, &str)], value: MetricValue) {
        self.series.push(SeriesSnapshot { key: key(name, labels), value });
    }

    /// Look up a series by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let k = key(name, labels);
        self.series.iter().find(|s| s.key == k).map(|s| &s.value)
    }

    /// Counter value (0 when the snapshot has no such series).
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

    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
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
        let series = self.series.iter().map(|s| {
            let value = match (&s.value, before.get(&s.key)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                    let buckets = now.buckets.iter().zip(&then.buckets);
                    MetricValue::Histogram(HistogramSnapshot {
                        buckets: buckets.map(|(a, b)| a.saturating_sub(*b)).collect(),
                        count: now.count.saturating_sub(then.count),
                        sum: now.sum.saturating_sub(then.sum),
                    })
                }
                (v, _) => v.clone(),
            };
            SeriesSnapshot { key: s.key.clone(), value }
        });
        Snapshot { series: series.collect() }
    }

    /// Render as a JSON document: one object per series with `name`,
    /// `labels`, `type`, and the value (histograms carry count/sum,
    /// p50/p95/p99, and the non-empty buckets).
    pub fn to_json(&self) -> Json {
        Json::Arr(self.series.iter().map(series_json).collect())
    }
}

/// One series as a JSON object: its name, labels, type and value.
fn series_json(s: &SeriesSnapshot) -> Json {
    let labels = s.key.labels.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect();
    let mut fields = vec![("name", Json::str(s.key.name.clone())), ("labels", Json::Obj(labels))];
    match &s.value {
        MetricValue::Counter(n) => {
            fields.extend([("type", Json::str("counter")), ("value", Json::from(*n))]);
        }
        MetricValue::Gauge(v) => {
            fields.extend([("type", Json::str("gauge")), ("value", Json::Int(*v))]);
        }
        MetricValue::Histogram(h) => {
            let quantile = |q: Option<u64>| q.map_or(Json::Null, Json::from);
            let buckets = h.buckets.iter().enumerate().filter(|(_, n)| **n > 0).map(|(i, n)| {
                let le = bucket_bound(i).map_or_else(|| Json::str("+Inf"), Json::from);
                Json::obj(vec![("le", le), ("count", Json::from(*n))])
            });
            fields.extend([
                ("type", Json::str("histogram")),
                ("count", Json::from(h.count)),
                ("sum", Json::from(h.sum)),
                ("p50", quantile(h.p50())),
                ("p95", quantile(h.p95())),
                ("p99", quantile(h.p99())),
                ("buckets", Json::Arr(buckets.collect())),
            ]);
        }
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let r = Registry::new();
        r.plan_cache_hits_total.inc();
        r.plan_cache_hits_total.add(4);
        r.serving_requests_in_flight.set(7);
        r.serving_requests_in_flight.add(-2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("plan_cache_hits_total"), 5);
        assert_eq!(snap.gauge("serving_requests_in_flight"), Some(5));
        r.plan_cache_hits_total.inc();
        assert_eq!(r.snapshot().counter("plan_cache_hits_total"), 6);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        r.normalize_rule_fired_total[Rule::Beta as usize].add(3);
        r.normalize_rule_fired_total[Rule::Proj as usize].add(1);
        r.query_phase_nanos[Phase::Plan.index()].observe(9);
        r.analysis_diagnostics_total[Code::CrossProduct as usize].inc();
        r.analysis_verify_failures_total[Stage::PlanBinders as usize].inc();
        let snap = r.snapshot();
        let fired = |rule| snap.counter_with("normalize_rule_fired_total", &[("rule", rule)]);
        assert_eq!(fired("beta"), 3);
        assert_eq!(fired("record-projection"), 1);
        assert_eq!(fired("other"), 0);
        let plan = snap.histogram_with("query_phase_nanos", &[("phase", "plan")]).unwrap();
        assert_eq!((plan.count, plan.sum), (1, 9));
        assert_eq!(snap.counter_with("analysis_diagnostics_total", &[("code", "MC007")]), 1);
        let failed = &[("stage", "plan/binders")];
        assert_eq!(snap.counter_with("analysis_verify_failures_total", failed), 1);
    }

    #[test]
    fn every_label_value_is_a_series() {
        let snap = Registry::new().snapshot();
        let labelled = Phase::ALL.len() + Rule::all().len() + Code::all().len() + Stage::ALL.len();
        assert_eq!(snap.series.len(), 22 + labelled);
        // Each family's array is indexed by its enum's declaration order.
        assert!(Rule::all().iter().enumerate().all(|(i, r)| r.number() as usize == i + 1));
        assert!(Rule::all().iter().enumerate().all(|(i, r)| *r as usize == i));
        assert!(Code::all().iter().enumerate().all(|(i, c)| *c as usize == i));
        assert!(Stage::ALL.iter().enumerate().all(|(i, s)| *s as usize == i));
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
            assert_eq!(bucket_bound(i), Some(v), "2^{k} must land in the bucket bounded by itself");
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
        r.store_queries_total.add(10);
        r.store_heap_objects.set(3);
        r.store_query_nanos.observe(5);
        let before = r.snapshot();
        r.store_queries_total.add(7);
        r.store_heap_objects.set(9);
        r.store_query_nanos.observe(5);
        r.store_query_nanos.observe(4096);
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("store_queries_total"), 7);
        assert_eq!(d.gauge("store_heap_objects"), Some(9), "gauges are levels, not flows");
        let h = d.histogram_with("store_query_nanos", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5 + 4096);
        let d = r.snapshot().diff(&Snapshot::default());
        assert_eq!(d.counter("store_queries_total"), 17, "new series pass through");
    }

    #[test]
    fn a_fresh_registry_exports_every_series_at_zero() {
        let doc = Json::parse(&Registry::new().snapshot().to_json().render()).unwrap();
        let series = doc.as_arr().unwrap();
        assert!(!series.is_empty());
        for s in series {
            let zero = match s.get("type").and_then(Json::as_str) {
                Some("histogram") => s.get("count").and_then(Json::as_i64) == Some(0),
                _ => s.get("value").and_then(Json::as_i64) == Some(0),
            };
            assert!(zero, "{}", s.render());
        }
    }

    #[test]
    fn json_export_carries_quantiles() {
        let r = Registry::new();
        let h = &r.prepare_nanos;
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
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        r.oql_queries_total.inc();
                        r.oql_query_nanos.observe(i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("oql_queries_total"), 4000);
        assert_eq!(snap.histogram_with("oql_query_nanos", &[]).unwrap().count, 4000);
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
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1, "u64::MAX lands in the +Inf bucket");
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
        r.recorder_records_total.add(5);
        r.store_heap_objects.set(3);
        r.prepare_nanos.observe(100);
        let a = r.snapshot();
        let b = r.snapshot();
        let d = b.diff(&a);
        // Same series set, every flow zeroed; the gauge keeps its level.
        assert_eq!(d.series.len(), b.series.len());
        assert_eq!(d.counter("recorder_records_total"), 0);
        assert_eq!(d.gauge("store_heap_objects"), Some(3));
        let h = d.histogram_with("prepare_nanos", &[]).unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0);
        assert!(h.buckets.iter().all(|&n| n == 0));
        // And a diff of two empty snapshots is empty outright.
        assert!(Snapshot::default().diff(&Snapshot::default()).series.is_empty());
    }
}
