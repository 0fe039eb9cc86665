//! The process-wide query flight recorder.
//!
//! Where [`crate::trace`] times one query in the moment and
//! [`crate::metrics`] accumulates fleet-wide counters, the recorder
//! *remembers individual executions*: a fixed-capacity ring buffer holds
//! one structured [`QueryRecord`] per executed query — source
//! fingerprint, session id, plan-cache disposition, per-phase nanos,
//! rows produced, effect summary, engine, and outcome
//! — so "what ran recently and why was it slow" is answerable after the
//! fact, without having profiled anything up front.
//!
//! ## Feeding the recorder
//!
//! A record is a value. The layer that owns a statement's lifecycle —
//! the umbrella crate's `Prepared`, which holds the source, the effect
//! summary, the engine label and the prepare's phase timings, and is
//! told by a `Session` who asked and how the plan cache answered —
//! builds one [`QueryRecord`] per execution and hands it to
//! [`FlightRecorder::commit`]. Nothing is ambient: there is no open
//! scope, no thread-local, and no hook for the layers underneath to
//! annotate through — the executors in the algebra crate do not know the
//! recorder exists, and a statement that unwinds leaves nothing behind.
//!
//! ## Lock-lightness and the disabled path
//!
//! The ring is a vector of per-slot mutexes with an atomic cursor:
//! committing a record locks only the slot it lands in, so concurrent
//! sessions never contend on a global lock. When the recorder is
//! disabled ([`FlightRecorder::set_enabled`], or `MONOID_RECORDER=0`)
//! the owning layer builds no record at all and no registry series
//! moves — the disabled path is the single [`FlightRecorder::enabled`]
//! load it makes before running (proven by snapshot diff in
//! `tests/recorder.rs`).
//!
//! ## The slow-query log
//!
//! A record whose wall-clock total exceeds the threshold
//! ([`FlightRecorder::set_slow_threshold`], or `MONOID_SLOW_QUERY_NANOS`)
//! commits with `slow` set, and [`FlightRecorder::commit`] returns a
//! [`SlowTrigger`] naming it: the owning layer answers with whatever it
//! has at hand — the full source, the optimized plan text, a profiled
//! replay — as a [`SlowQueryCapture`], filed in a separate, smaller ring
//! ([`FlightRecorder::capture_slow`], [`FlightRecorder::slow_log`]). A
//! threshold of 0 (the default) turns the slow log off.
//!
//! Both rings export as JSON ([`FlightRecorder::to_json`],
//! [`FlightRecorder::slow_log_json`]); the `oqltop` binary renders
//! either a live snapshot or a dumped journal (`docs/observability.md`).

use crate::json::Json;
use crate::metrics;
use crate::trace::Phase;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Ring capacity when `MONOID_RECORDER_CAPACITY` is unset.
const DEFAULT_CAPACITY: usize = 1024;

/// Slow-query captures retained (oldest evicted first).
const SLOW_LOG_CAPACITY: usize = 64;

/// Source text stored per record is truncated to this many characters;
/// the fingerprint always covers the full text.
const SOURCE_LIMIT: usize = 256;

// ---------------------------------------------------------------------
// QueryRecord
// ---------------------------------------------------------------------

/// How the serving layer resolved the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheDisposition {
    /// The execution did not go through a plan cache (direct `Prepared`
    /// or algebra-level execution).
    #[default]
    Uncached,
    /// Served from the plan cache.
    Hit,
    /// Prepared fresh (cold, stale-epoch, or evicted entry).
    Miss,
}

impl CacheDisposition {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Uncached => "uncached",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
        }
    }

    pub fn parse(s: &str) -> Option<CacheDisposition> {
        match s {
            "uncached" => Some(CacheDisposition::Uncached),
            "hit" => Some(CacheDisposition::Hit),
            "miss" => Some(CacheDisposition::Miss),
            _ => None,
        }
    }
}

/// One executed query, as the flight recorder remembers it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Process-wide commit sequence number (assigned by the recorder;
    /// monotonic, so `snapshot()` order is execution order).
    pub seq: u64,
    /// Hash of the *full* source text — stable within a process, so
    /// repeated executions of one statement group under one key even
    /// when [`QueryRecord::source`] is truncated.
    pub fingerprint: u64,
    /// Source text (truncated to 256 chars), shared by every record of
    /// one prepared statement.
    pub source: Arc<str>,
    /// The serving session that ran the query, when one did.
    pub session: Option<u64>,
    /// Plan-cache disposition ([`CacheDisposition::Uncached`] outside
    /// the serving layer).
    pub cache: CacheDisposition,
    /// Per-phase wall-clock nanos, indexed by [`Phase::index`]. Only the
    /// phases that actually ran are nonzero — a cache hit has no
    /// parse/normalize/optimize entries.
    pub phase_nanos: [u64; Phase::ALL.len()],
    /// Wall-clock nanos from the statement entering its owning layer to
    /// the end of its execution (≥ the phase sum — it includes cache
    /// lookup, lock wait and binding overhead the phases don't).
    pub total_nanos: u64,
    /// Rows (collection elements) the query produced; 1 for scalars.
    pub rows: u64,
    /// Rendered effect summary of the canonical form (empty when the
    /// recording layer had none at hand), rendered once per statement.
    pub effects: Arc<str>,
    /// Which execution engine ran the reduction: one of [`ENGINES`] —
    /// `"fused"` for the batch-fold engine that serves every planned
    /// statement, `"eval"` for direct evaluation outside the algebra.
    pub engine: Option<&'static str>,
    /// The `mutation_epoch` of the snapshot this statement read from,
    /// when it ran on the snapshot-isolated read path (`None` for writer
    /// path and algebra-level executions).
    pub snapshot_epoch: Option<u64>,
    /// The error message, for failed executions.
    pub error: Option<String>,
    /// Did this record exceed the slow-query threshold?
    pub slow: bool,
}

impl QueryRecord {
    /// A fresh record for `source` — fingerprinted, truncated, all
    /// counters zero — for its owner to fill in. `seq` is assigned at
    /// commit ([`FlightRecorder::push`]).
    pub fn new(source: &str) -> QueryRecord {
        QueryRecord::of(fingerprint(source), capped_source(source))
    }

    /// A fresh record for a source already fingerprinted and capped —
    /// what a prepared statement computes once for all of its records.
    pub fn of(fingerprint: u64, source: Arc<str>) -> QueryRecord {
        QueryRecord {
            seq: 0,
            fingerprint,
            source,
            session: None,
            cache: CacheDisposition::Uncached,
            phase_nanos: [0; Phase::ALL.len()],
            total_nanos: 0,
            rows: 0,
            effects: no_effects(),
            engine: None,
            snapshot_epoch: None,
            error: None,
            slow: false,
        }
    }

    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Nanos recorded for one lifecycle phase.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    pub fn to_json(&self) -> Json {
        let phases = Json::Obj(
            Phase::ALL
                .iter()
                .map(|p| (p.as_str().to_string(), Json::from(self.phase_nanos[p.index()])))
                .collect(),
        );
        Json::obj(vec![
            ("seq", Json::from(self.seq)),
            // Hex, not a JSON number: a 64-bit hash exceeds i64 half the
            // time and must round-trip exactly.
            ("fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            ("source", Json::str(&*self.source)),
            (
                "session",
                self.session.map(Json::from).unwrap_or(Json::Null),
            ),
            ("cache", Json::str(self.cache.as_str())),
            ("phase_nanos", phases),
            ("total_nanos", Json::from(self.total_nanos)),
            ("rows", Json::from(self.rows)),
            ("effects", Json::str(&*self.effects)),
            ("engine", self.engine.map(Json::str).unwrap_or(Json::Null)),
            (
                "snapshot_epoch",
                self.snapshot_epoch.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "outcome",
                Json::str(if self.ok() { "ok" } else { "error" }),
            ),
            (
                "error",
                self.error.clone().map(Json::Str).unwrap_or(Json::Null),
            ),
            ("slow", Json::Bool(self.slow)),
        ])
    }

    /// Rehydrate a record from its [`QueryRecord::to_json`] form — the
    /// journal format `oqltop` reads back. Strict: every field `to_json`
    /// writes must be present (nullable ones may be `null`).
    pub fn from_json(j: &Json) -> Result<QueryRecord, String> {
        let field = |k: &str| j.required("record", k);
        let count = |k: &str| j.required_u64("record", k);
        let text = |k: &str| j.required_str("record", k);
        let opt_text = |k: &str| Ok::<_, String>(field(k)?.as_str().map(str::to_string));
        let fingerprint_hex = text("fingerprint")?;
        let fingerprint = u64::from_str_radix(fingerprint_hex, 16)
            .map_err(|_| format!("bad fingerprint `{fingerprint_hex}`"))?;
        let cache_str = text("cache")?;
        let cache = CacheDisposition::parse(cache_str)
            .ok_or_else(|| format!("bad cache disposition `{cache_str}`"))?;
        let engine = match field("engine")?.as_str() {
            None => None,
            Some(e) => Some(
                *ENGINES.iter().find(|k| **k == e).ok_or_else(|| format!("bad engine `{e}`"))?,
            ),
        };
        let phases = field("phase_nanos")?;
        let mut phase_nanos = [0u64; Phase::ALL.len()];
        for phase in Phase::ALL {
            phase_nanos[phase.index()] = phases.required_u64("record phase_nanos", phase.as_str())?;
        }
        Ok(QueryRecord {
            seq: count("seq")?,
            fingerprint,
            source: text("source")?.into(),
            session: field("session")?.as_u64(),
            cache,
            phase_nanos,
            total_nanos: count("total_nanos")?,
            rows: count("rows")?,
            effects: text("effects")?.into(),
            engine,
            snapshot_epoch: field("snapshot_epoch")?.as_u64(),
            error: opt_text("error")?,
            slow: field("slow")?.as_bool().ok_or("record `slow` is not a boolean")?,
        })
    }
}

/// Version stamped into [`FlightRecorder::to_json`] journals. Bump when
/// the record schema changes shape: loaders refuse any other version.
/// Version 3 added the `engine` field; version 4 added `snapshot_epoch`;
/// version 5 dropped `parallel_workers` / `parallel_fallback`.
pub const JOURNAL_SCHEMA_VERSION: u64 = 5;

/// The empty effect summary, shared: a fresh record allocates nothing
/// for it.
fn no_effects() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// Every [`QueryRecord::engine`] label.
pub const ENGINES: [&str; 2] = ["fused", "eval"];

/// Hash of the full source text (stable within a process, like the plan
/// cache's schema fingerprint).
pub fn fingerprint(source: &str) -> u64 {
    let mut h = DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

/// `source` as a record keeps it: its first 256 characters, the last
/// of them an ellipsis when the text is longer.
fn capped_source(source: &str) -> Arc<str> {
    if source.chars().count() <= SOURCE_LIMIT {
        Arc::from(source)
    } else {
        let mut s: String = source.chars().take(SOURCE_LIMIT - 1).collect();
        s.push('…');
        Arc::from(s)
    }
}

// ---------------------------------------------------------------------
// SlowQueryCapture
// ---------------------------------------------------------------------

/// The deep capture of one over-threshold query: the record's identity
/// plus whatever the owning layer had at hand — the optimized plan text
/// and/or a full `explain_analyze` profile.
#[derive(Debug, Clone)]
pub struct SlowQueryCapture {
    /// The [`QueryRecord::seq`] this capture belongs to.
    pub seq: u64,
    pub fingerprint: u64,
    /// Full (untruncated) source text — slow queries are rare enough to
    /// keep whole.
    pub source: String,
    pub total_nanos: u64,
    /// The threshold in force when the capture fired.
    pub threshold_nanos: u64,
    /// `explain` text of the optimized plan (plannable statements).
    pub plan: Option<String>,
    /// Full `QueryProfile` JSON (when the query was profiled, or was
    /// safe to re-run under the profiler).
    pub profile: Option<Json>,
}

impl SlowQueryCapture {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::from(self.seq)),
            ("fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            ("source", Json::str(self.source.clone())),
            ("total_nanos", Json::from(self.total_nanos)),
            ("threshold_nanos", Json::from(self.threshold_nanos)),
            ("plan", self.plan.clone().map(Json::Str).unwrap_or(Json::Null)),
            ("profile", self.profile.clone().unwrap_or(Json::Null)),
        ])
    }
}

/// Returned by [`FlightRecorder::commit`] when the record crossed the
/// slow-query threshold: the committed record's identity, which the
/// owning layer turns into a [`SlowQueryCapture`].
#[derive(Debug, Clone, Copy)]
pub struct SlowTrigger {
    pub seq: u64,
    pub fingerprint: u64,
    pub total_nanos: u64,
    pub threshold_nanos: u64,
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

/// A fixed-capacity, lock-light ring of [`QueryRecord`]s plus the
/// slow-query capture log. One process-wide instance lives behind
/// [`global`]; tests build private ones with
/// [`FlightRecorder::with_capacity`].
pub struct FlightRecorder {
    /// One mutex per slot: a commit locks only the slot its sequence
    /// number maps to, so concurrent writers proceed independently.
    slots: Box<[Mutex<Option<QueryRecord>>]>,
    /// Total records ever committed; `seq % capacity` is the slot.
    cursor: AtomicU64,
    enabled: AtomicBool,
    /// Slow-query threshold in nanos; 0 disables the slow log.
    slow_threshold: AtomicU64,
    slow: Mutex<VecDeque<SlowQueryCapture>>,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            slow_threshold: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever committed (not capped by capacity).
    pub fn recorded_total(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime (overrides the
    /// `MONOID_RECORDER` environment default).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn slow_threshold(&self) -> u64 {
        self.slow_threshold.load(Ordering::Relaxed)
    }

    /// Set the slow-query threshold in nanos (0 = off; overrides the
    /// `MONOID_SLOW_QUERY_NANOS` environment default).
    pub fn set_slow_threshold(&self, nanos: u64) {
        self.slow_threshold.store(nanos, Ordering::Relaxed);
    }

    /// Commit a record: assign the next sequence number and overwrite
    /// the slot it maps to. Returns the assigned `seq`.
    pub fn push(&self, mut record: QueryRecord) -> u64 {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(record);
        seq
    }

    /// Commit a finished record — the owning layer has already stamped
    /// its outcome and `total_nanos`: flag it `slow` against the
    /// threshold, bump the `recorder_*` counters and [`push`] it. Returns
    /// a [`SlowTrigger`] when the threshold was exceeded, for the caller
    /// to answer with a [`SlowQueryCapture`].
    ///
    /// [`push`]: FlightRecorder::push
    pub fn commit(&self, mut record: QueryRecord) -> Option<SlowTrigger> {
        let threshold = self.slow_threshold();
        record.slow = threshold > 0 && record.total_nanos >= threshold;
        let m = metrics::global();
        m.recorder_records_total.inc();
        if record.error.is_some() {
            m.recorder_errors_total.inc();
        }
        let (slow, fingerprint, total_nanos) = (record.slow, record.fingerprint, record.total_nanos);
        let seq = self.push(record);
        slow.then_some(SlowTrigger { seq, fingerprint, total_nanos, threshold_nanos: threshold })
    }

    /// The retained records, oldest first. Each slot is locked
    /// individually, so a snapshot taken under concurrent commits is a
    /// consistent set of committed records but not an atomic cut.
    pub fn snapshot(&self) -> Vec<QueryRecord> {
        let mut out: Vec<QueryRecord> = self
            .slots
            .iter()
            .filter_map(|s| {
                s.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
            })
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Records currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                s.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some()
            })
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a slow-query capture (oldest evicted past the log's
    /// capacity).
    pub fn capture_slow(&self, capture: SlowQueryCapture) {
        metrics::global().recorder_slow_captures_total.inc();
        let mut slow = self.slow.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if slow.len() >= SLOW_LOG_CAPACITY {
            slow.pop_front();
        }
        slow.push_back(capture);
    }

    /// The retained slow-query captures, oldest first.
    pub fn slow_log(&self) -> Vec<SlowQueryCapture> {
        self.slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Drop all records and slow captures (counters and the cursor are
    /// not reset — sequence numbers stay monotonic).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
        self.slow.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }

    /// The journal document:
    /// `{schema_version, capacity, recorded_total, records: […]}` — what
    /// `oqltop --journal` reads back.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::from(JOURNAL_SCHEMA_VERSION)),
            ("capacity", Json::from(self.capacity())),
            ("recorded_total", Json::from(self.recorded_total())),
            (
                "records",
                Json::Arr(self.snapshot().iter().map(QueryRecord::to_json).collect()),
            ),
        ])
    }

    /// The slow-query log as a JSON document.
    pub fn slow_log_json(&self) -> Json {
        Json::obj(vec![
            ("threshold_nanos", Json::from(self.slow_threshold())),
            (
                "captures",
                Json::Arr(self.slow_log().iter().map(SlowQueryCapture::to_json).collect()),
            ),
        ])
    }
}

/// The process-wide recorder, configured once from the environment:
/// `MONOID_RECORDER=0|off|false` disables it, `MONOID_RECORDER_CAPACITY`
/// sizes the ring (default 1024), `MONOID_SLOW_QUERY_NANOS` arms the
/// slow-query log.
pub fn global() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| {
        let capacity = std::env::var("MONOID_RECORDER_CAPACITY")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        let recorder = FlightRecorder::with_capacity(capacity);
        if let Ok(v) = std::env::var("MONOID_RECORDER") {
            let v = v.trim().to_ascii_lowercase();
            if v == "0" || v == "off" || v == "false" {
                recorder.set_enabled(false);
            }
        }
        if let Some(nanos) = std::env::var("MONOID_SLOW_QUERY_NANOS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            recorder.set_slow_threshold(nanos);
        }
        recorder
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_first() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            rec.push(QueryRecord::new(&format!("q{i}")));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(&*snap[0].source, "q2");
        assert_eq!(rec.recorded_total(), 5);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = QueryRecord::new("select c.name from c in Cities");
        r.session = Some(7);
        r.cache = CacheDisposition::Hit;
        r.phase_nanos[Phase::Execute.index()] = 1234;
        r.total_nanos = 5678;
        r.rows = 3;
        r.effects = "reads heap".into();
        r.engine = Some("fused");
        r.snapshot_epoch = Some(41);
        r.error = Some("boom".to_string());
        r.slow = true;
        let j = r.to_json();
        let back = QueryRecord::from_json(&j).unwrap();
        assert_eq!(back, r);
        // And through the text form.
        let reparsed = Json::parse(&j.render()).unwrap();
        assert_eq!(QueryRecord::from_json(&reparsed).unwrap(), r);
    }

    #[test]
    fn long_sources_truncate_but_fingerprint_whole_text() {
        let long = "x".repeat(1000);
        let r = QueryRecord::new(&long);
        assert!(r.source.chars().count() <= SOURCE_LIMIT);
        assert_eq!(r.fingerprint, fingerprint(&long));
        assert_ne!(r.fingerprint, fingerprint(&r.source));
    }

    #[test]
    fn slow_log_caps_and_serializes() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            rec.capture_slow(SlowQueryCapture {
                seq: i as u64,
                fingerprint: 1,
                source: "q".to_string(),
                total_nanos: 10,
                threshold_nanos: 5,
                plan: Some("Scan".to_string()),
                profile: None,
            });
        }
        let log = rec.slow_log();
        assert_eq!(log.len(), SLOW_LOG_CAPACITY);
        assert_eq!(log[0].seq, 5, "oldest captures evicted");
        let j = rec.slow_log_json().render();
        assert!(j.contains("\"captures\""), "{j}");
    }

    #[test]
    fn commit_flags_slow_records_and_names_them() {
        let rec = FlightRecorder::with_capacity(4);
        let mut r = QueryRecord::new("q");
        r.total_nanos = 10;
        assert!(rec.commit(r.clone()).is_none(), "threshold 0: slow log off");
        rec.set_slow_threshold(11);
        assert!(rec.commit(r.clone()).is_none(), "under threshold");
        rec.set_slow_threshold(10);
        let trigger = rec.commit(r.clone()).expect("at threshold");
        let last = rec.snapshot().into_iter().next_back().unwrap();
        assert!(last.slow);
        assert_eq!((trigger.seq, trigger.fingerprint), (last.seq, last.fingerprint));
        assert_eq!((trigger.total_nanos, trigger.threshold_nanos), (10, 10));
        assert_eq!(rec.recorded_total(), 3, "every commit lands in the ring");
    }
}
