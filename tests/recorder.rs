//! Acceptance tests for the query flight recorder and the bench
//! regression gate (ISSUE: observability):
//!
//! 1. the ring retains exactly the last N records under overflow;
//! 2. the disabled recorder is invisible — no `recorder_*` registry
//!    series moves and nothing is committed;
//! 3. the slow-query capture fires iff the threshold is exceeded;
//! 4. the `--compare` gate fails a synthetically regressed baseline and
//!    passes a self-compare (`tests` in `crates/bench` prove the same at
//!    the process/exit-code level);
//! 5. every public entry point commits exactly one record, complete from
//!    what the statement's owner holds — no layer underneath annotates it.
//!
//! The recorder, like the metrics registry, is process-global; the
//! tests that touch it serialize on one mutex and restore the enabled
//! flag and slow threshold they found.

use monoid_bench::compare::compare_reports;
use monoid_algebra::QueryProfile;
use monoid_calculus::json::Json;
use monoid_calculus::metrics;
use monoid_calculus::recorder::{self, CacheDisposition, FlightRecorder, QueryRecord};
use monoid_calculus::symbol::Symbol;
use monoid_calculus::trace::Phase;
use monoid_calculus::value::Value;
use monoid_db::{explain_analyze, Params, PlanCache, Session};
use monoid_store::{travel, Database, TravelScale};
use std::sync::Mutex;

/// Serializes tests that mutate the global recorder's configuration.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn db() -> Database {
    travel::generate(TravelScale::tiny(), 7)
}

fn private_session() -> Session {
    Session::with_cache(std::sync::Arc::new(PlanCache::new()))
}

const SRC: &str = "select h.name from c in Cities, h in c.hotels where c.name = $city";

fn params() -> Params {
    Params::new().bind("city", Value::str("Portland"))
}

// --- 1. Ring overflow. ------------------------------------------------

#[test]
fn ring_retains_exactly_the_last_n_records() {
    let ring = FlightRecorder::with_capacity(4);
    for i in 0..10 {
        ring.push(QueryRecord::new(&format!("query {i}")));
    }
    let snap = ring.snapshot();
    assert_eq!(snap.len(), 4, "capacity bounds retention");
    assert_eq!(
        snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![6, 7, 8, 9],
        "exactly the last N, oldest first"
    );
    assert_eq!(&*snap[0].source, "query 6");
    assert_eq!(ring.recorded_total(), 10, "the cursor counts every commit");
    assert_eq!(ring.len(), 4);
}

// --- 2. The disabled path is invisible. -------------------------------

#[test]
fn disabled_recorder_moves_nothing() {
    let _guard = lock();
    let rec = recorder::global();
    let was_enabled = rec.enabled();
    let was_threshold = rec.slow_threshold();
    rec.set_enabled(false);
    rec.set_slow_threshold(0);

    let session = private_session();
    let mut db = db();
    let total_before = rec.recorded_total();
    let before = metrics::global().snapshot();
    session.query(&mut db, SRC, &params()).unwrap();
    session.query(&mut db, SRC, &params()).unwrap();
    explain_analyze("exists h in Hotels: h.name = \"hotel_0_0\"", &db).unwrap();
    let diff = metrics::global().snapshot().diff(&before);

    assert_eq!(rec.recorded_total(), total_before, "nothing committed while disabled");
    for series in ["recorder_records_total", "recorder_errors_total", "recorder_slow_captures_total"]
    {
        assert_eq!(diff.counter(series), 0, "disabled recorder moved {series}");
    }

    // Re-enabling brings the pipeline back: the same workload commits
    // records and bumps the counter.
    rec.set_enabled(true);
    let before = metrics::global().snapshot();
    session.query(&mut db, SRC, &params()).unwrap();
    let diff = metrics::global().snapshot().diff(&before);
    assert_eq!(rec.recorded_total(), total_before + 1);
    assert_eq!(diff.counter("recorder_records_total"), 1);

    rec.set_enabled(was_enabled);
    rec.set_slow_threshold(was_threshold);
}

// --- 3. Slow capture fires iff the threshold is exceeded. -------------

#[test]
fn slow_capture_fires_iff_threshold_exceeded() {
    let _guard = lock();
    let rec = recorder::global();
    let was_enabled = rec.enabled();
    let was_threshold = rec.slow_threshold();
    rec.set_enabled(true);

    let session = private_session();
    let mut db = db();

    // An unreachable threshold: the record commits un-slow, no capture.
    rec.set_slow_threshold(u64::MAX);
    let slow_before = rec.slow_log().len();
    session.query(&mut db, SRC, &params()).unwrap();
    assert_eq!(rec.slow_log().len(), slow_before, "under-threshold query captured");
    let last = rec.snapshot().into_iter().next_back().unwrap();
    assert!(!last.slow);

    // A 1 ns threshold: every query is slow, the capture carries the
    // optimized plan (and, for this pure read, a replayed profile).
    rec.set_slow_threshold(1);
    let slow_before = rec.slow_log().len();
    session.query(&mut db, SRC, &params()).unwrap();
    let log = rec.slow_log();
    assert_eq!(log.len(), slow_before + 1, "over-threshold query not captured");
    let capture = log.last().unwrap();
    let last = rec.snapshot().into_iter().next_back().unwrap();
    assert!(last.slow);
    assert_eq!(capture.seq, last.seq, "capture references the committed record");
    assert_eq!(capture.fingerprint, last.fingerprint);
    assert!(capture.threshold_nanos == 1 && capture.total_nanos >= 1);
    let plan = capture.plan.as_deref().expect("slow capture carries the plan");
    assert!(plan.contains("Scan") || plan.contains("Reduce"), "not a plan: {plan}");
    assert!(capture.profile.is_some(), "pure read is replay-safe, profile attached");

    // The same read served from a snapshot is captured just as deeply:
    // the profiler replays against the snapshot the statement ran on.
    let snap = db.snapshot();
    for served in [
        session.query_snapshot(&snap, SRC, &params()),
        monoid_db::prepare_on(&snap, SRC).unwrap().execute_snapshot(&snap, &params()),
    ] {
        served.unwrap();
        let log = rec.slow_log();
        let capture = log.last().unwrap();
        let last = rec.snapshot().into_iter().next_back().unwrap();
        assert_eq!(capture.seq, last.seq, "snapshot-served statement captured");
        assert_eq!(last.snapshot_epoch, Some(snap.epoch()));
        assert!(capture.plan.is_some());
        assert!(capture.profile.is_some(), "snapshot path attaches the replayed profile");
    }

    rec.set_enabled(was_enabled);
    rec.set_slow_threshold(was_threshold);
}

/// The capture's `est≈` column is what the optimizer believed when it
/// chose the plan — the statement's own estimates — not a fresh walk of
/// the store on the serving thread.
#[test]
fn slow_capture_reports_the_estimates_the_statement_was_planned_with() {
    let _guard = lock();
    let rec = recorder::global();
    let (was_enabled, was_threshold) = (rec.enabled(), rec.slow_threshold());
    rec.set_enabled(true);
    rec.set_slow_threshold(1);

    let mut db = db();
    let prepared = monoid_db::prepare_on(&db, "select h.name from h in Hotels").unwrap();
    let planned_for = prepared.estimates()[0];
    assert_eq!(planned_for, db.extent_len("Hotels") as f64);
    for i in 0..100 {
        let late = Value::record(vec![(Symbol::new("name"), Value::str(&format!("late_{i}")))]);
        db.insert(Symbol::new("Hotel"), late).unwrap();
    }
    prepared.execute(&mut db, &Params::new()).unwrap();
    let capture = rec.slow_log().pop().expect("1 ns threshold: captured");
    let profile = QueryProfile::from_json(capture.profile.as_ref().expect("a pure read"))
        .expect("captures round-trip");
    let root = &profile.operators[0];
    assert_eq!(root.actual_rows, planned_for as u64 + 100, "ran against the grown extent");
    assert_eq!(root.estimated_rows, planned_for, "estimate is the prepare-time belief");

    rec.set_enabled(was_enabled);
    rec.set_slow_threshold(was_threshold);
}

// --- 4. The compare gate. ---------------------------------------------

#[test]
fn compare_gate_passes_self_and_fails_regressed_baseline() {
    // The regress suite serves through the process-wide recorder, whose
    // exact record counts the tests above assert on.
    let _guard = lock();
    let report = monoid_bench::regress::run(true).to_json();

    // Self-compare: identical numbers, nothing can regress.
    let verdict = compare_reports(&report, &report, 50.0, 0.0).unwrap();
    assert!(verdict.passed(), "self-compare regressed: {}", verdict.render());
    assert!(verdict.compared > 0, "gate compared nothing");
    assert!(!verdict.mode_mismatch);

    // Synthetically regressed baseline: every gated metric of the
    // baseline drops to 0 ns, so the fresh numbers all exceed tolerance.
    let mut regressed = report.clone();
    zero_latencies(&mut regressed);
    let verdict = compare_reports(&report, &regressed, 50.0, 0.0).unwrap();
    assert!(!verdict.passed(), "regressed baseline passed: {}", verdict.render());
    assert_eq!(
        verdict.regressions.len(),
        verdict.compared,
        "every compared metric regressed against a zeroed baseline"
    );
    assert!(verdict.render().contains("FAIL"));
}

/// Set every gated latency field of a regress report to zero, in place.
fn zero_latencies(report: &mut monoid_calculus::json::Json) {
    use monoid_calculus::json::Json;
    let Json::Obj(sections) = report else { panic!("report is not an object") };
    for (section, gated) in [
        ("queries", vec!["median_nanos", "p95_nanos"]),
        // A case marked `cold_gated` is gated on its cold fields too.
        ("prepared", vec!["warm_median_nanos", "cold_median_nanos", "cold_p95_nanos"]),
        ("fusion", vec!["fused_median_nanos"]),
        ("gather", vec!["median_nanos", "p95_nanos"]),
    ] {
        let Some(Json::Arr(cases)) =
            sections.iter_mut().find(|(k, _)| k == section).map(|(_, v)| v)
        else {
            panic!("report has no `{section}` array");
        };
        for case in cases {
            let Json::Obj(fields) = case else { continue };
            for (k, v) in fields.iter_mut() {
                if gated.contains(&k.as_str()) {
                    *v = Json::Int(0);
                }
            }
        }
    }
}

// --- Field threading through the serving layer. -----------------------

#[test]
fn session_queries_thread_every_field() {
    let _guard = lock();
    let rec = recorder::global();
    let was_enabled = rec.enabled();
    let was_threshold = rec.slow_threshold();
    rec.set_enabled(true);
    rec.set_slow_threshold(0);

    let session = private_session();
    let mut db = db();

    // Cold: a miss that carries the prepare trace's phases.
    session.query(&mut db, SRC, &params()).unwrap();
    let miss = rec.snapshot().into_iter().next_back().unwrap();
    assert_eq!(miss.session, Some(session.id()));
    assert_eq!(miss.cache, CacheDisposition::Miss);
    assert_eq!(&*miss.source, SRC);
    assert_eq!(miss.fingerprint, recorder::fingerprint(SRC));
    assert!(miss.ok());
    assert!(!miss.slow);
    assert!(miss.phase_nanos(Phase::Parse) > 0, "cold prepare parsed");
    assert!(miss.phase_nanos(Phase::Execute) > 0, "execution timed");
    assert!(miss.total_nanos >= miss.phase_nanos(Phase::Execute));
    assert!(miss.rows >= 1);
    assert!(!miss.effects.is_empty(), "effect summary threaded");

    // Warm: a hit fires no front-of-pipeline phases.
    session.query(&mut db, SRC, &params()).unwrap();
    let hit = rec.snapshot().into_iter().next_back().unwrap();
    assert_eq!(hit.cache, CacheDisposition::Hit);
    assert_eq!(hit.phase_nanos(Phase::Parse), 0, "warm serve re-parsed");
    assert!(hit.phase_nanos(Phase::Execute) > 0);
    assert_eq!(hit.fingerprint, miss.fingerprint, "same statement, same key");
    assert!(hit.seq > miss.seq);

    // Failures commit too, with the error and outcome recorded.
    let before_errors = rec.recorded_total();
    assert!(session.query(&mut db, "select ! from", &params()).is_err());
    assert_eq!(rec.recorded_total(), before_errors + 1);
    let failed = rec.snapshot().into_iter().next_back().unwrap();
    assert!(!failed.ok());
    assert!(failed.error.is_some());

    // The journal round-trips every record through JSON text.
    let journal = rec.to_json().render();
    let records = monoid_bench::top::load_journal(&journal).unwrap();
    assert_eq!(records.len(), rec.len());
    assert!(records.iter().any(|r| r.fingerprint == miss.fingerprint));
    assert!(records.iter().any(|r| !r.ok()));

    rec.set_enabled(was_enabled);
    rec.set_slow_threshold(was_threshold);
}

// --- One record per call, complete without help from below. -----------

/// The records `f` committed to the global ring (callers hold the lock).
fn committed_by(f: impl FnOnce()) -> Vec<QueryRecord> {
    let rec = recorder::global();
    let before = rec.recorded_total();
    f();
    rec.snapshot().into_iter().filter(|r| r.seq >= before).collect()
}

fn rows_of(v: &Value) -> u64 {
    v.len().map_or(1, |n| n as u64)
}

#[test]
fn every_entry_point_commits_exactly_one_complete_record() {
    let _guard = lock();
    let rec = recorder::global();
    let (was_enabled, was_threshold) = (rec.enabled(), rec.slow_threshold());
    rec.set_enabled(true);
    rec.set_slow_threshold(0);

    // A fused chain, the `company-dept-join` shape (a hash join: fused
    // too), a head that counts per row (a nested comprehension, evaluated
    // in place: fused as well) and a statement the planner declines (the
    // evaluator): the engine label comes from the prepared statement, not
    // from below.
    let mut travel = db();
    let mut company = monoid_store::company::generate(4, 8, 6, 42);
    let join = "select struct(mgr: m.name, emp: e.name) \
                from m in Managers, e in CompanyEmployees where m.dept = e.dept";
    let nested = "select struct(mgr: m.name, n: count(m.reports)) from m in Managers";
    let cases = [
        ("fused", SRC, params()),
        ("fused", join, Params::new()),
        ("fused", nested, Params::new()),
        ("eval", "count(Hotels) + 1", Params::new()),
    ];
    for (engine, src, params) in cases {
        let db = if src == join || src == nested { &mut company } else { &mut travel };
        let session = private_session();
        let mut served = Vec::new();
        let mut query = |db: &mut Database| {
            let records =
                committed_by(|| served.push(session.query(db, src, &params).unwrap()));
            assert_eq!(records.len(), 1, "{engine}: one record per `Session::query`");
            records.into_iter().next().unwrap()
        };
        let (miss, hit) = (query(db), query(db));
        assert_eq!((miss.cache, hit.cache), (CacheDisposition::Miss, CacheDisposition::Hit));
        assert!(miss.phase_nanos(Phase::Parse) > 0, "{engine}: a miss carries its prepare");
        assert_eq!(hit.phase_nanos(Phase::Parse), 0, "{engine}: a hit parsed");
        for (r, value) in [&miss, &hit].into_iter().zip(&served) {
            assert_eq!(r.engine, Some(engine));
            assert_eq!(r.session, Some(session.id()));
            assert_eq!(r.rows, rows_of(value), "{engine}: rows");
            assert!(!r.effects.is_empty(), "{engine}: effects");
            assert_eq!(r.snapshot_epoch, None, "{engine}: writer path pins no snapshot");
            assert!(r.ok() && r.phase_nanos(Phase::Execute) > 0);
        }
        let snap = db.snapshot();
        let records = committed_by(|| {
            session.query_snapshot(&snap, src, &params).unwrap();
        });
        assert_eq!(records.len(), 1, "{engine}: one record per `Session::query_snapshot`");
        assert_eq!(records[0].snapshot_epoch, Some(snap.epoch()));
        assert_eq!(records[0].cache, CacheDisposition::Hit, "same epoch, same cache");
        assert_eq!(records[0].engine, Some(engine));
    }

    // A bare `Prepared` owns its record too: uncached, no session, and no
    // prepare phases — the prepare was not part of this execution.
    let stmt = monoid_db::prepare_on(&travel, SRC).unwrap();
    let snap = travel.snapshot();
    let direct = committed_by(|| {
        stmt.execute(&mut travel, &params()).unwrap();
        stmt.execute_snapshot(&snap, &params()).unwrap();
    });
    assert_eq!(direct.len(), 2, "one record per direct execution");
    for r in &direct {
        assert_eq!((r.cache, r.session), (CacheDisposition::Uncached, None));
        assert_eq!(r.engine, Some("fused"));
        assert_eq!(r.phase_nanos(Phase::Parse), 0);
        assert!(r.rows >= 1 && !r.effects.is_empty());
    }
    assert_eq!(direct[0].snapshot_epoch, None);
    assert_eq!(direct[1].snapshot_epoch, Some(snap.epoch()));

    // An update program (OQL cannot spell one; `prepare_expr` can) commits
    // through the writer path as one `eval` record naming its effects.
    use monoid_calculus::expr::Expr;
    let rename = Expr::comp(
        monoid_calculus::monoid::Monoid::All,
        Expr::var("h").assign(Expr::record(vec![("name", Expr::str("renamed"))])),
        vec![Expr::gen("h", Expr::var("Hotels"))],
    );
    let update = monoid_db::prepare_expr(&rename, &monoid_algebra::Stats::default());
    assert!(update.writes());
    let epoch = travel.mutation_epoch();
    let written = committed_by(|| {
        update.execute(&mut travel, &Params::new()).unwrap();
    });
    assert_ne!(travel.mutation_epoch(), epoch, "the update committed");
    assert_eq!(written.len(), 1, "one record per update");
    assert_eq!(written[0].engine, Some("eval"));
    assert_eq!(*written[0].effects, update.effects().to_string());

    // A failed prepare has no statement to own its record: the session
    // commits it, with the error and its id.
    let session = private_session();
    let failed = committed_by(|| {
        assert!(session.query(&mut travel, "select ! from", &Params::new()).is_err());
    });
    assert_eq!(failed.len(), 1, "one record per failed prepare");
    assert!(failed[0].error.is_some());
    assert_eq!(failed[0].session, Some(session.id()));

    // Profiling is not serving: it commits nothing.
    let stmt = monoid_db::prepare_on(&travel, SRC).unwrap();
    let profiled = committed_by(|| {
        stmt.profile(&travel, &params()).unwrap();
    });
    assert!(profiled.is_empty(), "`Prepared::profile` committed {profiled:?}");
    // …while `explain_analyze`, an entry point, commits its one.
    let explained = committed_by(|| {
        explain_analyze("select h.name from h in Hotels", &travel).unwrap();
    });
    assert_eq!(explained.len(), 1, "one record per `explain_analyze`");
    assert!(explained[0].phase_nanos(Phase::Parse) > 0 && explained[0].rows >= 1);

    rec.set_enabled(was_enabled);
    rec.set_slow_threshold(was_threshold);
}

// --- The layouts tooling reads. ---------------------------------------

/// `j` with what varies from run to run masked as `"#"`: every nonzero
/// number under a key naming nanos (or inside such an object — a
/// record's `phase_nanos`; a 0 is a phase that did not run, and stays),
/// and the per-process `seq`, `fingerprint` and `session`.
fn masked(j: &Json, timed: bool) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if ["seq", "fingerprint", "session"].contains(&k.as_str()) {
                        Json::str("#")
                    } else {
                        masked(v, timed || k.contains("nanos"))
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(|v| masked(v, timed)).collect()),
        Json::Int(n) if timed && *n != 0 => Json::str("#"),
        Json::Float(x) if timed && *x != 0.0 => Json::str("#"),
        other => other.clone(),
    }
}

/// `text` with every rendered duration (`12 ns`, `1.50 µs`, `2.50 ms`,
/// `3.00 s`) masked as `#`.
fn masked_text(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        out.push_str(&rest[..start]);
        let number = &rest[start..];
        let len = number.find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(number.len());
        let after = &number[len..];
        let unit = [" ns", " µs", " ms", " s"].into_iter().find(|u| {
            after.strip_prefix(u).is_some_and(|t| !t.starts_with(char::is_alphanumeric))
        });
        out.push_str(if unit.is_some() { "#" } else { &number[..len] });
        rest = &after[unit.map_or(0, str::len)..];
    }
    out.push_str(rest);
    out
}

/// What `EXPLAIN ANALYZE` prints and writes, the records the journal
/// keeps — for it, and for a served statement's cache miss and hit — and
/// the slow capture's JSON, pinned whole in `tests/golden/layouts.txt`
/// with every timing masked. A deliberate change is accepted as the
/// derivations are: the actual text is written to `layouts.actual.txt`
/// under Cargo's test temporary directory, and copied over the golden
/// file in review.
#[test]
fn profile_record_and_slow_capture_layouts_match_the_golden_file() {
    let _guard = lock();
    let rec = recorder::global();
    let (was_enabled, was_threshold) = (rec.enabled(), rec.slow_threshold());
    rec.set_enabled(true);
    rec.set_slow_threshold(1);

    let mut db = db();
    let src = "select distinct h.name from c in Cities, h in c.hotels \
               where c.name = \"Portland\" and exists r in h.rooms: r.bed# = 3";
    let mut analysis = None;
    let explained = committed_by(|| analysis = Some(explain_analyze(src, &db).unwrap()));
    let profile = analysis.unwrap().profile;
    let session = private_session();
    let served = committed_by(|| {
        session.query(&mut db, SRC, &params()).unwrap();
        session.query(&mut db, SRC, &params()).unwrap();
    });
    let mut captures: Vec<_> =
        rec.slow_log().into_iter().filter(|c| c.seq == explained[0].seq).collect();
    rec.set_enabled(was_enabled);
    rec.set_slow_threshold(was_threshold);

    let mut actual = format!("== explain_analyze render\n{}", masked_text(&profile.render()));
    let pretty = |j: &Json| masked(j, false).render_pretty();
    actual += &format!("== explain_analyze to_json\n{}\n", pretty(&profile.to_json()));
    let labels = ["explain_analyze", "served miss", "served hit"];
    assert_eq!(explained.len() + served.len(), labels.len());
    for (label, r) in labels.iter().zip(explained.iter().chain(&served)) {
        actual += &format!("== {label} record\n{}\n", pretty(&r.to_json()));
    }
    let mut capture = captures.pop().expect("the explained statement was slow");
    assert!(captures.is_empty());
    assert_eq!(capture.profile.take(), Some(profile.to_json()), "the capture's profile");
    actual += &format!("== slow capture, profile elided\n{}\n", pretty(&capture.to_json()));

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/layouts.txt");
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if golden != actual {
        let written = format!("{}/layouts.actual.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&written, &actual).unwrap();
        panic!("layouts differ from {golden_path}; actual text written to {written}");
    }
}

// --- 5. Concurrent pushers. -------------------------------------------

#[test]
fn concurrent_pushers_keep_the_ring_consistent() {
    // N threads × M pushes against one ring: retention stays exactly at
    // capacity, sequence numbers are globally unique and the snapshot is
    // ordered by them, and no record is torn (each record's fields stay
    // internally consistent with the source its thread wrote).
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50;
    const CAPACITY: usize = 64;

    let ring = std::sync::Arc::new(FlightRecorder::with_capacity(CAPACITY));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for q in 0..PER_THREAD {
                    let mut r = QueryRecord::new(&format!("t{t}-q{q}"));
                    // rows encodes (t, q) redundantly with the source so
                    // a torn write is detectable.
                    r.rows = t * 1000 + q;
                    r.total_nanos = r.rows + 1;
                    ring.push(r);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(ring.recorded_total(), THREADS * PER_THREAD);
    assert_eq!(ring.len(), CAPACITY, "retention is exactly the capacity");
    let snap = ring.snapshot();
    assert_eq!(snap.len(), CAPACITY);
    // Sequence numbers: strictly increasing (snapshot order), unique,
    // and all within the issued range.
    for pair in snap.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "snapshot ordered by seq");
    }
    assert!(snap.iter().all(|r| r.seq < THREADS * PER_THREAD));
    // No torn records: every record's source agrees with its payload.
    for r in &snap {
        let (t, q) = r
            .source
            .strip_prefix('t')
            .and_then(|s| s.split_once("-q"))
            .and_then(|(t, q)| Some((t.parse::<u64>().ok()?, q.parse::<u64>().ok()?)))
            .unwrap_or_else(|| panic!("unexpected source {:?}", r.source));
        assert_eq!(r.rows, t * 1000 + q, "torn record: {:?}", r.source);
        assert_eq!(r.total_nanos, r.rows + 1, "torn record: {:?}", r.source);
    }
}
