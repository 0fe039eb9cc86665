//! Acceptance tests for the process-wide metrics registry: a known
//! workload produces exact registry deltas, execution — plain or
//! profiled — writes no executor series (a profile is its run's one
//! account), lint diagnostics are counted by code, the statistics a
//! prepare reads live in the snapshot's memo, and the JSON export of a
//! real workload parses back.
//!
//! Everything here lives in ONE test function on purpose: integration
//! test files run as their own process, but test functions within a file
//! share that process — and therefore the global registry. Sequencing
//! the assertions keeps the exact-count comparisons race-free.

use monoid_calculus::json::Json;
use monoid_calculus::metrics::{self, MetricValue};
use monoid_calculus::normalize::normalize_traced;
use monoid_store::company;

const JOIN_SRC: &str = "select struct(mgr: m.name, emp: e.name) \
                        from m in Managers, e in CompanyEmployees \
                        where m.dept = e.dept";

#[test]
fn registry_accounts_for_a_known_workload() {
    let mut db = company::generate(6, 15, 10, 42);
    let expr = monoid_oql::compile(db.schema(), JOIN_SRC).unwrap();
    let (canonical, _, nstats) = normalize_traced(&expr);
    let plan = monoid_algebra::plan_comprehension(&canonical).unwrap();

    // --- 1–2. Execution writes no executor series. ----------------------
    // The plain path (`NoProbe`) and the profiled path both leave the
    // registry to the store under them (the executor reads extents and
    // object state through it) and, for the profiled run, to its traced
    // execute phase; its per-operator counts stay in its profile.
    let before = metrics::global().snapshot();
    let plain = monoid_algebra::execute(&plan, &db).unwrap();
    let analysis = monoid_algebra::execute_profiled_bound(&plan, &[], &db, &[]).unwrap();
    assert_eq!(analysis.value, plain);
    assert!(analysis.profile.operators.iter().any(|o| o.kind == "join" && o.build_rows > 0));
    let diff = metrics::global().snapshot().diff(&before);
    for series in &diff.series {
        let moved = match &series.value {
            MetricValue::Counter(n) => *n > 0,
            MetricValue::Histogram(h) => h.count > 0,
            MetricValue::Gauge(_) => false,
        };
        assert!(
            !moved
                || series.key.name.starts_with("store_")
                || (series.key.name == "query_phase_nanos"
                    && series.key.labels == [("phase".to_string(), "execute".to_string())]),
            "execution moved {}{:?}",
            series.key.name,
            series.key.labels
        );
    }

    // --- 3. Normalization feeds per-rule counters. ---------------------
    let before = metrics::global().snapshot();
    let (_, _, nstats2) = normalize_traced(&expr);
    let diff = metrics::global().snapshot().diff(&before);
    assert_eq!(diff.counter("normalize_runs_total"), 1);
    assert_eq!(diff.counter("normalize_steps_total"), nstats2.steps as u64);
    for (rule, fired) in nstats2.rule_counts() {
        assert_eq!(
            diff.counter_with("normalize_rule_fired_total", &[("rule", rule.name())]),
            fired,
            "rule counter mismatch for {}",
            rule.name()
        );
    }
    assert_eq!(nstats2.steps, nstats.steps);

    // --- 3b. Every lint diagnostic is counted under its code: an unused
    //         generator is exactly one MC001. ---------------------------
    {
        use monoid_calculus::expr::Expr;
        use monoid_calculus::monoid::Monoid;
        let mc001 = || {
            metrics::global()
                .snapshot()
                .counter_with("analysis_diagnostics_total", &[("code", "MC001")])
        };
        let before = mc001();
        let unused = Expr::comp(Monoid::Sum, Expr::int(1), vec![Expr::gen("zz", Expr::var("xs"))]);
        monoid_calculus::analysis::lint(&unused);
        assert_eq!(mc001(), before + 1);
    }

    // --- 4. The umbrella path times phases and counts queries. ---------
    let before = metrics::global().snapshot();
    let analysis = monoid_db::explain_analyze(JOIN_SRC, &db).unwrap();
    assert_eq!(analysis.value, plain);
    let diff = metrics::global().snapshot().diff(&before);
    assert_eq!(diff.counter("oql_queries_total"), 1);
    assert_eq!(diff.counter("oql_query_errors_total"), 0);
    for phase in ["parse", "translate", "normalize", "optimize", "plan", "execute"] {
        let h = diff
            .histogram_with("query_phase_nanos", &[("phase", phase)])
            .unwrap_or_else(|| panic!("no histogram for phase {phase}"));
        assert_eq!(h.count, 1, "phase {phase} observed once");
    }
    let e2e = diff.histogram_with("oql_query_nanos", &[]).unwrap();
    assert_eq!(e2e.count, 1);
    assert!(e2e.sum > 0);
    // The store under it counted the extents bound into query scope
    // (the executor reads objects through the moved heap, so per-object
    // state reads are only counted on the direct `Database::state` path).
    assert!(diff.counter("store_extent_scans_total") > 0);

    // And the store's own query entry point counts queries and times them.
    let before = metrics::global().snapshot();
    let via_store = db.query(&canonical).unwrap();
    assert_eq!(via_store, plain);
    let diff = metrics::global().snapshot().diff(&before);
    assert_eq!(diff.counter("store_queries_total"), 1);
    assert_eq!(diff.counter("store_query_errors_total"), 0);
    assert_eq!(diff.histogram_with("store_query_nanos", &[]).unwrap().count, 1);

    // --- 4b. The serving layer: a known cache workload produces exact
    //         plan_cache_* deltas. --------------------------------------
    // 1 statement, 5 session queries: a write that moves no extent, then
    // the scanned extent emptied and restored, each past the factor of
    // two a plan tolerates:
    //   prepare #1           → 1 miss              (+ 1 prepare_nanos sample)
    //   query again          → 1 hit
    //   mutate + query       → 1 hit: no extent drifted
    //   empty `Managers`     → 1 invalidation, 1 miss (+ 1 sample)
    //   restore `Managers`   → 1 invalidation, 1 miss (+ 1 sample)
    {
        use monoid_calculus::symbol::Symbol;
        use monoid_calculus::value::Value;
        use monoid_db::{Params, PlanCache, Session};
        let session = Session::with_cache(std::sync::Arc::new(PlanCache::new()));
        let src = "select m.name from m in Managers where m.dept = $dept";
        let params = Params::new().bind("dept", Value::str("dept_0"));
        let managers = db.root(Symbol::new("Managers")).unwrap().clone();
        let before = metrics::global().snapshot();
        session.query(&mut db, src, &params).unwrap();
        session.query(&mut db, src, &params).unwrap();
        db.set_root("Scratch", Value::Int(1));
        session.query(&mut db, src, &params).unwrap();
        db.set_root("Managers", Value::Bag(Default::default()));
        session.query(&mut db, src, &params).unwrap();
        db.set_root("Managers", managers);
        session.query(&mut db, src, &params).unwrap();
        let diff = metrics::global().snapshot().diff(&before);
        assert_eq!(diff.counter("plan_cache_misses_total"), 3);
        assert_eq!(diff.counter("plan_cache_hits_total"), 2);
        assert_eq!(diff.counter("plan_cache_invalidations_total"), 2);
        assert_eq!(diff.counter("plan_cache_evictions_total"), 0);
        let prep = diff.histogram_with("prepare_nanos", &[]).unwrap();
        assert_eq!(prep.count, 3, "one prepare per miss");
        assert!(prep.sum > 0);
        // Warm serving fires zero front-of-pipeline phases.
        let before = metrics::global().snapshot();
        session.query(&mut db, src, &params).unwrap();
        let diff = metrics::global().snapshot().diff(&before);
        assert_eq!(diff.counter("plan_cache_hits_total"), 1);
        for phase in ["parse", "translate", "normalize", "optimize", "plan"] {
            let fired = diff
                .histogram_with("query_phase_nanos", &[("phase", phase)])
                .map(|h| h.count)
                .unwrap_or(0);
            assert_eq!(fired, 0, "warm serve fired `{phase}`");
        }
        // The same holds for a bare `Prepared` handle, without the cache.
        let prepared = monoid_db::prepare(db.schema(), src).unwrap();
        let before = metrics::global().snapshot();
        prepared.execute(&mut db, &params).unwrap();
        let diff = metrics::global().snapshot().diff(&before);
        for phase in ["parse", "translate", "normalize", "optimize", "plan"] {
            let fired = diff
                .histogram_with("query_phase_nanos", &[("phase", phase)])
                .map(|h| h.count)
                .unwrap_or(0);
            assert_eq!(fired, 0, "Prepared::execute fired `{phase}`");
        }
        // Only a session counts statements: a direct `Prepared` run does not.
        let before = metrics::global().snapshot();
        prepared.execute_snapshot(&db, &params).unwrap();
        let diff = metrics::global().snapshot().diff(&before);
        assert_eq!(diff.counter("serving_statements_total"), 0, "Prepared::execute_snapshot");
    }

    // --- 4b'. Over the wire, an ad-hoc QUERY resolves its source through
    //          the plan cache exactly once: a miss when cold, a hit when
    //          warm — never a second lookup behind the routing decision.
    {
        use monoid_db::server::{Client, Server};
        let server = Server::bind("127.0.0.1:0", db.clone()).expect("bind loopback");
        let handle = server.spawn();
        let mut client = Client::connect(handle.addr()).expect("connect");
        let src = "count(select m from m in Managers where m.dept = $dept)";
        let params = [("dept".to_string(), monoid_calculus::value::Value::str("dept_0"))];
        for (state, misses, hits) in [("cold", 1, 0), ("warm", 0, 1), ("warm", 0, 1)] {
            let before = metrics::global().snapshot();
            client.query(src, &params).expect("read executes");
            let diff = metrics::global().snapshot().diff(&before);
            assert_eq!(diff.counter("plan_cache_misses_total"), misses, "{state} QUERY");
            assert_eq!(diff.counter("plan_cache_hits_total"), hits, "{state} QUERY");
            assert_eq!(diff.counter("serving_statements_total"), 1, "{state} QUERY");
        }
        handle.shutdown();
    }

    // --- 4c. Gathered statistics live in the snapshot's memo: every
    //         prepare at one epoch, on any clone of its snapshot, shares
    //         one gather, and a write or a `Database::clone` — each a
    //         fresh memo — means a new one. (Preparing executes nothing,
    //         so the statistics are the only memo traffic here.) ---------
    {
        use monoid_calculus::value::Value;
        let src = "select m.name from m in Managers";
        db.set_root("StatsEpoch", Value::Int(0));
        assert!(db.memo().is_empty(), "a write installs a fresh memo");
        monoid_db::prepare_on(&db, src).unwrap(); // cold: gathers
        monoid_db::prepare_on(&db, src).unwrap(); // same memo: reuses
        let pinned = db.snapshot();
        monoid_db::prepare_on(&pinned, src).unwrap(); // a clone shares it
        assert_eq!((db.memo().len(), db.memo().misses()), (1, 1));
        // A write: the next prepare gathers into the new memo, and the
        // pinned epoch keeps its own gather.
        db.set_root("StatsEpoch", Value::Int(1));
        monoid_db::prepare_on(&db, src).unwrap();
        monoid_db::prepare_on(&pinned, src).unwrap();
        assert_eq!((db.memo().len(), db.memo().misses()), (1, 1));
        assert_eq!((pinned.memo().len(), pinned.memo().misses()), (1, 1));
        // A clone is an independent store with a memo of its own.
        let db2 = db.clone();
        monoid_db::prepare_on(&db2, src).unwrap();
        assert_eq!((db2.memo().len(), db2.memo().misses()), (1, 1));
        assert_eq!(db.memo().misses(), 1);
    }

    // --- 4c'. `EXPLAIN ANALYZE` profiles the statement as it is served:
    //          `prepare_on` + `Prepared::profile`, so against an epoch
    //          already gathered it reuses the gather, prepares exactly
    //          once, and judges the estimates that prepare produced. ----
    {
        use monoid_calculus::trace::Phase;
        let prepared = monoid_db::prepare_on(&db, JOIN_SRC).unwrap();
        let gathers = db.memo().misses();
        let before = metrics::global().snapshot();
        let analysis = monoid_db::explain_analyze(JOIN_SRC, &db).unwrap();
        let diff = metrics::global().snapshot().diff(&before);
        assert_eq!(db.memo().misses(), gathers, "explain re-gathered");
        assert_eq!(diff.histogram_with("prepare_nanos", &[]).unwrap().count, 1);
        let profile = &analysis.profile;
        assert!(profile.phase_nanos(Phase::Parse) > 0);
        for phase in Phase::ALL {
            assert!(profile.phase_nanos(phase) > 0, "profile trace lacks {phase}");
            let h = diff.histogram_with("query_phase_nanos", &[("phase", phase.as_str())]);
            assert_eq!(h.map(|h| h.count), Some(1), "phase {phase} observed once");
        }
        let shown: Vec<f64> =
            analysis.profile.operators.iter().map(|o| o.estimated_rows).collect();
        assert_eq!(shown, prepared.estimates(), "est≈ is the served statement's belief");
    }

    // --- 5. A failing query lands in the error counters, not the hot
    //        ones. ------------------------------------------------------
    let before = metrics::global().snapshot();
    assert!(monoid_db::explain_analyze("select ! from", &db).is_err());
    let diff = metrics::global().snapshot().diff(&before);
    assert_eq!(diff.counter("oql_queries_total"), 1);
    assert_eq!(diff.counter("oql_query_errors_total"), 1);

    // --- 6. The whole registry exports as JSON that parses back, with
    //        every series the workload above wrote and no executor
    //        series. ---------------------------------------------------
    let doc = Json::parse(&metrics::global().snapshot().to_json().render()).unwrap();
    let names: Vec<&str> = doc
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for series in [
        "normalize_rule_fired_total",
        "query_phase_nanos",
        "store_state_reads_total",
        "oql_queries_total",
        "plan_cache_hits_total",
        "plan_cache_misses_total",
        "plan_cache_invalidations_total",
        "prepare_nanos",
    ] {
        assert!(names.contains(&series), "missing {series} in {names:?}");
    }
    assert!(names.iter().all(|n| !n.starts_with("exec_")), "{names:?}");
}
