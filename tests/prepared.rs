//! The prepared-statement differential suite: for every parameterized
//! query, `prepare` + `Prepared::execute` must be byte-identical to the
//! ad-hoc pipeline run on the literal-substituted source — same `Value`,
//! same OIDs for allocating heads. Plus the serving-layer
//! property tests: re-binding never changes the plan, cache hits are
//! indistinguishable from misses, and a database mutation between
//! executions always invalidates the epoch-stamped cache entry.
//!
//! The warm-path proof lives here too: a warm `Prepared::execute` (and a
//! warm `Session::query`) must fire *zero* parse/translate/normalize/
//! optimize/plan phases, asserted from the `query_phase_nanos{phase=…}`
//! histogram deltas in the process-wide registry.

use monoid_db::algebra::Stats;
use monoid_db::calculus::expr::Expr;
use monoid_db::calculus::monoid::Monoid;
use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::value::Value;
use monoid_db::oql::compile;
use monoid_db::store::travel::{self, TravelScale};
use monoid_db::store::Database;
use monoid_db::{prepare_expr, prepare_on, Params, PlanCache, Session};
use std::sync::Arc;

fn db(seed: u64) -> Database {
    travel::generate(TravelScale::tiny(), seed)
}

/// The differential corpus: `(parameterized source, bindings, equivalent
/// literal source)`. Covers the paper's §3.1 flat and nested Portland
/// queries, the tutorial battery shapes, quantifiers, aggregates over
/// subqueries in predicates — and zero-parameter statements.
fn corpus() -> Vec<(&'static str, Params, String)> {
    vec![
        (
            "select h.name from c in Cities, h in c.hotels where c.name = $city",
            Params::new().bind("city", Value::str("Portland")),
            "select h.name from c in Cities, h in c.hotels where c.name = 'Portland'".into(),
        ),
        (
            // The paper's §3.1 query, flat form, fully parameterized.
            "select h.name from c in Cities, h in c.hotels, r in h.rooms \
             where c.name = $city and r.bed# = $beds",
            Params::new()
                .bind("city", Value::str("Portland"))
                .bind("beds", Value::Int(3)),
            "select h.name from c in Cities, h in c.hotels, r in h.rooms \
             where c.name = 'Portland' and r.bed# = 3"
                .into(),
        ),
        (
            // The §3.1 nested form — the placeholder sits inside a
            // subquery in `from`, so it must survive unnesting.
            "select h.name \
             from h in (select h2 from c in Cities, h2 in c.hotels where c.name = $city), \
                  r in h.rooms \
             where r.bed# = $beds",
            Params::new()
                .bind("city", Value::str("Portland"))
                .bind("beds", Value::Int(3)),
            "select h.name \
             from h in (select h2 from c in Cities, h2 in c.hotels where c.name = 'Portland'), \
                  r in h.rooms \
             where r.bed# = 3"
                .into(),
        ),
        (
            "select cl.name from cl in Clients where cl.age > $age and cl.budget < $budget",
            Params::new()
                .bind("age", Value::Int(40))
                .bind("budget", Value::Float(300.0)),
            "select cl.name from cl in Clients where cl.age > 40 and cl.budget < 300.0".into(),
        ),
        (
            "select e.name from h in Hotels, e in h.employees where e.salary > $min",
            Params::new().bind("min", Value::Int(50000)),
            "select e.name from h in Hotels, e in h.employees where e.salary > 50000".into(),
        ),
        (
            // Quantifier: the placeholder inside an `exists` body becomes
            // a generator + predicate after normalization (rule N6).
            "select h.name from h in Hotels where exists r in h.rooms: r.bed# = $beds",
            Params::new().bind("beds", Value::Int(2)),
            "select h.name from h in Hotels where exists r in h.rooms: r.bed# = 2".into(),
        ),
        (
            // One positional, one named, both in the same predicate.
            "select r.price from h in Hotels, r in h.rooms \
             where r.bed# >= $1 and r.price < $limit",
            Params::new()
                .bind("1", Value::Int(2))
                .bind("limit", Value::Int(150)),
            "select r.price from h in Hotels, r in h.rooms \
             where r.bed# >= 2 and r.price < 150"
                .into(),
        ),
        (
            // Zero-parameter statements prepare and execute too.
            "select distinct r.bed# from h in Hotels, r in h.rooms",
            Params::new(),
            "select distinct r.bed# from h in Hotels, r in h.rooms".into(),
        ),
        (
            "select c.name from c in Cities",
            Params::new(),
            "select c.name from c in Cities".into(),
        ),
    ]
}

/// The ad-hoc reference result: compile the literal source and run it
/// through the same normalize → optimize → plan → execute pipeline the
/// serving layer captures (via `explain_analyze`).
fn adhoc(db: &mut Database, literal: &str) -> Value {
    monoid_db::explain_analyze(literal, db)
        .unwrap_or_else(|e| panic!("ad-hoc `{literal}`: {e}"))
        .value
}

#[test]
fn prepared_execution_is_byte_identical_to_adhoc() {
    for (src, params, literal) in corpus() {
        // Fresh databases from the same seed: identical heaps, so even
        // OIDs must line up.
        let mut db_adhoc = db(11);
        let mut db_prep = db(11);
        let want = adhoc(&mut db_adhoc, &literal);
        let prepared = prepare_on(&db_prep, src).unwrap_or_else(|e| panic!("prepare `{src}`: {e}"));
        let got = prepared
            .execute(&mut db_prep, &params)
            .unwrap_or_else(|e| panic!("execute `{src}`: {e}"));
        assert_eq!(got, want, "prepared differs from ad-hoc for `{src}`");

        // Direct evaluation agrees as well (semantics, not just plans).
        let q = compile(db_adhoc.schema(), &literal).unwrap();
        assert_eq!(db_adhoc.query(&q).unwrap(), want, "direct eval differs for `{literal}`");
    }
}

/// Allocating heads: a prepared `bag{ new(⟨…⟩) | … }` must allocate the
/// *same OIDs* as the ad-hoc run on an identically-seeded database —
/// prepared execution reuses the pipeline's heap machinery verbatim.
#[test]
fn allocating_heads_agree_oid_for_oid() {
    let parameterized = Expr::comp(
        Monoid::Bag,
        Expr::new_obj(Expr::record(vec![("label", Expr::var("c").proj("name"))])),
        vec![
            Expr::gen("c", Expr::var("Cities")),
            Expr::pred(Expr::var("c").proj("name").eq(Expr::param("$city"))),
        ],
    );
    let literal = Expr::comp(
        Monoid::Bag,
        Expr::new_obj(Expr::record(vec![("label", Expr::var("c").proj("name"))])),
        vec![
            Expr::gen("c", Expr::var("Cities")),
            Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
        ],
    );

    let mut db_adhoc = db(31);
    let mut db_prep = db(31);
    let stats = monoid_db::algebra::Stats::gather(&db_adhoc);

    let want = {
        let p = prepare_expr(&literal, &stats);
        p.execute(&mut db_adhoc, &Params::new()).unwrap()
    };
    let got = {
        let p = prepare_expr(&parameterized, &stats);
        assert_eq!(p.params().len(), 1);
        p.execute(&mut db_prep, &Params::new().bind("city", Value::str("Portland"))).unwrap()
    };

    assert_eq!(got, want, "allocated OIDs must line up");
    let elems = got.elements().unwrap();
    assert!(!elems.is_empty(), "head actually allocated");
    assert!(elems.iter().all(|v| matches!(v, Value::Obj(_))));
    // Allocation advanced both heaps identically.
    assert_eq!(db_adhoc.mutation_epoch(), db_prep.mutation_epoch());
    assert_eq!(db_adhoc.object_count(), db_prep.object_count());
}

// ---------------------------------------------------------------------
// Property tests (serving-layer invariants)
// ---------------------------------------------------------------------

/// Re-binding a prepared statement never changes its plan: the stored
/// `Query`'s explain text is the same object before and after any number
/// of executions with different parameter values.
#[test]
fn rebinding_never_changes_the_plan() {
    let mut d = db(41);
    let prepared =
        prepare_on(&d, "select r.price from h in Hotels, r in h.rooms where r.bed# >= $beds")
            .unwrap();
    let shape_before = monoid_db::algebra::explain(prepared.query().unwrap());
    for beds in [0i64, 1, 2, 3, 7, -5, 1000] {
        prepared.execute(&mut d, &Params::new().bind("beds", Value::Int(beds))).unwrap();
        let shape_after = monoid_db::algebra::explain(prepared.query().unwrap());
        assert_eq!(shape_before, shape_after, "plan changed after binding beds={beds}");
    }
}

/// A cache hit must be observationally identical to a miss: same value,
/// and the hit-path `Prepared` is literally the entry the miss inserted.
#[test]
fn cache_hit_results_equal_miss_results() {
    let cache = PlanCache::new();
    let mut d = db(43);
    let src = "select h.name from c in Cities, h in c.hotels where c.name = $city";
    let params = Params::new().bind("city", Value::str("Portland"));

    let miss = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    let v_miss = miss.execute(&mut d, &params).unwrap();
    let hit = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    assert!(Arc::ptr_eq(&miss, &hit), "second lookup must be a hit");
    let v_hit = hit.execute(&mut d, &params).unwrap();
    assert_eq!(v_miss, v_hit);

    // And both equal a cache-free prepare + execute.
    let standalone = prepare_on(&d, src).unwrap();
    assert_eq!(standalone.execute(&mut d, &params).unwrap(), v_miss);
}

/// Any database mutation between executions invalidates the epoch-stamped
/// entry: the cache re-prepares rather than serving the stale plan, for
/// every kind of mutation that advances the epoch (root updates, inserts,
/// allocating queries).
#[test]
fn mutation_always_invalidates_cached_plans() {
    let cache = PlanCache::new();
    let mut d = db(47);
    let src = "select c.name from c in Cities";

    // Root mutation.
    let a = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    d.set_root("Scratch", Value::Int(0));
    let b = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    assert!(!Arc::ptr_eq(&a, &b), "root mutation must invalidate");

    // Insert into an extent.
    d.insert(
        monoid_db::calculus::symbol::Symbol::new("City"),
        Value::record_from(vec![
            ("name", Value::str("Nowhere")),
            ("hotels", Value::list(vec![])),
            ("hotel#", Value::Int(0)),
        ]),
    )
    .unwrap();
    let c = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    assert!(!Arc::ptr_eq(&b, &c), "insert must invalidate");

    // An allocating query advances the heap version, self-invalidating.
    let alloc = Expr::comp(
        Monoid::Bag,
        Expr::new_obj(Expr::record(vec![("tag", Expr::int(1))])),
        vec![Expr::gen("c", Expr::var("Cities"))],
    );
    d.query(&alloc).unwrap();
    let e = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    assert!(!Arc::ptr_eq(&c, &e), "allocation must invalidate");

    // A pure query leaves the epoch alone, so the entry stays warm.
    let before = d.mutation_epoch();
    let f = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    f.execute(&mut d, &Params::new()).unwrap();
    assert_eq!(d.mutation_epoch(), before, "pure query is epoch-neutral");
    let g = cache.get_or_prepare_snapshot_traced(&d, src).unwrap().0;
    assert!(Arc::ptr_eq(&f, &g), "pure execution must not invalidate");
}

/// A write whose filter matches nothing changes no object, so it keeps
/// what its epoch has derived — here the statistics a prepare gathered
/// into the memo — through `Prepared::execute` exactly as through
/// `Database::query`: one evaluation serves both.
#[test]
fn a_write_that_writes_nothing_keeps_its_epochs_memo() {
    let mut d = db(59);
    let h = || Expr::var("h");
    let renamed = Expr::record(vec![("name", Expr::str("renamed"))]);
    let update = Expr::comp(
        Monoid::All,
        h().assign(renamed),
        vec![
            Expr::gen("h", Expr::var("Hotels")),
            Expr::pred(h().proj("name").eq(Expr::str("no such hotel"))),
        ],
    );
    let stmt = prepare_expr(&update, &Stats::default());
    assert!(stmt.writes());
    prepare_on(&d, "count(Cities)").unwrap();
    let kept = (d.mutation_epoch(), d.memo().len());
    assert_eq!(kept.1, 1, "the prepare kept its statistics");
    assert_eq!(stmt.execute(&mut d, &Params::new()).unwrap(), Value::Bool(true));
    assert_eq!((d.mutation_epoch(), d.memo().len()), kept, "Prepared::execute");
    assert_eq!(d.query(&update).unwrap(), Value::Bool(true));
    assert_eq!((d.mutation_epoch(), d.memo().len()), kept, "Database::query");
}

// ---------------------------------------------------------------------
// Warm-path proof
// ---------------------------------------------------------------------

/// Once prepared, serving never goes back to the front of the pipeline:
/// parse → translate → normalize → optimize → plan run only inside a
/// prepare, a prepare always replaces the cache entry with a fresh
/// `Arc`, and across the warm window this test's *private* cache keeps
/// answering with a hit on the very statement the cold query inserted.
/// (The registry-side proof — zero `query_phase_nanos` samples across a
/// warm window — needs the process-wide registry to itself, so it lives
/// in `tests/metrics.rs`.)
#[test]
fn warm_execution_skips_parse_normalize_optimize() {
    let mut d = db(53);
    let cache = Arc::new(PlanCache::new());
    let session = Session::with_cache(Arc::clone(&cache));
    let src = "select h.name from c in Cities, h in c.hotels where c.name = $city";
    let params = Params::new().bind("city", Value::str("Portland"));

    // Cold: prepare (through the cache) and execute once.
    let cold = session.query(&mut d, src, &params).unwrap();
    let (stmt, hit) = cache.get_or_prepare_snapshot_traced(&d, src).unwrap();
    assert!(hit, "the cold query left its statement in the cache");

    for _ in 0..5 {
        let warm = session.query(&mut d, src, &params).unwrap();
        assert_eq!(warm, cold);
        let (again, hit) = cache.get_or_prepare_snapshot_traced(&d, src).unwrap();
        assert!(hit, "warm window missed the cache");
        assert!(Arc::ptr_eq(&stmt, &again), "warm serving re-prepared the statement");
    }
    assert_eq!(cache.len(), 1);

    // A bare handle re-executes the plan it captured: the prepare-time
    // phases (which hold no execute phase) are all the pipeline work it
    // ever does.
    assert_eq!(stmt.phase_nanos(monoid_db::calculus::trace::Phase::Execute), 0);
    assert_eq!(stmt.execute(&mut d, &params).unwrap(), cold);
}

/// The whole corpus served through a warmed cache agrees with ad-hoc —
/// first through a private cache, then through `Session::new()` and the
/// *process-wide* cache. No other test in this file touches the global
/// cache, so its length is exact here too.
#[test]
fn warmed_cache_serves_the_corpus() {
    for session in [Session::with_cache(Arc::new(PlanCache::new())), Session::new()] {
        // First pass warms every statement; the differential check runs
        // on the second, all-hits pass.
        let mut d = db(61);
        for (src, params, _) in corpus() {
            session.query(&mut d, src, &params).unwrap_or_else(|e| panic!("warm `{src}`: {e}"));
        }
        let cache_len_after_warming = session.cache().len();
        for (src, params, literal) in corpus() {
            let mut db_adhoc = db(61);
            let want = adhoc(&mut db_adhoc, &literal);
            let got = session
                .query(&mut d, src, &params)
                .unwrap_or_else(|e| panic!("warmed serve `{src}`: {e}"));
            assert_eq!(got, want, "warmed cache serve differs from ad-hoc for `{src}`");
        }
        // The corpus is pure, so the second pass added no entries — every
        // serve was a hit on the warmed set.
        assert_eq!(session.cache().len(), cache_len_after_warming);
    }
}

/// A statement whose only generator ranges over a singleton literal is
/// served: normalization inlines that generator away, and what is left —
/// a comprehension with no generators — runs on the evaluator, like every
/// statement the planner declines. Both session paths answer what
/// `Database::query` answers.
#[test]
fn statements_left_without_generators_are_served_like_database_query() {
    let mut d = db(67);
    let session = Session::with_cache(Arc::new(PlanCache::new()));
    for (src, want) in [
        ("exists x in list(1): x = 1", Value::Bool(true)),
        ("sum(select x from x in list(5))", Value::Int(5)),
        ("for all x in set(2): x > 1", Value::Bool(true)),
        ("count(select c from c in list(1) where c = 1)", Value::Int(1)),
    ] {
        let expr = compile(d.schema(), src).unwrap();
        let reference = d.query(&expr).unwrap();
        assert_eq!(reference, want, "{src}");
        let served = session.query(&mut d, src, &Params::new());
        assert_eq!(served.unwrap_or_else(|e| panic!("`{src}`: {e}")), reference, "{src}");
        let snap = d.snapshot();
        let served = session.query_snapshot(&snap, src, &Params::new());
        assert_eq!(served.unwrap_or_else(|e| panic!("`{src}`: {e}")), reference, "{src}");
    }
}

/// Binding errors are total: every unbound placeholder is reported (not
/// just discovered mid-scan), and extraneous bindings are rejected.
#[test]
fn binding_validation_is_eager() {
    let mut d = db(59);
    let prepared = prepare_on(
        &d,
        "select h.name from c in Cities, h in c.hotels, r in h.rooms \
         where c.name = $city and r.bed# = $beds",
    )
    .unwrap();
    assert_eq!(prepared.params().len(), 2);

    // Missing one of two.
    let err = prepared
        .execute(&mut d, &Params::new().bind("city", Value::str("Portland")))
        .unwrap_err();
    assert!(err.to_string().contains("$beds"), "{err}");

    // Unknown extra binding.
    let err = prepared
        .execute(
            &mut d,
            &Params::new()
                .bind("city", Value::str("Portland"))
                .bind("beds", Value::Int(3))
                .bind("typo", Value::Int(0)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("$typo"), "{err}");
}

/// A statement's parameters are listed in first-appearance order over the
/// prepared term, head first: `$x` in the select list precedes `$s` in the
/// `where` clause, in `Prepared::params` and in a wire `PREPARE` reply.
#[test]
fn parameters_are_listed_head_first() {
    const SRC: &str = "select struct(a: $x, b: h.name) from h in Hotels, r in h.rooms \
                       where r.price >= $s";
    let d = db(61);
    let prepared = prepare_on(&d, SRC).unwrap();
    assert_eq!(prepared.params(), [Symbol::new("$x"), Symbol::new("$s")]);

    let handle = monoid_db::server::Server::bind("127.0.0.1:0", d).expect("bind loopback").spawn();
    let mut client = monoid_db::server::Client::connect(handle.addr()).expect("connect");
    let (_, wire_names) = client.prepare(SRC).expect("prepares");
    assert_eq!(wire_names, ["$x", "$s"]);
    drop(client);
    handle.shutdown();
}
