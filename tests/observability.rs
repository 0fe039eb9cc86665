//! End-to-end `EXPLAIN ANALYZE` coverage: full-lifecycle profiles for OQL
//! queries over the company store, including the acceptance shape (a join
//! with per-operator actual rows, per-phase timings, and estimated vs
//! actual cardinalities side by side) and short-circuit accounting for
//! `some`/`all` reductions.

use monoid_calculus::trace::Phase;
use monoid_db::explain_analyze;
use monoid_store::company;

#[test]
fn company_join_profile_has_phases_operators_and_estimates() {
    let db = company::generate(6, 15, 10, 42);
    let src = "select struct(mgr: m.name, emp: e.name) \
               from m in Managers, e in CompanyEmployees \
               where m.dept = e.dept";
    let analysis = explain_analyze(src, &db).unwrap();
    let p = &analysis.profile;
    let rendered = p.render();

    // Every lifecycle phase is timed: parse, translate, normalize,
    // optimize, plan, execute.
    for phase in [
        Phase::Parse,
        Phase::Translate,
        Phase::Normalize,
        Phase::Optimize,
        Phase::Plan,
        Phase::Execute,
    ] {
        assert!(p.phase_nanos(phase) > 0, "missing phase {phase}:\n{rendered}");
    }
    assert!(p.total_nanos() > 0);
    assert!(p.normalize.is_some(), "normalize stats attached");

    // The dept equality across independent extents becomes a hash join
    // whose profile reports actual rows, build size, and an estimate.
    let join = p
        .operators
        .iter()
        .find(|o| o.label.contains("Join"))
        .unwrap_or_else(|| panic!("no join operator:\n{rendered}"));
    assert!(join.actual_rows > 0, "{rendered}");
    assert!(join.build_rows > 0, "{rendered}");
    assert!(join.estimated_rows > 0.0, "{rendered}");

    // Scans report the true extent sizes, and estimates sit next to
    // actuals on every operator line.
    let scans: Vec<_> = p
        .operators
        .iter()
        .filter(|o| o.label.starts_with("Scan"))
        .collect();
    assert_eq!(scans.len(), 2, "{rendered}");
    let mut scan_rows: Vec<u64> = scans.iter().map(|o| o.actual_rows).collect();
    scan_rows.sort_unstable();
    assert_eq!(
        scan_rows,
        vec![
            db.extent_len(company::names::MANAGERS) as u64,
            db.extent_len(company::names::EMPLOYEES) as u64,
        ]
    );
    for scan in &scans {
        assert_eq!(
            scan.estimated_rows, scan.actual_rows as f64,
            "extent sizes are known exactly:\n{rendered}"
        );
    }
    assert!(rendered.contains("est≈"), "{rendered}");
    assert!(rendered.contains("actual"), "{rendered}");

    // Rows reaching the reduction match the join output.
    assert_eq!(p.rows_to_reduce, join.actual_rows);
    assert!(!p.short_circuited);

    // The JSON profile carries the same data.
    let json = p.to_json().render();
    for key in [
        "\"phases\"",
        "\"operators\"",
        "\"estimated_rows\"",
        "\"actual_rows\"",
        "\"rows_to_reduce\"",
        "\"normalize\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(json.contains("select struct"), "source text embedded: {json}");
}

#[test]
fn some_over_large_extent_short_circuits_and_reports_it() {
    // 8 managers × 25 reports = 200 employees; every salary clears the
    // generator's 40k floor, so `exists` must stop at the first row.
    let db = company::generate(8, 25, 0, 7);
    let extent = db.extent_len(company::names::EMPLOYEES) as u64;
    assert!(extent >= 200);

    let src = "exists e in CompanyEmployees: e.salary >= 40000";
    let analysis = explain_analyze(src, &db).unwrap();
    assert_eq!(analysis.value, monoid_calculus::value::Value::Bool(true));
    let p = &analysis.profile;
    assert!(p.short_circuited, "{}", p.render());
    assert!(
        p.rows_to_reduce < extent,
        "pushed {} rows, extent holds {extent}",
        p.rows_to_reduce
    );
    // Stronger: the scan itself stopped early, not just the reduce.
    for o in &p.operators {
        assert!(
            o.actual_rows < extent,
            "operator `{}` saw {} rows of {extent}",
            o.label,
            o.actual_rows
        );
    }
}

#[test]
fn all_quantifier_without_counterexample_scans_everything() {
    // The dual: `for all` over salaries that never dip below the floor
    // cannot short-circuit — it must push every row.
    let db = company::generate(4, 10, 0, 7);
    let extent = db.extent_len(company::names::EMPLOYEES) as u64;
    let src = "for all e in CompanyEmployees: e.salary >= 40000";
    let analysis = explain_analyze(src, &db).unwrap();
    assert_eq!(analysis.value, monoid_calculus::value::Value::Bool(true));
    let p = &analysis.profile;
    assert!(!p.short_circuited, "{}", p.render());
    assert_eq!(p.rows_to_reduce, extent);
}

// --- Plan-quality audit, flamegraph export, per-row attribution. ------

#[test]
fn profile_reports_self_time_steps_and_q_error_everywhere() {
    let db = company::generate(6, 15, 10, 42);
    let src = "select struct(mgr: m.name, emp: e.name) \
               from m in Managers, e in CompanyEmployees \
               where m.dept = e.dept";
    let analysis = explain_analyze(src, &db).unwrap();
    let p = &analysis.profile;
    let rendered = p.render();

    // Satellite: `self` is printed on EVERY operator line — a 0 means
    // below clock resolution, not absent — so the text and JSON schemas
    // agree on the column set.
    for line in rendered.lines().filter(|l| l.contains("est≈")) {
        assert!(line.contains(", self "), "missing self time: {line}");
    }
    // The worst-misestimate summary sits under the operator tree.
    assert!(rendered.contains("q-error: median"), "{rendered}");

    // q-error is finite and ≥ 1 on every operator.
    for o in &p.operators {
        assert!(o.q_error() >= 1.0 && o.q_error().is_finite(), "{}: {}", o.label, o.q_error());
        assert!(!o.kind.is_empty());
    }
    // Scans over known extents estimate exactly: q-error 1.
    for scan in p.operators.iter().filter(|o| o.kind == "scan") {
        assert_eq!(scan.q_error(), 1.0, "{rendered}");
    }
    assert!(p.max_q_error().unwrap() >= p.median_q_error().unwrap());

    // The JSON schema carries kind, q_error, and the attribution fields
    // per operator plus the headline q_error block.
    let json = p.to_json();
    let text = json.render();
    for key in ["\"kind\"", "\"q_error\"", "\"worst_op\""] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    let ops = json.get("operators").and_then(|o| o.as_arr()).unwrap();
    assert!(!ops.is_empty());
    for o in ops {
        assert!(o.get("q_error").and_then(monoid_calculus::json::Json::as_f64).unwrap() >= 1.0);
        assert!(o.get("kind").and_then(|k| k.as_str()).is_some());
    }
}

#[test]
fn folded_stacks_parse_as_flamegraph_input() {
    let db = company::generate(6, 15, 10, 42);
    let src = "select struct(mgr: m.name, emp: e.name) \
               from m in Managers, e in CompanyEmployees \
               where m.dept = e.dept";
    let analysis = explain_analyze(src, &db).unwrap();
    let folded = analysis.profile.to_folded();

    // One line per operator; every line is `frame;frame;… value` with a
    // numeric value, no empty frames, and the reduction as the root.
    assert_eq!(folded.lines().count(), analysis.profile.operators.len());
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("space-separated value");
        assert!(value.parse::<u64>().is_ok(), "numeric sample value: {line}");
        let frames: Vec<&str> = stack.split(';').collect();
        assert!(frames.len() >= 2, "root + operator: {line}");
        assert!(frames.iter().all(|f| !f.trim().is_empty()), "no empty frames: {line}");
        assert!(frames[0].starts_with("Reduce[bag]"), "reduction roots the stack: {line}");
    }
    // The join's two scans are siblings: both stacks end one frame deep
    // under the join, not nested inside each other.
    let scan_stacks: Vec<&str> = folded
        .lines()
        .filter(|l| l.rsplit_once(' ').unwrap().0.split(';').next_back().unwrap().starts_with("Scan"))
        .collect();
    assert_eq!(scan_stacks.len(), 2, "{folded}");
    let depth = |l: &str| l.split(';').count();
    assert_eq!(depth(scan_stacks[0]), depth(scan_stacks[1]), "{folded}");

    // Frame sanitization: labels with `;` or newlines cannot corrupt the
    // format, and empty labels render as `?`.
    let hostile = monoid_db::algebra::fold_stacks(
        "root;evil",
        vec![("a;b\nc".to_string(), 0, 7u64), (String::new(), 1, 9u64)].into_iter(),
    );
    let lines: Vec<&str> = hostile.lines().collect();
    assert_eq!(lines[0], "root,evil;a,b c 7");
    assert_eq!(lines[1], "root,evil;a,b c;? 9");
}

#[test]
fn prepared_statements_export_folded_profiles() {
    use monoid_calculus::value::Value;
    use monoid_db::{prepare_on, Params};

    let db = company::generate(6, 15, 10, 42);
    let stmt = prepare_on(
        &db,
        "select e.name from e in CompanyEmployees where e.salary >= $floor",
    )
    .unwrap();
    let params = Params::new().bind("floor", Value::Int(40_000));
    let folded = stmt.profile(&db, &params).unwrap().profile.to_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').unwrap();
        assert!(value.parse::<u64>().is_ok(), "{line}");
        assert!(stack.split(';').all(|f| !f.trim().is_empty()), "{line}");
    }
    // Unbound parameters fail loudly instead of profiling garbage.
    assert!(stmt.profile(&db, &Params::new()).is_err());
}

// --- The profile counts the fold that serves. -------------------------

#[test]
fn a_join_charges_its_own_work_not_its_build_side() {
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_calculus::value::Value;
    use monoid_db::algebra::{execute_profiled_bound, Plan, Query};
    use monoid_calculus::types::Schema;
    use monoid_store::Database;

    // One left row against 20 000 right rows behind a costly filter. The
    // filter charges its own predicate; the join charges only its keys,
    // its index and its probe. The operators' self times are disjoint, so
    // they sum to no more than the execution they are part of.
    let mut db = Database::new(Schema::new());
    let row = |k: i64| {
        let s = format!("{k:>8}").repeat(8);
        Value::record_from(vec![("k", Value::Int(k % 7)), ("s", Value::str(&s))])
    };
    db.set_root("L", Value::list(vec![row(3)]));
    db.set_root("R", Value::list((0..20_000).map(row).collect()));
    let scan = |var: &str, extent: &str| Plan::Scan { var: var.into(), source: Expr::var(extent) };
    let (l, r) = (|| Expr::var("l"), || Expr::var("r"));
    let costly = r().proj("s").like(Expr::str("%9%9%9%"));
    let plan = Plan::Join {
        left: Box::new(scan("l", "L")),
        right: Box::new(Plan::Filter { input: Box::new(scan("r", "R")), pred: costly }),
        on: vec![(l().proj("k"), r().proj("k"))],
    };
    let query = Query::new(plan, Monoid::Sum, Expr::int(1)).unwrap();
    let p = execute_profiled_bound(&query, &[], &db, &[]).unwrap().profile;
    let rendered = p.render();
    let join = p.operators.iter().find(|o| o.kind == "join").expect("a hash join");
    let kept = (0..20_000_i64).filter(|k| k.to_string().contains('9')).count() as u64;
    assert_eq!(join.build_rows, kept, "{rendered}");
    let selves: u64 = p.operators.iter().map(|o| o.self_nanos).sum();
    let execute = p.phase_nanos(Phase::Execute);
    assert!(execute > 0, "execute is timed");
    assert!(selves <= execute, "self {selves} ns > execute {execute} ns:\n{rendered}");
}

#[test]
fn profiled_keyed_filter_reports_its_table_and_the_scan_that_filled_it() {
    use monoid_calculus::value::Value;
    use monoid_db::{prepare_on, Params};
    use monoid_store::travel::{self, TravelScale};

    let db = travel::generate(TravelScale::small(), 7);
    let stmt = prepare_on(&db, "exists h in Hotels: h.name = $name").unwrap();
    let params = Params::new().bind("name", Value::str("hotel_0_0"));
    let analysis = stmt.profile(&db, &params).unwrap();
    let p = &analysis.profile;
    let rendered = p.render();
    assert_eq!(analysis.value, Value::Bool(true));
    let hotels = db.extent_len("Hotels") as u64;
    let [filter, scan] = p.operators.as_slice() else { panic!("{rendered}") };
    assert_eq!((filter.kind, filter.build_rows, filter.actual_rows), ("filter", hotels, 1));
    assert_eq!((scan.kind, scan.actual_rows), ("scan", hotels), "{rendered}");
}

#[test]
fn profiled_counted_join_reports_every_matched_pair() {
    use monoid_calculus::value::Value;
    use monoid_db::{prepare_on, Params};

    // `join-wire`'s statement. `$w` reads neither side, so the fold folds
    // it once per bucket, and the join counts the bucket's pairs.
    let db = company::generate(6, 15, 10, 42);
    let src = "sum(select $w from m in Managers, e in CompanyEmployees where m.dept = e.dept)";
    let stmt = prepare_on(&db, src).unwrap();
    let analysis = stmt.profile(&db, &Params::new().bind("w", Value::Int(1))).unwrap();
    let p = &analysis.profile;
    let rendered = p.render();
    let Value::Int(pairs) = analysis.value else { panic!("{:?}", analysis.value) };
    assert!(pairs > 0);
    let join = p.operators.iter().find(|o| o.kind == "join").expect("a hash join");
    assert_eq!(join.actual_rows, pairs as u64, "{rendered}");
    assert_eq!(p.rows_to_reduce, pairs as u64, "{rendered}");
}

#[test]
fn profiled_declined_keyed_filter_walks_uncounted() {
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_calculus::value::Value;
    use monoid_db::algebra::{execute, execute_profiled_bound, plan_comprehension};
    use monoid_calculus::types::Schema;
    use monoid_store::Database;

    // `some{ true | x ← I, x.f = 2 }` over a list whose second member has
    // no `f`: the keyed filter's table fails to build, so the fold scans
    // `I` through the plain filter, and stops at the witness before the
    // bad member — counted as the walk would count it.
    let mut db = Database::new(Schema::new());
    let row = |f: i64| Value::record_from(vec![("f", Value::Int(f))]);
    db.set_root("I", Value::list(vec![row(2), Value::Int(5), row(2)]));
    let q = Expr::comp(
        Monoid::Some,
        Expr::bool(true),
        vec![Expr::gen("x", Expr::var("I")), Expr::pred(Expr::var("x").proj("f").eq(Expr::int(2)))],
    );
    let query = plan_comprehension(&q).unwrap();
    let analysis = execute_profiled_bound(&query, &[], &db, &[]).unwrap();
    assert_eq!(analysis.value, execute(&query, &db).unwrap());
    assert_eq!(analysis.value, Value::Bool(true));
    let p = &analysis.profile;
    let rows: Vec<_> = p.operators.iter().map(|o| (o.kind, o.actual_rows, o.build_rows)).collect();
    assert_eq!(rows, [("filter", 1, 0), ("scan", 1, 0)], "{}", p.render());
    assert!(p.short_circuited && p.rows_to_reduce == 1, "{}", p.render());
}

#[test]
fn a_cold_prepare_times_its_gather_in_the_optimize_phase() {
    use monoid_calculus::value::Value;
    use monoid_db::algebra::Stats;
    use monoid_db::prepare_on;
    use monoid_store::travel::{self, TravelScale};
    use std::time::Instant;

    let mut db = travel::generate(TravelScale::with_hotels(200), 7);
    let src = "exists h in Hotels: h.name = $name";
    // Each round: a write (so a fresh memo), a separately timed gather of
    // that state, then a cold prepare on it. The cold Optimize phase is
    // the gather plus microseconds; a gather timed outside the phase
    // leaves it at about 1 % of one. Tests share the cores, so a round
    // can be slowed on one side only (by 2× when two test processes
    // share two cores): the median round is held to a quarter.
    let mut ratios: Vec<f64> = (0..5)
        .map(|round| {
            db.set_root("Round", Value::Int(round));
            let started = Instant::now();
            let stats = Stats::gather(&db);
            let gather_nanos = started.elapsed().as_nanos() as f64;
            drop(stats);
            let cold = prepare_on(&db, src).unwrap();
            assert_eq!(db.memo().misses(), 1, "the first prepare gathers");
            let optimize = cold.phase_nanos(Phase::Optimize);
            assert!(cold.prepare_nanos() >= u128::from(optimize));
            optimize as f64 / gather_nanos
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    assert!(ratios[2] >= 0.25, "optimize ÷ gather per round: {ratios:?}");

    db.set_root("Round", Value::Int(5));
    let snap = db.snapshot();
    let optimize = prepare_on(&snap, src).unwrap().phase_nanos(Phase::Optimize);
    let warm = prepare_on(&snap, src).unwrap();
    assert_eq!(snap.memo().misses(), 1, "a second prepare reuses the gather");
    assert!(warm.phase_nanos(Phase::Optimize) < optimize);
}

/// The series names in `docs/observability.md`'s "The series" table: every
/// backticked name in a row's first cell, labels stripped.
fn documented_series() -> std::collections::BTreeSet<String> {
    let doc = include_str!("../docs/observability.md");
    let table = doc.split("### The series").nth(1).expect("the series table");
    table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|row| row.split(" | ").next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .map(|name| name.split('{').next().unwrap().to_string())
        .collect()
}

#[test]
fn the_docs_table_names_exactly_the_catalogs_series() {
    let catalog: std::collections::BTreeSet<String> = monoid_calculus::metrics::global()
        .snapshot()
        .series
        .into_iter()
        .map(|s| s.key.name)
        .collect();
    assert_eq!(documented_series(), catalog);
}

#[test]
fn snapshot_keys_are_unique_and_ascending() {
    let snap = monoid_calculus::metrics::global().snapshot();
    for pair in snap.series.windows(2) {
        assert!(pair[0].key < pair[1].key, "{:?} !< {:?}", pair[0].key, pair[1].key);
    }
}
