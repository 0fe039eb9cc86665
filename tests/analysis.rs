//! End-to-end tests for the static query analyzer: the umbrella
//! `analyze` API over OQL source, lint codes on calculus terms, the
//! stage-tagged verifier errors, and JSON quoting edge cases in the
//! analyzer's machine-readable output.

use monoid_db::analyze;
use monoid_db::calculus::analysis::{
    lint, AnalysisReport, Code, Diagnostic, EffectSummary, Severity,
};
use monoid_db::calculus::types::Schema;
use monoid_db::calculus::expr::Expr;
use monoid_db::calculus::monoid::Monoid;
use monoid_db::store::travel;

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code.as_str()).collect()
}

// -------------------------------------------------------------------------
// The umbrella analyze() path: OQL in, spanned diagnostics out.
// -------------------------------------------------------------------------

#[test]
fn clean_query_reports_no_diagnostics() {
    let schema = travel::schema();
    let report = analyze(
        &schema,
        "select h.name from c in Cities, h in c.hotels where c.name = 'Portland'",
    )
    .unwrap();
    assert!(report.diagnostics.is_empty(), "got {:?}", report.diagnostics);
    assert!(report.effects.is_pure());
    assert!(report.effects.reads_extents());
    assert_eq!(report.max_severity(), None);
}

#[test]
fn unused_generator_is_flagged_with_its_source_position() {
    let schema = travel::schema();
    let report =
        analyze(&schema, "select c.name\nfrom c in Cities, h in Hotels").unwrap();
    // `h` is unused (MC001). The independent second generator makes the
    // query a cross product, which runs fused (no MC009); no MC007 either:
    // an *unused* cross-product side is MC001's business.
    assert_eq!(codes(&report.diagnostics), vec!["MC001"]);
    let d = &report.diagnostics[0];
    assert!(d.message.contains('h'), "{d}");
    let span = d.span.expect("front end recorded the binder position");
    assert_eq!(span.line, 2, "the `h` binder is on line 2");
}

#[test]
fn constant_predicate_and_shadowing_are_flagged() {
    let schema = travel::schema();
    let report =
        analyze(&schema, "select h.name from h in Hotels where h.name = h.name").unwrap();
    assert!(codes(&report.diagnostics).contains(&"MC002"), "{:?}", report.diagnostics);

    let report = analyze(
        &schema,
        "select (select c.name from c in Cities) from c in Cities",
    )
    .unwrap();
    assert!(codes(&report.diagnostics).contains(&"MC003"), "{:?}", report.diagnostics);
    assert_eq!(report.max_severity(), Some(Severity::Warning));
}

/// `$param` predicates are *not* constant — their value arrives at
/// execution time — so a parameterized query lints clean: no MC002 on
/// `c.name = $city`, and no other false positives across the analyzer.
#[test]
fn parameterized_predicates_are_not_constant() {
    let schema = travel::schema();
    let report = analyze(
        &schema,
        "select h.name from c in Cities, h in c.hotels \
         where c.name = $city and $beds <= $beds",
    )
    .unwrap();
    // Even `$beds <= $beds` stays unflagged: two occurrences of one
    // placeholder are the same unknown, but the analyzer must not guess.
    assert!(report.diagnostics.is_empty(), "got {:?}", report.diagnostics);
    assert!(report.effects.is_pure(), "placeholders are pure leaves");
}

// -------------------------------------------------------------------------
// The inference lints MC007–MC009: spans pinned to the offending source
// position, and diagnostic stability under `parse ∘ unparse`.
// -------------------------------------------------------------------------

#[test]
fn cross_product_is_flagged_at_the_generator() {
    let schema = travel::schema();
    let report = analyze(
        &schema,
        "select struct(city: c.name, hotel: h.name)\nfrom c in Cities, h in Hotels",
    )
    .unwrap();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::CrossProduct)
        .expect("MC007 for an unlinked, used generator");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("`h`"), "{d}");
    let span = d.span.expect("MC007 anchors at the binder");
    assert_eq!((span.line, span.col), (2, 19), "the `h` binder position");
}

#[test]
fn statically_empty_predicate_is_flagged_at_the_where_clause() {
    let schema = travel::schema();
    let report = analyze(
        &schema,
        "select h.name from h in Hotels\nwhere h.name = 'A' and h.name = 'B'",
    )
    .unwrap();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::StaticallyEmpty)
        .expect("MC008 for contradictory conjuncts");
    assert_eq!(d.severity, Severity::Warning);
    let span = d.span.expect("MC008 anchors at the predicate");
    assert_eq!((span.line, span.col), (2, 7), "first token of the predicate");
}

#[test]
fn fused_fallback_is_flagged_with_the_refusal_reason() {
    let schema = travel::schema();
    // A plain equi-join runs fused and is not flagged; nor is one whose
    // key counts the hotel's rooms: the aggregate stays a nested
    // comprehension, which the fold hands to the evaluator in place.
    for join in [
        "select h.name\nfrom c in Cities, h in Hotels where c.name = h.name",
        "select h.name\nfrom c in Cities, h in Hotels where c.hotel# = count(h.rooms)",
    ] {
        assert!(analyze(&schema, join).unwrap().diagnostics.is_empty(), "{join}");
    }
    // A statement the planner declines runs on the evaluator: flagged at
    // the statement, with the planner's reason. Normalization inlines this
    // select's one generator, over a singleton, and leaves none to plan.
    let report = analyze(&schema, "select x * 2\nfrom x in list(1)").unwrap();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::FusedFallback)
        .expect("MC009 for an evaluator-mode statement");
    assert_eq!(d.severity, Severity::Info);
    assert!(d.message.contains("comprehension with no generators"), "{d}");
    let span = d.span.expect("MC009 anchors at the statement");
    assert_eq!((span.line, span.col), (1, 1), "the `select` keyword");
}

/// MC009 describes the statement `oqld` would actually run: present iff
/// the prepared statement is evaluator-mode — a planned one always has a
/// fold — and worded by the planner.
fn assert_mc009_tells_the_truth(schema: &Schema, src: &str) {
    let report = analyze(schema, src).unwrap();
    let prepared = monoid_db::prepare(schema, src).unwrap();
    let falls_back = prepared.query().is_none(); // evaluator mode
    let mc009 = report.diagnostics.iter().find(|d| d.code == Code::FusedFallback);
    assert_eq!(mc009.is_some(), falls_back, "{src}\n{:?}", report.diagnostics);
    assert_eq!(prepared.refusal().is_some(), falls_back, "{src}");
    if let (Some(d), Some(why)) = (mc009, prepared.refusal()) {
        assert!(d.message.contains(&why.to_string()), "{d} does not quote `{why}`");
    }
}

#[test]
fn mc009_is_reported_exactly_when_the_prepared_statement_falls_back() {
    let travel = travel::schema();
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/oql")).unwrap()
    {
        let src = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        assert_mc009_tells_the_truth(&travel, &src);
    }
    let (_, company_db, cases) = monoid_bench::regress::suite(true);
    for case in cases {
        let schema = if case.store == "travel" { &travel } else { company_db.schema() };
        if monoid_db::oql::compile(schema, &case.source).is_ok() {
            assert_mc009_tells_the_truth(schema, &case.source);
        } else {
            // The one calculus-built case: no OQL text for `analyze`, so
            // ask the prepared statement directly.
            assert_eq!(case.name, "clients-existing-city");
            let stats = monoid_db::algebra::Stats::default();
            let prepared = monoid_db::prepare_expr(&case.expr, &stats);
            assert!(prepared.query().is_some(), "plannable");
            assert!(prepared.refusal().is_none());
        }
    }
    // An evaluator-mode statement: MC009 carries the planner's words.
    assert_mc009_tells_the_truth(&travel, "count(Cities) + count(Hotels)");
    // A nested select in second position flattens into a linear chain
    // (c ← Cities, h2 ← c.hotels, …, r ← h2.rooms) and runs fused; a lint
    // reading the un-normalized term would flag the nested comprehension.
    let nested = "select r.price\nfrom c in Cities,\n     h in (select h2 from h2 in c.hotels \
                  where h2.name = 'hotel_0_0'),\n     r in h.rooms";
    assert_mc009_tells_the_truth(&travel, nested);
    let report = analyze(&travel, nested).unwrap();
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

/// Exemplar diagnostics are stable under `parse ∘ unparse`: re-rendering
/// an exemplar to OQL text and re-analyzing it yields the same codes in
/// the same order (spans may move — the rendering is one line).
#[test]
fn exemplar_diagnostics_survive_parse_unparse() {
    let schema = travel::schema();
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/oql")).unwrap()
    {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let before = analyze(&schema, &src).unwrap();
        let reprinted = monoid_db::oql::unparse(&monoid_db::oql::parse_query(&src).unwrap());
        let after = analyze(&schema, &reprinted).unwrap();
        assert_eq!(
            codes(&before.diagnostics),
            codes(&after.diagnostics),
            "diagnostics moved under parse∘unparse of {path:?}:\n{reprinted}"
        );
    }
}

// -------------------------------------------------------------------------
// Calculus-level lints the OQL front end cannot express.
// -------------------------------------------------------------------------

#[test]
fn mc005_is_retired_and_no_code_was_renumbered() {
    let codes: Vec<&str> = Code::all().iter().map(|c| c.as_str()).collect();
    assert_eq!(
        codes,
        ["MC001", "MC002", "MC003", "MC004", "MC006", "MC007", "MC008", "MC009"]
    );
    // all{ e := ⟨…⟩ | e ← Employees } — hand-built; OQL has no `:=`. What
    // MC005 used to say about it, the effect summary still does.
    let e = Expr::comp(
        Monoid::All,
        Expr::var("e").assign(Expr::record(vec![
            ("name", Expr::var("e").proj("name")),
            ("salary", Expr::int(1)),
        ])),
        vec![Expr::gen("e", Expr::var("Employees"))],
    );
    assert!(lint(&e).is_empty(), "{:?}", lint(&e));
    assert!(EffectSummary::of(&e).effects.mutates);
}

#[test]
fn illegal_hom_near_miss_gets_mc006_with_fix_hint() {
    // list{ x | x ← set(1,2) } — set into list breaks the C/I restriction.
    let e = Expr::comp(
        Monoid::List,
        Expr::var("x"),
        vec![Expr::gen("x", Expr::CollLit(Monoid::Set, vec![Expr::int(1), Expr::int(2)]))],
    );
    let diags = lint(&e);
    let d = diags
        .iter()
        .find(|d| d.code == Code::IllegalHom)
        .expect("MC006 for a set generator in a list comprehension");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.note.as_deref().is_some_and(|n| n.contains("to_bag")),
        "fix hint suggests the documented coercion: {d}"
    );
}

// -------------------------------------------------------------------------
// Stage-tagged verifier errors through the public APIs.
// -------------------------------------------------------------------------

#[test]
fn plan_verifier_reports_stage_tagged_errors() {
    use monoid_db::algebra::{plan_comprehension, verify_query, Plan, Query};
    let pure = Expr::comp(
        Monoid::Bag,
        Expr::var("c").proj("name"),
        vec![Expr::gen("c", Expr::var("Cities"))],
    );
    let query = plan_comprehension(&pure).unwrap();
    assert!(verify_query(&query).is_ok());
    // An unnest that rebinds the scan's `c`.
    let plan = Plan::Unnest {
        input: Box::new(query.plan().clone()),
        var: "c".into(),
        path: Expr::var("c").proj("hotels"),
    };
    let query = Query::new(plan, query.monoid().clone(), query.head().clone()).unwrap();
    let err = verify_query(&query).unwrap_err();
    assert_eq!(err.stage.as_str(), "plan/binders");
    assert!(err.to_string().contains("plan/binders"), "{err}");
}

// -------------------------------------------------------------------------
// JSON quoting edge cases: analyzer and profiler output must escape
// quotes, backslashes, and newlines through the shared json module.
// -------------------------------------------------------------------------

#[test]
fn analysis_report_json_escapes_hostile_strings() {
    let report = AnalysisReport {
        effects: EffectSummary::of(&Expr::int(1)),
        diagnostics: vec![Diagnostic {
            code: Code::ConstantPredicate,
            severity: Severity::Warning,
            span: None,
            message: "has \"quotes\" and \\slashes\\".to_string(),
            note: Some("line one\nline two\ttabbed".to_string()),
        }],
    };
    let rendered = report.to_json().render();
    assert!(rendered.contains(r#"has \"quotes\" and \\slashes\\"#), "{rendered}");
    assert!(rendered.contains(r"line one\nline two\ttabbed"), "{rendered}");
    assert!(!rendered.contains('\n'), "raw newline leaked into JSON: {rendered}");
}

#[test]
fn profile_json_escapes_string_literals_in_heads() {
    use monoid_db::store::TravelScale;
    let db = travel::generate(TravelScale::tiny(), 5);
    // The head contains a string literal with a quote and a backslash;
    // the profile serializes the pretty-printed head, which must escape.
    let src = r#"select 'quote " and \ slash' from h in Hotels"#;
    let analysis = monoid_db::explain_analyze(src, &db).unwrap();
    let rendered = analysis.profile.to_json().render();
    assert!(!rendered.contains('\n'), "raw newline leaked into JSON");
    // Every `"` inside the rendered JSON string values must be escaped:
    // strip legal escapes, then no bare quote may remain between the
    // structural ones. A cheap proxy: the rendered text must still split
    // into an even number of unescaped quotes.
    let unescaped_quotes = rendered
        .as_bytes()
        .iter()
        .enumerate()
        .filter(|(i, b)| **b == b'"' && (*i == 0 || rendered.as_bytes()[i - 1] != b'\\'))
        .count();
    assert_eq!(unescaped_quotes % 2, 0, "unbalanced quoting: {rendered}");
}
