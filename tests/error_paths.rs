//! Failure injection: every user-facing error path produces a specific,
//! actionable error — no panics, no silent wrong answers. (The paper's
//! effectiveness argument leans on *compile-time* rejection of
//! inconsistent programs; these tests pin down what rejection looks like.)

use monoid_db::calculus::error::{EvalError, TypeError};
use monoid_db::calculus::eval::eval_closed;
use monoid_db::calculus::expr::{Expr, UnOp};
use monoid_db::calculus::monoid::Monoid;
use monoid_db::calculus::typecheck::infer;
use monoid_db::oql;
use monoid_db::store::travel::{self, TravelScale};

// ---------- type errors ----------

#[test]
fn unbound_variable() {
    let err = infer(&Expr::var("nowhere")).unwrap_err();
    assert!(matches!(err, TypeError::UnboundVariable(_)));
    assert!(err.to_string().contains("nowhere"));
}

#[test]
fn illegal_homomorphism_names_both_monoids() {
    let e = Expr::comp(
        Monoid::Bag,
        Expr::var("x"),
        vec![Expr::gen("x", Expr::set_of(vec![Expr::int(1)]))],
    );
    let err = infer(&e).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("set") && msg.contains("bag"), "{msg}");
    assert!(msg.contains("§2.3"), "cites the paper: {msg}");
}

#[test]
fn generator_over_scalar() {
    let e = Expr::comp(
        Monoid::Sum,
        Expr::var("x"),
        vec![Expr::gen("x", Expr::int(5))],
    );
    assert!(matches!(infer(&e), Err(TypeError::NotACollection { .. })));
}

#[test]
fn missing_field_names_the_field() {
    let e = Expr::record(vec![("a", Expr::int(1))]).proj("b");
    let err = infer(&e).unwrap_err();
    assert!(matches!(err, TypeError::NoSuchField { .. }));
    assert!(err.to_string().contains('b'));
}

#[test]
fn occurs_check_rejects_infinite_types() {
    // λx. x x forces τ = τ → r.
    let e = Expr::lambda("x", Expr::var("x").apply(Expr::var("x")));
    assert!(matches!(infer(&e), Err(TypeError::InfiniteType)));
}

#[test]
fn branch_mismatch() {
    let e = Expr::if_(Expr::bool(true), Expr::int(1), Expr::str("s"));
    assert!(matches!(infer(&e), Err(TypeError::Mismatch { .. })));
}

#[test]
fn non_boolean_predicate() {
    let e = Expr::comp(
        Monoid::Set,
        Expr::var("x"),
        vec![Expr::gen("x", Expr::list_of(vec![Expr::int(1)])), Expr::pred(Expr::int(7))],
    );
    assert!(infer(&e).is_err());
}

// ---------- evaluation errors ----------

#[test]
fn division_and_modulo_by_zero() {
    assert!(matches!(
        eval_closed(&Expr::int(1).div(Expr::int(0))),
        Err(EvalError::Arithmetic(_))
    ));
    assert!(matches!(
        eval_closed(&Expr::binop(
            monoid_db::calculus::expr::BinOp::Mod,
            Expr::int(1),
            Expr::int(0)
        )),
        Err(EvalError::Arithmetic(_))
    ));
}

#[test]
fn integer_overflow_is_detected() {
    let e = Expr::int(i64::MAX).add(Expr::int(1));
    assert!(matches!(eval_closed(&e), Err(EvalError::Arithmetic(_))));
    let e = Expr::int(i64::MIN).mul(Expr::int(-1));
    assert!(matches!(eval_closed(&e), Err(EvalError::Arithmetic(_))));
}

#[test]
fn vector_index_out_of_bounds() {
    let e = Expr::VecLit(vec![Expr::int(1)]).vec_index(Expr::int(5));
    assert!(matches!(
        eval_closed(&e),
        Err(EvalError::IndexOutOfBounds { index: 5, len: 1 })
    ));
    let e = Expr::VecLit(vec![Expr::int(1)]).vec_index(Expr::int(-1));
    assert!(matches!(eval_closed(&e), Err(EvalError::IndexOutOfBounds { .. })));
}

#[test]
fn element_cardinality_is_reported() {
    let e = Expr::UnOp(UnOp::Element, Box::new(Expr::set_of(vec![])));
    assert!(matches!(eval_closed(&e), Err(EvalError::ElementCardinality(0))));
}

#[test]
fn deref_of_non_object() {
    let e = Expr::int(3).deref();
    assert!(matches!(eval_closed(&e), Err(EvalError::TypeMismatch { op: "deref", .. })));
}

#[test]
fn assign_to_non_object() {
    let e = Expr::int(3).assign(Expr::int(4));
    assert!(matches!(eval_closed(&e), Err(EvalError::TypeMismatch { op: "assign", .. })));
}

#[test]
fn apply_non_function() {
    let e = Expr::int(3).apply(Expr::int(4));
    assert!(matches!(eval_closed(&e), Err(EvalError::TypeMismatch { op: "apply", .. })));
}

// ---------- OQL errors ----------

#[test]
fn parse_errors_have_positions() {
    let err = oql::parse_query("select\nfrom x").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parse error at 2:1"), "{msg}");
}

#[test]
fn lex_errors_have_positions() {
    let err = oql::parse_query("select ` from x").unwrap_err();
    assert!(err.to_string().contains("lex error"), "{err}");
}

#[test]
fn unknown_extent_is_a_type_error() {
    let db = travel::generate(TravelScale::tiny(), 1);
    let err = oql::compile(db.schema(), "select x.name from x in Nowhere").unwrap_err();
    assert!(err.to_string().contains("Nowhere"), "{err}");
}

#[test]
fn non_collection_from_clause() {
    let db = travel::generate(TravelScale::tiny(), 1);
    let err = oql::compile(db.schema(), "select x from x in 3").unwrap_err();
    assert!(err.to_string().contains("not a collection"), "{err}");
}

#[test]
fn bad_field_in_query() {
    let db = travel::generate(TravelScale::tiny(), 1);
    let err = oql::compile(db.schema(), "select c.nam from c in Cities").unwrap_err();
    assert!(err.to_string().contains("nam"), "{err}");
}

#[test]
fn mixed_direction_nonnumeric_desc_is_explained() {
    let db = travel::generate(TravelScale::tiny(), 1);
    let err = oql::compile(
        db.schema(),
        "select struct(a: c.name, b: c.hotel#) from c in Cities \
         order by c.name desc, c.hotel# asc",
    )
    .unwrap_err();
    assert!(err.to_string().contains("desc"), "{err}");
}

#[test]
fn deep_nesting_is_a_clean_error() {
    let src = format!("{}1{}", "(".repeat(64), ")".repeat(64));
    let err = oql::parse_query(&src).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

// ---------- algebra errors ----------

#[test]
fn planning_impure_queries_is_refused() {
    use monoid_db::algebra;
    let e = Expr::comp(
        Monoid::Sum,
        Expr::var("x").deref(),
        vec![Expr::gen("x", Expr::new_obj(Expr::int(1)))],
    );
    assert!(matches!(
        algebra::plan_comprehension(&e),
        Err(algebra::PlanError::Impure)
    ));
}

#[test]
fn runtime_errors_propagate_through_pipelines() {
    use monoid_db::algebra;
    let db = travel::generate(TravelScale::tiny(), 1);
    // Division by zero inside the head.
    let e = Expr::comp(
        Monoid::Sum,
        Expr::int(1).div(Expr::var("c").proj("hotel#").sub(Expr::var("c").proj("hotel#"))),
        vec![Expr::gen("c", Expr::var("Cities"))],
    );
    let plan = algebra::plan_comprehension(&e).unwrap();
    assert!(matches!(
        algebra::execute(&plan, &db),
        Err(EvalError::Arithmetic(_))
    ));
}

/// A join's build side runs before the first left row, outer join first,
/// rows before keys — on both engines, so whichever error the plan walk
/// reports first is the one the fused fold reports.
#[test]
fn join_errors_are_the_plan_walks_first_error_on_both_engines() {
    use monoid_db::algebra::{self, Plan};
    use monoid_db::calculus::value::Value;
    let mut db = travel::generate(TravelScale::tiny(), 1);
    db.set_root("NoCities", Value::list(Vec::new()));
    let both = |plan: &algebra::Query, db: &monoid_db::store::Database| {
        let walk = algebra::execute_plan_walk_bound(plan, db, &[]);
        assert_eq!(walk, algebra::execute(plan, db), "fused ≠ plan walk");
        walk.unwrap_err()
    };
    let join = |left: &str, right: &str, right_key: &str| {
        vec![
            Expr::gen("c", Expr::var(left)),
            Expr::gen("h", Expr::var(right)),
            Expr::pred(Expr::var("c").proj("name").eq(Expr::var("h").proj(right_key))),
        ]
    };
    let count = |quals| algebra::plan_comprehension(&Expr::comp(Monoid::Sum, Expr::int(1), quals));

    // The right key projects a field no hotel has while the left extent is
    // empty: no row is ever probed, the build side fails all the same.
    let err = both(&count(join("NoCities", "Hotels", "nope")).unwrap(), &db);
    assert!(matches!(err, EvalError::TypeMismatch { .. }), "{err}");
    assert!(err.to_string().contains("nope"), "{err}");

    // Two unbound right extents: the outer join (the last generator) is
    // built first.
    let mut quals = join("Cities", "MissingInner", "name");
    quals.push(Expr::gen("t", Expr::var("MissingOuter")));
    let err = both(&count(quals).unwrap(), &db);
    assert_eq!(err.to_string(), EvalError::UnboundVariable("MissingOuter".into()).to_string());

    // Every build row is produced before any is keyed: a filter failing on
    // the second row beats a key failing on the first.
    let named = |n: &str| Value::record_from(vec![("name", Value::str(n))]);
    db.set_root("Pair", Value::list(vec![named("first"), named("second")]));
    let planned = count(join("Cities", "Pair", "nope")).unwrap();
    let mut edited = planned.plan().clone();
    let Plan::Join { right, .. } = &mut edited else { panic!("{edited:?}") };
    let name = || Expr::var("h").proj("name");
    let pred = Expr::if_(name().eq(Expr::str("first")), Expr::bool(true), name());
    **right = Plan::Filter { input: right.clone(), pred };
    let plan =
        algebra::Query::new(edited, planned.monoid().clone(), planned.head().clone()).unwrap();
    let err = both(&plan, &db);
    assert!(err.to_string().contains("expected bool"), "{err}");
}
