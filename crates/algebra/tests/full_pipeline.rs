//! The full optimization pipeline, end to end, against the travel
//! database: OQL → calculus → normalize → cost-based reorder → plan →
//! execution on both engines — every stage must agree with direct
//! evaluation of the original query.

use monoid_algebra::{
    execute, execute_plan_walk_bound, execute_profiled_bound, plan_comprehension,
    reorder_generators, PlanError, QueryProfile, Stats,
};
use monoid_calculus::normalize::normalize;
use monoid_calculus::value::Value;
use monoid_oql::compile;
use monoid_store::travel::{self, TravelScale};
use monoid_store::Database;

const BATTERY: &[&str] = &[
    "select h.name from c in Cities, h in c.hotels where c.name = 'Portland'",
    "select h.name from c in Cities, h in c.hotels, r in h.rooms \
     where c.name = 'Portland' and r.bed# = 3",
    "select distinct r.bed# from h in Hotels, r in h.rooms",
    "select e.name from h in Hotels, e in h.employees where e.salary > 50000",
    "select distinct cl.name from cl in Clients \
     where exists c in Cities: c.name in cl.preferred",
    "select cl.name from cl in Clients, c in Cities \
     where cl.age > c.hotel# and c.name = 'Portland'",
];

fn full_pipeline(db: &mut Database, src: &str) -> Option<Value> {
    let q = compile(db.schema(), src).unwrap_or_else(|e| panic!("compile `{src}`: {e}"));
    let direct = db.query(&q).unwrap();
    let n = normalize(&q);
    let stats = Stats::gather(db);
    let reordered = reorder_generators(&n, &stats);
    assert_eq!(
        direct,
        db.query(&reordered).unwrap(),
        "reordering changed `{src}`"
    );
    let plan = match plan_comprehension(&reordered) {
        Ok(p) => p,
        Err(PlanError::NotAComprehension | PlanError::Unsupported(_)) => return None,
        Err(other) => panic!("planning `{src}`: {other}"),
    };
    // `execute` runs the fused fold wherever the plan compiles; the walk
    // is the reference interpreter.
    assert_eq!(direct, execute(&plan, db).unwrap(), "execute changed `{src}`");
    let walked = execute_plan_walk_bound(&plan, db, &[]).unwrap();
    assert_eq!(direct, walked, "the plan walk changed `{src}`");
    Some(direct)
}

#[test]
fn battery_through_the_full_pipeline() {
    let mut db = travel::generate(TravelScale::small(), 13);
    for src in BATTERY {
        full_pipeline(&mut db, src);
    }
}

#[test]
fn battery_at_scale() {
    let mut db = travel::generate(TravelScale::with_hotels(400), 13);
    for src in BATTERY {
        full_pipeline(&mut db, src);
    }
}

/// Reordering turns the written-order cross product into a plan whose
/// selective side leads, and whose operators push measurably fewer rows.
#[test]
fn reordering_reduces_step_count() {
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    let db = travel::generate(TravelScale::with_hotels(400), 13);
    let stats = Stats::gather(&db);
    let q = Expr::comp(
        Monoid::Sum,
        Expr::int(1),
        vec![
            Expr::gen("e", Expr::var("Employees")),
            Expr::gen("c", Expr::var("Cities")),
            Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
            Expr::pred(Expr::var("e").proj("salary").gt(Expr::var("c").proj("hotel#"))),
        ],
    );
    let written = plan_comprehension(&q).unwrap();
    let reordered = plan_comprehension(&reorder_generators(&q, &stats)).unwrap();
    let written = execute_profiled_bound(&written, &[], &db, &[]).unwrap();
    let reordered = execute_profiled_bound(&reordered, &[], &db, &[]).unwrap();
    let rows = |p: &QueryProfile| p.operators.iter().map(|o| o.actual_rows).sum::<u64>();
    let (r1, r2) = (rows(&written.profile), rows(&reordered.profile));
    assert_eq!(written.value, reordered.value);
    assert!(r2 * 2 < r1, "reordered {r2} vs written {r1}");
}
