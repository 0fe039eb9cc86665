//! The full optimization pipeline, end to end, against the travel
//! database: OQL → calculus → normalize → cost-based reorder → plan →
//! index rewrite → pipelined execution — every stage must agree
//! with direct evaluation of the original query.

use monoid_algebra::{
    apply_indexes, execute, execute_counted_bound, plan_comprehension, reorder_generators,
    IndexCatalog, PlanError, Stats,
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
    let mut catalog = IndexCatalog::new();
    catalog.build(db, "Cities", "name").unwrap();
    catalog.build(db, "Hotels", "name").unwrap();
    let (indexed, _) = apply_indexes(&plan, &catalog, db);
    for (label, p) in [("plain", &plan), ("indexed", &indexed)] {
        let got = execute(p, db).unwrap();
        assert_eq!(direct, got, "{label} plan changed `{src}`");
    }
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

/// The indexed plan must do measurably less work on the selective query.
#[test]
fn index_reduces_step_count() {
    let db = travel::generate(TravelScale::with_hotels(800), 13);
    let q = compile(
        db.schema(),
        "select h.name from c in Cities, h in c.hotels where c.name = 'Portland'",
    )
    .unwrap();
    let plan = plan_comprehension(&normalize(&q)).unwrap();
    let mut catalog = IndexCatalog::new();
    catalog.build(&db, "Cities", "name").unwrap();
    let (indexed, hits) = apply_indexes(&plan, &catalog, &db);
    assert_eq!(hits, 1);
    let (v1, scan_steps) = execute_counted_bound(&plan, &db, &[]).unwrap();
    let (v2, index_steps) = execute_counted_bound(&indexed, &db, &[]).unwrap();
    assert_eq!(v1, v2);
    assert!(
        index_steps * 10 < scan_steps,
        "index {index_steps} vs scan {scan_steps}"
    );
}

/// Reordering turns the written-order cross product into a plan whose
/// selective side leads, with measurably fewer evaluation steps.
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
    let (v1, s1) = execute_counted_bound(&written, &db, &[]).unwrap();
    let (v2, s2) = execute_counted_bound(&reordered, &db, &[]).unwrap();
    assert_eq!(v1, v2);
    assert!(s2 * 2 < s1, "reordered {s2} vs written {s1}");
}
