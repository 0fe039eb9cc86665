//! Differential battery for the fused engine: for every monoid the
//! paper's Table 1 defines (minus the lifted `VecOf`, which the
//! accumulator rejects), the fused fold, the plan-walk interpreter, and
//! the parallel driver at several thread counts must produce
//! byte-identical values — same elements, same order, same OIDs. The
//! battery also pins the fallback boundary: shapes the fused compiler
//! declines (hash joins, allocating heads) and sources under the
//! parallel row floor still agree with the plan walk.

use monoid_algebra::{
    engine_of, execute, execute_parallel_bound, execute_plan_walk_bound, plan_comprehension, Query,
};
use monoid_calculus::expr::Expr;
use monoid_calculus::monoid::Monoid;
use monoid_store::travel::{self, TravelScale};
use monoid_store::Database;

const THREADS: &[usize] = &[1, 2, 3, 8];

/// A canonical scan → unnest → filter chain over the travel store:
/// `⊕{ head | h ← Hotels, r ← h.rooms, r.bed# ≥ 1 }`.
fn rooms_chain(monoid: Monoid, head: Expr) -> Query {
    plan_comprehension(&Expr::comp(
        monoid,
        head,
        vec![
            Expr::gen("h", Expr::var("Hotels")),
            Expr::gen("r", Expr::var("h").proj("rooms")),
            Expr::pred(Expr::var("r").proj("bed#").ge(Expr::int(1))),
        ],
    ))
    .unwrap()
}

/// Assert the three engines agree byte-for-byte on `plan`, across every
/// thread count in the ladder.
fn assert_engines_agree(label: &str, plan: &Query, db: &mut Database) {
    let reference = execute_plan_walk_bound(plan, db, &[]).unwrap();
    let fused = execute(plan, db).unwrap();
    assert_eq!(reference, fused, "{label}: fused ≠ plan walk");
    for &threads in THREADS {
        let par = execute_parallel_bound(plan, db, threads, &[]).unwrap().0;
        assert_eq!(reference, par, "{label}: parallel({threads}) ≠ plan walk");
    }
}

/// Every monoid the fused engine claims: the chain must classify as
/// fused and agree with the plan walk and the parallel driver.
#[test]
fn all_monoids_agree_across_engines() {
    let mut db = travel::generate(TravelScale::small(), 13);
    let bed = Expr::var("r").proj("bed#");
    let cases: Vec<(&str, Query)> = vec![
        ("list", rooms_chain(Monoid::List, bed.clone())),
        ("bag", rooms_chain(Monoid::Bag, bed.clone())),
        ("set", rooms_chain(Monoid::Set, bed.clone())),
        ("oset", rooms_chain(Monoid::OSet, bed.clone())),
        ("sorted", rooms_chain(Monoid::Sorted, bed.clone())),
        ("sorted-bag", rooms_chain(Monoid::SortedBag, bed.clone())),
        ("sum", rooms_chain(Monoid::Sum, bed.clone())),
        // The product stays in range because every factor is 1; the
        // point is the cross-partition merge, not the arithmetic.
        ("prod", rooms_chain(Monoid::Prod, Expr::int(1))),
        ("max", rooms_chain(Monoid::Max, bed.clone())),
        ("min", rooms_chain(Monoid::Min, bed.clone())),
        // Predicates that never (resp. always) hold, so both booleans
        // fold over the whole extent without short-circuiting.
        ("some", rooms_chain(Monoid::Some, bed.clone().gt(Expr::int(100)))),
        ("all", rooms_chain(Monoid::All, bed.ge(Expr::int(0)))),
        // Str concatenation is order-sensitive: the ordered partition
        // merge is what keeps the parallel result byte-identical.
        (
            "str",
            plan_comprehension(&Expr::comp(
                Monoid::Str,
                Expr::var("h").proj("name"),
                vec![Expr::gen("h", Expr::var("Hotels"))],
            ))
            .unwrap(),
        ),
    ];
    assert_eq!(cases.len(), 13, "one case per non-lifted monoid");
    for (label, plan) in &cases {
        assert_eq!(
            engine_of(plan).as_str(),
            "fused",
            "{label}: chain should classify as fused"
        );
        assert_engines_agree(label, plan, &mut db);
    }
}

/// `some`/`all` with early verdicts: the fused fold and the parallel
/// workers short-circuit (absorbing element reached), and the value must
/// still match the exhaustive plan walk.
#[test]
fn boolean_short_circuits_agree_across_engines() {
    let mut db = travel::generate(TravelScale::small(), 13);
    let bed = Expr::var("r").proj("bed#");
    // Almost every room satisfies `bed# ≥ 1`, so `some` absorbs on the
    // first row and `all` of `bed# > 2` absorbs on the first small room.
    let some = rooms_chain(Monoid::Some, bed.clone().ge(Expr::int(1)));
    let all = rooms_chain(Monoid::All, bed.gt(Expr::int(2)));
    assert_engines_agree("some-short-circuit", &some, &mut db);
    assert_engines_agree("all-short-circuit", &all, &mut db);
}

/// Shapes outside the fused subset fall back to the plan walk — and the
/// fallback must agree with it, sequentially and in parallel.
#[test]
fn fallback_shapes_agree_across_engines() {
    let mut db = travel::generate(TravelScale::small(), 13);
    // An equi-join: the planner rewrites it to a hash probe, which the
    // fused compiler declines.
    let join = plan_comprehension(&Expr::comp(
        Monoid::Sum,
        Expr::int(1),
        vec![
            Expr::gen("a", Expr::var("Hotels")),
            Expr::gen("b", Expr::var("Hotels")),
            Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("name"))),
        ],
    ))
    .unwrap();
    assert_eq!(engine_of(&join).as_str(), "plan-walk");
    assert_engines_agree("hash-join", &join, &mut db);

    // A nested comprehension in the head is outside the compiled
    // expression subset (it allocates its own accumulator per row).
    let mut allocating = rooms_chain(Monoid::Sum, Expr::int(0));
    allocating.head = Expr::comp(Monoid::Sum, Expr::int(1), vec![]);
    assert_eq!(engine_of(&allocating).as_str(), "plan-walk");
    assert_engines_agree("allocating-head", &allocating, &mut db);
}

/// Sources under `2 × min_rows_per_worker()` make the parallel driver
/// fall back; the fallback itself runs the fused fold, and the value is
/// unchanged at every thread count.
#[test]
fn too_few_rows_boundary_agrees_across_engines() {
    let mut db = travel::generate(TravelScale::tiny(), 13);
    let chain = plan_comprehension(&Expr::comp(
        Monoid::Sum,
        Expr::var("c").proj("hotel#"),
        vec![Expr::gen("c", Expr::var("Cities"))],
    ))
    .unwrap();
    assert_eq!(engine_of(&chain).as_str(), "fused");
    assert_engines_agree("too-few-rows", &chain, &mut db);
}
