//! Differential battery for the fused engine: for every monoid the
//! paper's Table 1 defines (minus the lifted `VecOf`, which the
//! accumulator rejects), the fused fold and the plan-walk interpreter
//! must produce byte-identical values — same elements, same order, same
//! OIDs. The battery also pins the fallback boundary: shapes the fused
//! compiler declines (hash joins, allocating heads) still agree with the
//! plan walk.

use monoid_algebra::{engine_of, execute, execute_plan_walk_bound, plan_comprehension, Query};
use monoid_calculus::expr::Expr;
use monoid_calculus::monoid::Monoid;
use monoid_store::travel::{self, TravelScale};
use monoid_store::Database;

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

/// Assert the default engine agrees byte-for-byte with the plan walk.
fn assert_engines_agree(label: &str, plan: &Query, db: &mut Database) {
    let reference = execute_plan_walk_bound(plan, db, &[]).unwrap();
    let fused = execute(plan, db).unwrap();
    assert_eq!(reference, fused, "{label}: fused ≠ plan walk");
}

/// Every monoid the fused engine claims: the chain must classify as
/// fused and agree with the plan walk.
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
        // The product stays in range because every factor is 1.
        ("prod", rooms_chain(Monoid::Prod, Expr::int(1))),
        ("max", rooms_chain(Monoid::Max, bed.clone())),
        ("min", rooms_chain(Monoid::Min, bed.clone())),
        // Predicates that never (resp. always) hold, so both booleans
        // fold over the whole extent without short-circuiting.
        ("some", rooms_chain(Monoid::Some, bed.clone().gt(Expr::int(100)))),
        ("all", rooms_chain(Monoid::All, bed.ge(Expr::int(0)))),
        // Str concatenation is order-sensitive.
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

/// `some`/`all` with early verdicts: the fused fold short-circuits
/// (absorbing element reached), and the value must still match the plan
/// walk.
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
/// fallback must agree with it.
#[test]
fn fallback_shapes_agree_across_engines() {
    let mut db = travel::generate(TravelScale::small(), 13);
    // An equi-join: the planner makes it a hash join, which the fused
    // compiler declines.
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
