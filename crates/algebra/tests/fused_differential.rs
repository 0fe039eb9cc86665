//! Differential battery for the fused engine: for every monoid the
//! paper's Table 1 defines (minus the lifted `VecOf`, which the
//! accumulator rejects), the fused fold and the plan-walk interpreter
//! must produce byte-identical values — same elements, same order, same
//! OIDs. Joins get the same treatment across every shape the fold claims
//! (keyed, composite, cross, nested, empty sides, `Null` and int-vs-float
//! keys), with the evaluator as the third witness. Forms outside the
//! compiled expression subset — nested comprehensions, lambdas, `let` —
//! are evaluated in place by the walk's evaluator; the `evaluated_*` tests
//! pin them wherever they stand in a plan.
//!
//! The walk builds every join table per execution, so it is also the fresh
//! side of a memo check: every join case runs fused twice on one snapshot —
//! a cold build, then a probe of the table the snapshot's memo kept — and
//! the `memo_*` tests pin what may be kept and when it must be forgotten.
//! The `keyed_probe_*` tests do the same for a filter `x.f = e` over a
//! scan, which the fold runs as a join against the extent's table.
//! The `fused_kernel_*` tests pin the compiled compares and operand heads
//! — every operator, operand position and value kind, objects, and rows
//! whose operands do not fit — errors included, as text. The
//! `multiplicity_*` tests pin the heads folded once per bucket, `n`-fold
//! (a head that reads none of the trailing generator's variables), over
//! joins, unnests, bare scans and keyed probes. Every battery also runs
//! the profiler's counted fold (cold, no memo) and holds it to the walk's
//! answer; the `profiled_*` tests pin what it counts.

use monoid_algebra::error::ExecResult;
use monoid_algebra::{
    engine_of, execute, execute_plan_walk_bound, execute_profiled_bound, execute_snapshot_bound,
    plan_comprehension, reorder_generators, Plan, Query, Stats,
};
use monoid_calculus::expr::{Expr, Qual};
use monoid_calculus::monoid::Monoid;
use monoid_calculus::normalize::normalize;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::types::Schema;
use monoid_calculus::value::Value;
use monoid_store::company;
use monoid_store::travel::{self, TravelScale};
use monoid_store::{Database, Snapshot};

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

/// `q` planned again, over its plan as `edit` leaves it.
fn replanned(q: &Query, edit: impl FnOnce(&mut Plan)) -> Query {
    let mut plan = q.plan().clone();
    edit(&mut plan);
    Query::new(plan, q.monoid().clone(), q.head().clone()).unwrap()
}

/// Assert the default engine agrees byte-for-byte with the plan walk.
fn assert_engines_agree(label: &str, plan: &Query, db: &mut Database) {
    let reference = execute_plan_walk_bound(plan, db, &[]).unwrap();
    let fused = execute(plan, db).unwrap();
    assert_eq!(reference, fused, "{label}: fused ≠ plan walk");
    assert_profiled_agrees(label, plan, db, &[], &Ok(reference));
}

/// The profiler's run — the fold, counted and cold — gives what the walk
/// gave: value or error, compared whole and as text.
fn assert_profiled_agrees(
    label: &str,
    plan: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
    walk: &ExecResult<Value>,
) {
    let profiled = execute_profiled_bound(plan, &[], snap, params).map(|a| a.value);
    assert_eq!(&profiled, walk, "{label} (profiled): counted fold ≠ walk");
    if let (Err(w), Err(p)) = (walk, &profiled) {
        assert_eq!(w.to_string(), p.to_string(), "{label} (profiled): error text");
    }
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

// -------------------------------------------------------------------------
// Joins: fused ≡ plan walk ≡ evaluator, for every monoid, on every shape.
// -------------------------------------------------------------------------

/// Two small list extents with repeated, missing, `Null`, float and
/// mixed-kind keys, a third for three-way joins, and an empty one.
fn join_store() -> Database {
    let rec = |fields: Vec<(&str, Value)>| Value::record_from(fields);
    let ints = |xs: &[i64]| Value::list(xs.iter().map(|x| Value::Int(*x)).collect());
    let l = |id: i64, k: Value, s: &str, x: f64| {
        rec(vec![("id", Value::Int(id)), ("k", k), ("s", Value::str(s)), ("x", Value::Float(x))])
    };
    let r = |id: i64, k: Value, s: &str, f: f64, kids: &[i64]| {
        rec(vec![
            ("id", Value::Int(id)),
            ("k", k),
            ("s", Value::str(s)),
            ("f", Value::Float(f)),
            ("kids", ints(kids)),
        ])
    };
    let int = Value::Int;
    let mut db = Database::new(Schema::new());
    db.set_root(
        "L",
        Value::list(vec![
            l(1, int(1), "a", 0.5),
            l(2, int(2), "b", 1.5),
            l(3, int(1), "a", 2.25),
            l(4, int(3), "c", 0.1), // no partner in R
            l(5, Value::Null, "n", 1e-9),
        ]),
    );
    db.set_root(
        "R",
        Value::list(vec![
            r(1, int(1), "a", 1.0, &[1, 2]),
            r(2, int(2), "x", 2.0, &[]),
            r(3, int(1), "b", 1.0, &[3]),
            r(4, int(1), "a", 3.5, &[4, 5, 6]),
            r(5, int(4), "n", 0.25, &[7]), // no partner in L
            r(6, int(2), "b", 2.0, &[8]),
        ]),
    );
    // `k` mixes null, int and float on the build side.
    db.set_root(
        "M",
        Value::list(vec![
            r(1, Value::Null, "a", 0.0, &[]),
            r(2, int(1), "a", 0.0, &[]),
            r(3, Value::Float(1.0), "b", 0.0, &[]),
            r(4, Value::Null, "n", 0.0, &[]),
            r(5, Value::Float(2.5), "b", 0.0, &[]),
        ]),
    );
    db.set_root(
        "T",
        Value::list(vec![
            rec(vec![("id", int(1)), ("s", Value::str("a"))]),
            rec(vec![("id", int(2)), ("s", Value::str("b"))]),
            rec(vec![("id", int(3)), ("s", Value::str("a"))]),
        ]),
    );
    db.set_root("Empty", Value::list(Vec::new()));
    db
}

/// One head per non-lifted monoid, built from an int-valued pair `(a, b)`
/// and a string-valued pair `(s, t)` over the joined row. The collection
/// and `str` heads are order-revealing, `sum` is a float sum (not
/// associative), and `some`/`all` reach their absorbing element at the
/// pair `a·10 + b = 14`.
fn heads(a: Expr, b: Expr, s: Expr, t: Expr, x: Expr) -> Vec<(Monoid, Expr)> {
    let code = || a.clone().mul(Expr::int(10)).add(b.clone());
    let pair = || Expr::Tuple(vec![a.clone(), b.clone()]);
    vec![
        (Monoid::List, pair()),
        (Monoid::Bag, pair()),
        (Monoid::Set, pair()),
        (Monoid::OSet, b.clone()),
        (Monoid::Sorted, pair()),
        (Monoid::SortedBag, b.clone()),
        (Monoid::Sum, x.mul(Expr::float(1.1)).add(Expr::float(0.1))),
        (Monoid::Prod, Expr::if_(a.clone().eq(b.clone()), Expr::int(3), Expr::int(2))),
        (Monoid::Max, code()),
        (Monoid::Min, code()),
        (Monoid::Some, code().eq(Expr::int(14))),
        (Monoid::All, code().ne(Expr::int(14))),
        (Monoid::Str, s.add(t)),
    ]
}

/// The usual heads over generators `l` and `r`.
fn lr_heads() -> Vec<(Monoid, Expr)> {
    let (l, r) = (|| Expr::var("l"), || Expr::var("r"));
    heads(l().proj("id"), r().proj("id"), l().proj("s"), r().proj("s"), l().proj("x"))
}

/// Run `plan` fused twice on a fresh copy of `db`: a cold build, then a
/// probe of whatever the first run left in the snapshot's memo. Both runs
/// must agree, and a run that succeeded must leave nothing to build.
fn fused_twice(label: &str, plan: &Query, db: &Database) -> ExecResult<Value> {
    let snap = db.clone().snapshot();
    let cold = execute(plan, &snap);
    let built = snap.memo().misses();
    assert_eq!(execute(plan, &snap), cold, "{label}: memo hit ≠ cold build");
    if cold.is_ok() {
        assert_eq!(snap.memo().misses(), built, "{label}: the second run built a table");
    }
    cold
}

/// Both engines and the evaluator on one planned comprehension; errors
/// must agree too (under `MONOID_VERIFY` a plan may be refused outright).
fn assert_three_way(label: &str, comp: &Expr, plan: &Query, db: &mut Database) {
    assert_eq!(engine_of(plan).as_str(), "fused", "{label}: should classify as fused");
    let walk = execute_plan_walk_bound(plan, db, &[]);
    let fused = fused_twice(label, plan, db);
    assert_eq!(walk, fused, "{label}: fused ≠ plan walk");
    assert_profiled_agrees(label, plan, db, &[], &walk);
    if let Ok(v) = &walk {
        assert_eq!(v, &db.query(comp).unwrap(), "{label}: plan walk ≠ evaluator");
    }
}

/// `⊕{ head | quals }` for all 13 `(⊕, head)` pairs.
fn assert_shape(label: &str, quals: Vec<Qual>, heads: Vec<(Monoid, Expr)>, db: &mut Database) {
    assert_eq!(heads.len(), 13, "one case per non-lifted monoid");
    for (monoid, head) in heads {
        let label = format!("{label}/{monoid}");
        let comp = Expr::comp(monoid, head, quals.clone());
        let plan = plan_comprehension(&comp).unwrap();
        assert!(matches!(find_join(plan.plan()), Some(Plan::Join { .. })), "{label}: no join");
        assert_three_way(&label, &comp, &plan, db);
    }
}

fn find_join(plan: &Plan) -> Option<&Plan> {
    match plan {
        Plan::Join { .. } => Some(plan),
        Plan::Filter { input, .. } | Plan::Bind { input, .. } | Plan::Unnest { input, .. } => {
            find_join(input)
        }
        Plan::Scan { .. } => None,
    }
}

fn gens(left: &str, right: &str) -> Vec<Qual> {
    vec![Expr::gen("l", Expr::var(left)), Expr::gen("r", Expr::var(right))]
}

fn on(lk: &str, rk: &str) -> Qual {
    Expr::pred(Expr::var("l").proj(lk).eq(Expr::var("r").proj(rk)))
}

#[test]
fn keyed_composite_and_cross_joins_agree_for_every_monoid() {
    let mut db = join_store();
    let with = |mut quals: Vec<Qual>, preds: Vec<Qual>| {
        quals.extend(preds);
        quals
    };
    // Int keys (typed bucket), string keys, and both at once.
    assert_shape("keyed-int", with(gens("L", "R"), vec![on("k", "k")]), lr_heads(), &mut db);
    assert_shape("keyed-str", with(gens("L", "R"), vec![on("s", "s")]), lr_heads(), &mut db);
    assert_shape(
        "two-key",
        with(gens("L", "R"), vec![on("k", "k"), on("s", "s")]),
        lr_heads(),
        &mut db,
    );
    assert_shape("cross", gens("L", "R"), lr_heads(), &mut db);
    // A filter below the join (left side only), one above it over both
    // sides, and one over the right variable alone.
    let l_id = || Expr::var("l").proj("id");
    let r_id = || Expr::var("r").proj("id");
    assert_shape(
        "filters",
        vec![
            Expr::gen("l", Expr::var("L")),
            Expr::pred(l_id().ne(Expr::int(2))),
            Expr::gen("r", Expr::var("R")),
            on("k", "k"),
            Expr::pred(l_id().add(r_id()).gt(Expr::int(2))),
            Expr::pred(r_id().lt(Expr::int(6))),
        ],
        lr_heads(),
        &mut db,
    );
}

#[test]
fn unnest_after_a_join_and_three_way_joins_agree_for_every_monoid() {
    let mut db = join_store();
    let (l, r) = (|| Expr::var("l"), || Expr::var("r"));
    // c ← r.kids ranges over the *right* variable, after the join.
    let mut quals = gens("L", "R");
    quals.extend([on("k", "k"), Expr::gen("c", r().proj("kids"))]);
    let unnest_heads =
        heads(l().proj("id"), Expr::var("c"), l().proj("s"), r().proj("s"), l().proj("x"));
    assert_shape("unnest-right", quals, unnest_heads, &mut db);
    // l ⋈ r ⋈ t: the outer join's left input is itself a join.
    let mut quals = gens("L", "R");
    quals.extend([
        on("k", "k"),
        Expr::gen("t", Expr::var("T")),
        Expr::pred(r().proj("s").eq(Expr::var("t").proj("s"))),
    ]);
    let three_heads = heads(
        l().proj("id"),
        Expr::var("t").proj("id"),
        r().proj("s"),
        Expr::var("t").proj("s"),
        l().proj("x"),
    );
    assert_shape("three-way", quals, three_heads, &mut db);
}

#[test]
fn empty_sides_null_keys_and_int_float_keys_agree_for_every_monoid() {
    let mut db = join_store();
    let keyed = |left: &str, right: &str, lk: &str, rk: &str| {
        let mut quals = gens(left, right);
        quals.push(on(lk, rk));
        quals
    };
    assert_shape("empty-build", keyed("L", "Empty", "k", "k"), lr_heads(), &mut db);
    assert_shape("empty-probe", keyed("Empty", "R", "k", "k"), lr_heads(), &mut db);
    assert_shape("empty-cross", gens("L", "Empty"), lr_heads(), &mut db);
    // `Null = Null` holds in `Value::cmp`, so null keys meet; the build
    // side mixes null, int and float, so `1` and `1.0` share a bucket.
    assert_shape("null-and-mixed-build", keyed("L", "M", "k", "k"), lr_heads(), &mut db);
    // Float build keys probed with ints, and int build keys probed with
    // floats: `1` must meet `1.0` from either side.
    assert_shape("float-build", keyed("L", "R", "k", "f"), lr_heads(), &mut db);
    // T.id is uniformly int — the typed bucket — and R.f probes it.
    let (l, r) = (|| Expr::var("l"), || Expr::var("r"));
    let rt_heads = heads(l().proj("id"), r().proj("id"), l().proj("s"), r().proj("s"), l().proj("f"));
    assert_shape("int-build-float-probe", keyed("R", "T", "f", "id"), rt_heads, &mut db);
    for (label, quals, pairs) in [
        // k ∈ {1, 2, 1} meets f ∈ {1.0, 2.0, 1.0, 2.0}: 2·2 + 1·2 pairs.
        ("float-build", keyed("L", "R", "k", "f"), 6),
        // f ∈ {1.0, 2.0, 1.0, 2.0} meets id ∈ {1, 2}; 3.5 and 0.25 meet nothing.
        ("int-build", keyed("R", "T", "f", "id"), 4),
    ] {
        let count = Expr::comp(Monoid::Sum, Expr::int(1), quals);
        let plan = plan_comprehension(&count).unwrap();
        assert_eq!(execute(&plan, &db).unwrap(), Value::Int(pairs), "{label}");
    }
}

/// `some`/`all` absorb in the middle of a bucket: the pair after the
/// absorbing one has a head that fails to evaluate, so an engine that
/// kept probing would report an error instead of the verdict.
#[test]
fn booleans_absorb_mid_bucket_and_stop_there() {
    let mut db = join_store();
    let row = |id: Value| Value::record_from(vec![("id", id), ("k", Value::Int(1))]);
    db.set_root(
        "Poisoned",
        Value::list(vec![row(Value::Int(1)), row(Value::Int(2)), row(Value::str("boom"))]),
    );
    let mut quals = gens("L", "Poisoned");
    quals.push(on("k", "k"));
    let code = Expr::var("l").proj("id").mul(Expr::int(10)).add(Expr::var("r").proj("id"));
    for (monoid, head, verdict) in [
        (Monoid::Some, code.clone().eq(Expr::int(12)), true),
        (Monoid::All, code.clone().ne(Expr::int(12)), false),
    ] {
        let comp = Expr::comp(monoid.clone(), head, quals.clone());
        let plan = plan_comprehension(&comp).unwrap();
        assert_three_way(&monoid.to_string(), &comp, &plan, &mut db);
        assert_eq!(execute(&plan, &db).unwrap(), Value::Bool(verdict));
    }
    // Without the short circuit both engines reach the poisoned pair, and
    // fail alike.
    let comp = Expr::comp(Monoid::Max, code, quals);
    let plan = plan_comprehension(&comp).unwrap();
    assert!(execute(&plan, &db).is_err());
    assert_three_way("poisoned-max", &comp, &plan, &mut db);
}

/// A right generator reusing the left one's name: the joined row sees the
/// right binding, the left key still sees the left one.
#[test]
fn a_right_variable_shadowing_a_left_one_agrees_across_engines() {
    let mut db = join_store();
    let x = || Expr::var("x");
    let quals = vec![Expr::gen("x", Expr::var("L")), Expr::gen("x", Expr::var("R"))];
    let comp = Expr::comp(Monoid::List, x().proj("f"), quals);
    let plan = plan_comprehension(&comp).unwrap();
    assert_three_way("shadow-cross", &comp, &plan, &mut db);
    let plan = replanned(&plan, |plan| {
        let Plan::Join { on, .. } = plan else { panic!("{plan:?}") };
        on.push((x().proj("k"), x().proj("k")));
    });
    assert_eq!(engine_of(&plan).as_str(), "fused");
    assert_eq!(
        execute_plan_walk_bound(&plan, &db, &[]),
        fused_twice("shadow-keyed", &plan, &db),
        "shadow-keyed"
    );
}

/// Right sides the planner never emits but the plan language allows: a
/// filtered scan, a two-column build (scan + unnest), a bind that shadows
/// its own scan variable, and a join nested in the build side. Also keyed
/// filters whose table fails to build, on a member with no key, so the
/// build side scans through the plain filter — which fails where the walk
/// does, at the first bad operand — and a root read by a compiled
/// predicate or probe, which fails only over a non-empty extent. Each
/// runs under a head that reads the right side and under one that reads
/// only the left, which counts the trailing join's buckets.
#[test]
fn hand_built_right_sides_agree_across_engines() {
    let mut db = join_store();
    let row = |id: i64, s: Option<&str>| {
        let mut fields = vec![("id", Value::Int(id)), ("k", Value::Int(id % 2))];
        fields.extend(s.map(|s| ("s", Value::str(s))));
        Value::record_from(fields)
    };
    db.set_root("Bad", Value::list(vec![row(1, Some("a")), row(2, None), row(3, Some("a"))]));
    let (l, r) = (|| Expr::var("l"), || Expr::var("r"));
    let scan = |var: &str, source: &str| Plan::Scan { var: var.into(), source: Expr::var(source) };
    let filtered =
        |source: &str, pred: Expr| Plan::Filter { input: Box::new(scan("r", source)), pred };
    let by_k = || vec![(l().proj("k"), r().proj("k"))];
    let failing = [
        "keyed_probe-key-fails",
        "keyed_probe-probe-fails-first",
        "root-read-filter/R",
        "root-read-probe/R",
    ];
    let rights = [
        ("keyed_probe-key-fails", filtered("Bad", r().proj("s").eq(Expr::str("a"))), by_k()),
        // The probe fails on the first member, before any key does.
        (
            "keyed_probe-probe-fails-first",
            filtered("Bad", r().proj("s").eq(Expr::int(3).proj("g"))),
            by_k(),
        ),
        ("root-read-filter/R", filtered("R", r().proj("id").gt(Expr::var("Nope"))), by_k()),
        ("root-read-filter/Empty", filtered("Empty", r().proj("id").gt(Expr::var("Nope"))), by_k()),
        ("root-read-probe/R", filtered("R", r().proj("s").eq(Expr::var("Nope"))), by_k()),
        ("root-read-probe/Empty", filtered("Empty", r().proj("s").eq(Expr::var("Nope"))), by_k()),

        (
            "filtered",
            Plan::Filter {
                input: Box::new(scan("r", "R")),
                pred: r().proj("id").gt(Expr::int(1)),
            },
            vec![(l().proj("k"), r().proj("k"))],
        ),
        (
            // A keyed filter: the build side is itself a probe.
            "keyed-filtered",
            Plan::Filter { input: Box::new(scan("r", "R")), pred: r().proj("s").eq(Expr::str("a")) },
            vec![(l().proj("k"), r().proj("k"))],
        ),
        (
            "two-column",
            Plan::Unnest {
                input: Box::new(scan("r", "R")),
                var: "c".into(),
                path: r().proj("kids"),
            },
            vec![(l().proj("id"), Expr::var("c"))],
        ),
        (
            "self-shadowing-bind",
            Plan::Bind { input: Box::new(scan("r", "R")), var: "r".into(), expr: r().proj("id") },
            vec![(l().proj("id"), r())],
        ),
        (
            "nested-join",
            Plan::Join {
                left: Box::new(scan("r", "R")),
                right: Box::new(scan("t", "T")),
                on: vec![(r().proj("s"), Expr::var("t").proj("s"))],
            },
            vec![(l().proj("k"), r().proj("k"))],
        ),
    ];
    for (label, right, on) in rights {
        let right_head = if label == "self-shadowing-bind" { r() } else { r().proj("id") };
        let left_head = l().proj("id").mul(Expr::int(100));
        for (head, counted) in [(left_head.clone().add(right_head), ""), (left_head, "/counted")] {
            for monoid in [Monoid::List, Monoid::Sum, Monoid::Set] {
                let plan = plan_comprehension(&Expr::comp(
                    monoid.clone(),
                    head.clone(),
                    vec![Expr::gen("l", Expr::var("L"))],
                ))
                .unwrap();
                let plan = replanned(&plan, |plan| {
                    let left = Box::new(plan.clone());
                    *plan = Plan::Join { left, right: Box::new(right.clone()), on: on.clone() };
                });
                assert_eq!(engine_of(&plan).as_str(), "fused", "{label}");
                let walk = execute_plan_walk_bound(&plan, &db, &[]);
                let fails = failing.contains(&label);
                let shadowing = label == "self-shadowing-bind";
                assert!(walk.is_err() == fails || shadowing, "{label}: {walk:?}");
                let label = format!("{label}/{monoid}{counted}");
                let fused = fused_twice(&label, &plan, &db);
                assert_eq!(walk, fused, "{label}");
                if let (Err(w), Err(f)) = (&walk, &fused) {
                    assert_eq!(w.to_string(), f.to_string(), "{label}: error text");
                }
                assert_profiled_agrees(&label, &plan, &db, &[], &walk);
            }
        }
    }
}

/// Bag extents of objects (what class extents are): string keys read
/// through the heap, and object identity itself as the key.
#[test]
fn object_extents_join_on_fields_and_on_identity() {
    let mut db = company::generate(4, 6, 3, 5);
    let (m, e) = (|| Expr::var("m"), || Expr::var("e"));
    let dept = Expr::comp(
        Monoid::Bag,
        Expr::Tuple(vec![m().proj("name"), e().proj("name")]),
        vec![
            Expr::gen("m", Expr::var("Managers")),
            Expr::gen("e", Expr::var("CompanyEmployees")),
            Expr::pred(m().proj("dept").eq(e().proj("dept"))),
        ],
    );
    assert_three_way("dept", &dept, &plan_comprehension(&dept).unwrap(), &mut db);
    // e = s: every employee is on the staff exactly once.
    let identity = Expr::comp(
        Monoid::Sum,
        Expr::int(1),
        vec![
            Expr::gen("e", Expr::var("CompanyEmployees")),
            Expr::gen("s", Expr::var("Staff")),
            Expr::pred(e().eq(Expr::var("s"))),
        ],
    );
    let plan = plan_comprehension(&identity).unwrap();
    assert!(plan.plan().uses_hash_join());
    assert_three_way("identity", &identity, &plan, &mut db);
    assert_eq!(execute(&plan, &db).unwrap(), Value::Int(24));
}

/// Shapes outside the compiled expression subset still fuse, the form
/// evaluated in place — and agree with the plan walk.
#[test]
fn fallback_shapes_agree_across_engines() {
    let mut db = travel::generate(TravelScale::small(), 13);
    // An equi-join fuses — also when a key leaves the compiled expression
    // subset: here the right key is a nested comprehension over `b`.
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
    assert_eq!(engine_of(&join).as_str(), "fused");
    assert_engines_agree("hash-join", &join, &mut db);
    let join = replanned(&join, |plan| {
        let Plan::Join { on, .. } = plan else { panic!("{plan:?}") };
        on[0].1 = Expr::comp(
            Monoid::Max,
            Expr::var("b").proj("name"),
            vec![Expr::gen("r", Expr::var("b").proj("rooms"))],
        );
    });
    assert_eq!(engine_of(&join).as_str(), "fused");
    assert_engines_agree("nested-comprehension-key", &join, &mut db);

    // A nested comprehension in the head (it allocates its own
    // accumulator per row).
    let allocating = rooms_chain(Monoid::Sum, Expr::comp(Monoid::Sum, Expr::int(1), vec![]));
    assert_eq!(engine_of(&allocating).as_str(), "fused");
    assert_engines_agree("allocating-head", &allocating, &mut db);
}

/// A bag root with repeated runs (counts > 1), scanned, unnested, and as a
/// join's build side: the fold iterates the runs in place, and each value
/// must come out `count` times in run order, exactly as the walk expands
/// it. (The evaluator refuses a list head over a bag source, so the walk
/// is the only witness here.)
#[test]
fn bags_with_repeated_runs_agree_across_engines() {
    let mut db = join_store();
    let bag = Value::bag_from([3, 1, 3, 2, 3, 1].map(Value::Int).to_vec());
    db.set_root("B", bag.clone());
    db.set_root("H", Value::list(vec![Value::record_from(vec![("kids", bag)])]));
    let (b, l) = (|| Expr::var("b"), || Expr::var("l"));
    let shapes = [
        ("scan", vec![Expr::gen("b", Expr::var("B"))], b()),
        (
            "unnest",
            vec![Expr::gen("h", Expr::var("H")), Expr::gen("b", Expr::var("h").proj("kids"))],
            b(),
        ),
        (
            "join-build",
            vec![
                Expr::gen("l", Expr::var("L")),
                Expr::gen("b", Expr::var("B")),
                Expr::pred(l().proj("k").eq(b())),
            ],
            l().proj("id").mul(Expr::int(10)).add(b()),
        ),
    ];
    for (shape, quals, value) in shapes {
        for (monoid, head) in [
            (Monoid::List, value.clone()),
            (Monoid::Sum, value.clone()),
            (Monoid::Some, value.clone().eq(Expr::int(13))),
            (Monoid::Bag, value.clone()),
        ] {
            let label = format!("{shape}/{monoid}");
            let plan = plan_comprehension(&Expr::comp(monoid, head, quals.clone())).unwrap();
            assert_eq!(engine_of(&plan).as_str(), "fused", "{label}");
            assert_eq!(shape == "join-build", find_join(plan.plan()).is_some(), "{label}");
            let walk = execute_plan_walk_bound(&plan, &db, &[]).unwrap();
            assert_eq!(walk, fused_twice(&label, &plan, &db).unwrap(), "{label}");
        }
    }
    // Not vacuous: the runs really repeat.
    let list = Expr::comp(Monoid::List, b(), vec![Expr::gen("b", Expr::var("B"))]);
    assert_eq!(
        execute(&plan_comprehension(&list).unwrap(), &db).unwrap(),
        Value::list([1, 1, 2, 3, 3, 3].map(Value::Int).to_vec())
    );
}

// -------------------------------------------------------------------------
// The snapshot memo: what a join table may be kept for, and when it must go.
// -------------------------------------------------------------------------

/// `join-wire`'s statement: a weighted count over the dept join, prepared
/// the way the server prepares it (OQL → normalize → reorder → plan).
const JOIN_WIRE: &str =
    "sum(select $w from m in Managers, e in CompanyEmployees where m.dept = e.dept)";

fn prepared(db: &Database, src: &str) -> Query {
    let calculus = monoid_oql::compile(db.schema(), src).unwrap();
    let reordered = reorder_generators(&normalize(&calculus), &Stats::gather(db));
    plan_comprehension(&reordered).unwrap()
}

fn weight(w: i64) -> Vec<(Symbol, Value)> {
    vec![(Symbol::new("$w"), Value::Int(w))]
}

/// The fused answer, checked against the walk's on the same state.
fn fused_checked(plan: &Query, snap: &Snapshot, params: &[(Symbol, Value)]) -> Value {
    let fused = execute_snapshot_bound(plan, snap, params).unwrap();
    assert_eq!(fused, execute_plan_walk_bound(plan, snap, params).unwrap(), "fused ≠ walk");
    fused
}

/// Four managers, one per dept, with six reports each.
fn company() -> Database {
    company::generate(4, 6, 3, 5)
}

/// The first half of the company's 24 employees, as a bag.
fn half_the_staff(db: &Database) -> Value {
    let staff = db.root(Symbol::new(company::names::EMPLOYEES)).unwrap();
    Value::bag_from(staff.elements().unwrap()[..12].to_vec())
}

#[test]
fn memo_keeps_the_join_wire_table_for_every_later_execution_at_the_epoch() {
    let db = company();
    let plan = prepared(&db, JOIN_WIRE);
    let Some(Plan::Join { right, .. }) = find_join(plan.plan()) else {
        panic!("{:?}", plan.plan())
    };
    assert!(matches!(**right, Plan::Scan { .. }), "the build side is a bare scan");
    let snap = db.snapshot();
    let cold = fused_checked(&plan, &snap, &weight(3));
    assert_eq!((snap.memo().len(), snap.memo().misses()), (1, 1));
    // A different weight, another clone of the snapshot, and the database
    // itself (its current state shares the memo): nothing is built again.
    assert_eq!(fused_checked(&plan, &snap, &weight(3)), cold);
    assert_eq!(fused_checked(&plan, &snap.clone(), &weight(5)), Value::Int(24 * 5));
    assert_eq!(fused_checked(&plan, &db, &weight(1)), Value::Int(24));
    assert_eq!((snap.memo().len(), snap.memo().misses()), (1, 1));
}

/// Each writer path between two executions: the second must see the new
/// state, not the table the first one left.
#[test]
fn memo_is_forgotten_by_every_write_between_executions() {
    let e = || Expr::var("e");
    // `e := …` moves one employee to a dept no manager heads.
    let move_one = Expr::comp(
        Monoid::All,
        e().assign(Expr::record(vec![
            ("name", e().proj("name")),
            ("age", e().proj("age")),
            ("salary", e().proj("salary")),
            ("dept", Expr::str("nowhere")),
        ])),
        vec![
            Expr::gen("e", Expr::var("CompanyEmployees")),
            Expr::pred(e().proj("name").eq(Expr::str("emp_0_0"))),
        ],
    );
    for write in ["assign", "insert", "set_root"] {
        let mut db = company();
        let plan = prepared(&db, JOIN_WIRE);
        let before = fused_checked(&plan, &db, &weight(1));
        assert_eq!(fused_checked(&plan, &db, &weight(1)), before, "{write}: warm");
        match write {
            "assign" => assert_eq!(db.query(&move_one).unwrap(), Value::Bool(true)),
            "insert" => {
                let state = vec![
                    ("name", Value::str("hire")),
                    ("age", Value::Int(30)),
                    ("salary", Value::Int(50_000)),
                    ("dept", Value::str("sales")),
                ];
                db.insert(Symbol::new(company::names::EMPLOYEE), Value::record_from(state))
                    .unwrap();
            }
            _ => db.set_root(company::names::EMPLOYEES, half_the_staff(&db)),
        }
        let after = fused_checked(&plan, &db, &weight(1));
        assert_ne!(after, before, "{write}: the write changes the answer");
    }
}

/// A build side that reads a `$param` is a different table per binding:
/// it is never kept, so each binding gets its own answer.
#[test]
fn memo_never_keeps_a_build_that_reads_a_param() {
    let db = company();
    let planned = prepared(&db, JOIN_WIRE);
    let e = || Expr::var("e");
    let Plan::Join { right, .. } = planned.plan() else { panic!("{:?}", planned.plan()) };
    let scan = right.clone();
    let rights = [
        // `… and e.age > $a`, placed on the build side.
        Plan::Filter { input: scan, pred: e().proj("age").gt(Expr::param("$a")) },
        // A build side whose source is the parameter.
        Plan::Scan { var: "e".into(), source: Expr::param("$staff") },
    ];
    let staff = db.root(Symbol::new(company::names::EMPLOYEES)).unwrap().clone();
    let staff_half = half_the_staff(&db);
    for right in rights {
        let plan = replanned(&planned, |plan| {
            let Plan::Join { right: slot, .. } = plan else { unreachable!() };
            **slot = right;
        });
        assert_eq!(engine_of(&plan).as_str(), "fused");
        let snap = db.snapshot();
        let mut answers = Vec::new();
        for (a, staff) in [(30, &staff), (50, &staff_half)] {
            let mut params = weight(1);
            params.push((Symbol::new("$a"), Value::Int(a)));
            params.push((Symbol::new("$staff"), staff.clone()));
            answers.push(fused_checked(&plan, &snap, &params));
        }
        assert_ne!(answers[0], answers[1], "the two bindings differ");
        assert_eq!((snap.memo().len(), snap.memo().misses()), (0, 0), "nothing looked up");
    }
}

/// A clone starts with an empty memo and mutates on its own: its answers
/// follow its data, and the original keeps its table and its answer.
#[test]
fn memo_of_a_database_clone_is_its_own() {
    let db = company();
    let plan = prepared(&db, JOIN_WIRE);
    let before = fused_checked(&plan, &db, &weight(1));
    let mut clone = db.clone();
    assert!(clone.memo().is_empty());
    clone.set_root(company::names::EMPLOYEES, half_the_staff(&db));
    assert_eq!(fused_checked(&plan, &clone, &weight(1)), Value::Int(12));
    assert_eq!(fused_checked(&plan, &db, &weight(1)), before);
    assert_eq!((db.memo().len(), db.memo().misses()), (1, 1));
}

// -------------------------------------------------------------------------
// Keyed filters: `x.f = e` directly over `x ← E` probes the scan's table.
// -------------------------------------------------------------------------

/// Extents for keyed filters: `K` mixes int, float and null keys (the
/// ordered index), `I` has int keys only (the typed bucket), `B` is a bag
/// whose runs repeat, and `Empty` has no member.
fn keyed_store() -> Database {
    let (int, float, null) = (Value::Int, Value::Float, || Value::Null);
    let mut db = Database::new(Schema::new());
    db.set_root(
        "K",
        Value::list(vec![
            keyed_row(1, int(1)),
            keyed_row(2, float(1.0)),
            keyed_row(3, int(2)),
            keyed_row(4, null()),
            keyed_row(5, int(1)),
            keyed_row(6, float(2.5)),
            keyed_row(7, null()),
        ]),
    );
    let ints = |rows: &[(i64, i64)]| rows.iter().map(|(id, f)| keyed_row(*id, int(*f))).collect();
    db.set_root("I", Value::list(ints(&[(1, 2), (2, 1), (3, 2), (4, 1)])));
    // Runs (row 1)×3, (row 2)×2, (row 3)×1.
    db.set_root("B", Value::bag_from(ints(&[(1, 1), (2, 2), (1, 1), (3, 1), (1, 1), (2, 2)])));
    db.set_root("Empty", Value::list(Vec::new()));
    db
}

fn keyed_row(id: i64, f: Value) -> Value {
    Value::record_from(vec![("id", Value::Int(id)), ("f", f)])
}

/// The probe parameter.
fn p() -> Expr {
    Expr::param("$p")
}

/// One head per monoid the probe must agree on, over the matched `x`.
/// `some` and `all` reach their verdict at a member with `id = 3`.
fn keyed_heads() -> Vec<(Monoid, Expr)> {
    let id = || Expr::var("x").proj("id");
    vec![
        (Monoid::Some, id().gt(Expr::int(2))),
        (Monoid::All, id().lt(Expr::int(3))),
        (Monoid::Sum, id()),
        (Monoid::List, id()),
        (Monoid::Bag, id()),
    ]
}

/// `⊕{ head | x ← extent, pred }`, prepared as the server prepares it
/// (a `some` head becomes one more filter over the probe).
fn keyed_plan(monoid: Monoid, head: Expr, extent: &str, pred: Expr) -> Query {
    let quals = vec![Expr::gen("x", Expr::var(extent)), Expr::pred(pred)];
    let comp = Expr::comp(monoid, head, quals);
    plan_comprehension(&reorder_generators(&comp, &Stats::default())).unwrap()
}

/// The walk's answer for `$p = probe` on a fresh snapshot of `db`, after
/// the fused fold gave the same answer twice there (a cold build, then a
/// memo hit); and how many tables the memo kept — one when the filter ran
/// as a probe.
fn keyed_agree(
    label: &str,
    plan: &Query,
    db: &Database,
    probe: &Value,
) -> (ExecResult<Value>, usize) {
    assert_eq!(engine_of(plan).as_str(), "fused", "{label}");
    let params = [(Symbol::new("$p"), probe.clone())];
    let snap = db.clone().snapshot();
    let walk = execute_plan_walk_bound(plan, &snap, &params);
    for run in ["cold", "warm"] {
        let fused = execute_snapshot_bound(plan, &snap, &params);
        assert_eq!(fused, walk, "{label} ({run}): fused ≠ walk");
    }
    assert_profiled_agrees(label, plan, &snap, &params, &walk);
    (walk, snap.memo().len())
}

#[test]
fn keyed_probe_agrees_with_the_walk_for_every_form_key_kind_and_monoid() {
    let db = keyed_store();
    let f = || Expr::var("x").proj("f");
    let forms = [
        ("x.f = $p", f().eq(p())),
        ("$p = x.f", p().eq(f())),
        ("x.f = 1", f().eq(Expr::int(1))),
        ("1.0 = x.f", Expr::float(1.0).eq(f())),
    ];
    let probes =
        [Value::Int(1), Value::Float(1.0), Value::Float(2.5), Value::Null, Value::str("1")];
    for extent in ["K", "I", "B"] {
        for (form, pred) in &forms {
            // A constant probe reads no `$p`: one binding covers it.
            let probes = if form.contains('$') { &probes[..] } else { &probes[..1] };
            for (monoid, head) in keyed_heads() {
                let plan = keyed_plan(monoid.clone(), head, extent, pred.clone());
                for probe in probes {
                    let label = format!("{extent}/{form}/{monoid}/{probe:?}");
                    let (walk, tables) = keyed_agree(&label, &plan, &db, probe);
                    assert!(walk.is_ok(), "{label}: {walk:?}");
                    assert_eq!(tables, 1, "{label}: the filter ran as a probe");
                }
            }
        }
    }
    // Not vacuous: matches come back in extent order, `1` meets `1.0` and
    // null meets null, and a bag's repeated runs match once per copy.
    let ids = |extent: &str, probe: Value| {
        let plan = keyed_plan(Monoid::List, Expr::var("x").proj("id"), extent, f().eq(p()));
        let snap = db.snapshot();
        execute_snapshot_bound(&plan, &snap, &[(Symbol::new("$p"), probe)]).unwrap()
    };
    let list = |xs: &[i64]| Value::list(xs.iter().map(|x| Value::Int(*x)).collect());
    assert_eq!(ids("K", Value::Int(1)), list(&[1, 2, 5]));
    assert_eq!(ids("K", Value::Null), list(&[4, 7]));
    assert_eq!(ids("I", Value::Float(1.0)), list(&[2, 4]));
    assert_eq!(ids("B", Value::Int(1)), list(&[1, 1, 1, 3]));
    assert_eq!(ids("I", Value::str("1")), list(&[]));
}

/// The walk never evaluates a filter over an empty extent, so a probe that
/// would fail is not evaluated either: the answer is the empty fold's.
/// Over a non-empty extent both fail alike.
#[test]
fn keyed_probe_of_an_empty_extent_never_evaluates_the_probe() {
    let db = keyed_store();
    // A projection out of an int fails wherever it is evaluated.
    let failing = Expr::var("x").proj("f").eq(Expr::int(3).proj("g"));
    for (monoid, head) in keyed_heads() {
        for extent in ["Empty", "K"] {
            let label = format!("{extent}/{monoid}");
            let plan = keyed_plan(monoid.clone(), head.clone(), extent, failing.clone());
            let (walk, tables) = keyed_agree(&label, &plan, &db, &Value::Null);
            assert_eq!(walk.is_ok(), extent == "Empty", "{label}: {walk:?}");
            assert_eq!(tables, 1, "{label}: the table was built");
        }
    }
}

/// A member whose key projection fails: the walk's filter reports it only
/// if it gets there, so the table is not kept and the filter runs plainly —
/// `some` finds its witness first, `all` its counterexample, and the rest
/// fail on the bad member.
#[test]
fn keyed_probe_runs_as_a_plain_filter_when_a_key_projection_fails() {
    let mut db = keyed_store();
    let pred = Expr::var("x").proj("f").eq(p());
    for (monoid, head) in keyed_heads() {
        let plan = keyed_plan(monoid.clone(), head, "I", pred.clone());
        let (walk, tables) = keyed_agree(&format!("good/{monoid}"), &plan, &db, &Value::Int(2));
        assert!(walk.is_ok() && tables == 1, "good/{monoid}: {walk:?}");
    }
    // The verdicts land on the first member; the second has no `f`.
    let bad = vec![keyed_row(3, Value::Int(2)), Value::Int(5), keyed_row(1, Value::Int(2))];
    db.set_root("I", Value::list(bad));
    for (monoid, head) in keyed_heads() {
        let label = format!("bad/{monoid}");
        let plan = keyed_plan(monoid.clone(), head, "I", pred.clone());
        let (walk, tables) = keyed_agree(&label, &plan, &db, &Value::Int(2));
        assert_eq!(tables, 0, "{label}: a failed build is not kept");
        let verdict = matches!(monoid, Monoid::Some | Monoid::All);
        assert_eq!(walk.is_ok(), verdict, "{label}: {walk:?}");
    }
}

/// `point-wire`'s statement: the head becomes a filter directly over the
/// scan, and the table is built once per snapshot whatever `$name` is.
#[test]
fn keyed_probe_reading_a_param_builds_once_per_snapshot() {
    let db = travel::generate(TravelScale::tiny(), 3);
    let plan = prepared(&db, "exists h in Hotels: h.name = $name");
    let Plan::Filter { input, .. } = plan.plan() else { panic!("{:?}", plan.plan()) };
    assert!(matches!(**input, Plan::Scan { .. }), "{:?}", plan.plan());
    assert_eq!(*plan.head(), Expr::bool(true));
    let snap = db.snapshot();
    for (name, found) in [("hotel_0_0", true), ("hotel_2_1", true), ("nowhere", false)] {
        let params = [(Symbol::new("$name"), Value::str(name))];
        assert_eq!(fused_checked(&plan, &snap, &params), Value::Bool(found), "{name}");
        assert_eq!(fused_checked(&plan, &snap.clone(), &params), Value::Bool(found), "{name}");
    }
    assert_eq!((snap.memo().len(), snap.memo().misses()), (1, 1));
}

// -------------------------------------------------------------------------
// Kernels: a compare `a op b` over operands (a slot, a constant, a slot's
// field) and an operand head run without the expression tree. The
// `fused_kernel_*` tests pin them to the walk, errors included.
// -------------------------------------------------------------------------

/// The values a compare meets: `1` and `1.0`, both zeros, NaN, `Null`,
/// strings, bools, a tuple and a record.
fn kernel_values() -> Vec<Value> {
    vec![
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(f64::NAN),
        Value::Null,
        Value::str("a"),
        Value::str("b"),
        Value::Bool(true),
        Value::Bool(false),
        Value::tuple(vec![Value::Int(1), Value::str("a")]),
        Value::record_from(vec![("k", Value::Int(1))]),
    ]
}

/// One holder `H` whose `items` are `items` and whose `vals` are the
/// kernel values. Generators run over `h.items` and `h.vals`, so a filter
/// sits above an unnest — never directly over a scan, where an equality
/// would be a keyed probe.
fn kernel_store(items: Vec<Value>) -> Database {
    let mut db = Database::new(Schema::new());
    let holder = Value::record_from(vec![
        ("items", Value::list(items)),
        ("vals", Value::list(kernel_values())),
    ]);
    db.set_root("H", Value::list(vec![holder]));
    db
}

/// Every kernel value as an item's `x`, paired with another one as `y`.
fn kernel_items() -> Vec<Value> {
    let values = kernel_values();
    let n = values.len();
    (0..n)
        .map(|i| {
            Value::record_from(vec![
                ("id", Value::Int(i as i64)),
                ("x", values[i].clone()),
                ("y", values[(i * 5 + 3) % n].clone()),
            ])
        })
        .collect()
}

/// `⊕{ head | h ← H, <var> ← h.<path>, pred }`.
fn over_holder(monoid: Monoid, head: Expr, var: &str, path: &str, pred: Expr) -> Query {
    plan_comprehension(&Expr::comp(
        monoid,
        head,
        vec![
            Expr::gen("h", Expr::var("H")),
            Expr::gen(var, Expr::var("h").proj(path)),
            Expr::pred(pred),
        ],
    ))
    .unwrap()
}

/// A comparison operator's expression builder.
type CompareOp = fn(Expr, Expr) -> Expr;

/// The six comparison operators.
fn compares() -> [(&'static str, CompareOp); 6] {
    [
        ("=", Expr::eq),
        ("≠", Expr::ne),
        ("<", Expr::lt),
        ("≤", Expr::le),
        (">", Expr::gt),
        ("≥", Expr::ge),
    ]
}

/// A predicate that always holds and is no compare of operands.
fn always() -> Expr {
    Expr::bool(true).and(Expr::bool(true))
}

/// The walk's answer, after the fused fold gave the same — value or
/// error, compared whole and as text.
fn kernel_agree(label: &str, plan: &Query, db: &Database, p: &Value) -> ExecResult<Value> {
    assert_eq!(engine_of(plan).as_str(), "fused", "{label}");
    let params = [(Symbol::new("$p"), p.clone())];
    let snap = db.snapshot();
    let walk = execute_plan_walk_bound(plan, &snap, &params);
    let fused = execute_snapshot_bound(plan, &snap, &params);
    assert_eq!(fused, walk, "{label}: fused ≠ walk");
    if let (Err(w), Err(f)) = (&walk, &fused) {
        assert_eq!(w.to_string(), f.to_string(), "{label}: error text");
    }
    assert_profiled_agrees(label, plan, &snap, &params, &walk);
    walk
}

#[test]
fn fused_kernel_compares_agree_with_the_walk_for_every_operator_and_operand_position() {
    let db = kernel_store(kernel_items());
    let (v, s) = (|| Expr::var("v"), || Expr::var("s"));
    let mut kept = 0;
    for (name, op) in compares() {
        // (form, generator variable, path, predicate)
        let forms = [
            ("v.x op $p", "v", "items", op(v().proj("x"), p())),
            ("$p op v.x", "v", "items", op(p(), v().proj("x"))),
            ("v.x op 1", "v", "items", op(v().proj("x"), Expr::int(1))),
            ("0.0 op v.x", "v", "items", op(Expr::float(0.0), v().proj("x"))),
            ("v.x op 'a'", "v", "items", op(v().proj("x"), Expr::str("a"))),
            ("v.x op null", "v", "items", op(v().proj("x"), Expr::null())),
            ("v.x op v.y", "v", "items", op(v().proj("x"), v().proj("y"))),
            ("s op $p", "s", "vals", op(s(), p())),
            ("$p op s", "s", "vals", op(p(), s())),
        ];
        for (form, var, path, pred) in forms {
            let head = if var == "v" { v().proj("id") } else { s() };
            let plan = over_holder(Monoid::List, head, var, path, pred);
            for probe in kernel_values() {
                let label = format!("{form} [{name}] $p = {probe:?}");
                let walk = kernel_agree(&label, &plan, &db, &probe);
                kept += walk.unwrap().len().unwrap();
            }
        }
    }
    // Not vacuous: across all of it, rows were kept and rows were dropped.
    assert!(kept > 0 && kept < 6 * 9 * 12 * 12, "{kept}");
}

/// Spot checks of the order the kernels decide by (`Value::cmp`): `1`
/// meets `1.0`, the zeros differ, NaN equals itself, and kinds rank.
#[test]
fn fused_kernel_compares_follow_the_value_order() {
    let db = kernel_store(kernel_items());
    let v = || Expr::var("v");
    let ids = |pred: Expr, probe: Value| {
        let plan = over_holder(Monoid::List, v().proj("id"), "v", "items", pred);
        kernel_agree("spot", &plan, &db, &probe).unwrap()
    };
    let list = |xs: &[i64]| Value::list(xs.iter().map(|x| Value::Int(*x)).collect());
    let x = || v().proj("x");
    assert_eq!(ids(x().eq(p()), Value::Int(1)), list(&[0, 1]));
    assert_eq!(ids(x().eq(p()), Value::Float(0.0)), list(&[3]));
    assert_eq!(ids(x().lt(p()), Value::Float(0.0)), list(&[2, 5, 8, 9]));
    assert_eq!(ids(x().eq(p()), Value::Float(f64::NAN)), list(&[4]));
    assert_eq!(ids(x().gt(p()), Value::str("a")), list(&[7, 10, 11]));
}

/// Class extents hold objects: a field operand reads through the heap,
/// in a filter, a head and a compare head.
#[test]
fn fused_kernel_operands_read_fields_through_objects() {
    let db = company();
    let e = || Expr::var("e");
    for (name, op) in compares() {
        for salary in [40_000, 55_000, 70_000] {
            let probe = Value::Int(salary);
            for (monoid, head) in [
                (Monoid::Bag, e().proj("name")),
                (Monoid::Sum, e().proj("salary")),
                (Monoid::All, op(e().proj("salary"), p())),
                (Monoid::Some, op(p(), e().proj("age"))),
            ] {
                let label = format!("{monoid} [{name}] {salary}");
                let plan = plan_comprehension(&Expr::comp(
                    monoid,
                    head,
                    vec![
                        Expr::gen("e", Expr::var(company::names::EMPLOYEES)),
                        Expr::pred(op(e().proj("salary"), p())),
                    ],
                ))
                .unwrap();
                kernel_agree(&label, &plan, &db, &probe).unwrap();
            }
        }
    }
}

/// Rows that do not fit the kernel's shape — a missing field, a slot that
/// holds no record, a dangling object — fail with the walk's error: in a
/// filter, an operand head and a compare head, on either or both sides of
/// the compare.
#[test]
fn fused_kernel_rows_off_the_shape_fail_like_the_walk() {
    let row = |x: i64| Value::record_from(vec![("x", Value::Int(x))]);
    let stores = [
        ("missing-field", vec![row(1), Value::record_from(vec![("y", Value::Int(2))])]),
        ("not-a-record", vec![row(1), Value::Int(5)]),
        ("dangling-object", vec![row(1), Value::Obj(monoid_calculus::value::Oid(9_999))]),
        ("a-string", vec![row(1), Value::str("x")]),
    ];
    let v = || Expr::var("v");
    for (store, items) in stores {
        let db = kernel_store(items);
        for (name, op) in compares() {
            for (label, head, pred) in [
                ("filter", Expr::int(1), op(v().proj("x"), p())),
                ("filter-rhs", Expr::int(1), op(p(), v().proj("x"))),
                // Both sides fail: the left one's error wins.
                ("both-sides", Expr::int(1), op(v().proj("y"), v().proj("z"))),
                ("operand-head", v().proj("x"), always()),
                ("compare-head", op(v().proj("x"), p()), always()),
            ] {
                let plan = over_holder(Monoid::List, head, "v", "items", pred);
                let label = format!("{store}/{label} [{name}]");
                let walk = kernel_agree(&label, &plan, &db, &Value::Int(1));
                assert!(walk.is_err(), "{label}: the second row fails");
            }
        }
    }
}

/// Tuple projections and dereferences read through the evaluator's own
/// free functions: an index out of range, a projection of a non-tuple, a
/// deref of a non-object and one of a dangling OID fail with the walk's
/// text, in a head and in a filter, after a first row that reads fine.
/// (The planner refuses `!`, so the plans are built by hand.)
#[test]
fn fused_kernel_tuple_projections_and_derefs_fail_like_the_walk() {
    let mut db = kernel_store(Vec::new());
    let live = db.query(&Expr::new_obj(Expr::int(7))).unwrap();
    let dangling = Value::Obj(monoid_calculus::value::Oid(9_999));
    let pair = Value::tuple(vec![Value::Int(1), Value::str("a")]);
    let row = |t: Value| Value::record_from(vec![("t", t)]);
    let t = || Expr::var("v").proj("t");
    let over_items = |head: Expr, pred: Expr| {
        let path = Expr::var("h").proj("items");
        let items = Plan::Unnest { input: Box::new(scan("h", "H")), var: "v".into(), path };
        Query::new(Plan::Filter { input: Box::new(items), pred }, Monoid::List, head).unwrap()
    };
    let stores = [
        ("index-out-of-range", pair.clone(), Value::tuple(vec![Value::Int(2)]), t().tproj(1)),
        ("not-a-tuple", pair, Value::Int(5), t().tproj(1)),
        ("not-an-object", live.clone(), Value::Int(5), t().deref()),
        ("dangling-object", live, dangling, t().deref()),
    ];
    for (store, good, bad, read) in stores {
        for (label, head, pred) in [
            ("head", read.clone(), always()),
            ("filter", Expr::int(1), read.clone().eq(p()).or(Expr::bool(true))),
        ] {
            let label = format!("{store}/{label}");
            let plan = over_items(head, pred);
            let holder = |items: Vec<Value>| {
                Value::list(vec![Value::record_from(vec![("items", Value::list(items))])])
            };
            db.set_root("H", holder(vec![row(good.clone())]));
            assert!(kernel_agree(&label, &plan, &db, &Value::Int(1)).is_ok(), "{label}");
            db.set_root("H", holder(vec![row(good.clone()), row(bad.clone())]));
            let walk = kernel_agree(&label, &plan, &db, &Value::Int(1));
            assert!(walk.is_err(), "{label}: the second row fails");
        }
    }
}

/// `some` and `all` over compare heads and filters stop at the walk's
/// witness: the row after it cannot be read, so an engine that went on
/// would fail instead.
#[test]
fn fused_kernel_some_and_all_stop_at_the_walks_witness() {
    let row = |x: i64| Value::record_from(vec![("x", Value::Int(x))]);
    let db = kernel_store(vec![row(1), row(5), Value::Int(0), row(9)]);
    let x = || Expr::var("v").proj("x");
    for (label, monoid, head, pred, verdict) in [
        ("some-head", Monoid::Some, x().gt(p()), always(), true),
        ("all-head", Monoid::All, x().lt(p()), always(), false),
        ("some-filter", Monoid::Some, Expr::bool(true), x().ge(p()), true),
        ("all-filter", Monoid::All, x().ne(Expr::int(5)), x().ge(p()), false),
    ] {
        let plan = over_holder(monoid, head, "v", "items", pred);
        let walk = kernel_agree(label, &plan, &db, &Value::Int(3));
        assert_eq!(walk, Ok(Value::Bool(verdict)), "{label}");
        // With no witness before it, both reach the bad row and fail alike.
        assert!(kernel_agree(label, &plan, &db, &Value::Int(100)).is_err(), "{label}");
    }
}

/// `all{ a op b | … }` (and `some`, and the list of verdicts): a compare
/// head for every operator, operand position and probe.
#[test]
fn fused_kernel_compare_heads_under_all_agree() {
    let db = kernel_store(kernel_items());
    let (v, s) = (|| Expr::var("v"), || Expr::var("s"));
    let mut verdicts = std::collections::BTreeSet::new();
    for (name, op) in compares() {
        for (form, var, path, head) in [
            ("v.x op $p", "v", "items", op(v().proj("x"), p())),
            ("$p op v.y", "v", "items", op(p(), v().proj("y"))),
            ("v.x op v.y", "v", "items", op(v().proj("x"), v().proj("y"))),
            ("s op 1.0", "s", "vals", op(s(), Expr::float(1.0))),
            ("s op $p", "s", "vals", op(s(), p())),
        ] {
            for monoid in [Monoid::All, Monoid::Some, Monoid::List] {
                let plan = over_holder(monoid.clone(), head.clone(), var, path, always());
                for probe in kernel_values() {
                    let label = format!("{monoid}{{ {form} }} [{name}] $p = {probe:?}");
                    let walk = kernel_agree(&label, &plan, &db, &probe).unwrap();
                    verdicts.insert(walk.to_string());
                }
            }
        }
    }
    assert!(verdicts.contains("true") && verdicts.contains("false"), "{verdicts:?}");
}

/// A record head's labels are sorted once, at compile time, the way
/// `Value::record` sorts them (stably, duplicates kept in source order),
/// and its fields still evaluate in source order, so the first field that
/// fails is the walk's.
#[test]
fn fused_record_heads_sort_labels_at_compile_time_like_the_walk() {
    let db = kernel_store(kernel_items());
    let v = || Expr::var("v");
    let heads = [
        Expr::record(vec![("mgr", v().proj("x")), ("emp", v().proj("y"))]),
        Expr::record(vec![("b", Expr::int(1)), ("a", v().proj("id")), ("b", Expr::int(2))]),
        Expr::record(vec![("z", v().proj("id")), ("y", v().proj("x")), ("x", v().proj("y"))]),
        // `z` is read first and fails first, though `a` sorts first.
        Expr::record(vec![("z", v().proj("nope")), ("a", v().proj("x").proj("k"))]),
    ];
    for (i, head) in heads.into_iter().enumerate() {
        for monoid in [Monoid::List, Monoid::Set, Monoid::Bag] {
            let plan = over_holder(monoid.clone(), head.clone(), "v", "items", always());
            let label = format!("head {i} / {monoid}");
            let walk = kernel_agree(&label, &plan, &db, &Value::Null);
            assert_eq!(walk.is_ok(), i < 3, "{label}: {walk:?}");
        }
    }
}

// -------------------------------------------------------------------------
// The multiplicity rule: a trailing generator none of whose variables the
// head reads hands the reduction its row count, and the head is folded
// once, `n`-fold. The `multiplicity_*` tests pin it to the walk — every
// monoid, errors as text, float sums bit for bit.
// -------------------------------------------------------------------------

/// The join store, plus `RB`, a bag build side whose runs repeat; `U`,
/// holders whose list, bag and set members a trailing unnest ranges over
/// (one holder's are all empty); and `S`, a set extent.
fn multiplicity_store() -> Database {
    let mut db = join_store();
    let int = Value::Int;
    let rb = |id: i64, k: i64| Value::record_from(vec![("id", int(id)), ("k", int(k))]);
    // Runs (1, k1)×3, (2, k2)×2 and (3, k1)×1.
    let rows = [rb(1, 1), rb(2, 2), rb(1, 1), rb(3, 1), rb(1, 1), rb(2, 2)];
    db.set_root("RB", Value::bag_from(rows.to_vec()));
    let ints = |xs: &[i64]| xs.iter().map(|x| int(*x)).collect::<Vec<_>>();
    let holder = |id: i64, s: &str, x: f64, items: &[i64]| {
        Value::record_from(vec![
            ("id", int(id)),
            ("s", Value::str(s)),
            ("x", Value::Float(x)),
            ("list", Value::list(ints(items))),
            ("bag", Value::bag_from(ints(items))),
            ("set", Value::set_from(ints(items))),
        ])
    };
    db.set_root(
        "U",
        Value::list(vec![
            holder(1, "a", 0.1, &[2, 1, 2, 2]),
            holder(2, "b", 0.7, &[]),
            holder(3, "c", 1e-3, &[7, 7, 7, 5, 7, 7, 7]),
        ]),
    );
    db.set_root("S", Value::set_from(ints(&[4, 1, 3])));
    db
}

/// The parameters the heads read.
fn multiplicity_params() -> Vec<(Symbol, Value)> {
    vec![
        (Symbol::new("$i"), Value::Int(5)),
        (Symbol::new("$f"), Value::Float(0.1)),
        (Symbol::new("$s"), Value::str("p")),
        (Symbol::new("$b"), Value::Bool(false)),
    ]
}

/// For every non-lifted monoid, heads that read none of the trailing
/// generator's variables: a constant, a `$param`, and — when the shape
/// has one — a field of the left variable `v`. `sum` also gets float
/// heads, whose repeated addition is no product; `some` with `true` and
/// `all` with `$b` absorb at the first non-empty bucket.
fn multiplicity_heads(v: Option<&str>) -> Vec<(Monoid, Expr)> {
    let field = |f: &str| v.map(|v| Expr::var(v).proj(f));
    let per = |c: Expr, p: &str, f: Option<Expr>| [Some(c), Some(Expr::param(p)), f];
    let int_heads = || per(Expr::int(3), "$i", field("id"));
    let mut heads = Vec::new();
    for monoid in [
        Monoid::List,
        Monoid::Bag,
        Monoid::Set,
        Monoid::OSet,
        Monoid::Sorted,
        Monoid::SortedBag,
        Monoid::Sum,
        Monoid::Prod,
        Monoid::Max,
        Monoid::Min,
    ] {
        heads.extend(int_heads().into_iter().flatten().map(|h| (monoid.clone(), h)));
    }
    let float_sum = per(Expr::float(0.1), "$f", field("x"));
    let str_heads = per(Expr::str("ab"), "$s", field("s"));
    let some = per(Expr::bool(true), "$b", field("id").map(|id| id.gt(Expr::int(2))));
    let all = per(Expr::bool(true), "$b", field("id").map(|id| id.ne(Expr::int(3))));
    for (monoid, hs) in
        [(Monoid::Sum, float_sum), (Monoid::Str, str_heads), (Monoid::Some, some), (Monoid::All, all)]
    {
        heads.extend(hs.into_iter().flatten().map(|h| (monoid.clone(), h)));
    }
    heads
}

/// The walk's answer for `plan`, after the fused fold gave the same twice
/// on one snapshot — a fresh build, then the table the memo kept —
/// compared whole and as text (so float sums agree bit for bit, and
/// errors word for word).
fn multiplicity_agree(label: &str, plan: &Query, db: &Database) -> ExecResult<Value> {
    assert_eq!(engine_of(plan).as_str(), "fused", "{label}");
    let params = multiplicity_params();
    let snap = db.clone().snapshot();
    let walk = execute_plan_walk_bound(plan, &snap, &params);
    for run in ["fresh", "memo"] {
        let fused = execute_snapshot_bound(plan, &snap, &params);
        assert_eq!(fused, walk, "{label} ({run}): fused ≠ walk");
        let text = |r: &ExecResult<Value>| match r {
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        };
        assert_eq!(text(&fused), text(&walk), "{label} ({run}): as text");
    }
    assert_profiled_agrees(label, plan, &snap, &params, &walk);
    walk
}

/// Every multiplicity head over `quals`, each agreeing with the walk;
/// how many of them the walk answered (the rest failed alike).
fn multiplicity_shape(label: &str, quals: &[Qual], v: Option<&str>, db: &Database) -> usize {
    let mut answered = 0;
    for (monoid, head) in multiplicity_heads(v) {
        let label = format!("{label}/{monoid}{{ {head:?} }}");
        let plan = plan_comprehension(&Expr::comp(monoid, head, quals.to_vec())).unwrap();
        answered += usize::from(multiplicity_agree(&label, &plan, db).is_ok());
    }
    answered
}

#[test]
fn multiplicity_over_keyed_composite_and_cross_joins_agrees_for_every_monoid() {
    let db = multiplicity_store();
    let keyed = |right: &str, keys: &[(&str, &str)]| {
        let mut quals = gens("L", right);
        quals.extend(keys.iter().map(|(lk, rk)| on(lk, rk)));
        quals
    };
    for (label, quals) in [
        ("keyed-int", keyed("R", &[("k", "k")])),
        ("keyed-str", keyed("R", &[("s", "s")])),
        ("composite", keyed("R", &[("k", "k"), ("s", "s")])),
        ("cross", gens("L", "R")),
        ("mixed-build", keyed("M", &[("k", "k")])),
        // Every bucket empty, and no left row at all.
        ("empty-build", keyed("Empty", &[("k", "k")])),
        ("empty-probe", gens("Empty", "R")),
        // A bag build side: each run is `count` rows of its bucket.
        ("bag-build", keyed("RB", &[("k", "k")])),
    ] {
        let plan = plan_comprehension(&Expr::comp(Monoid::Sum, Expr::int(1), quals.clone()));
        assert!(find_join(plan.unwrap().plan()).is_some(), "{label}: no join");
        let answered = multiplicity_shape(label, &quals, Some("l"), &db);
        // `prod{ $i }` over the 30-row cross product overflows, on both
        // engines alike; everything else has an answer.
        let expected = multiplicity_heads(Some("l")).len() - usize::from(label == "cross");
        assert_eq!(answered, expected, "{label}");
    }
    // Not vacuous: a bucket of three folds three heads, a bag's runs
    // count every copy, and an empty bucket none.
    let count = |right: &str| {
        let quals = keyed(right, &[("k", "k")]);
        let plan = plan_comprehension(&Expr::comp(Monoid::Sum, Expr::param("$i"), quals));
        multiplicity_agree(right, &plan.unwrap(), &db).unwrap()
    };
    // L's keys 1, 2, 1 meet R's k = 1 three times and k = 2 twice.
    assert_eq!(count("R"), Value::Int(5 * (3 + 2 + 3)));
    // …and RB's k = 1 four times (runs of 3 and 1), k = 2 twice.
    assert_eq!(count("RB"), Value::Int(5 * (4 + 2 + 4)));
    assert_eq!(count("Empty"), Value::Int(0));
}

#[test]
fn multiplicity_over_a_trailing_unnest_of_a_list_a_bag_and_a_set_agrees_for_every_monoid() {
    let db = multiplicity_store();
    for path in ["list", "bag", "set"] {
        let quals = [Expr::gen("u", Expr::var("U")), Expr::gen("c", Expr::var("u").proj(path))];
        let answered = multiplicity_shape(path, &quals, Some("u"), &db);
        assert_eq!(answered, multiplicity_heads(Some("u")).len(), "{path}");
    }
    // Not vacuous: the list keeps duplicates, the bag counts its runs,
    // the set has each member once.
    for (path, rows) in [("list", 4 + 7), ("bag", 4 + 7), ("set", 2 + 2)] {
        let quals = vec![Expr::gen("u", Expr::var("U")), Expr::gen("c", Expr::var("u").proj(path))];
        let plan = plan_comprehension(&Expr::comp(Monoid::Sum, Expr::int(1), quals)).unwrap();
        assert_eq!(multiplicity_agree(path, &plan, &db), Ok(Value::Int(rows)), "{path}");
    }
    // A path that is no collection fails alike, counted or not.
    let quals = vec![Expr::gen("u", Expr::var("U")), Expr::gen("c", Expr::var("u").proj("id"))];
    let plan = plan_comprehension(&Expr::comp(Monoid::Sum, Expr::int(1), quals)).unwrap();
    assert!(multiplicity_agree("not-a-collection", &plan, &db).is_err());
}

#[test]
fn multiplicity_over_a_bare_scan_agrees_for_every_monoid() {
    let db = multiplicity_store();
    for extent in ["L", "RB", "S", "Empty"] {
        let quals = [Expr::gen("x", Expr::var(extent))];
        let answered = multiplicity_shape(extent, &quals, None, &db);
        assert_eq!(answered, multiplicity_heads(None).len(), "{extent}");
    }
    // Ten tenths, added one by one, are not `1.0`: the float lane walks.
    let mut ten = db.clone();
    ten.set_root("Ten", Value::list((0..10).map(Value::Int).collect()));
    let tenths = Expr::comp(Monoid::Sum, Expr::float(0.1), vec![Expr::gen("x", Expr::var("Ten"))]);
    let sum = multiplicity_agree("tenths", &plan_comprehension(&tenths).unwrap(), &ten).unwrap();
    assert_eq!(sum, Value::Float((0..10).fold(0.0, |s, _| s + 0.1)));
    assert_ne!(format!("{sum:?}"), format!("{:?}", Value::Float(1.0)));
}

/// `count` over a keyed filter: the probe's bucket size is the answer.
#[test]
fn multiplicity_of_a_keyed_probe_is_its_bucket_size() {
    let db = keyed_store();
    let pred = Expr::var("x").proj("f").eq(p());
    for (extent, probe, count) in [
        ("K", Value::Int(1), 3),
        ("K", Value::Null, 2),
        ("I", Value::Float(1.0), 2),
        ("B", Value::Int(1), 4),
        ("B", Value::str("1"), 0),
        ("Empty", Value::Int(1), 0),
    ] {
        for (monoid, head) in [
            (Monoid::Sum, Expr::int(1)),
            (Monoid::Some, Expr::bool(true)),
            (Monoid::List, Expr::str("hit")),
        ] {
            let plan = keyed_plan(monoid.clone(), head, extent, pred.clone());
            let label = format!("{extent}/{monoid}/{probe:?}");
            let (walk, tables) = keyed_agree(&label, &plan, &db, &probe);
            assert_eq!(tables, 1, "{label}: the filter ran as a probe");
            let expected = match monoid {
                Monoid::Sum => Value::Int(count),
                Monoid::Some => Value::Bool(count > 0),
                _ => Value::list(vec![Value::str("hit"); count as usize]),
            };
            assert_eq!(walk, Ok(expected), "{label}");
        }
    }
}

/// An `Int` sum that overflows in the middle of a bucket fails with the
/// walk's text — the partial sum it had reached — not with the product's.
#[test]
fn multiplicity_int_sum_overflowing_mid_bucket_names_the_walks_partial_sum() {
    let db = multiplicity_store();
    let half = i64::MAX / 2;
    let mut quals = gens("L", "R");
    quals.push(on("k", "k"));
    for (w, ok) in [(half, false), (half / 4, true), (-half, false), (i64::MIN / 9, true)] {
        let head = Expr::int(w);
        let plan = plan_comprehension(&Expr::comp(Monoid::Sum, head, quals.clone())).unwrap();
        let label = format!("sum of {w}");
        let walk = multiplicity_agree(&label, &plan, &db);
        assert_eq!(walk.is_ok(), ok, "{label}: {walk:?}");
        if let Err(e) = walk {
            // L's first row meets a bucket of three: the third push fails.
            assert!(e.to_string().contains(&format!("{}, {w}", 2 * w)), "{label}: {e}");
        }
    }
}

/// `some` and `all` absorb at the first row of a bucket: the left row
/// after it has a head that cannot be evaluated, and one before it meets
/// an empty bucket, so its (equally bad) head is never evaluated either.
#[test]
fn multiplicity_booleans_absorb_on_a_bucket_and_stop_there() {
    let mut db = multiplicity_store();
    let row = |id: Value, k: i64| Value::record_from(vec![("id", id), ("k", Value::Int(k))]);
    db.set_root(
        "Poisoned",
        Value::list(vec![
            row(Value::str("never"), 9),
            row(Value::Int(2), 1),
            row(Value::str("boom"), 1),
        ]),
    );
    let mut quals = vec![Expr::gen("l", Expr::var("Poisoned")), Expr::gen("r", Expr::var("R"))];
    quals.push(on("k", "k"));
    let id = || Expr::var("l").proj("id").mul(Expr::int(1));
    for (monoid, head, verdict) in [
        (Monoid::Some, id().eq(Expr::int(2)), Ok(Value::Bool(true))),
        (Monoid::All, id().ne(Expr::int(2)), Ok(Value::Bool(false))),
        (Monoid::Max, id(), Err(())),
    ] {
        let plan = plan_comprehension(&Expr::comp(monoid.clone(), head, quals.clone())).unwrap();
        let walk = multiplicity_agree(&monoid.to_string(), &plan, &db);
        assert_eq!(walk.map_err(drop), verdict, "{monoid}");
    }
}

// -------------------------------------------------------------------------
// Compiled once: a planned query carries its fold, and nothing in that fold
// belongs to one snapshot, one epoch or one database.
// -------------------------------------------------------------------------

/// Each query planned once, on the first company, then run as planned
/// against that company before and after an insert and against a second,
/// separately generated company: every answer, errors included, is the
/// walk's on the same snapshot. The statements cover a keyed join whose
/// table the memo keeps, `join-wire`'s `$param` head over counted buckets,
/// a keyed filter, a counted bare scan and a global the second company
/// does not bind.
#[test]
fn compiled_once_queries_run_on_any_snapshot_of_any_database_like_the_walk() {
    let mut db = company();
    db.set_root("Floor", Value::Int(60_000));
    let e = || Expr::var("e");
    let over_floor = plan_comprehension(&Expr::comp(
        Monoid::Bag,
        e().proj("name"),
        vec![
            Expr::gen("e", Expr::var(company::names::EMPLOYEES)),
            Expr::pred(e().proj("salary").ge(Expr::var("Floor"))),
        ],
    ))
    .unwrap();
    let name = vec![(Symbol::new("$name"), Value::str("hire"))];
    let join = "select e.name from m in Managers, e in CompanyEmployees where m.dept = e.dept";
    let queries = [
        ("join", prepared(&db, join), vec![]),
        ("join-wire", prepared(&db, JOIN_WIRE), weight(2)),
        ("keyed-filter", prepared(&db, "exists e in CompanyEmployees: e.name = $name"), name),
        ("counted-scan", prepared(&db, "count(CompanyEmployees)"), vec![]),
        ("global", over_floor, vec![]),
    ];
    for (label, plan, _) in &queries {
        assert_eq!(engine_of(plan).as_str(), "fused", "{label}");
    }
    let before = db.snapshot();
    let hire = vec![
        ("name", Value::str("hire")),
        ("age", Value::Int(30)),
        ("salary", Value::Int(70_000)),
        ("dept", Value::str("sales")),
    ];
    db.insert(Symbol::new(company::names::EMPLOYEE), Value::record_from(hire)).unwrap();
    let snapshots = [
        ("before", before),
        ("after", db.snapshot()),
        ("other", company::generate(3, 5, 2, 11).snapshot()),
    ];
    let mut answers = Vec::new();
    for (at, snap) in &snapshots {
        for (label, plan, params) in &queries {
            let walk = execute_plan_walk_bound(plan, snap, params);
            assert_eq!(execute_snapshot_bound(plan, snap, params), walk, "{label} {at}");
            answers.push(walk);
        }
        // The fold ran, and kept this snapshot's tables: the dept join's
        // and the name probe's.
        assert_eq!(snap.memo().len(), 2, "{at}");
    }
    let n = queries.len();
    for (label, i) in [("join", 0), ("join-wire", 1), ("keyed-filter", 2), ("counted-scan", 3)] {
        assert_ne!(answers[i], answers[n + i], "{label}: the insert changes the answer");
        assert_ne!(answers[n + i], answers[2 * n + i], "{label}: the databases differ");
    }
    assert!(answers[2 * n + 4].is_err(), "the second company binds no `Floor`");
}

// -------------------------------------------------------------------------
// Evaluated leaves: a form outside the compiled expression subset — a
// nested comprehension, a lambda, `let` — is run in place by the walk's
// own evaluator, with the chain variables it reads bound over the run's
// root environment. The `evaluated_*` tests pin it to the walk wherever a
// plan can hold one, values and error text alike, each run twice on one
// snapshot so the memo is exercised.
// -------------------------------------------------------------------------

/// `sum{ 1 | x ← <v>.kids }`: how many kids a row of `R` has.
fn kid_count(v: &str) -> Expr {
    Expr::comp(Monoid::Sum, Expr::int(1), vec![Expr::gen("x", Expr::var(v).proj("kids"))])
}

/// `some{ x > <n> | x ← <v>.kids }`.
fn has_kid_over(v: &str, n: Expr) -> Expr {
    let x = Expr::var("x");
    Expr::comp(Monoid::Some, x.gt(n), vec![Expr::gen("x", Expr::var(v).proj("kids"))])
}

fn scan(var: &str, source: &str) -> Plan {
    Plan::Scan { var: var.into(), source: Expr::var(source) }
}

/// The walk's answer, after the fused fold gave the same twice on `snap`
/// — cold, then over whatever the first run left in the memo — value or
/// error, compared whole and as text.
fn evaluated_agree(
    label: &str,
    plan: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
) -> ExecResult<Value> {
    assert_eq!(engine_of(plan).as_str(), "fused", "{label}");
    let walk = execute_plan_walk_bound(plan, snap, params);
    for run in ["cold", "memo"] {
        let fused = execute_snapshot_bound(plan, snap, params);
        assert_eq!(fused, walk, "{label} ({run}): fused ≠ walk");
        if let (Err(w), Err(f)) = (&walk, &fused) {
            assert_eq!(w.to_string(), f.to_string(), "{label} ({run}): error text");
        }
    }
    assert_profiled_agrees(label, plan, snap, params, &walk);
    walk
}

/// Heads over an int-valued `v`: ordered, commutative, idempotent and
/// both booleans.
fn evaluated_heads(v: Expr) -> Vec<(Monoid, Expr)> {
    vec![
        (Monoid::List, v.clone()),
        (Monoid::Sum, v.clone()),
        (Monoid::Set, v.clone()),
        (Monoid::Some, v.clone().gt(Expr::int(20))),
        (Monoid::All, v.lt(Expr::int(40))),
    ]
}

#[test]
fn evaluated_leaves_agree_with_the_walk_wherever_a_plan_holds_one() {
    let db = join_store();
    let snap = db.snapshot();
    let (l, r) = (|| Expr::var("l"), || Expr::var("r"));
    let join = |left_key: Expr, right: Plan, right_key: Expr| Plan::Join {
        left: Box::new(scan("l", "L")),
        right: Box::new(right),
        on: vec![(left_key, right_key)],
    };
    let tens = Expr::comp(
        Monoid::List,
        Expr::var("x").mul(Expr::int(10)),
        vec![Expr::gen("x", r().proj("kids"))],
    );
    let filtered = |pred: Expr| Plan::Filter { input: Box::new(scan("r", "R")), pred };
    // `max{ y | y ← [l.id, 2] }`.
    let at_least_two = Expr::comp(
        Monoid::Max,
        Expr::var("y"),
        vec![Expr::gen("y", Expr::list_of(vec![l().proj("id"), Expr::int(2)]))],
    );
    let lr = l().proj("id").mul(Expr::int(10)).add(r().proj("id"));
    let shapes = [
        ("head", scan("r", "R"), kid_count("r").mul(Expr::int(10)).add(r().proj("id"))),
        // The head reads the scan's row only through the leaf, so the
        // rows differ in what the reduction sees: no multiplicity.
        ("head-leaf", scan("r", "R"), kid_count("r")),
        ("filter", filtered(kid_count("r").gt(Expr::int(1))), r().proj("id")),
        // An equality over a bare scan: a probe of a table whose key is
        // evaluated.
        ("keyed-filter", filtered(kid_count("r").eq(Expr::int(1))), r().proj("id")),
        (
            "bind",
            Plan::Bind { input: Box::new(scan("r", "R")), var: "n".into(), expr: kid_count("r") },
            Expr::var("n").mul(Expr::int(10)).add(r().proj("id")),
        ),
        (
            "unnest-path",
            Plan::Unnest { input: Box::new(scan("r", "R")), var: "y".into(), path: tens },
            Expr::var("y"),
        ),
        ("left-key", join(at_least_two, scan("r", "R"), r().proj("id")), lr.clone()),
        ("right-key", join(l().proj("id"), scan("r", "R"), kid_count("r")), lr.clone()),
        (
            "right-filter",
            join(l().proj("k"), filtered(has_kid_over("r", Expr::int(3))), r().proj("k")),
            lr,
        ),
    ];
    for (shape, plan, v) in shapes {
        for (monoid, head) in evaluated_heads(v) {
            let label = format!("{shape}/{monoid}");
            let q = Query::new(plan.clone(), monoid.clone(), head).unwrap();
            let walk = evaluated_agree(&label, &q, &snap, &[]).unwrap();
            if monoid == Monoid::List {
                assert!(walk.len().unwrap() > 0, "{label}: no rows");
            }
        }
    }
    // The param-free build sides were kept: the left key's, the right
    // filter's, and one `R`-by-kid-count table, which the right key and the
    // keyed filter share — the same scan under the same key.
    assert_eq!(snap.memo().len(), 3);
}

#[test]
fn evaluated_inner_comprehensions_rebinding_an_outer_name_agree() {
    let db = join_store();
    let snap = db.snapshot();
    let r = || Expr::var("r");
    // The inner `r` ranges over `T`; the outer one is the row.
    let inner_ids = Expr::comp(Monoid::Sum, r().proj("id"), vec![Expr::gen("r", Expr::var("T"))]);
    // The inner `x` shadows a chain variable `x` the plan binds.
    let input = Box::new(scan("r", "R"));
    let plan = Plan::Bind { input, var: "x".into(), expr: r().proj("id") };
    let shadowing_x = Expr::comp(
        Monoid::Sum,
        Expr::var("x"),
        vec![Expr::gen("x", r().proj("kids"))],
    );
    for (label, head) in [
        ("rebinds-r", Expr::Tuple(vec![r().proj("id"), inner_ids])),
        ("rebinds-x", Expr::Tuple(vec![Expr::var("x"), shadowing_x])),
        ("let-rebinds-r", Expr::let_("r", r().proj("kids"), r())),
        ("lambda-rebinds-r", Expr::lambda("r", r().proj("f")).apply(r())),
    ] {
        let q = Query::new(plan.clone(), Monoid::List, head).unwrap();
        assert!(evaluated_agree(label, &q, &snap, &[]).is_ok(), "{label}");
    }
}

#[test]
fn evaluated_param_read_only_inside_a_build_sides_comprehension_is_read_per_run() {
    let db = join_store();
    let snap = db.snapshot();
    let (l, r) = (|| Expr::var("l"), || Expr::var("r"));
    let right = Plan::Filter { input: Box::new(scan("r", "R")), pred: has_kid_over("r", p()) };
    let plan = Plan::Join {
        left: Box::new(scan("l", "L")),
        right: Box::new(right),
        on: vec![(l().proj("k"), r().proj("k"))],
    };
    let head = l().proj("id").mul(Expr::int(10)).add(r().proj("id"));
    let q = Query::new(plan, Monoid::List, head).unwrap();
    let mut answers = Vec::new();
    for floor in [3, 7, 3] {
        let params = [(Symbol::new("$p"), Value::Int(floor))];
        answers.push(evaluated_agree(&format!("$p = {floor}"), &q, &snap, &params).unwrap());
    }
    assert_ne!(answers[0], answers[1], "the parameter changes the build side");
    assert_eq!(answers[0], answers[2]);
    assert_eq!(snap.memo().len(), 0, "a build reading a `$param` is never kept");
}

#[test]
fn evaluated_unbound_root_read_only_inside_a_leaf_fails_exactly_when_the_walk_does() {
    let db = join_store();
    let snap = db.snapshot();
    let r = || Expr::var("r");
    let reads_nope =
        Expr::comp(Monoid::Some, Expr::bool(true), vec![Expr::gen("z", Expr::var("Nope"))]);
    for (extent, fails) in [("R", true), ("Empty", false)] {
        for (place, plan, head) in [
            ("head", scan("r", extent), Expr::Tuple(vec![r().proj("id"), reads_nope.clone()])),
            (
                "filter",
                Plan::Filter { input: Box::new(scan("r", extent)), pred: reads_nope.clone() },
                r().proj("id"),
            ),
        ] {
            let label = format!("{place} over {extent}");
            let q = Query::new(plan, Monoid::List, head).unwrap();
            let walk = evaluated_agree(&label, &q, &snap, &[]);
            assert_eq!(walk.is_err(), fails, "{label}: {walk:?}");
        }
    }
}

#[test]
fn evaluated_poisoned_inner_rows_fail_like_the_walk() {
    let mut db = join_store();
    let row = |id: i64, kids: Vec<Value>| {
        Value::record_from(vec![("id", Value::Int(id)), ("kids", Value::list(kids))])
    };
    let poisoned = vec![Value::Int(1), Value::str("two"), Value::Int(3)];
    db.set_root("P", Value::list(vec![row(1, vec![Value::Int(4)]), row(2, poisoned)]));
    let snap = db.snapshot();
    let r = || Expr::var("r");
    let kid_sum = Expr::comp(Monoid::Sum, Expr::var("x"), vec![Expr::gen("x", r().proj("kids"))]);
    for (place, plan, head) in [
        ("head", scan("r", "P"), kid_sum.clone()),
        (
            "filter",
            Plan::Filter { input: Box::new(scan("r", "P")), pred: kid_sum.gt(Expr::int(0)) },
            r().proj("id"),
        ),
    ] {
        for monoid in [Monoid::List, Monoid::Sum] {
            let label = format!("{place}/{monoid}");
            let q = Query::new(plan.clone(), monoid, head.clone()).unwrap();
            assert!(evaluated_agree(&label, &q, &snap, &[]).is_err(), "{label}");
        }
    }
}

#[test]
fn evaluated_some_and_all_heads_stop_at_the_walks_witness() {
    let mut db = join_store();
    let row = |kids: Vec<Value>| Value::record_from(vec![("kids", Value::list(kids))]);
    let (one, five) = (|| Value::Int(1), || Value::Int(5));
    // The second row is the witness; the third poisons the inner sum.
    let rows = vec![row(vec![one()]), row(vec![five(), five()]), row(vec![Value::str("x")])];
    db.set_root("W", Value::list(rows));
    let snap = db.snapshot();
    let kid_sum = || {
        Expr::comp(Monoid::Sum, Expr::var("x"), vec![Expr::gen("x", Expr::var("r").proj("kids"))])
    };
    for (monoid, head, verdict) in [
        (Monoid::Some, kid_sum().gt(p()), true),
        (Monoid::All, kid_sum().le(p()), false),
    ] {
        let q = Query::new(scan("r", "W"), monoid.clone(), head).unwrap();
        let witness = [(Symbol::new("$p"), Value::Int(3))];
        let label = format!("{monoid}");
        assert_eq!(evaluated_agree(&label, &q, &snap, &witness), Ok(Value::Bool(verdict)));
        // No witness before it: both reach the poisoned row and fail alike.
        let none = [(Symbol::new("$p"), Value::Int(100))];
        assert!(evaluated_agree(&label, &q, &snap, &none).is_err(), "{label}");
    }
}

#[test]
fn evaluated_lambda_predicates_agree() {
    let db = join_store();
    let snap = db.snapshot();
    let r = || Expr::var("r");
    let over = |k: i64| Expr::lambda("k", Expr::var("k").gt(Expr::int(k)));
    for (label, pred) in [
        ("applied", over(1).apply(r().proj("id"))),
        ("let-bound", Expr::let_("f", over(2), Expr::var("f").apply(r().proj("id")))),
        // The lambda reads the row, not only its argument.
        ("closure", Expr::lambda("k", r().proj("id").gt(Expr::var("k"))).apply(Expr::int(3))),
    ] {
        let plan = Plan::Filter { input: Box::new(scan("r", "R")), pred };
        let q = Query::new(plan, Monoid::List, r().proj("id")).unwrap();
        let walk = evaluated_agree(label, &q, &snap, &[]).unwrap();
        assert!(walk.len().unwrap() > 0 && walk.len().unwrap() < 6, "{label}: {walk}");
    }
}

// -------------------------------------------------------------------------
// The profiler counts the fold: what each operator pushed, in plan order.
// -------------------------------------------------------------------------

#[test]
fn profiled_rows_are_what_each_operator_of_the_fold_pushed() {
    let db = travel::generate(TravelScale::tiny(), 13);
    let count = |quals: Vec<Qual>| {
        let q = plan_comprehension(&Expr::comp(Monoid::Sum, Expr::int(1), quals)).unwrap();
        match execute(&q, &db).unwrap() {
            Value::Int(n) => n as u64,
            v => panic!("{v:?}"),
        }
    };
    let (h, r) = (|| Expr::var("h"), || Expr::var("r"));
    let hotels = db.extent_len("Hotels") as u64;
    let rooms = count(vec![Expr::gen("h", Expr::var("Hotels")), Expr::gen("r", h().proj("rooms"))]);

    // Filter over Unnest over Scan, every row to the reduction.
    let chain = rooms_chain(Monoid::Bag, r().proj("bed#"));
    let analysis = execute_profiled_bound(&chain, &[], &db, &[]).unwrap();
    let p = &analysis.profile;
    let kept = analysis.value.elements().unwrap().len() as u64;
    let rows: Vec<u64> = p.operators.iter().map(|o| o.actual_rows).collect();
    assert_eq!(rows, [kept, rooms, hotels], "{}", p.render());
    assert_eq!((p.rows_to_reduce, p.short_circuited), (kept, false));

    // A counted self-join: each bucket adds its size, and the join
    // reports the table it indexed.
    let pairs = vec![
        Expr::gen("a", Expr::var("Hotels")),
        Expr::gen("b", Expr::var("Hotels")),
        Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("name"))),
    ];
    let join = plan_comprehension(&Expr::comp(Monoid::Sum, Expr::int(1), pairs)).unwrap();
    let p = execute_profiled_bound(&join, &[], &db, &[]).unwrap().profile;
    let counts: Vec<_> = p.operators.iter().map(|o| (o.kind, o.actual_rows, o.build_rows)).collect();
    assert_eq!(counts, [("join", hotels, hotels), ("scan", hotels, 0), ("scan", hotels, 0)]);

    // `some` stops at its witness, and says so.
    let some = rooms_chain(Monoid::Some, r().proj("bed#").ge(Expr::int(1)));
    let p = execute_profiled_bound(&some, &[], &db, &[]).unwrap().profile;
    assert!(p.short_circuited && p.rows_to_reduce == 1, "{}", p.render());
    assert_eq!(p.operators.last().map(|o| o.actual_rows), Some(1), "{}", p.render());
    // A counted scan hands even `some` all of its rows at once.
    let hotel = vec![Expr::gen("h", Expr::var("Hotels"))];
    let any = plan_comprehension(&Expr::comp(Monoid::Some, Expr::bool(true), hotel)).unwrap();
    let p = execute_profiled_bound(&any, &[], &db, &[]).unwrap().profile;
    assert!(p.short_circuited && p.rows_to_reduce == hotels, "{}", p.render());
}
