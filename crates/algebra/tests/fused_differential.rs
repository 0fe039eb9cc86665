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
//! joins, unnests, bare scans and keyed probes. The `lane_*` tests pin
//! chains folded over a dictionary-coded column — one attribute of an
//! extent's members, or of their collections' members — for every monoid,
//! float, int and string columns, errors as text, and each refusal. Every
//! battery also runs the profiler's counted fold (cold, no memo) and holds
//! it to the walk's answer; the `profiled_*` tests pin what it counts.

use monoid_algebra::error::ExecResult;
use monoid_algebra::{
    execute, execute_plan_walk_bound, execute_profiled_bound, execute_snapshot_bound,
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
    // Int keys (the ordered index), string keys (string buckets), and
    // both at once.
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
    // T.id is uniformly int — the ordered index — and R.f probes it.
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

/// Keys around 2^53, where the cast to `f64` rounds distinct ints onto
/// one float: `Float(2^53)` meets `Int(2^53)` and nothing else, whichever
/// side builds and whatever other keys the table holds — a table holding
/// only `2^53 + 1` answers it with nothing.
#[test]
fn joins_keyed_beyond_2_pow_53_agree_across_engines() {
    let p = 1_i64 << 53;
    let row = |id: i64, k: Value, s: &str| {
        let x = Value::Float(id as f64);
        Value::record_from(vec![("id", Value::Int(id)), ("k", k), ("s", Value::str(s)), ("x", x)])
    };
    let (int, float) = (Value::Int, |n: i64| Value::Float(n as f64));
    let mut db = Database::new(Schema::new());
    db.set_root("I", Value::list(vec![row(1, int(p + 1), "a"), row(2, int(p), "b"), row(3, int(p - 1), "c")]));
    db.set_root("J", Value::list(vec![row(4, int(p + 1), "d")]));
    db.set_root("F", Value::list(vec![row(5, float(p), "e"), row(6, float(p + 2), "f")]));
    db.set_root("X", Value::list(vec![row(7, int(p + 1), "g"), row(8, float(p), "h"), row(9, int(p), "i")]));
    for (left, right, pairs) in [
        ("F", "I", 1),
        ("I", "F", 1),
        ("F", "J", 0),
        ("J", "F", 0),
        ("F", "X", 2),
        ("I", "X", 3),
    ] {
        let label = format!("{left}-probes-{right}");
        let mut quals = gens(left, right);
        quals.push(on("k", "k"));
        assert_shape(&label, quals.clone(), lr_heads(), &mut db);
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
    assert_engines_agree("hash-join", &join, &mut db);
    let join = replanned(&join, |plan| {
        let Plan::Join { on, .. } = plan else { panic!("{plan:?}") };
        on[0].1 = Expr::comp(
            Monoid::Max,
            Expr::var("b").proj("name"),
            vec![Expr::gen("r", Expr::var("b").proj("rooms"))],
        );
    });
    assert_engines_agree("nested-comprehension-key", &join, &mut db);

    // A nested comprehension in the head (it allocates its own
    // accumulator per row).
    let allocating = rooms_chain(Monoid::Sum, Expr::comp(Monoid::Sum, Expr::int(1), vec![]));
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
    // The table and the lane of `m.dept` the counted join folds over.
    let cold = fused_checked(&plan, &snap, &weight(3));
    assert_eq!((snap.memo().len(), snap.memo().misses()), (2, 2));
    // A different weight, another clone of the snapshot, and the database
    // itself (its current state shares the memo): nothing is built again.
    assert_eq!(fused_checked(&plan, &snap, &weight(3)), cold);
    assert_eq!(fused_checked(&plan, &snap.clone(), &weight(5)), Value::Int(24 * 5));
    assert_eq!(fused_checked(&plan, &db, &weight(1)), Value::Int(24));
    assert_eq!((snap.memo().len(), snap.memo().misses()), (2, 2));
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
/// it is never kept, so each binding gets its own answer. The lane of
/// `m.dept`, which reads none, is.
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
        let snap = db.snapshot();
        let mut answers = Vec::new();
        for (a, staff) in [(30, &staff), (50, &staff_half)] {
            let mut params = weight(1);
            params.push((Symbol::new("$a"), Value::Int(a)));
            params.push((Symbol::new("$staff"), staff.clone()));
            answers.push(fused_checked(&plan, &snap, &params));
        }
        assert_ne!(answers[0], answers[1], "the two bindings differ");
        assert_eq!((snap.memo().len(), snap.memo().misses()), (1, 1), "the lane alone");
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
    assert_eq!((db.memo().len(), db.memo().misses()), (2, 2));
}

// -------------------------------------------------------------------------
// Keyed filters: `x.f = e` directly over `x ← E` probes the scan's table.
// -------------------------------------------------------------------------

/// Extents for keyed filters: `K` mixes int, float and null keys (the
/// ordered index), `I` has int keys only (the same index), `B` is a bag
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
        // The fold ran, and kept this snapshot's tables — the dept join's
        // and the name probe's — and the lane of `m.dept` that
        // `join-wire`'s counted join folds over.
        assert_eq!(snap.memo().len(), 3, "{at}");
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

// -------------------------------------------------------------------------
// Roots read by a compiled expression: read once per run, on the first row
// that reads them, and failing only where the walk's read fails.
// -------------------------------------------------------------------------

#[test]
fn root_read_by_a_compiled_filter_is_read_once_and_fails_like_the_walk() {
    let e = || Expr::var("e");
    let floor = Expr::comp(
        Monoid::Sum,
        Expr::int(1),
        vec![
            Expr::gen("e", Expr::var(company::names::EMPLOYEES)),
            Expr::pred(e().proj("salary").ge(Expr::var("Floor"))),
        ],
    );
    let plan = plan_comprehension(&floor).unwrap();
    let mut db = company();
    let mut unbound = db.clone();
    db.set_root("Floor", Value::Int(60_000));
    for (label, db) in [("bound", &mut db), ("unbound", &mut unbound)] {
        let walk = execute_plan_walk_bound(&plan, db, &[]);
        assert_eq!(walk.is_ok(), label == "bound", "{label}: {walk:?}");
        let fused = fused_twice(label, &plan, db);
        assert_eq!(fused, walk, "{label}: fused ≠ walk");
        if let (Err(w), Err(f)) = (&walk, &fused) {
            assert_eq!(w.to_string(), f.to_string(), "{label}: error text");
        }
        assert_profiled_agrees(label, &plan, db, &[], &walk);
        if let Ok(v) = &walk {
            assert_eq!(v, &db.query(&floor).unwrap(), "{label}: walk ≠ evaluator");
        }
    }
    // Over an empty extent no row reads the root: the empty sum.
    unbound.set_root(company::names::EMPLOYEES, Value::bag_from(Vec::new()));
    assert_eq!(execute_plan_walk_bound(&plan, &unbound, &[]), Ok(Value::Int(0)));
    assert_eq!(fused_twice("empty", &plan, &unbound), Ok(Value::Int(0)));
}

// -------------------------------------------------------------------------
// Lanes: a reduction chain whose filters and head read one attribute of an
// extent's members — or of the members of one of their collections — folds
// a dictionary-coded column the snapshot's memo keeps. The `lane_*` tests
// pin it to the walk, fresh and from the memo, for every monoid over float,
// int and string lanes at both depths, errors as text, and pin each
// refusal.
// -------------------------------------------------------------------------

/// The distinct values of a lane of `kind`: floats include both zeros and
/// two NaN payloads.
fn lane_values(kind: &str) -> Vec<Value> {
    match kind {
        "float" => {
            let nan = f64::from_bits(0x7ff8_0000_0000_0001);
            [2.5, -0.0, 0.0, 7.25, f64::NAN, nan, -1.5, 100.0].map(Value::Float).to_vec()
        }
        "int" => [3, -2, 0, 7, 2, 11].map(Value::Int).to_vec(),
        _ => ["b", "a", "", "zz", "m"].map(Value::str).to_vec(),
    }
}

/// Three rows per distinct value of `kind`, interleaved, as records
/// `⟨v, id⟩`: a lane keeps a dictionary of at most half its rows.
fn lane_rows(kind: &str) -> Vec<Value> {
    lane_rows_of(lane_values(kind))
}

/// Three rows per value of `values`, interleaved, as records `⟨v, id⟩`:
/// round `r` puts value `(s·j + r) mod n` at its `j`th row, for the first
/// stride `s ≥ 5` prime to `n`, so every round holds every value once.
fn lane_rows_of(values: Vec<Value>) -> Vec<Value> {
    let n = values.len();
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let stride = (5..).find(|&s| gcd(s, n.max(1)) == 1).expect("a stride prime to n");
    let rows: Vec<Value> = (0..3 * n)
        .map(|i| {
            let v = values[(i * stride + i / n) % n].clone();
            Value::record_from(vec![("v", v), ("id", Value::Int(i as i64))])
        })
        .collect();
    for v in &values {
        let held = rows.iter().any(|r| r.field(Symbol::new("v")) == Some(v));
        assert!(held, "{v:?} is held by a row");
    }
    rows
}

/// Holders `⟨items⟩` of `rows`, in order, with empty holders first, among
/// them and last.
fn holders(rows: Vec<Value>, coll: fn(Vec<Value>) -> Value) -> Value {
    let holder = |items: Vec<Value>| Value::record_from(vec![("items", coll(items))]);
    let half = rows.len() / 2;
    Value::list(vec![
        holder(Vec::new()),
        holder(rows[..half].to_vec()),
        holder(Vec::new()),
        holder(rows[half..].to_vec()),
        holder(Vec::new()),
    ])
}

/// For each kind (`F`loat, `I`nt, `S`tring): `D0<k>`, a class-like bag of
/// objects whose state is a row (depth 0); `D1<k>`, holders whose `items`
/// list the rows (depth 1); and `DB<k>`, holders whose `items` are bags,
/// so repeated rows come out of one run. `Empty` has no member.
fn lane_store() -> Database {
    let mut db = Database::new(Schema::new());
    for (k, kind) in [("F", "float"), ("I", "int"), ("S", "string")] {
        let rows = lane_rows(kind);
        let objects = rows.iter().map(|r| Value::Obj(db.heap_mut().alloc(r.clone()))).collect();
        db.set_root(format!("D0{k}").as_str(), Value::bag_from(objects));
        db.set_root(format!("D1{k}").as_str(), holders(rows.clone(), Value::list));
        let doubled = rows.iter().chain(&rows).cloned().collect();
        db.set_root(format!("DB{k}").as_str(), holders(doubled, Value::bag_from));
    }
    db.set_root("Empty", Value::list(Vec::new()));
    db
}

/// `⊕{ head | <var> ← <extent>[, r ← <var>.items][, pred] }`: `x` reads
/// the attribute of the trailing generator.
fn lane_plan(monoid: Monoid, head: Expr, extent: &str, pred: Option<Expr>) -> Query {
    plan_comprehension(&lane_comp(monoid, head, extent, pred.into_iter().collect())).unwrap()
}

/// `⊕{ head | <var> ← <extent>[, r ← <var>.items], preds… }`, one filter
/// per predicate.
fn lane_comp(monoid: Monoid, head: Expr, extent: &str, preds: Vec<Expr>) -> Expr {
    let var = if extent.starts_with("D0") { "x" } else { "h" };
    let mut quals = vec![Expr::gen(var, Expr::var(extent))];
    if var == "h" {
        quals.push(Expr::gen("x", Expr::var("h").proj("items")));
    }
    quals.extend(preds.into_iter().map(Expr::pred));
    Expr::comp(monoid, head, quals)
}

/// The attribute.
fn x() -> Expr {
    Expr::var("x").proj("v")
}

/// One head per non-lifted monoid over a lane of `kind`, compared with
/// `$c`: the attribute itself wherever the monoid takes it, a value
/// computed from it where it does not.
fn lane_heads(kind: &str) -> Vec<(Monoid, Expr)> {
    let c = || Expr::param("$c");
    let numeric = kind != "string";
    let num = if numeric { x() } else { Expr::if_(x().ge(c()), Expr::int(1), Expr::int(2)) };
    let text = if numeric { Expr::if_(x().ge(c()), Expr::str("hi"), Expr::str("lo")) } else { x() };
    vec![
        (Monoid::Sum, num.clone()),
        (Monoid::Prod, num),
        (Monoid::Max, x()),
        (Monoid::Min, x()),
        (Monoid::Some, x().ge(c())),
        (Monoid::All, x().ne(c())),
        (Monoid::List, x()),
        (Monoid::Bag, x()),
        (Monoid::Set, x()),
        (Monoid::Sorted, x()),
        (Monoid::SortedBag, x()),
        (Monoid::OSet, x()),
        (Monoid::Str, text),
    ]
}

/// The parameters a lane of `kind` is compared with: `$c` of its kind,
/// and an `Int` `$floor`.
fn lane_params(kind: &str) -> Vec<(Symbol, Value)> {
    let c = match kind {
        "float" => Value::Float(0.0),
        "int" => Value::Int(3),
        _ => Value::str("b"),
    };
    vec![(Symbol::new("$c"), c), (Symbol::new("$floor"), Value::Int(2))]
}

/// Fused and walk answers are one value: equal under `Value::cmp` (which
/// tells the zeros and NaN payloads apart) and printed alike (which tells
/// `1` from `1.0`), or one error, word for word.
fn assert_identical(label: &str, fused: &ExecResult<Value>, walk: &ExecResult<Value>) {
    assert_eq!(fused, walk, "{label}: fused ≠ walk");
    assert_eq!(format!("{fused:?}"), format!("{walk:?}"), "{label}: not byte-identical");
    if let (Err(f), Err(w)) = (fused, walk) {
        assert_eq!(f.to_string(), w.to_string(), "{label}: error text");
    }
}

/// The walk's answer for `plan` on a fresh snapshot of `db`, after the
/// fused fold gave the identical answer twice there — fresh, then from the
/// memo, building nothing the second time — and the profiler's counted
/// fold gave it too; and whether the memo kept a lane (a refusal is kept
/// too, in no bytes).
fn lane_agree(
    label: &str,
    plan: &Query,
    db: &Database,
    params: &[(Symbol, Value)],
) -> (ExecResult<Value>, bool) {
    let snap = db.clone().snapshot();
    let walk = execute_plan_walk_bound(plan, &snap, params);
    let fresh = execute_snapshot_bound(plan, &snap, params);
    let built = snap.memo().misses();
    let kept = execute_snapshot_bound(plan, &snap, params);
    assert_eq!(snap.memo().misses(), built, "{label}: the second run built again");
    assert_identical(&format!("{label} (fresh)"), &fresh, &walk);
    assert_identical(&format!("{label} (memo)"), &kept, &walk);
    assert_profiled_agrees(label, plan, &snap, params, &walk);
    (walk, snap.memo().bytes() > 0)
}

#[test]
fn lane_every_monoid_over_float_int_and_string_lanes_at_both_depths_agrees() {
    let db = lane_store();
    let preds = |kind: &str| {
        let mut preds = vec![None, Some(x().ge(Expr::param("$c")))];
        if kind == "float" {
            // An `Int` floor against a float lane.
            preds.push(Some(x().ge(Expr::param("$floor"))));
        }
        preds
    };
    for (k, kind) in [("F", "float"), ("I", "int"), ("S", "string")] {
        let params = lane_params(kind);
        for extent in [format!("D0{k}"), format!("D1{k}"), format!("DB{k}")] {
            for pred in preds(kind) {
                for (monoid, head) in lane_heads(kind) {
                    let label = format!("{extent}/{pred:?}/{monoid}");
                    let plan = lane_plan(monoid, head, &extent, pred.clone());
                    let (walk, lane) = lane_agree(&label, &plan, &db, &params);
                    assert!(walk.is_ok(), "{label}: {walk:?}");
                    assert!(lane, "{label}: no lane");
                }
            }
        }
    }
    // Not vacuous: both zeros and both NaNs are runs of their own, the
    // `Int` floor meets the floats numerically (and NaN orders above every
    // number), and holders' empty lists contribute nothing.
    let bag = |extent: &str, pred| {
        let plan = lane_plan(Monoid::Bag, x(), extent, pred);
        execute_snapshot_bound(&plan, &db, &lane_params("float")).unwrap()
    };
    let Value::Bag(runs) = bag("D1F", None) else { panic!() };
    assert_eq!(runs.len(), 8);
    assert!(runs.iter().all(|(_, n)| *n == 3), "{runs:?}");
    let Value::Bag(runs) = bag("DBF", Some(x().ge(Expr::param("$floor")))) else { panic!() };
    let kept: Vec<_> = runs.iter().map(|(v, n)| (format!("{v}"), *n)).collect();
    let nan = || ("NaN".to_string(), 6);
    assert_eq!(kept, [("2.5".into(), 6), ("7.25".into(), 6), ("100".into(), 6), nan(), nan()]);
}

#[test]
fn lane_over_an_empty_extent_and_empty_collections_agrees() {
    let mut db = lane_store();
    db.set_root("D1E", holders(Vec::new(), Value::list));
    for extent in ["Empty", "D1E"] {
        for (monoid, head) in lane_heads("int") {
            let label = format!("{extent}/{monoid}");
            let plan = lane_plan(monoid, head, extent, Some(x().ge(Expr::param("$c"))));
            let (walk, lane) = lane_agree(&label, &plan, &db, &lane_params("int"));
            assert!(walk.is_ok() && lane, "{label}: {walk:?}");
        }
    }
}

/// A filter or a head that fails on some values: the run fails with the
/// error of the first row, in the walk's order, whose value fails — a
/// division by zero at `2`, a projection out of an int at `at` — or ends
/// with a verdict before it. The rows read `3, 11, 2, 7, …`, so at `11`
/// the projection comes first and at `7` the division does.
#[test]
fn lane_a_filter_or_head_failing_on_some_values_fails_at_the_walks_first_row() {
    let db = lane_store();
    let ten_over = || Expr::int(10).div(x().sub(Expr::int(2)));
    let failing = |at: i64| {
        let projected = x().proj("f").ge(Expr::int(0));
        Expr::if_(x().eq(Expr::int(at)), projected, ten_over().ge(Expr::int(0)))
    };
    let params = lane_params("int");
    let mut errors = Vec::new();
    for extent in ["D0I", "D1I", "DBI"] {
        for at in [11, 7] {
            for (monoid, head) in lane_heads("int") {
                let label = format!("{extent}/{at}/{monoid}/filter");
                let plan = lane_plan(monoid.clone(), head, extent, Some(failing(at)));
                let (walk, lane) = lane_agree(&label, &plan, &db, &params);
                assert!(lane, "{label}: no lane");
                errors.push(walk.err().map(|e| e.to_string()));
                let label = format!("{extent}/{at}/{monoid}/head");
                let plan = lane_plan(monoid, failing(at), extent, None);
                let (walk, lane) = lane_agree(&label, &plan, &db, &params);
                assert!(lane, "{label}: no lane");
                errors.push(walk.err().map(|e| e.to_string()));
            }
        }
    }
    // Both errors are met first somewhere, and not every run fails.
    let has = |text: &str| errors.iter().flatten().any(|e| e.contains(text));
    assert!(has("division") && has("project"), "{errors:?}");
    assert!(errors.iter().any(Option::is_none), "{errors:?}");
}

/// `some` and `all` stop at the walk's witness: a row after it whose head
/// is read fails, so a fold that went on would report an error.
#[test]
fn lane_some_and_all_stop_mid_lane_where_the_walk_stops() {
    let db = lane_store();
    let bad = || Expr::int(10).div(x().sub(Expr::int(2))).ge(Expr::int(0));
    let witness = || x().eq(Expr::int(11));
    for extent in ["D0I", "D1I", "DBI"] {
        for (monoid, head, verdict) in [
            (Monoid::Some, witness().or(bad()), true),
            (Monoid::All, witness().not().and(bad()), false),
        ] {
            let label = format!("{extent}/{monoid}");
            // The rows read `3, 11, 2, …`: the witness is the second row,
            // the first `2` the third.
            let plan = lane_plan(monoid, head, extent, Some(x().ne(Expr::int(-2))));
            let (walk, lane) = lane_agree(&label, &plan, &db, &lane_params("int"));
            assert_eq!(walk, Ok(Value::Bool(verdict)), "{label}");
            assert!(lane, "{label}: no lane");
        }
    }
}

/// Each refusal: a dangling object, a path that is no collection, a
/// missing attribute, a column mixing ints with floats, and one whose
/// values never repeat. The refusal is kept for the epoch, and the run is
/// the plain chain's — the walk's error, or the walk's value.
#[test]
fn lane_refusals_run_the_plain_chain() {
    let mut db = lane_store();
    let mut rows = lane_rows("int");
    let objects: Vec<_> = rows.iter().map(|r| Value::Obj(db.heap_mut().alloc(r.clone()))).collect();
    let mut dangling = objects.clone();
    dangling.insert(4, Value::Obj(monoid_calculus::value::Oid(9_999)));
    db.set_root("Dangling", Value::list(dangling));
    let mut not_a_collection = holders(rows.clone(), Value::list).elements().unwrap();
    not_a_collection.insert(2, Value::record_from(vec![("items", Value::Int(5))]));
    db.set_root("NotCollection", Value::list(not_a_collection));
    let mut missing = rows.clone();
    missing.insert(7, Value::record_from(vec![("id", Value::Int(99))]));
    db.set_root("Missing", holders(missing, Value::list));
    // `1` meets `1.0` under `Value::cmp`: which one a bag keeps shows.
    // Each value comes six times, three of them as a float, so the
    // dictionary would be small enough to keep.
    rows.extend(rows.clone());
    rows.iter_mut().step_by(2).for_each(|r| {
        let id = r.field(Symbol::new("id")).unwrap().clone();
        let Value::Int(v) = r.field(Symbol::new("v")).unwrap().clone() else { panic!() };
        *r = Value::record_from(vec![("v", Value::Float(v as f64)), ("id", id)]);
    });
    db.set_root("Mixed", holders(rows, Value::list));
    // Every value once: a dictionary as long as the rows.
    let row = |i| Value::record_from(vec![("v", Value::Int(i)), ("id", Value::Int(i))]);
    db.set_root("Distinct", holders((0..20).map(row).collect(), Value::list));
    for (extent, fails) in [
        ("Dangling", true),
        ("NotCollection", true),
        ("Missing", true),
        ("Mixed", false),
        ("Distinct", false),
    ] {
        for (monoid, head) in lane_heads("int") {
            let label = format!("{extent}/{monoid}");
            let var = if extent == "Dangling" { "x" } else { "h" };
            let mut quals = vec![Expr::gen(var, Expr::var(extent))];
            if var == "h" {
                quals.push(Expr::gen("x", Expr::var("h").proj("items")));
            }
            let plan = plan_comprehension(&Expr::comp(monoid, head, quals)).unwrap();
            let (walk, lane) = lane_agree(&label, &plan, &db, &lane_params("int"));
            assert!(!lane, "{label}: a lane was kept");
            if !matches!(walk, Ok(Value::Bool(_))) {
                assert_eq!(walk.is_err(), fails, "{label}: {walk:?}");
            }
        }
    }
}

/// `bulk-rows`' store: 50 hotels of `rooms` rooms each, priced in 360
/// whole amounts — 20 000 rooms at the workload's size, and a lane at
/// 1 000 already (a lane keeps a dictionary of at most half its rows).
fn bulk_rows_store(rooms: usize) -> Database {
    let scale = TravelScale {
        cities: 10,
        hotels_per_city: 5,
        rooms_per_hotel: rooms,
        employees_per_hotel: 0,
        clients: 0,
    };
    travel::generate(scale, 1995)
}

const BULK_ROWS: &str = "select r.price from h in Hotels, r in h.rooms where r.price >= $floor";

fn floor(f: f64) -> Vec<(Symbol, Value)> {
    vec![(Symbol::new("$floor"), Value::Float(f))]
}

#[test]
fn memo_keeps_a_lane_once_per_epoch() {
    let db = bulk_rows_store(20);
    let plan = prepared(&db, BULK_ROWS);
    let snap = db.snapshot();
    let cold = fused_checked(&plan, &snap, &floor(120.0));
    assert_eq!((snap.memo().len(), snap.memo().misses()), (1, 1));
    assert!(snap.memo().bytes() > 1_000 * 4, "the lane is charged to the memo");
    // Another floor, another clone of the snapshot, and the database
    // itself: the one lane serves them all.
    assert_eq!(fused_checked(&plan, &snap, &floor(120.0)), cold);
    assert_ne!(fused_checked(&plan, &snap.clone(), &floor(50.0)), cold);
    fused_checked(&plan, &db, &floor(200.0));
    assert_eq!((snap.memo().len(), snap.memo().misses()), (1, 1));
}

#[test]
fn memo_forgets_a_lane_on_every_write_between_executions() {
    let mut db = bulk_rows_store(20);
    let plan = prepared(&db, BULK_ROWS);
    let before = fused_checked(&plan, &db, &floor(0.0));
    assert_eq!(db.memo().misses(), 1);
    let room = Value::record_from(vec![("bed#", Value::Int(2)), ("price", Value::Float(1.0e6))]);
    let hotel = Value::record_from(vec![
        ("name", Value::str("annex")),
        ("address", Value::str("-")),
        ("facilities", Value::set_from(Vec::new())),
        ("employees", Value::list(Vec::new())),
        ("rooms", Value::list(vec![room.clone(), room])),
    ]);
    db.insert(Symbol::new(travel::names::HOTEL), hotel).unwrap();
    assert!(db.memo().is_empty(), "a write starts a fresh memo");
    let after = fused_checked(&plan, &db, &floor(0.0));
    assert_eq!(after.len().unwrap(), before.len().unwrap() + 2);
    assert_eq!((db.memo().len(), db.memo().misses()), (1, 1));
}

/// `bulk-rows`' statement profiled over its lane: the walk's rows per
/// operator — every hotel scanned, every room unnested, the kept rows
/// filtered — and a `some` that stops mid-lane counts what the plain
/// chain counts up to its witness.
#[test]
fn profiled_lane_reports_the_walks_rows_per_operator() {
    let db = bulk_rows_store(400);
    let plan = prepared(&db, BULK_ROWS);
    let analysis = execute_profiled_bound(&plan, &[], &db, &floor(120.0)).unwrap();
    let p = &analysis.profile;
    let kept = analysis.value.len().unwrap() as u64;
    let rows: Vec<_> = p.operators.iter().map(|o| (o.kind, o.actual_rows)).collect();
    assert_eq!(rows, [("filter", kept), ("unnest", 20_000), ("scan", 50)], "{}", p.render());
    assert!(0 < kept && kept < 20_000 && !p.short_circuited);
    // The same `some` over the lane and as a plain chain (its filter reads
    // a second attribute): the same rows, the same stop.
    let r = || Expr::var("r");
    let some = |pred: Expr| {
        let quals = vec![
            Expr::gen("h", Expr::var("Hotels")),
            Expr::gen("r", Expr::var("h").proj("rooms")),
            Expr::pred(pred),
        ];
        let comp = Expr::comp(Monoid::Some, r().proj("price").ge(Expr::param("$floor")), quals);
        plan_comprehension(&comp).unwrap()
    };
    let priced = || r().proj("price").ge(Expr::float(100.0));
    let lane = some(priced());
    let plain = some(priced().and(r().proj("bed#").ge(Expr::int(0))));
    // The first room at the dearest price is the witness.
    let dearest = dearest_price(&db);
    let profile = |q: &Query| {
        let p = execute_profiled_bound(q, &[], &db, &floor(dearest)).unwrap().profile;
        let rows: Vec<_> = p.operators.iter().map(|o| o.actual_rows).collect();
        (rows, p.short_circuited, p.rows_to_reduce)
    };
    let (rows, stopped, reduced) = profile(&lane);
    assert_eq!((rows.clone(), stopped, reduced), profile(&plain));
    assert!(stopped && rows[1] < 20_000 && rows[2] <= 50, "{rows:?}");
    let snap = db.snapshot();
    execute_snapshot_bound(&lane, &snap, &floor(dearest)).unwrap();
    assert!(snap.memo().bytes() > 0, "the `some` took the lane");

    // Over the lane store, whose first holder is empty: `some` and `all`
    // stop in the second, and both count the empty one as scanned; `sum`
    // scans every holder, the trailing empty one too.
    let db = lane_store();
    let plain_twin = x().ne(Expr::int(-2)).and(Expr::var("x").proj("id").ge(Expr::int(0)));
    for extent in ["D0I", "D1I", "DBI"] {
        for (monoid, head) in [
            (Monoid::Some, x().eq(Expr::int(11))),
            (Monoid::All, x().ne(Expr::int(11))),
            (Monoid::Sum, x()),
        ] {
            let label = format!("{extent}/{monoid}");
            let lane = lane_plan(monoid.clone(), head.clone(), extent, Some(x().ne(Expr::int(-2))));
            let plain = lane_plan(monoid, head, extent, Some(plain_twin.clone()));
            let profile = |q: &Query| {
                let p = execute_profiled_bound(q, &[], &db, &[]).unwrap().profile;
                let rows: Vec<_> = p.operators.iter().map(|o| o.actual_rows).collect();
                (rows, p.short_circuited, p.rows_to_reduce)
            };
            assert_eq!(profile(&lane), profile(&plain), "{label}");
            assert!(lane_agree(&label, &lane, &db, &[]).1, "{label}: no lane");
        }
    }
}

/// The dearest room's price.
fn dearest_price(db: &Database) -> f64 {
    let r = Expr::var("r").proj("price");
    let quals =
        vec![Expr::gen("h", Expr::var("Hotels")), Expr::gen("r", Expr::var("h").proj("rooms"))];
    let plan = plan_comprehension(&Expr::comp(Monoid::Max, r, quals)).unwrap();
    match execute(&plan, db).unwrap() {
        Value::Float(x) => x,
        v => panic!("{v:?}"),
    }
}

// -------------------------------------------------------------------------
// Lane ranges: a filter comparing the attribute with an operand that reads
// no row — a literal, a `$param`, a root — keeps blocks of the sorted
// dictionary, found by bisection. The `lane_range_*` tests pin every
// comparison on either side to the walk, where `Value::cmp` crosses kinds,
// and where a range meets errors, an unbound root and `some`/`all`.
// -------------------------------------------------------------------------

/// `attr op operand` and `operand op attr`.
fn both_sides(op: CompareOp, operand: &Expr) -> [(&'static str, Expr); 2] {
    [("attr first", op(x(), operand.clone())), ("attr second", op(operand.clone(), x()))]
}

/// Run every monoid over the lane with each of `preds`, and check the
/// lane was taken and every run identical to the walk's; the bags each
/// predicate kept, as text.
fn lane_range_cases(
    db: &Database,
    extents: &[&str],
    kind: &str,
    preds: &[(String, Expr)],
    params: &[(Symbol, Value)],
) -> Vec<String> {
    let mut bags = Vec::new();
    for extent in extents {
        for (label, pred) in preds {
            for (monoid, head) in lane_heads(kind) {
                let label = format!("{extent}/{label}/{monoid}");
                let plan = lane_plan(monoid.clone(), head, extent, Some(pred.clone()));
                let (walk, lane) = lane_agree(&label, &plan, db, params);
                assert!(lane, "{label}: no lane");
                if monoid == Monoid::Bag {
                    bags.push(format!("{walk:?}"));
                }
            }
        }
    }
    bags
}

#[test]
fn lane_range_every_compare_on_either_side_of_a_literal_a_param_and_a_root_agrees() {
    let mut db = lane_store();
    for (k, kind, literal, root) in [
        ("F", "float", Value::Float(2.5), Value::Float(1.0)),
        ("I", "int", Value::Int(3), Value::Int(5)),
        ("S", "string", Value::str("m"), Value::str("c")),
    ] {
        db.set_root("C", root);
        let lit = match literal {
            Value::Float(f) => Expr::float(f),
            Value::Int(i) => Expr::int(i),
            _ => Expr::str("m"),
        };
        let mut preds = Vec::new();
        for (name, op) in compares() {
            for (operand, e) in
                [("literal", lit.clone()), ("$c", Expr::param("$c")), ("root", Expr::var("C"))]
            {
                for (side, pred) in both_sides(op, &e) {
                    preds.push((format!("{name} {operand}, {side}"), pred));
                }
            }
        }
        let extents = [format!("D0{k}"), format!("D1{k}"), format!("DB{k}")];
        let extents: Vec<&str> = extents.iter().map(String::as_str).collect();
        let bags = lane_range_cases(&db, &extents, kind, &preds, &lane_params(kind));
        // Not vacuous: the comparisons keep different entries.
        let mut distinct = bags.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() >= 6, "{kind}: {distinct:?}");
    }
}

#[test]
fn lane_range_crosses_kinds_as_value_cmp_does() {
    let mut db = lane_store();
    // Around 2^53 an `Int` and its `as f64` part: 2^53 + 1 rounds to 2^53
    // yet orders above it, so a float 2^53 equals one entry of the int
    // lane and is below the next.
    let two53 = 1i64 << 53;
    let big: Vec<Value> = [two53 - 1, two53, two53 + 1, two53 + 2, -5, 0].map(Value::Int).to_vec();
    db.set_root("D1Big", holders(lane_rows_of(big), Value::list));
    let nan = f64::from_bits(0x7ff8_0000_0000_0001);
    let cases: [(&str, &[&str], Vec<Expr>); 3] = [
        (
            "int",
            &["D1Big"],
            vec![Expr::float(two53 as f64), Expr::float((two53 + 2) as f64), Expr::float(2.5)],
        ),
        (
            "float",
            &["D0F", "D1F", "DBF"],
            [0.0, -0.0, f64::NAN, nan, f64::INFINITY]
                .map(Expr::float)
                .into_iter()
                .chain([Expr::int(0), Expr::int(7)])
                .collect(),
        ),
        ("string", &["D1S", "DBS"], vec![Expr::int(3), Expr::float(1.5), Expr::bool(true)]),
    ];
    for (kind, extents, operands) in cases {
        let mut preds = Vec::new();
        for (name, op) in compares() {
            for operand in &operands {
                for (side, pred) in both_sides(op, operand) {
                    preds.push((format!("{name} {operand:?}, {side}"), pred));
                }
            }
        }
        lane_range_cases(&db, extents, kind, &preds, &lane_params(kind));
    }
    // Not vacuous: the float 2^53 equals the int 2^53 alone, 2^53 + 1 is
    // above it although the cast rounds it onto it, and a string lane is
    // greater than every number.
    let bag = |extent, pred| {
        execute_snapshot_bound(&lane_plan(Monoid::Bag, x(), extent, Some(pred)), &db, &[]).unwrap()
    };
    let thrice = |ints: &[i64]| {
        Value::Bag(ints.iter().map(|v| (Value::Int(*v), 3)).collect::<Vec<_>>().into())
    };
    assert_eq!(bag("D1Big", x().eq(Expr::float(two53 as f64))), thrice(&[two53]));
    assert_eq!(bag("D1Big", x().gt(Expr::float(two53 as f64))), thrice(&[two53 + 1, two53 + 2]));
    assert_eq!(bag("D1S", x().gt(Expr::int(3))).len().unwrap(), 15);
    assert_eq!(bag("D1S", Expr::int(3).ge(x())).len().unwrap(), 0);
}

#[test]
fn lane_range_two_ranges_and_a_range_beside_a_failing_filter_agree() {
    let db = lane_store();
    let c = || Expr::param("$c");
    // Rows hold `3, -2, 0, 7, 2, 11`; `10 / (v - 7)` fails at 7 only.
    let fails_at_7 = || Expr::int(10).div(x().sub(Expr::int(7))).ge(Expr::int(0));
    let cases = [
        ("empty intersection", vec![x().gt(Expr::int(7)), x().lt(c())], true),
        ("one entry", vec![x().ge(c()), c().ge(x())], true),
        ("range keeps 7, then fails", vec![x().ge(c()), fails_at_7()], false),
        ("range drops 7, then no failure", vec![x().gt(Expr::int(7)), fails_at_7()], true),
        ("range drops 7 after it failed", vec![fails_at_7(), x().gt(Expr::int(7))], false),
        ("range drops all, then fails nowhere", vec![x().gt(Expr::int(11)), fails_at_7()], true),
    ];
    let params = lane_params("int");
    for extent in ["D0I", "D1I", "DBI"] {
        for (label, preds, succeeds) in &cases {
            for (monoid, head) in lane_heads("int") {
                let label = format!("{extent}/{label}/{monoid}");
                let comp = lane_comp(monoid.clone(), head, extent, preds.clone());
                let plan = plan_comprehension(&comp).unwrap();
                let (walk, lane) = lane_agree(&label, &plan, &db, &params);
                assert!(lane, "{label}: no lane");
                // `some`/`all` may stop before the failing row.
                if !matches!(monoid, Monoid::Some | Monoid::All) {
                    assert_eq!(walk.is_ok(), *succeeds, "{label}: {walk:?}");
                }
            }
        }
    }
}

/// A range whose operand is an unbound root fails the run at the first
/// row that reaches it: never over an empty extent or empty collections,
/// never when an earlier range dropped every entry, and with the walk's
/// error otherwise.
#[test]
fn lane_range_over_an_unbound_root_fails_only_where_a_row_reaches_it() {
    let mut db = lane_store();
    db.set_root("D1E", holders(Vec::new(), Value::list));
    let unbound = || Expr::var("Unbound");
    for (extent, preds, succeeds) in [
        ("Empty", vec![x().ge(unbound())], true),
        ("D1E", vec![unbound().lt(x())], true),
        ("D1I", vec![x().gt(Expr::int(11)), x().ge(unbound())], true),
        ("D0I", vec![x().ge(unbound())], false),
        ("D1I", vec![unbound().ne(x())], false),
        ("DBI", vec![x().gt(Expr::int(2)), x().eq(unbound())], false),
    ] {
        for (monoid, head) in lane_heads("int") {
            let label = format!("{extent}/{preds:?}/{monoid}");
            let plan = plan_comprehension(&lane_comp(monoid, head, extent, preds.clone())).unwrap();
            let (walk, lane) = lane_agree(&label, &plan, &db, &lane_params("int"));
            assert!(lane, "{label}: no lane");
            assert_eq!(walk.is_ok(), succeeds, "{label}: {walk:?}");
            if let Err(e) = walk {
                assert!(e.to_string().contains("Unbound"), "{label}: {e}");
            }
        }
    }
}

/// `some` and `all` behind a range stop at the walk's witness — a row
/// after it whose head fails is never read — and profile the rows the
/// plain chain counts up to there.
#[test]
fn lane_range_some_and_all_stop_where_the_walk_stops() {
    let db = lane_store();
    // The rows read `3, 11, 2, 7, …`; `x ≥ 3` keeps `3, 11, 7`: the
    // witness is the second kept row, and 7's head fails.
    let bad = || Expr::int(10).div(x().sub(Expr::int(7))).ge(Expr::int(0));
    let witness = || x().eq(Expr::int(11));
    let range = || x().ge(Expr::param("$c"));
    let plain_twin = || range().and(Expr::var("x").proj("id").ge(Expr::int(0)));
    for extent in ["D0I", "D1I", "DBI"] {
        for (monoid, head, verdict) in [
            (Monoid::Some, witness().or(bad()), true),
            (Monoid::All, witness().not().and(bad().not()), false),
        ] {
            let label = format!("{extent}/{monoid}");
            let lane = lane_plan(monoid.clone(), head.clone(), extent, Some(range()));
            let (walk, taken) = lane_agree(&label, &lane, &db, &lane_params("int"));
            assert_eq!(walk, Ok(Value::Bool(verdict)), "{label}");
            assert!(taken, "{label}: no lane");
            let plain = lane_plan(monoid, head, extent, Some(plain_twin()));
            let profile = |q: &Query| {
                let p = execute_profiled_bound(q, &[], &db, &lane_params("int")).unwrap().profile;
                let rows: Vec<_> = p.operators.iter().map(|o| o.actual_rows).collect();
                (rows, p.short_circuited, p.rows_to_reduce)
            };
            assert_eq!(profile(&lane), profile(&plain), "{label}");
        }
    }
}

/// A head that fails only on entries a range drops never fails: the
/// head runs on live entries alone.
#[test]
fn lane_range_a_head_failing_only_on_dropped_entries_succeeds() {
    let db = lane_store();
    let ten_over = || Expr::int(10).div(x().sub(Expr::int(2)));
    let heads = [
        (Monoid::Sum, ten_over()),
        (Monoid::List, ten_over()),
        (Monoid::Bag, ten_over()),
        (Monoid::Max, ten_over()),
        (Monoid::Some, ten_over().ge(Expr::int(100))),
    ];
    for extent in ["D0I", "D1I", "DBI"] {
        for (pred, succeeds) in [
            (x().gt(Expr::int(2)), true),
            (Expr::int(2).lt(x()), true),
            (x().ne(Expr::int(2)), true),
            (x().ge(Expr::int(2)), false),
            (Expr::int(2).eq(x()), false),
        ] {
            for (monoid, head) in heads.clone() {
                let label = format!("{extent}/{pred:?}/{monoid}");
                let plan = lane_plan(monoid, head, extent, Some(pred.clone()));
                let (walk, lane) = lane_agree(&label, &plan, &db, &lane_params("int"));
                assert!(lane, "{label}: no lane");
                assert_eq!(walk.is_ok(), succeeds, "{label}: {walk:?}");
            }
        }
    }
}

/// Comparisons order NaN above every number (`f64::total_cmp`), as
/// PostgreSQL does: `x ≥ $floor` keeps NaN rows and `x < $floor` drops
/// them. The evaluator, the walk, the plain fold and the lane's range all
/// say so.
#[test]
fn lane_range_nan_orders_above_every_number_on_every_engine() {
    let db = lane_store();
    let floor = || Expr::param("$floor");
    let twin = |pred: Expr| pred.and(Expr::var("x").proj("id").ge(Expr::int(0)));
    for value in [Value::Int(2), Value::Float(2.0), Value::Float(f64::INFINITY)] {
        let params = vec![(Symbol::new("$floor"), value.clone())];
        let env = params.iter().fold(db.snapshot().env(), |env, (p, v)| env.bind(*p, v.clone()));
        for (pred, nan_kept) in [(x().ge(floor()), true), (x().lt(floor()), false)] {
            for extent in ["D0F", "D1F", "DBF"] {
                let label = format!("{extent}/{pred:?}/{value:?}");
                let comp = lane_comp(Monoid::Bag, x(), extent, vec![pred.clone()]);
                let (walk, lane) =
                    lane_agree(&label, &plan_comprehension(&comp).unwrap(), &db, &params);
                assert!(lane, "{label}: no lane");
                let plain = lane_plan(Monoid::Bag, x(), extent, Some(twin(pred.clone())));
                assert_identical(&label, &execute_snapshot_bound(&plain, &db, &params), &walk);
                let evaluator = db.clone().query_in(&env, &comp);
                assert_identical(&format!("{label} (evaluator)"), &evaluator, &walk);
                let Ok(Value::Bag(runs)) = walk else { panic!("{label}: {walk:?}") };
                let nans = runs.iter().filter(|(v, _)| matches!(v, Value::Float(f) if f.is_nan()));
                assert_eq!(nans.count(), if nan_kept { 2 } else { 0 }, "{label}");
            }
        }
    }
}

/// A `bag` of the attribute whose range keeps one block of the float lane
/// — its lowest entries, one from the middle, or its highest — is a window
/// of the lane's runs: it shares their storage with the bag a range
/// keeping every entry answers (nothing was copied) and is byte-identical
/// with the walk's answer, fresh and from the memo, at depth 0, 1 and over
/// bags.
#[test]
fn lane_range_bag_of_one_block_is_a_window_of_the_lanes_runs() {
    let db = lane_store();
    let params = lane_params("float");
    for extent in ["D0F", "D1F", "DBF"] {
        let snap = db.clone().snapshot();
        let run = |preds: Vec<Expr>| {
            let plan = plan_comprehension(&lane_comp(Monoid::Bag, x(), extent, preds)).unwrap();
            let fresh = execute_snapshot_bound(&plan, &snap, &params);
            let kept = execute_snapshot_bound(&plan, &snap, &params);
            let walk = execute_plan_walk_bound(&plan, &snap, &params);
            assert_identical(&format!("{extent} (fresh)"), &fresh, &walk);
            assert_identical(&format!("{extent} (memo)"), &kept, &walk);
            match (fresh, kept) {
                (Ok(Value::Bag(fresh)), Ok(Value::Bag(kept))) => {
                    assert!(fresh.shares_storage_with(&kept), "{extent}: two runs, two lanes");
                    fresh
                }
                other => panic!("{extent}: {other:?}"),
            }
        };
        let whole = run(vec![x().gt(Expr::float(-1e9))]);
        assert_eq!(whole.len(), 8, "{extent}");
        let blocks = [
            (vec![x().lt(Expr::param("$c"))], 2),
            (vec![x().ge(Expr::param("$c")), x().lt(Expr::param("$floor"))], 1),
            (vec![x().ge(Expr::param("$floor"))], 5),
        ];
        for (preds, len) in blocks {
            let label = format!("{extent}/{preds:?}");
            let block = run(preds);
            assert_eq!(block.len(), len, "{label}");
            assert!(block.shares_storage_with(&whole), "{label}: the block was copied");
        }
    }
}

/// A bag answer held across a write keeps the values of the epoch it was
/// read at: the write starts a fresh memo, the answer keeps the lane it is
/// a window of, and writing into the answer copies its window and leaves
/// that lane — and every other answer cut from it — as it was.
#[test]
fn lane_range_bag_held_across_an_insert_keeps_its_epochs_values() {
    let scale = TravelScale { rooms_per_hotel: 40, ..TravelScale::small() };
    let mut db = travel::generate(scale, 7);
    let comp = Expr::comp(
        Monoid::Bag,
        Expr::var("r").proj("price"),
        vec![
            Expr::gen("h", Expr::var("Hotels")),
            Expr::gen("r", Expr::var("h").proj("rooms")),
            Expr::pred(Expr::var("r").proj("price").ge(Expr::param("$floor"))),
        ],
    );
    let plan = plan_comprehension(&comp).unwrap();
    let read = |db: &Database, floor: f64| {
        let params = [(Symbol::new("$floor"), Value::Float(floor))];
        match execute_snapshot_bound(&plan, db, &params) {
            Ok(Value::Bag(runs)) => runs,
            other => panic!("a bag: {other:?}"),
        }
    };
    let (whole, block) = (read(&db, 40.0), read(&db, 300.0));
    assert!(db.memo().bytes() > 0, "the prices take a lane");
    assert!(block.shares_storage_with(&whole) && block.len() < whole.len());
    let copy = |runs: &[(Value, u64)]| Value::Bag(runs.to_vec().into());
    let (whole_then, block_then) = (copy(&whole), copy(&block));

    let room = |price| Value::record_from(vec![("bed#", Value::Int(1)), ("price", price)]);
    let hotel = Value::record_from(vec![
        ("name", Value::str("hotel_new")),
        ("address", Value::str("1 New St")),
        ("facilities", Value::set_from(Vec::new())),
        ("employees", Value::list(Vec::new())),
        ("rooms", Value::list(vec![room(Value::Float(350.0)), room(Value::Float(999.0))])),
    ]);
    db.insert(Symbol::new(travel::names::HOTEL), hotel).unwrap();
    let now = read(&db, 300.0);
    assert!(!now.shares_storage_with(&block), "the write left the old lane behind");
    assert_eq!(Value::Bag(block.clone()), block_then, "the held answer changed");
    assert_ne!(Value::Bag(now.clone()), block_then, "the insert added two rooms");

    let mut written = block.clone();
    written.make_mut().push((Value::Float(1e6), 1));
    assert!(!written.shares_storage_with(&whole));
    assert_eq!(written.len(), block.len() + 1);
    assert_eq!(Value::Bag(block), block_then);
    assert_eq!(Value::Bag(whole), whole_then);
}

// -------------------------------------------------------------------------
// Lane joins: a counted join keyed by the lane's attribute, as a lane
// chain's last stage, probes the join's table once per live dictionary
// entry and pushes each kept row's head `n`-fold for its bucket of `n`
// build rows — or a head that reads no chain slot once, for all of them.
// The `lane_join_*` tests pin it to the walk, fresh and from the memo, and
// to the evaluator, value or error text, at depth 0 and 1; the profiled
// fold's rows per operator to the plain chain's; and each refusal.
// -------------------------------------------------------------------------

/// The lane store with build sides `⟨k, w⟩` to join on `k`: ints (`BI`,
/// holding `2`, whose head fails in some tests), floats an int lane meets
/// through `1 = 1.0` (`BF`), floats with both zeros and both NaN payloads
/// (`BFZ`), ints a float lane meets (`BIF`), strings (`BS`), ints no lane
/// value meets (`BNone`), and rows without `k` (`BBad`); `D0E`/`D1E` hold
/// no row at depth 0 and 1, and `D0D`/`D1D` a dictionary as long as their
/// rows.
fn lane_join_store() -> Database {
    let mut db = lane_store();
    let build = |keys: Vec<Value>| {
        let row = |(w, k): (usize, Value)| {
            Value::record_from(vec![("k", k), ("w", Value::Int(w as i64))])
        };
        Value::list(keys.into_iter().enumerate().map(row).collect())
    };
    let ints = |keys: &[i64]| build(keys.iter().map(|k| Value::Int(*k)).collect());
    let floats = |keys: &[f64]| build(keys.iter().map(|k| Value::Float(*k)).collect());
    let nan = f64::from_bits(0x7ff8_0000_0000_0001);
    db.set_root("BI", ints(&[3, 11, 2, 0, 99, 3, 0, 3]));
    db.set_root("BF", floats(&[3.0, 11.0, -2.0, 7.5, 3.0]));
    db.set_root("BFZ", floats(&[f64::NAN, nan, -0.0, 0.0, 0.0, 2.5, 1e9, 2.5]));
    db.set_root("BIF", ints(&[100, 0, 7, 100]));
    db.set_root("BS", build(["b", "", "zz", "b", "q"].map(Value::str).to_vec()));
    db.set_root("BNone", ints(&[1_000, 2_000]));
    let bad = Value::record_from(vec![("w", Value::Int(0))]);
    db.set_root("BBad", Value::list(vec![bad.clone(), bad]));
    db.set_root("D0E", Value::bag_from(Vec::new()));
    db.set_root("D1E", holders(Vec::new(), Value::list));
    let row = |i| Value::record_from(vec![("v", Value::Int(i)), ("id", Value::Int(i))]);
    let distinct: Vec<Value> = (0..20).map(row).collect();
    let objects = distinct.iter().map(|r| Value::Obj(db.heap_mut().alloc(r.clone()))).collect();
    db.set_root("D0D", Value::bag_from(objects));
    db.set_root("D1D", holders(distinct, Value::list));
    db
}

/// `⊕{ head | <x over extent>, preds…, y ← build, key = y.k }`, `x` at
/// depth 0 or 1 as [`lane_comp`] has it.
fn lane_join_comp(
    (monoid, head): (Monoid, Expr),
    extent: &str,
    preds: Vec<Expr>,
    build: &str,
    key: Expr,
) -> Expr {
    let Expr::Comp { quals, .. } = lane_comp(monoid.clone(), head.clone(), extent, preds) else {
        panic!("a comprehension")
    };
    let mut quals = quals;
    quals.push(Expr::gen("y", Expr::var(build)));
    quals.push(Expr::pred(key.eq(Expr::var("y").proj("k"))));
    Expr::comp(monoid, head, quals)
}

/// The parameters lane-join heads read: a kind's `$c` and `$floor`, an
/// `Int` weight `$w`, a `Float` `$f`, a zero and a weight whose sums
/// overflow.
fn lane_join_params(kind: &str) -> Vec<(Symbol, Value)> {
    let mut params = lane_params(kind);
    params.extend([
        (Symbol::new("$w"), Value::Int(3)),
        (Symbol::new("$f"), Value::Float(0.1)),
        (Symbol::new("$zero"), Value::Int(0)),
        (Symbol::new("$big"), Value::Int(i64::MAX / 5)),
    ]);
    params
}

/// Every monoid over the attribute, as [`lane_heads`] has them, and heads
/// that read no chain slot: an `Int` and a `Float` weight summed, listed
/// and bagged, and `some`/`all` constants.
fn lane_join_heads(kind: &str) -> Vec<(Monoid, Expr)> {
    let mut heads = lane_heads(kind);
    heads.extend([
        (Monoid::Sum, Expr::param("$w")),
        (Monoid::Sum, Expr::param("$f")),
        (Monoid::List, Expr::param("$w")),
        (Monoid::Bag, Expr::param("$f")),
        (Monoid::Some, Expr::bool(true)),
        (Monoid::All, Expr::param("$w").ne(Expr::int(0))),
    ]);
    heads
}

type Profiled = Option<(Vec<(u64, u64)>, bool, u64)>;

/// Each operator's rows and build rows, whether the run stopped short and
/// how many rows reached the reduction, of the profiled fold.
fn profiled_rows(plan: &Query, db: &Database, params: &[(Symbol, Value)]) -> Profiled {
    let p = execute_profiled_bound(plan, &[], db, params).ok()?.profile;
    let rows = p.operators.iter().map(|o| (o.actual_rows, o.build_rows)).collect();
    Some((rows, p.short_circuited, p.rows_to_reduce))
}

/// The walk's answer for `comp`, after the fused fold gave the identical
/// answer fresh, from the memo — building nothing the second time, when
/// the first run succeeded — and profiled, the evaluator gave it too, and
/// a plain twin — the same join keyed by `key` computed as `if true then
/// key else key`, which no lane takes — gave it and profiled the same rows
/// per operator; and whether the fold kept a lane, seen as memo bytes
/// beyond the twin's.
fn lane_join_agree(
    label: &str,
    comp: &dyn Fn(Expr) -> Expr,
    key: Expr,
    db: &Database,
    params: &[(Symbol, Value)],
) -> (ExecResult<Value>, bool) {
    let plan = plan_comprehension(&comp(key.clone())).unwrap();
    let computed = Expr::if_(Expr::bool(true), key.clone(), key.clone());
    let twin = plan_comprehension(&comp(computed)).unwrap();
    let (lane, plain) = (db.clone().snapshot(), db.clone().snapshot());
    let walk = execute_plan_walk_bound(&plan, &lane, params);
    let fresh = execute_snapshot_bound(&plan, &lane, params);
    let built = lane.memo().misses();
    let kept = execute_snapshot_bound(&plan, &lane, params);
    if walk.is_ok() {
        assert_eq!(lane.memo().misses(), built, "{label}: the second run built again");
    }
    assert_identical(&format!("{label} (fresh)"), &fresh, &walk);
    assert_identical(&format!("{label} (memo)"), &kept, &walk);
    assert_profiled_agrees(label, &plan, &lane, params, &walk);
    let twin_value = execute_snapshot_bound(&twin, &plain, params);
    assert_identical(&format!("{label} (twin)"), &twin_value, &walk);
    let rows = profiled_rows(&plan, db, params);
    let plain_rows = profiled_rows(&twin, db, params);
    assert_eq!(rows, plain_rows, "{label}: profiled rows ≠ the plain chain's");
    let env = params.iter().fold(db.snapshot().env(), |env, (p, v)| env.bind(*p, v.clone()));
    match db.clone().query_in(&env, &comp(key)) {
        // A bag under a monoid that is not commutative is outside the
        // calculus (§2.3): the evaluator refuses what the engines fold in
        // the extent's order.
        Err(e) if e.to_string().contains("illegal homomorphism") => {}
        // The evaluator never reaches a build side whose left extent is
        // empty; the walk builds it first, and the fold does too.
        Ok(_) if walk.is_err() && label.contains("failing build") => {}
        evaluator => assert_identical(&format!("{label} (evaluator)"), &evaluator, &walk),
    }
    (walk, lane.memo().bytes() > plain.memo().bytes())
}

/// The extents of kind `k` at depth 0, depth 1 and depth 1 over bags.
fn lane_join_extents(k: &str) -> [String; 3] {
    [format!("D0{k}"), format!("D1{k}"), format!("DB{k}")]
}

#[test]
fn lane_join_every_monoid_over_int_float_nan_zero_and_string_keys_agrees() {
    let db = lane_join_store();
    let x = Expr::var("x").proj("v");
    for (k, kind, build) in [
        ("I", "int", "BI"),
        ("I", "int", "BF"),
        ("F", "float", "BFZ"),
        ("F", "float", "BIF"),
        ("S", "string", "BS"),
    ] {
        let params = lane_join_params(kind);
        for extent in lane_join_extents(k) {
            for head in lane_join_heads(kind) {
                let label = format!("{extent} ⋈ {build}/{}/{:?}", head.0, head.1);
                let comp = |key| lane_join_comp(head.clone(), &extent, Vec::new(), build, key);
                let (walk, lane) = lane_join_agree(&label, &comp, x.clone(), &db, &params);
                assert!(walk.is_ok() && lane, "{label}: {walk:?}, lane {lane}");
            }
        }
    }
    // Not vacuous: `1 = 1.0` meets int rows with float keys, the float
    // lane's `0.0` meets the int key `0` but `-0.0` does not, and each NaN
    // payload and zero meets only its own key.
    let run = |extent: &str, build: &str, head: (Monoid, Expr), kind: &str| {
        let comp = lane_join_comp(head, extent, Vec::new(), build, x.clone());
        execute_snapshot_bound(&plan_comprehension(&comp).unwrap(), &db, &lane_join_params(kind))
    };
    let pairs = |extent, build, kind| run(extent, build, (Monoid::Sum, Expr::int(1)), kind);
    // Each value is held by three rows: 3 meets two keys, 11 and -2 one.
    assert_eq!(pairs("D1I", "BF", "int"), Ok(Value::Int(3 * (2 + 1 + 1))));
    // `BIF` holds `0` once and `100` twice; `-0.0` and `7.25` meet none.
    let met = run("D1F", "BIF", (Monoid::Bag, x.clone()), "float").unwrap();
    let want = [(Value::Float(0.0), 3), (Value::Float(100.0), 6)];
    assert_eq!(format!("{met}"), format!("{}", Value::Bag(want.to_vec().into())));
    let Value::Bag(runs) = run("D1F", "BFZ", (Monoid::Bag, x.clone()), "float").unwrap() else {
        panic!()
    };
    let counts: Vec<_> = runs.iter().map(|(v, n)| (format!("{v}"), *n)).collect();
    let nan = ("NaN".to_string(), 3);
    let want = [("-0".into(), 3), ("0".into(), 6), ("2.5".into(), 6), nan.clone(), nan];
    assert_eq!(counts, want);
}

/// No head is evaluated for a row whose bucket is empty: a head failing on
/// every value fails only over a build side some row meets, at the walk's
/// first pair.
#[test]
fn lane_join_an_empty_bucket_never_evaluates_its_failing_head() {
    let db = lane_join_store();
    let x = || Expr::var("x").proj("v");
    let params = lane_join_params("int");
    for extent in lane_join_extents("I") {
        for head in [
            (Monoid::Sum, Expr::int(1).div(Expr::param("$zero"))),
            (Monoid::List, x().div(Expr::param("$zero"))),
            (Monoid::Some, x().div(Expr::param("$zero")).ge(Expr::int(0))),
        ] {
            for (build, fails) in [("BNone", false), ("BI", true)] {
                let label = format!("{extent} ⋈ {build}/{}", head.0);
                let comp = |key| lane_join_comp(head.clone(), &extent, Vec::new(), build, key);
                let (walk, lane) = lane_join_agree(&label, &comp, x(), &db, &params);
                assert!(lane, "{label}: no lane");
                assert_eq!(walk.is_err(), fails, "{label}: {walk:?}");
                if let Err(e) = walk {
                    assert!(e.to_string().contains("division"), "{label}: {e}");
                }
            }
        }
    }
}

/// A build side that fails fails the run before the lane is read, even
/// when the left side has no row — as the walk builds it first.
#[test]
fn lane_join_a_failing_build_fails_over_an_empty_left_extent() {
    let db = lane_join_store();
    let x = || Expr::var("x").proj("v");
    for extent in ["D0E", "D1E", "D0I", "D1I"] {
        for head in [(Monoid::Sum, Expr::param("$w")), (Monoid::List, x())] {
            let label = format!("{extent} ⋈ BBad/{}/failing build", head.0);
            let comp = |key| lane_join_comp(head.clone(), extent, Vec::new(), "BBad", key);
            let (walk, lane) = lane_join_agree(&label, &comp, x(), &db, &lane_join_params("int"));
            assert!(!lane, "{label}: a lane was kept");
            let err = walk.expect_err("the build fails");
            assert!(err.to_string().contains('k'), "{label}: {err}");
        }
    }
}

/// An `Int` sum over the buckets overflows at the walk's partial sum,
/// whether its head reads no chain slot (one push of every pair) or the
/// attribute (one push per row); a `Float` sum adds the walk's sequence.
#[test]
fn lane_join_int_sums_overflow_at_the_walks_partial_sum_and_float_sums_agree() {
    let db = lane_join_store();
    let x = || Expr::var("x").proj("v");
    let params = lane_join_params("int");
    let mut errors = Vec::new();
    for extent in lane_join_extents("I") {
        for head in [Expr::param("$big"), x().mul(Expr::param("$big"))] {
            let label = format!("{extent}/{head:?}");
            let sum = (Monoid::Sum, head.clone());
            let comp = |key| lane_join_comp(sum.clone(), &extent, Vec::new(), "BI", key);
            let (walk, lane) = lane_join_agree(&label, &comp, x(), &db, &params);
            assert!(lane, "{label}: no lane");
            errors.push(walk.expect_err("the sum overflows").to_string());
        }
        for head in [Expr::param("$f"), Expr::float(1e16).add(Expr::param("$f"))] {
            let label = format!("{extent}/float {head:?}");
            let sum = (Monoid::Sum, head.clone());
            let comp = |key| lane_join_comp(sum.clone(), &extent, Vec::new(), "BI", key);
            let (walk, lane) = lane_join_agree(&label, &comp, x(), &db, &params);
            assert!(walk.is_ok() && lane, "{label}: {walk:?}");
        }
    }
    // The error names a partial sum: a multiple of `$big`.
    let big = (i64::MAX / 5).to_string();
    assert!(errors.iter().all(|e| e.contains("overflow")), "{errors:?}");
    let thrice = (3 * (i64::MAX / 5)).to_string();
    assert!(errors.iter().any(|e| e.contains(&big) || e.contains(&thrice)), "{errors:?}");
}

/// `some` and `all` stop at the walk's row — a later row whose head fails
/// is never read — and profile the plain chain's rows up to it.
#[test]
fn lane_join_some_and_all_stop_where_the_walk_stops() {
    let db = lane_join_store();
    let x = || Expr::var("x").proj("v");
    let bad = || Expr::int(10).div(x().sub(Expr::int(2))).ge(Expr::int(0));
    let witness = || x().eq(Expr::int(11));
    for extent in lane_join_extents("I") {
        for (monoid, head, verdict) in [
            (Monoid::Some, witness().and(bad()), true),
            (Monoid::All, witness().not().and(bad()), false),
            (Monoid::Some, Expr::bool(true), true),
        ] {
            let label = format!("{extent}/{monoid}/{head:?}");
            // The rows read `3, 11, 2, …`, and `BI` meets all three.
            let preds = vec![x().ne(Expr::int(-2))];
            let case = (monoid.clone(), head.clone());
            let comp = |key| lane_join_comp(case.clone(), &extent, preds.clone(), "BI", key);
            let (walk, lane) = lane_join_agree(&label, &comp, x(), &db, &lane_join_params("int"));
            assert_eq!(walk, Ok(Value::Bool(verdict)), "{label}");
            assert!(lane, "{label}: no lane");
            let plan = plan_comprehension(&comp(x())).unwrap();
            let (_, stopped, _) = profiled_rows(&plan, &db, &[]).expect("profiled");
            assert!(stopped, "{label}: the fold did not stop");
        }
    }
}

/// Range and entry filters before the join, a head reading the key
/// attribute, and `list`'s order: a filter failing on a value fails at the
/// walk's first row, unless an earlier range dropped it.
#[test]
fn lane_join_range_and_entry_filters_before_the_join_agree() {
    let db = lane_join_store();
    let x = || Expr::var("x").proj("v");
    let c = || Expr::param("$c");
    let fails_at_7 = || Expr::int(10).div(x().sub(Expr::int(7))).ge(Expr::int(0));
    let cases = [
        ("range", vec![x().ge(c())], true),
        ("two ranges", vec![x().gt(Expr::int(-2)), c().ge(x())], true),
        ("entry", vec![x().add(Expr::int(1)).ne(Expr::int(4))], true),
        ("range drops 7, then no failure", vec![x().gt(Expr::int(7)), fails_at_7()], true),
        ("range keeps 7, then fails", vec![x().ge(c()), fails_at_7()], false),
    ];
    let heads = [
        (Monoid::Sum, Expr::param("$w")),
        (Monoid::Sum, x()),
        (Monoid::List, x()),
        (Monoid::List, Expr::param("$w")),
        (Monoid::Bag, x()),
        (Monoid::Max, x()),
        (Monoid::Some, x().ge(c())),
    ];
    let params = lane_join_params("int");
    for extent in lane_join_extents("I") {
        for (name, preds, succeeds) in &cases {
            for head in &heads {
                let label = format!("{extent}/{name}/{}/{:?}", head.0, head.1);
                let comp = |key| lane_join_comp(head.clone(), &extent, preds.clone(), "BI", key);
                let (walk, lane) = lane_join_agree(&label, &comp, x(), &db, &params);
                assert!(lane, "{label}: no lane");
                if head.0 != Monoid::Some {
                    assert_eq!(walk.is_ok(), *succeeds, "{label}: {walk:?}");
                }
            }
        }
    }
}

/// A dictionary as long as its rows, and a join keyed by another attribute
/// than the lane's: no lane, and the plain chain's answer.
#[test]
fn lane_join_refusals_run_the_plain_chain() {
    let db = lane_join_store();
    let (v, id) = (|| Expr::var("x").proj("v"), || Expr::var("x").proj("id"));
    let params = lane_join_params("int");
    for (extent, preds, key) in [
        ("D0D", Vec::new(), v()),
        ("D1D", Vec::new(), v()),
        ("D0I", vec![v().ge(Expr::param("$c"))], id()),
        ("D1I", vec![v().ge(Expr::param("$c"))], id()),
        ("D1I", Vec::new(), id()),
    ] {
        let some = v().ge(Expr::int(3));
        let heads = [(Monoid::Sum, Expr::param("$w")), (Monoid::List, v()), (Monoid::Some, some)];
        for head in heads {
            let label = format!("{extent}/{key:?}/{}", head.0);
            let comp = |key| lane_join_comp(head.clone(), extent, preds.clone(), "BI", key);
            let (walk, lane) = lane_join_agree(&label, &comp, key.clone(), &db, &params);
            assert!(walk.is_ok() && !lane, "{label}: {walk:?}, lane {lane}");
        }
    }
}
