//! The experiment harness: regenerates every table, worked example, and
//! derivation of Fegaras & Maier (SIGMOD 1995), and measures the
//! benchmark series B1–B6 (this binary is their only harness).
//! `cargo run --release -p monoid-bench --bin experiments [-- <section>…]`
//! where each `<section>` is one of `table1 examples table3 oql vectors
//! identity profile bench-unnesting bench-pipelining bench-mixed
//! bench-vectors bench-updates bench-ablation` (default: all; an unknown
//! name exits 2). Output is the content of EXPERIMENTS.md; the `profile`
//! section additionally emits machine-readable `QueryProfile` JSON
//! blocks (per-operator row counts and per-phase timings).

use monoid_bench::harness::{Table, Timing};
use monoid_bench::queries;
use monoid_calculus::eval::eval_closed;
use monoid_calculus::expr::Expr;
use monoid_calculus::monoid::Monoid;
use monoid_calculus::normalize::{normalize, normalize_traced, Rule};
use monoid_calculus::pretty::{pretty, Pretty};
use monoid_calculus::value::Value;
use monoid_oql::compile;
use monoid_store::travel::{self, TravelScale};
use monoid_vector as vector;
use std::env;

/// Every section, in output order.
const SECTIONS: [(&str, fn()); 13] = [
    ("table1", table1),
    ("examples", examples),
    ("table3", table3),
    ("oql", oql_coverage),
    ("vectors", vectors),
    ("identity", identity),
    ("profile", profile),
    ("bench-unnesting", bench_unnesting),
    ("bench-pipelining", bench_pipelining),
    ("bench-mixed", bench_mixed),
    ("bench-vectors", bench_vectors),
    ("bench-updates", bench_updates),
    ("bench-ablation", bench_ablation),
];

/// Timed runs per table cell.
const RUNS: usize = 3;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let known = |a: &str| a == "all" || SECTIONS.iter().any(|(name, _)| *name == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!("experiments: unknown section `{bad}`; valid: all {}", names.join(" "));
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    for (name, run) in SECTIONS {
        if run_all || args.iter().any(|a| a == name) {
            run();
        }
    }
}

fn heading(s: &str) {
    println!("\n## {s}\n");
}

// ---------------------------------------------------------------------------
// E1 — Table 1: the monoids and their laws.
// ---------------------------------------------------------------------------

fn table1() {
    heading("E1 — Table 1: monoids (paper §2.1–§2.2)");
    let mut t = Table::new(&["monoid", "type", "zero", "unit(a)", "merge", "C/I", "laws"]);
    let rows: Vec<(Monoid, &str, &str, &str, &str)> = vec![
        (Monoid::List, "list(α)", "[]", "[a]", "++"),
        (Monoid::Set, "set(α)", "{}", "{a}", "∪"),
        (Monoid::Bag, "bag(α)", "{{}}", "{{a}}", "⊎"),
        (Monoid::OSet, "list(α)", "[]", "[a]", "∪̇ (dedup append)"),
        (Monoid::Str, "string", "\"\"", "\"a\"", "concat"),
        (Monoid::Sorted, "list(α)", "[]", "[a]", "order-merge"),
        (Monoid::SortedBag, "list(α)", "[]", "[a]", "order-merge (dup)"),
        (Monoid::Sum, "number", "0", "a", "+"),
        (Monoid::Prod, "number", "1", "a", "×"),
        (Monoid::Max, "number", "−∞", "a", "max"),
        (Monoid::Min, "number", "+∞", "a", "min"),
        (Monoid::Some, "bool", "false", "a", "∨"),
        (Monoid::All, "bool", "true", "a", "∧"),
    ];
    for (m, ty, zero, unit, merge) in rows {
        let laws = check_laws(&m);
        t.row(&[
            m.to_string(),
            ty.to_string(),
            zero.to_string(),
            unit.to_string(),
            merge.to_string(),
            m.props().to_string(),
            laws,
        ]);
    }
    print!("{}", t.render());
    println!("\nLegality (paper §2.3, props(M) ⊆ props(N)):");
    for (from, to) in [
        (Monoid::Bag, Monoid::Sum),
        (Monoid::Set, Monoid::Sum),
        (Monoid::Set, Monoid::List),
        (Monoid::Set, Monoid::Sorted),
        (Monoid::List, Monoid::Set),
    ] {
        println!(
            "  hom[{from} → {to}] : {}",
            if from.hom_legal_to(&to) { "legal" } else { "ILLEGAL" }
        );
    }
}

/// Spot-check the declared laws on concrete values.
fn check_laws(m: &Monoid) -> String {
    use monoid_calculus::value::{merge, unit, zero};
    let samples: Vec<Value> = match m {
        Monoid::Str => vec![Value::str("ab"), Value::str("c"), Value::str("")],
        Monoid::Some | Monoid::All => vec![Value::Bool(true), Value::Bool(false)],
        _ => vec![Value::Int(2), Value::Int(5), Value::Int(2)],
    };
    let lift = |v: &Value| unit(m, v.clone()).expect("unit");
    let vals: Vec<Value> = samples.iter().map(lift).collect();
    let z = zero(m).expect("zero");
    let mut ok = true;
    // identity + associativity + declared C/I
    for a in &vals {
        ok &= merge(m, &z, a).unwrap() == *a && merge(m, a, &z).unwrap() == *a;
        for b in &vals {
            if m.props().commutative {
                ok &= merge(m, a, b).unwrap() == merge(m, b, a).unwrap();
            }
            for c in &vals {
                let l = merge(m, &merge(m, a, b).unwrap(), c).unwrap();
                let r = merge(m, a, &merge(m, b, c).unwrap()).unwrap();
                ok &= l == r;
            }
        }
        if m.props().idempotent {
            ok &= merge(m, a, a).unwrap() == *a;
        }
    }
    if ok { "✓".into() } else { "VIOLATED".into() }
}

// ---------------------------------------------------------------------------
// E2 — the paper's §2 worked examples.
// ---------------------------------------------------------------------------

fn examples() {
    heading("E2 — §2 worked examples");
    let cases: Vec<(Expr, &str)> = vec![
        (
            Expr::comp(
                Monoid::Set,
                Expr::Tuple(vec![Expr::var("a"), Expr::var("b")]),
                vec![
                    Expr::gen(
                        "a",
                        Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)]),
                    ),
                    Expr::gen("b", Expr::bag_of(vec![Expr::int(4), Expr::int(5)])),
                ],
            ),
            "paper: {(1,4),(1,5),(2,4),(2,5),(3,4),(3,5)}",
        ),
        (
            Expr::comp(
                Monoid::Sum,
                Expr::var("a"),
                vec![
                    Expr::gen(
                        "a",
                        Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)]),
                    ),
                    Expr::pred(Expr::var("a").le(Expr::int(2))),
                ],
            ),
            "paper: 3",
        ),
        (
            Expr::comp(
                Monoid::Set,
                Expr::Tuple(vec![Expr::var("x"), Expr::var("y")]),
                vec![
                    Expr::gen("x", Expr::list_of(vec![Expr::int(1), Expr::int(2)])),
                    Expr::gen(
                        "y",
                        Expr::bag_of(vec![Expr::int(3), Expr::int(4), Expr::int(3)]),
                    ),
                ],
            ),
            "paper: {(1,3),(1,4),(2,3),(2,4)}",
        ),
        (
            Expr::merge(
                Monoid::OSet,
                Expr::list_of(vec![Expr::int(2), Expr::int(5), Expr::int(3), Expr::int(1)]),
                Expr::list_of(vec![Expr::int(3), Expr::int(2), Expr::int(6)]),
            ),
            "paper: [2,5,3,1,6]",
        ),
        (
            Expr::hom(
                Monoid::Sum,
                "x",
                Expr::int(1),
                Expr::bag_of(vec![Expr::int(7), Expr::int(7), Expr::int(9)]),
            ),
            "bag cardinality (paper: legal) = 3",
        ),
    ];
    let mut t = Table::new(&["expression", "result", "expected"]);
    for (e, expected) in cases {
        let v = eval_closed(&e).expect("example evaluates");
        t.row(&[pretty(&e), v.to_string(), expected.to_string()]);
    }
    print!("{}", t.render());
    // The illegal one, rejected.
    let bad = Expr::comp(
        Monoid::Sum,
        Expr::int(1),
        vec![Expr::gen("x", Expr::set_of(vec![Expr::int(1)]))],
    );
    println!(
        "\nset cardinality hom[set→sum] (paper: ill-formed): {}",
        monoid_calculus::typecheck::infer(&bad).unwrap_err()
    );
}

// ---------------------------------------------------------------------------
// E3 — Table 3 + the §3.1 derivation.
// ---------------------------------------------------------------------------

fn table3() {
    heading("E3 — Table 3: normalization rules and the §3.1 derivation");
    let mut t = Table::new(&["rule", "name"]);
    for r in Rule::all() {
        t.row(&[format!("N{}", r.number()), r.name().to_string()]);
    }
    print!("{}", t.render());

    println!("\nPortland derivation (paper §3.1, \"by rules 4 and 5\"):\n");
    let db_schema = travel::schema();
    let q = compile(&db_schema, queries::PORTLAND_NESTED_OQL).expect("compiles");
    println!("  OQL (nested): {}", queries::PORTLAND_NESTED_OQL.replace('\n', " "));
    println!("  calculus:     {}", pretty(&q));
    let (n, trace, stats) = normalize_traced(&q);
    for step in &trace {
        println!("  ⇒ [{}] {}", step.rule, Pretty(&step.after));
    }
    println!("  canonical:    {}", pretty(&n));
    println!(
        "  ({} steps, size {} → {})",
        stats.steps, stats.size_before, stats.size_after
    );

    // And its plan.
    let plan = monoid_algebra::plan_comprehension(&n).expect("plans");
    println!("\nPipelined plan of the canonical form:\n{}", monoid_algebra::explain(&plan));

    println!("\nNormalization cost by `from`-nesting depth (compile time, once per query):\n");
    let mut t = Table::new(&["depth", "size before → after", "steps", "normalize", "idempotent"]);
    for depth in [2usize, 8, 32] {
        let e = queries::deep_nest(depth);
        let (n, _, stats) = normalize_traced(&e);
        let time = Timing::of(RUNS, || normalize(&e));
        let idempotent = if normalize(&n) == n { "✓" } else { "VIOLATED" };
        t.row(&[
            depth.to_string(),
            format!("{} → {}", stats.size_before, stats.size_after),
            stats.steps.to_string(),
            time.cell(),
            idempotent.to_string(),
        ]);
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------------------
// E4 — OQL coverage (§3 / Table 2).
// ---------------------------------------------------------------------------

fn oql_coverage() {
    heading("E4 — OQL → calculus coverage (§3, Table 2)");
    let schema = travel::schema();
    let cases = [
        "select c.name from c in Cities",
        "select distinct r.bed# from h in Hotels, r in h.rooms",
        "count(Cities)",
        "max(select e.salary from e in Employees)",
        "avg(select e.salary from e in Employees)",
        "exists r in element(select h from h in Hotels where h.name = 'hotel_0_0').rooms: r.bed# = 3",
        "for all e in Employees: e.salary > 0",
        "'pool' in element(select h from h in Hotels where h.name = 'hotel_0_0').facilities",
        "select c.name from c in Cities order by c.name",
        "select struct(beds: b, n: count(partition)) from h in Hotels, r in h.rooms group by b: r.bed#",
        "set(1,2) union set(2,3)",
        "flatten(select h.facilities from h in Hotels)",
        "select c.name from c in Cities where c.name like 'Port%'",
    ];
    for src in cases {
        match compile(&schema, src) {
            Ok(e) => {
                println!("OQL:      {src}");
                println!("calculus: {}", pretty(&e));
                println!("normal:   {}\n", pretty(&normalize(&e)));
            }
            Err(err) => println!("OQL:      {src}\n  ERROR: {err}\n"),
        }
    }
}

// ---------------------------------------------------------------------------
// E5 — §4.1 vectors.
// ---------------------------------------------------------------------------

fn vectors() {
    heading("E5 — §4.1: vectors and arrays");
    // The paper's unit/merge example for sum[4].
    let m = Monoid::VecOf(Box::new(Monoid::Sum));
    let a = Value::vector(vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(0)]);
    let b = Value::vector(vec![Value::Int(3), Value::Int(0), Value::Int(2), Value::Int(1)]);
    println!(
        "merge sum[4] (|0,1,2,0|) (|3,0,2,1|) = {}   (paper: (|3,1,4,1|))",
        monoid_calculus::value::merge(&m, &a, &b).unwrap()
    );
    println!(
        "unit sum[4] (8, 2) = {}   (paper: (|0,0,8,0|))",
        monoid_calculus::value::unit_vector(&Monoid::Sum, 4, Value::Int(8), 2).unwrap()
    );

    // Reverse, the paper's example.
    let rev = vector::reverse_expr(vector::ops::int_vec(&[1, 2, 3, 4]), 4);
    println!("\nreverse: {}", pretty(&rev));
    println!("       = {}", eval_closed(&rev).unwrap());

    // Histogram.
    let hist = vector::histogram_expr(
        Expr::CollLit(Monoid::List, (0..20).map(|i| Expr::int(i * i % 40)).collect()),
        4,
        10,
    );
    println!("\nhistogram: {}", pretty(&hist));
    println!("         = {}", eval_closed(&hist).unwrap());

    // DFT as a query vs FFT.
    let x = [1.0, 2.0, 3.0, 4.0, 0.0, -1.0, 0.5, 2.5];
    let via_query = vector::dft_via_query(&x).unwrap();
    let xs: Vec<vector::Complex> = x.iter().map(|&r| (r, 0.0)).collect();
    let via_fft = vector::fft(&xs);
    println!(
        "\nDFT-as-a-query vs native FFT on {} points: max |Δ| = {:.2e}",
        x.len(),
        vector::fft::max_error(&via_query, &via_fft)
    );

    // Matrix multiply as a comprehension.
    let a = vec![vec![1, 2], vec![3, 4]];
    let b = vec![vec![5, 6], vec![7, 8]];
    let mm = vector::matmul_expr(
        vector::matrix::int_matrix(&a),
        vector::matrix::int_matrix(&b),
        2,
        2,
    );
    println!(
        "\nmatmul [[1,2],[3,4]]·[[5,6],[7,8]] = {:?}   (reference {:?})",
        vector::matrix::eval_int_matrix(&mm).unwrap(),
        vector::matmul_reference(&a, &b)
    );
}

// ---------------------------------------------------------------------------
// E6 — §4.2 identity & updates.
// ---------------------------------------------------------------------------

fn identity() {
    heading("E6 — §4.2: object identity and updates");
    let cases: Vec<(Expr, &str)> = vec![
        (
            Expr::comp(
                Monoid::Some,
                Expr::var("x").deref().eq(Expr::var("y").deref()),
                vec![
                    Expr::gen("x", Expr::new_obj(Expr::int(1))),
                    Expr::gen("y", Expr::new_obj(Expr::int(1))),
                ],
            ),
            "paper: true (equal states, distinct identities)",
        ),
        (
            Expr::comp(
                Monoid::Some,
                Expr::var("x").eq(Expr::var("y")),
                vec![
                    Expr::gen("x", Expr::new_obj(Expr::int(1))),
                    Expr::bind("y", Expr::var("x")),
                    Expr::pred(Expr::var("y").assign(Expr::int(2))),
                ],
            ),
            "paper: true (aliases)",
        ),
        (
            Expr::comp(
                Monoid::Sum,
                Expr::var("x").deref(),
                vec![
                    Expr::gen("x", Expr::new_obj(Expr::int(1))),
                    Expr::bind("y", Expr::var("x")),
                    Expr::pred(Expr::var("y").assign(Expr::int(2))),
                ],
            ),
            "paper: 2 (update through alias)",
        ),
        (
            Expr::comp(
                Monoid::Set,
                Expr::var("e"),
                vec![
                    Expr::gen("x", Expr::new_obj(Expr::list_of(vec![]))),
                    Expr::pred(Expr::var("x").assign(Expr::list_of(vec![
                        Expr::int(1),
                        Expr::int(2),
                    ]))),
                    Expr::gen("e", Expr::var("x").deref()),
                ],
            ),
            "paper: {1, 2}",
        ),
        (
            Expr::comp(
                Monoid::List,
                Expr::var("x").deref(),
                vec![
                    Expr::gen("x", Expr::new_obj(Expr::int(0))),
                    Expr::gen(
                        "e",
                        Expr::list_of(vec![
                            Expr::int(1),
                            Expr::int(2),
                            Expr::int(3),
                            Expr::int(4),
                        ]),
                    ),
                    Expr::pred(
                        Expr::var("x").assign(Expr::var("x").deref().add(Expr::var("e"))),
                    ),
                ],
            ),
            "paper: [1, 3, 6, 10]",
        ),
    ];
    let mut t = Table::new(&["expression", "result", "expected"]);
    for (e, expected) in cases {
        let v = eval_closed(&e).expect("identity example evaluates");
        t.row(&[pretty(&e), v.to_string(), expected.to_string()]);
    }
    print!("{}", t.render());

    // §4.3: the update program.
    println!("\n§4.3 update program (insert a hotel into Portland):");
    let mut db = travel::generate(TravelScale::tiny(), 42);
    let count_q = compile(
        db.schema(),
        "count(element(select c from c in Cities where c.name = 'Portland').hotels)",
    )
    .unwrap();
    let before = db.query(&count_q).unwrap();
    let upd = queries::insert_hotel_update("Portland", "hotel_new");
    println!("  {}", pretty(&upd));
    db.query(&upd).unwrap();
    let after = db.query(&count_q).unwrap();
    println!("  hotels in Portland: {before} → {after}");
}

// ---------------------------------------------------------------------------
// E7 — EXPLAIN ANALYZE: profiled end-to-end runs with JSON output.
// ---------------------------------------------------------------------------

fn profile() {
    heading("E7 — EXPLAIN ANALYZE: lifecycle timings and per-operator rows");
    let db = travel::generate(TravelScale::small(), 7);
    let cases = [
        ("portland-flat", queries::PORTLAND_FLAT_OQL),
        (
            "employee-city-join",
            "select struct(e: e.name, c: c.name) \
             from e in Employees, c in Cities \
             where e.salary > c.hotel#",
        ),
        ("exists-hotel", "exists h in Hotels: h.name = 'hotel_0_0'"),
    ];
    for (name, src) in cases {
        let analysis = monoid_db::explain_analyze(src, &db).expect("executes");
        println!("query `{name}`: {}", src.replace('\n', " "));
        // The profile, not the answer, is the point here — elide big results.
        let mut result = analysis.value.to_string();
        if result.chars().count() > 120 {
            result = format!(
                "{}… ({} chars elided)",
                result.chars().take(120).collect::<String>(),
                result.chars().count() - 120
            );
        }
        println!("result: {result}\n");
        print!("{}", analysis.profile.render());
        println!("\n{}", monoid_bench::harness::json_block(&format!("profile-{name}"), &analysis.profile.to_json()));
    }
}

// ---------------------------------------------------------------------------
// B1 — unnesting: naive vs normalized vs normalized+algebra.
// ---------------------------------------------------------------------------

fn bench_unnesting() {
    heading("B1 — unnesting a correlated exists (naive vs normalized vs pipeline)");
    println!("query: {}\n", pretty(&queries::clients_preferring_existing_city()));
    let mut t = Table::new(&[
        "hotels", "clients", "cities", "naive eval", "normalized eval", "pipeline (hash join)",
        "speedup",
    ]);
    for hotels in [100usize, 400, 1600, 6400] {
        let scale = TravelScale::with_hotels(hotels);
        let mut db = travel::generate(scale, 7);
        let q = queries::clients_preferring_existing_city();
        let n = normalize(&q);
        let plan = monoid_algebra::plan_comprehension(&n).unwrap();
        let naive = Timing::of(RUNS, || db.query(&q).unwrap());
        let flat = Timing::of(RUNS, || db.query(&n).unwrap());
        let piped = Timing::of(RUNS, || monoid_algebra::execute(&plan, &db).unwrap());
        t.row(&[
            scale.total_hotels().to_string(),
            scale.clients.to_string(),
            scale.cities.to_string(),
            naive.cell(),
            flat.cell(),
            piped.cell(),
            naive.speedup(&piped),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nexpected shape: naive grows ~quadratically (rescans Cities per \
         preference); the normalized+hash-join pipeline grows ~linearly."
    );
}

// ---------------------------------------------------------------------------
// B2 — pipelining vs materializing nested subqueries.
// ---------------------------------------------------------------------------

fn bench_pipelining() {
    heading("B2 — pipelining: nested-from subqueries vs canonical pipeline");
    let mut t = Table::new(&[
        "hotels", "nested eval (materializes)", "canonical eval", "canonical pipeline", "speedup",
    ]);
    for hotels in [200usize, 800, 3200] {
        let scale = TravelScale::with_hotels(hotels);
        let mut db = travel::generate(scale, 7);
        let q = queries::deep_navigation_nested(200);
        let n = normalize(&q);
        let plan = monoid_algebra::plan_comprehension(&n).unwrap();
        let nested = Timing::of(RUNS, || db.query(&q).unwrap());
        let flat = Timing::of(RUNS, || db.query(&n).unwrap());
        let piped = Timing::of(RUNS, || monoid_algebra::execute(&plan, &db).unwrap());
        t.row(&[
            scale.total_hotels().to_string(),
            nested.cell(),
            flat.cell(),
            piped.cell(),
            nested.speedup(&piped),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nexpected shape: constant-factor win for the canonical forms — \
         the nested form materializes (and canonicalizes) two intermediate \
         bags per run."
    );
}

// ---------------------------------------------------------------------------
// B3 — the mixed-collection join.
// ---------------------------------------------------------------------------

fn bench_mixed() {
    heading("B3 — mixed-collection join (list × bag → set)");
    let mut t = Table::new(&["n", "direct eval", "pipeline (hash join)", "speedup"]);
    for n in [200usize, 800, 3200] {
        let q = queries::mixed_join(n, n);
        let plan = monoid_algebra::plan_comprehension(&q).unwrap();
        let db = monoid_store::Database::new(monoid_calculus::types::Schema::new());
        let direct = Timing::of(RUNS, || eval_closed(&q).unwrap());
        let piped = Timing::of(RUNS, || monoid_algebra::execute(&plan, &db).unwrap());
        t.row(&[n.to_string(), direct.cell(), piped.cell(), direct.speedup(&piped)]);
    }
    print!("{}", t.render());
    println!(
        "\nexpected shape: the nested-loop direct evaluation is O(n²); the \
         hash join is O(n) — the gap widens with n."
    );
}

// ---------------------------------------------------------------------------
// B4 — vectors: DFT query vs FFT; matmul comprehension vs native.
// ---------------------------------------------------------------------------

fn bench_vectors() {
    heading("B4 — §4.1 vectors: DFT-as-a-query vs native FFT");
    let mut t = Table::new(&[
        "n", "DFT query (O(n²))", "native DFT (O(n²))", "native FFT (O(n log n))", "max |Δ|",
    ]);
    for n in [16usize, 64, 256] {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 / 3.0).sin()).collect();
        let xs: Vec<vector::Complex> = x.iter().map(|&r| (r, 0.0)).collect();
        let dq = Timing::of(RUNS, || vector::dft_via_query(&x).unwrap());
        let dn = Timing::of(RUNS, || vector::dft_reference(&xs));
        let df = Timing::of(RUNS, || vector::fft(&xs));
        let err = vector::fft::max_error(&vector::dft_via_query(&x).unwrap(), &vector::fft(&xs));
        t.row(&[n.to_string(), dq.cell(), dn.cell(), df.cell(), format!("{err:.2e}")]);
    }
    print!("{}", t.render());

    println!();
    let mut t = Table::new(&["n", "histogram comprehension", "native loop", "agree"]);
    for n in [1_000usize, 10_000] {
        let data: Vec<i64> = (0..n as i64).map(|i| i * 37 % 1000).collect();
        let q = vector::histogram_expr(
            Expr::CollLit(Monoid::List, data.iter().map(|&v| Expr::int(v)).collect()),
            10,
            100,
        );
        let native = || {
            let mut buckets = [0i64; 10];
            for &v in &data {
                buckets[(v / 100) as usize] += 1;
            }
            buckets
        };
        let tc = Timing::of(RUNS, || eval_closed(&q).unwrap());
        let tn = Timing::of(RUNS, native);
        let agree = eval_closed(&q).unwrap() == Value::vector(native().map(Value::Int).to_vec());
        t.row(&[n.to_string(), tc.cell(), tn.cell(), agree.to_string()]);
    }
    print!("{}", t.render());

    println!();
    let mut t = Table::new(&["n×n", "matmul comprehension", "native matmul", "agree"]);
    for n in [4usize, 8, 16] {
        let a: Vec<Vec<i64>> = (0..n).map(|i| (0..n).map(|j| (i * j) as i64 % 7).collect()).collect();
        let e = vector::matmul_expr(
            vector::matrix::int_matrix(&a),
            vector::matrix::int_matrix(&a),
            n,
            n,
        );
        let tc = Timing::of(RUNS, || vector::matrix::eval_int_matrix(&e).unwrap());
        let tn = Timing::of(RUNS, || vector::matmul_reference(&a, &a));
        let agree = vector::matrix::eval_int_matrix(&e).unwrap() == vector::matmul_reference(&a, &a);
        t.row(&[format!("{n}×{n}"), tc.cell(), tn.cell(), agree.to_string()]);
    }
    print!("{}", t.render());
    println!(
        "\nexpected shape: identical results; the interpreted comprehensions \
         pay a large constant factor over their native loops, and the FFT's \
         asymptotic win over both O(n²) DFTs grows with n."
    );
}

// ---------------------------------------------------------------------------
// B5 — updates through the calculus vs direct mutation.
// ---------------------------------------------------------------------------

fn bench_updates() {
    heading("B5 — §4.2/§4.3 updates: calculus update program vs direct heap mutation");
    let mut t = Table::new(&[
        "employees", "calculus raise", "direct raise", "overhead", "calculus hotel insert",
    ]);
    for hotels in [200usize, 800, 3200] {
        let scale = TravelScale::with_hotels(hotels);
        let employees = scale.total_hotels() * scale.employees_per_hotel;
        let upd = queries::raise_salaries(1);
        let calc = {
            let mut db = travel::generate(scale, 7);
            Timing::of(RUNS, || db.query(&upd).unwrap())
        };
        let direct = {
            let db = travel::generate(scale, 7);
            let heap_len = db.heap().len();
            Timing::of(RUNS, || {
                let mut db2 = db.clone();
                let name = monoid_calculus::symbol::Symbol::new("salary");
                for i in 0..heap_len {
                    let oid = monoid_calculus::value::Oid(i as u64);
                    let state = db2.state(oid).unwrap().clone();
                    if let Some(Value::Int(s)) = state.field(name).cloned() {
                        if let Value::Record(fields) = &state {
                            let fs = fields.iter().map(|(n, v)| {
                                (*n, if *n == name { Value::Int(s + 1) } else { v.clone() })
                            });
                            db2.heap_mut().set(oid, Value::Record(fs.collect())).unwrap();
                        }
                    }
                }
                db2
            })
        };
        let insert = {
            let mut db = travel::generate(scale, 7);
            let upd = queries::insert_hotel_update("Portland", "hotel_bench");
            Timing::of(RUNS, || db.query(&upd).unwrap())
        };
        t.row(&[
            employees.to_string(),
            calc.cell(),
            direct.cell(),
            calc.speedup(&direct),
            insert.cell(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nexpected shape: both raises linear in the number of objects; \
         the calculus pays an interpretation constant. The §4.3 insert \
         program scans Cities once and allocates one hotel."
    );
}

// ---------------------------------------------------------------------------
// B6 — ablation: hash join vs nested loop; predicate pushdown.
// ---------------------------------------------------------------------------

fn bench_ablation() {
    heading("B6 — ablation: join strategy and predicate placement");
    let mut t = Table::new(&["hotels", "k (selectivity)", "nested loop", "hash join", "speedup"]);
    for hotels in [200usize, 800] {
        for k in [4i64, 64] {
            let scale = TravelScale::with_hotels(hotels);
            let db = travel::generate(scale, 7);
            let q = queries::employee_client_join(k);
            let hash = monoid_algebra::plan_comprehension(&q).unwrap();
            let nl = monoid_algebra::plan_with_options(
                &q,
                monoid_algebra::PlanOptions { hash_joins: false, push_predicates: true },
            )
            .unwrap();
            let th = Timing::of(RUNS, || monoid_algebra::execute(&hash, &db).unwrap());
            let tn = Timing::of(RUNS, || monoid_algebra::execute(&nl, &db).unwrap());
            t.row(&[
                scale.total_hotels().to_string(),
                k.to_string(),
                tn.cell(),
                th.cell(),
                tn.speedup(&th),
            ]);
        }
    }
    print!("{}", t.render());

    println!();
    let mut t = Table::new(&["hotels", "pushdown off", "pushdown on", "speedup"]);
    for hotels in [400usize, 1600] {
        let scale = TravelScale::with_hotels(hotels);
        let db = travel::generate(scale, 7);
        let schema = travel::schema();
        let q = compile(&schema, queries::PORTLAND_FLAT_OQL).unwrap();
        let n = normalize(&q);
        let on = monoid_algebra::plan_comprehension(&n).unwrap();
        let off = monoid_algebra::plan_with_options(
            &n,
            monoid_algebra::PlanOptions { hash_joins: true, push_predicates: false },
        )
        .unwrap();
        let t_on = Timing::of(RUNS, || monoid_algebra::execute(&on, &db).unwrap());
        let t_off = Timing::of(RUNS, || monoid_algebra::execute(&off, &db).unwrap());
        t.row(&[
            scale.total_hotels().to_string(),
            t_off.cell(),
            t_on.cell(),
            t_off.speedup(&t_on),
        ]);
    }
    print!("{}", t.render());

    println!();
    let mut t = Table::new(&["hotels", "written order", "cost-based order", "speedup"]);
    for hotels in [400usize, 1600] {
        let scale = TravelScale::with_hotels(hotels);
        let db = travel::generate(scale, 7);
        let stats = monoid_algebra::Stats::gather(&db);
        // A deliberately bad written order: big extent first, selective
        // small extent last.
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("e", Expr::var("Employees")),
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::pred(
                    Expr::var("e").proj("salary").gt(Expr::var("c").proj("hotel#")),
                ),
            ],
        );
        let written = monoid_algebra::plan_comprehension(&q).unwrap();
        let reordered = monoid_algebra::reorder_generators(&q, &stats);
        let optimized = monoid_algebra::plan_comprehension(&reordered).unwrap();
        let tw = Timing::of(RUNS, || monoid_algebra::execute(&written, &db).unwrap());
        let to = Timing::of(RUNS, || monoid_algebra::execute(&optimized, &db).unwrap());
        assert_eq!(
            monoid_algebra::execute(&written, &db).unwrap(),
            monoid_algebra::execute(&optimized, &db).unwrap()
        );
        t.row(&[scale.total_hotels().to_string(), tw.cell(), to.cell(), tw.speedup(&to)]);
    }
    print!("{}", t.render());
    println!(
        "\nexpected shape: the hash join wins once the build side has more \
         than a handful of rows, more at selective keys; pushing the \
         city-name filter below the unnests avoids navigating every city's \
         hotels; cost-based reordering scans the selective small extent \
         first."
    );
}
