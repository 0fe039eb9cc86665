//! E3 — the §3.1 normalization derivations, end to end: OQL source →
//! calculus → Table-3 rewriting → the paper's canonical form, literally.

use monoid_db::calculus::expr::{Expr, Qual};
use monoid_db::calculus::monoid::Monoid;
use monoid_db::calculus::normalize::{is_canonical, normalize, normalize_traced, Rule};
use monoid_db::calculus::parse::parse_expr;
use monoid_db::calculus::pretty::{pretty, Pretty};
use monoid_db::oql::compile;
use monoid_db::store::travel::{self, TravelScale};

/// The paper's Portland query: the nested OQL form normalizes to
/// `bag{ h.name | c ← Cities, h ← c.hotels, r ← h.rooms, … }` via the
/// flatten + bind rules ("rules 4 and 5" in the paper's numbering).
#[test]
fn portland_derivation() {
    let schema = travel::schema();
    let q = compile(
        &schema,
        "select h.name \
         from h in (select h2 from c in Cities, h2 in c.hotels \
                    where c.name = 'Portland'), \
              r in h.rooms \
         where r.bed# = 3",
    )
    .unwrap();
    let (n, trace, _) = normalize_traced(&q);
    // The rules that fire are exactly flatten-generator then bind-inline.
    let rules: Vec<Rule> = trace.iter().map(|t| t.rule).collect();
    assert_eq!(rules, vec![Rule::FlattenGen, Rule::BindInline]);
    // The canonical form is one flat comprehension with three generators
    // over simple paths and two predicates.
    let Expr::Comp { monoid, quals, .. } = &n else { panic!("not a comp") };
    assert_eq!(*monoid, Monoid::Bag);
    let gens = quals.iter().filter(|q| matches!(q, Qual::Gen(..))).count();
    let preds = quals.iter().filter(|q| matches!(q, Qual::Pred(..))).count();
    assert_eq!((gens, preds), (3, 2));
    assert!(is_canonical(&n));
    assert_eq!(
        pretty(&n),
        "bag{ h2.name | c ← Cities, h2 ← c.hotels, c.name = \"Portland\", \
         r ← h2.rooms, r.bed# = 3 }"
    );
}

/// The exists-unnesting derivation (rule N6) used by benchmark B1.
#[test]
fn exists_unnesting_derivation() {
    let schema = travel::schema();
    let q = compile(
        &schema,
        "select distinct cl.name from cl in Clients \
         where exists c in Cities: c.name in cl.preferred",
    )
    .unwrap();
    let (n, trace, _) = normalize_traced(&q);
    assert!(
        trace.iter().any(|t| t.rule == Rule::ExistsFilter),
        "N6 must fire: {:?}",
        trace.iter().map(|t| t.rule).collect::<Vec<_>>()
    );
    // Two exists levels: `in` is itself a some-comprehension.
    let Expr::Comp { quals, .. } = &n else { panic!() };
    let gens = quals.iter().filter(|q| matches!(q, Qual::Gen(..))).count();
    assert_eq!(gens, 3, "cl, c, and the membership witness: {}", pretty(&n));
    assert!(is_canonical(&n));
}

/// Every rule of our Table 3 is exercised by at least one scheme, and each
/// rewrite preserves meaning (checked by evaluation).
#[test]
fn each_rule_fires_on_its_scheme() {
    use monoid_db::calculus::eval::eval_closed;
    let xs = || Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)]);
    let cases: Vec<(Rule, Expr)> = vec![
        (
            Rule::Beta,
            Expr::lambda("x", Expr::var("x").add(Expr::int(1))).apply(Expr::int(1)),
        ),
        (
            Rule::Proj,
            Expr::record(vec![("a", Expr::int(1))]).proj("a"),
        ),
        (
            Rule::ZeroGen,
            Expr::comp(
                Monoid::Sum,
                Expr::var("x"),
                vec![Expr::gen("x", Expr::list_of(vec![]))],
            ),
        ),
        (
            Rule::SingletonGen,
            Expr::comp(
                Monoid::Sum,
                Expr::var("x"),
                vec![Expr::gen("x", Expr::list_of(vec![Expr::int(9)]))],
            ),
        ),
        (
            Rule::FlattenGen,
            Expr::comp(
                Monoid::Set,
                Expr::var("x"),
                vec![Expr::gen(
                    "x",
                    Expr::comp(Monoid::List, Expr::var("y"), vec![Expr::gen("y", xs())]),
                )],
            ),
        ),
        (
            Rule::ExistsFilter,
            Expr::comp(
                Monoid::Set,
                Expr::var("x"),
                vec![
                    Expr::gen("x", xs()),
                    Expr::pred(Expr::comp(
                        Monoid::Some,
                        Expr::var("y").eq(Expr::var("x")),
                        vec![Expr::gen("y", xs())],
                    )),
                ],
            ),
        ),
        (
            Rule::BindInline,
            Expr::comp(
                Monoid::Sum,
                Expr::var("y"),
                vec![Expr::gen("x", xs()), Expr::bind("y", Expr::var("x").mul(Expr::int(2)))],
            ),
        ),
        (
            Rule::MergeGen,
            Expr::comp(
                Monoid::Sum,
                Expr::var("x"),
                vec![Expr::gen("x", Expr::merge(Monoid::List, xs(), xs()))],
            ),
        ),
        (
            Rule::AndSplit,
            Expr::comp(
                Monoid::Sum,
                Expr::var("x"),
                vec![
                    Expr::gen("x", xs()),
                    Expr::pred(
                        Expr::var("x").gt(Expr::int(0)).and(Expr::var("x").lt(Expr::int(3))),
                    ),
                ],
            ),
        ),
        (
            Rule::TruePred,
            Expr::comp(
                Monoid::Sum,
                Expr::var("x"),
                vec![Expr::gen("x", xs()), Expr::pred(Expr::bool(true))],
            ),
        ),
        (
            Rule::FalsePred,
            Expr::comp(
                Monoid::Sum,
                Expr::var("x"),
                vec![Expr::gen("x", xs()), Expr::pred(Expr::bool(false))],
            ),
        ),
        (
            Rule::LetInline,
            Expr::let_("k", Expr::int(5), Expr::var("k").add(Expr::var("k"))),
        ),
        (
            Rule::HomToComp,
            Expr::hom(Monoid::Sum, "x", Expr::var("x"), xs()),
        ),
        (
            Rule::IfPredSplit,
            Expr::comp(
                Monoid::Sum,
                Expr::var("x"),
                vec![
                    Expr::gen("x", xs()),
                    Expr::pred(Expr::if_(
                        Expr::var("x").gt(Expr::int(1)),
                        Expr::var("x").lt(Expr::int(3)),
                        Expr::bool(false),
                    )),
                ],
            ),
        ),
    ];
    for (rule, e) in cases {
        let (n, trace, _) = normalize_traced(&e);
        assert!(
            trace.iter().any(|t| t.rule == rule),
            "{rule} did not fire on {} (fired: {:?})",
            pretty(&e),
            trace.iter().map(|t| t.rule).collect::<Vec<_>>()
        );
        assert!(is_canonical(&n), "not canonical after {rule}: {}", pretty(&n));
        assert_eq!(
            eval_closed(&e).unwrap(),
            eval_closed(&n).unwrap(),
            "{rule} changed the meaning of {}",
            pretty(&e)
        );
    }
}

/// Normalization is idempotent over a whole battery of OQL queries, and
/// the normalized form always evaluates identically on a real database.
#[test]
fn battery_of_queries_normalize_soundly() {
    let mut db = travel::generate(TravelScale::tiny(), 31);
    let sources = [
        "select c.name from c in Cities",
        "select distinct r.bed# from h in Hotels, r in h.rooms",
        "count(select h from c in Cities, h in c.hotels where c.hotel# > 1)",
        "select h.name from h in Hotels where exists r in h.rooms: r.price < 100",
        "avg(select r.price from h in Hotels, r in h.rooms)",
        "select struct(n: c.name, k: count(c.hotels)) from c in Cities",
        "select c.name from c in Cities order by c.name desc",
        "select struct(b: b, n: count(partition)) \
         from h in Hotels, r in h.rooms group by b: r.bed#",
        "flatten(select h.facilities from h in Hotels)",
        "select e.name from h in Hotels, e in h.employees where e.salary > 40000",
    ];
    for src in sources {
        let q = compile(db.schema(), src).unwrap();
        let n1 = normalize(&q);
        let n2 = normalize(&n1);
        assert_eq!(n1, n2, "normalize not idempotent on `{src}`");
        assert!(is_canonical(&n1), "`{src}` not canonical: {}", pretty(&n1));
        let direct = db.query(&q).unwrap();
        let normd = db.query(&n1).unwrap();
        assert_eq!(direct, normd, "meaning changed for `{src}`");
    }
}

/// Normalization shrinks or preserves the number of comprehension levels:
/// no generator ranges over a comprehension in a canonical term.
#[test]
fn canonical_forms_have_no_nested_generators() {
    let schema = travel::schema();
    let q = compile(
        &schema,
        "select r.price from r in \
           (select r2 from h in \
              (select h2 from c in Cities, h2 in c.hotels), \
            r2 in h.rooms) \
         where r.price > 50",
    )
    .unwrap();
    let n = normalize(&q);
    fn no_comp_generators(e: &Expr) -> bool {
        let mut ok = true;
        e.visit(&mut |node| {
            if let Expr::Comp { quals, .. } = node {
                for q in quals {
                    if let Qual::Gen(_, src) = q {
                        if matches!(src, Expr::Comp { .. }) {
                            ok = false;
                        }
                    }
                }
            }
        });
        ok
    }
    assert!(no_comp_generators(&n), "{}", pretty(&n));
}

/// OQL statements whose derivations are pinned beside the example corpus
/// and the tutorial: the query shapes ROADMAP measures, each of which
/// walks a different part of the term (partitions, nested `some`s,
/// merges, aggregates over nested selects).
const PINNED_SHAPES: &[&str] = &[
    "select struct(city: cn, n: count(partition)) from h in Hotels group by cn: h.name",
    "select struct(b: b, n: count(partition)) from h in Hotels, r in h.rooms \
     group by b: r.bed# having count(partition) > 1",
    "select h.name from h in Hotels where h.name in (select c.name from c in Cities)",
    "select h.name from h in Hotels where count(h.rooms) > 3",
    "avg(select r.price from h in Hotels, r in h.rooms)",
    "(select h.name from h in Hotels, r in h.rooms where r.bed# = 1) union \
     (select h.name from h in Hotels, r in h.rooms where r.bed# = 3)",
    "select h.name from h in Hotels where exists r in h.rooms: r.price < 100",
    "select c.name from c in Cities \
     where for all h in c.hotels: exists r in h.rooms: r.bed# = 3",
    "element(select c from c in Cities where c.name = 'Portland')",
];

/// Calculus terms in which more than one child of a node rewrites, so the
/// order the normalizer visits children in decides the derivation: a
/// vector comprehension's size, qualifiers, value and index, an operator's
/// operands, a conditional's branches, a record and a tuple.
const PINNED_CALCULUS: &[&str] = &[
    "sum[(\\n. n)(4)]{ (\\v. v)(a) [let j = i in j] | a[i] <- [|1, 2, 3, 4|], (\\b. b)(true) }",
    "(\\x. x + 1)(2) + (let k = 3 in k * k)",
    "if (\\c. c)(true) then <a = (\\y. y)(1), b = (let z = 2 in z)>.a else (1, (\\t. t)(2)).1",
    "list{ (let u = x in u, (\\w. w)(x)) | x <- [1, 2] ++ [3], (\\p. p)(x > 1) }",
    "set{ (x, y) | x <- set{ y | y <- ys, z <- y }, y <- zs, some{ x = z | z <- y } }",
];

/// Every term whose derivation `tests/golden/derivations.txt` pins, as
/// `(label, source, term)`: each `examples/oql/*.oql` file, every
/// statement the tutorial shows (OQL and calculus), [`PINNED_SHAPES`] and
/// [`PINNED_CALCULUS`].
fn pinned_terms() -> Vec<(String, String, Expr)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let schema = travel::schema();
    let oql = |src: &str| compile(&schema, src).unwrap_or_else(|e| panic!("`{src}`: {e}"));
    let calculus = |src: &str| parse_expr(src).unwrap_or_else(|e| panic!("`{src}`: {e}"));
    let mut out = Vec::new();
    let mut files: Vec<_> = std::fs::read_dir(format!("{root}/examples/oql"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "oql"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        let src = src.trim();
        out.push((format!("examples/oql/{name}"), src.to_string(), oql(src)));
    }
    let tutorial = std::fs::read_to_string(format!("{root}/docs/TUTORIAL.md")).unwrap();
    let mut lines = tutorial.lines();
    while let Some(line) = lines.next() {
        let Some((command, first)) = line.strip_prefix("oql> :").and_then(|r| r.split_once(' '))
        else {
            continue;
        };
        if !["calc", "calculus", "normalize", "explain"].contains(&command) {
            continue;
        }
        let mut src = first.to_string();
        while !src.ends_with(';') {
            src.push(' ');
            src.push_str(lines.next().expect("a statement ends with `;`").trim());
        }
        let src = src.trim_end_matches(';');
        let term = if command == "calc" { calculus(src) } else { oql(src) };
        out.push((format!("docs/TUTORIAL.md :{command}"), src.to_string(), term));
    }
    out.extend(PINNED_SHAPES.iter().map(|src| ("pinned shape".into(), src.to_string(), oql(src))));
    out.extend(
        PINNED_CALCULUS
            .iter()
            .map(|src| ("pinned calculus".into(), src.to_string(), calculus(src))),
    );
    out
}

/// `Symbol::fresh` draws from one process-wide counter and tests run in
/// parallel, so a fresh name's number depends on its neighbours: rename
/// each distinct `name%n` to `name%k`, `k` counting first appearances.
fn renumber_fresh(text: &str) -> String {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find('%') {
        let after = &rest[at + 1..];
        let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let follows_name = rest[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
        out.push_str(&rest[..=at]);
        rest = after;
        if digits > 0 && follows_name {
            let n = &after[..digits];
            let k = match seen.iter().position(|s| *s == n) {
                Some(k) => k,
                None => {
                    seen.push(n);
                    seen.len() - 1
                }
            };
            out.push_str(&(k + 1).to_string());
            rest = &after[digits..];
        }
    }
    out.push_str(rest);
    out
}

/// The derivation of every pinned statement — its calculus form, each
/// Table-3 step with the term after it, and the canonical form — matches
/// `tests/golden/derivations.txt` byte for byte, fresh names renumbered.
/// A rewrite that changes a rule's order, a rule's output or α-renaming
/// shows here as a diff. The actual text is then written to
/// `derivations.actual.txt` under Cargo's test temporary directory
/// (`target/tmp`); a deliberate change is accepted by copying that file
/// over the golden one, in review.
#[test]
fn derivations_match_the_golden_file() {
    let mut actual = String::new();
    for (label, src, q) in pinned_terms() {
        let (n, trace, _) = normalize_traced(&q);
        let mut block = format!("== {label}\n{src}\ncalculus:  {}\n", pretty(&q));
        for step in &trace {
            block.push_str(&format!("⇒ [{}] {}\n", step.rule, Pretty(&step.after)));
        }
        block.push_str(&format!("canonical: {}\n\n", pretty(&n)));
        actual.push_str(&renumber_fresh(&block));
    }
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/derivations.txt");
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if golden != actual {
        let written = format!("{}/derivations.actual.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&written, &actual).unwrap();
        let first_diff = golden
            .lines()
            .zip(actual.lines())
            .position(|(g, a)| g != a)
            .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
        panic!(
            "derivations differ from {golden_path} at line {}; the actual text is in {written}",
            first_diff + 1
        );
    }
}

#[test]
fn renumbering_follows_first_appearance_and_spares_the_modulo_operator() {
    assert_eq!(renumber_fresh("x%17 ← w%9, x%17 % 3, w%9"), "x%1 ← w%2, x%1 % 3, w%2");
}
