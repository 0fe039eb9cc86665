//! Keep docs/TUTORIAL.md honest: every `:calc` snippet in the tutorial is
//! executed here with its printed result.

use monoid_db::calculus::eval::eval_closed;
use monoid_db::calculus::parse::parse_expr;
use monoid_db::calculus::value::Value;

fn ints(v: &[i64]) -> Vec<Value> {
    v.iter().map(|&i| Value::Int(i)).collect()
}

fn run(src: &str) -> Value {
    let e = parse_expr(src).unwrap_or_else(|err| panic!("parse `{src}`: {err}"));
    eval_closed(&e).unwrap_or_else(|err| panic!("eval `{src}`: {err}"))
}

#[test]
fn section_1_monoids() {
    assert_eq!(
        run("[2, 5, 3, 1] ++ [3, 2, 6]"),
        Value::list(ints(&[2, 5, 3, 1, 3, 2, 6]))
    );
    assert_eq!(
        run("{2, 5, 3, 1} ∪ {3, 2, 6}"),
        Value::set_from(ints(&[1, 2, 3, 5, 6]))
    );
}

#[test]
fn section_2_comprehensions() {
    let v = run("set{ (a, b) | a <- [1, 2, 3], b <- {{4, 5}} }");
    assert_eq!(v.len().unwrap(), 6);
    assert_eq!(run("sum{ a | a <- [1, 2, 3], a <= 2 }"), Value::Int(3));
    assert_eq!(run("some{ x > 2 | x <- {1, 3} }"), Value::Bool(true));
    assert_eq!(run("all{ x > 2 | x <- {1, 3} }"), Value::Bool(false));
}

#[test]
fn section_3_legality() {
    assert_eq!(run("sum{ 1 | x <- {{7, 7, 9}} }"), Value::Int(3));
    // set → sum is illegal…
    let bad = parse_expr("sum{ 1 | x <- {7, 9} }").unwrap();
    let err = eval_closed(&bad).unwrap_err().to_string();
    assert!(err.contains("illegal homomorphism"), "{err}");
    // …but set → sorted is fine.
    assert_eq!(
        run("sorted{ x | x <- {3, 1, 2} }"),
        Value::list(ints(&[1, 2, 3]))
    );
}

#[test]
fn section_7_vectors() {
    assert_eq!(
        run("sum[4]{ a [4 - i - 1] | a[i] <- [|1, 2, 3, 4|] }"),
        Value::vector(ints(&[4, 3, 2, 1]))
    );
    assert_eq!(
        run("sum[3]{ 1 [x % 3] | x <- [0, 1, 2, 3, 4, 5, 6] }"),
        Value::vector(ints(&[3, 2, 2]))
    );
}

#[test]
fn section_8_identity() {
    assert_eq!(
        run("list{ !x | x <- new(0), e <- [1, 2, 3, 4], x := !x + e }"),
        Value::list(ints(&[1, 3, 6, 10]))
    );
}

/// Every OQL statement the tutorial shows (`:calculus`, `:normalize`,
/// `:explain`) plans, and so runs as one fused fold (every planned query
/// has one) — the `order by` list over a nested sorted bag included.
#[test]
fn every_tutorial_statement_that_plans_runs_fused() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/TUTORIAL.md");
    let text = std::fs::read_to_string(path).unwrap();
    let schema = monoid_db::store::travel::schema();
    let mut planned = 0;
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some((command, first)) = line.strip_prefix("oql> :").and_then(|r| r.split_once(' '))
        else {
            continue;
        };
        if !["calculus", "normalize", "explain"].contains(&command) {
            continue;
        }
        let mut src = first.to_string();
        while !src.ends_with(';') {
            src.push(' ');
            src.push_str(lines.next().expect("a statement ends with `;`").trim());
        }
        let src = src.trim_end_matches(';');
        let stmt = monoid_db::prepare(&schema, src).unwrap_or_else(|e| panic!("`{src}`: {e}"));
        if stmt.query().is_some() {
            planned += 1;
        }
    }
    assert_eq!(planned, 5, "every statement the tutorial shows plans");
}
