//! Quickstart: the whole system in one page.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Pipeline: OQL text → monoid calculus → type check → normalization →
//! algebra plan → pipelined execution, against the paper's travel-agency
//! database.

use monoid_db::algebra;
use monoid_db::calculus::normalize::normalize_traced;
use monoid_db::calculus::pretty::{pretty, Pretty};
use monoid_db::oql::compile_typed;
use monoid_db::store::travel::{self, TravelScale};

fn main() {
    // 1. A database: the paper's travel-agency schema, generated
    //    deterministically. City 0 is always "Portland".
    let mut db = travel::generate(TravelScale::small(), 42);
    println!(
        "database: {} objects, {} cities, {} hotels, {} clients\n",
        db.object_count(),
        db.extent_len("Cities"),
        db.extent_len("Hotels"),
        db.extent_len("Clients"),
    );

    // 2. The paper's §3.1 query, in its nested OQL form.
    let oql = "select h.name \
               from h in (select h2 from c in Cities, h2 in c.hotels \
                          where c.name = 'Portland'), \
                    r in h.rooms \
               where r.bed# = 3";
    println!("OQL:\n  {oql}\n");

    // 3. Translate to the monoid comprehension calculus and type-check.
    let (query, ty) = compile_typed(db.schema(), oql).expect("translates");
    println!("calculus ({ty}):\n  {}\n", pretty(&query));

    // 4. Normalize to canonical form (the paper's Table 3 rules).
    let (canonical, trace, stats) = normalize_traced(&query);
    println!("derivation ({} steps):", stats.steps);
    for step in &trace {
        println!("  ⇒ [{}] {}", step.rule, Pretty(&step.after));
    }
    println!();

    // 5. Compile the canonical form to an algebra plan…
    let plan = algebra::plan_comprehension(&canonical).expect("plans");
    println!("plan:\n{}", algebra::explain(&plan));

    // 6. …and execute it, pipelined.
    let result = algebra::execute(&plan, &db).expect("executes");
    println!("result: {result}");

    // The direct evaluator agrees, of course.
    let direct = db.query(&query).expect("evaluates");
    assert_eq!(result, direct);
    println!("\n(direct evaluation of the un-normalized query agrees ✓)");
}
