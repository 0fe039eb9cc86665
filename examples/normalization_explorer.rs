//! Normalization explorer: feed an OQL query on the command line (or use
//! the built-in tour) and watch the Table-3 rules rewrite it to canonical
//! form, then see the plan it pipelines into.
//!
//! ```text
//! cargo run --example normalization_explorer
//! cargo run --example normalization_explorer -- \
//!     "select h.name from h in (select h2 from c in Cities, h2 in c.hotels) where exists r in h.rooms: r.bed# = 3"
//! ```

use monoid_db::algebra;
use monoid_db::calculus::normalize::normalize_traced;
use monoid_db::calculus::pretty::{pretty, Pretty};
use monoid_db::oql::compile;
use monoid_db::store::travel;

fn explore(src: &str) {
    let schema = travel::schema();
    println!("OQL:\n  {src}\n");
    let q = match compile(&schema, src) {
        Ok(q) => q,
        Err(e) => {
            println!("  error: {e}\n");
            return;
        }
    };
    println!("calculus:\n  {}\n", pretty(&q));
    let (n, trace, stats) = normalize_traced(&q);
    if trace.is_empty() {
        println!("already canonical.\n");
    } else {
        println!("derivation:");
        for step in &trace {
            println!("  ⇒ [{}] {}", step.rule, Pretty(&step.after));
        }
        println!(
            "\ncanonical ({} steps, {} → {} nodes):\n  {}\n",
            stats.steps,
            stats.size_before,
            stats.size_after,
            pretty(&n)
        );
    }
    match algebra::plan_comprehension(&n) {
        Ok(plan) => println!("plan:\n{}", algebra::explain(&plan)),
        Err(e) => println!("(not plannable: {e})"),
    }
    println!("{}", "─".repeat(72));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        explore(&args.join(" "));
        return;
    }
    // The built-in tour: one query per interesting rule.
    for src in [
        // N5 + N7: subquery in from.
        "select h.name from h in (select h2 from c in Cities, h2 in c.hotels \
         where c.name = 'Portland'), r in h.rooms where r.bed# = 3",
        // N6: correlated exists inside a distinct (set) query.
        "select distinct cl.name from cl in Clients \
         where exists c in Cities: c.name in cl.preferred",
        // N9/N10: predicate surgery.
        "select c.name from c in Cities where true and c.hotel# > 1 and c.hotel# < 100",
        // group by: normalization unnests the key-set generator.
        "select struct(beds: b, n: count(partition)) \
         from h in Hotels, r in h.rooms group by b: r.bed#",
    ] {
        explore(src);
    }
}
