//! `EXPLAIN`: render a plan tree for humans. Used by the experiment
//! harness to show how canonical comprehensions become pipelines, and by
//! [`crate::trace`] to render profiled plans with estimated and observed
//! cardinalities side by side.

use crate::logical::{Plan, Query};
use crate::optimizer::Stats;
use monoid_calculus::pretty::pretty;
use std::fmt::Write as _;

/// Render a query plan as an indented tree, reduce at the top.
pub fn explain(query: &Query) -> String {
    render_with(query, &mut |_, _| String::new())
}

/// Like [`explain`], with each operator annotated by its estimated output
/// cardinality from `stats` — the optimizer's view of the plan, readable
/// before anything runs.
pub fn explain_with_estimates(query: &Query, stats: &Stats) -> String {
    let est = stats.query_estimates(query);
    render_with(query, &mut |op, _| format!("  (est≈{})", fmt_rows(est[op])))
}

/// Shared tree renderer: `annotate` receives each operator's pre-order
/// index ([`Plan::walk`]'s `op`, the numbering [`crate::exec::Probe`] and
/// [`Stats::plan_estimates`] use) and returns a suffix for its line.
pub(crate) fn render_with(
    query: &Query,
    annotate: &mut dyn FnMut(usize, &Plan) -> String,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Reduce[{}] head = {}",
        query.monoid(),
        pretty(query.head())
    );
    query.plan().walk(&mut |op, depth, plan| {
        for _ in 0..=depth {
            out.push_str("  ");
        }
        let _ = writeln!(out, "{}{}", op_label(plan), annotate(op, plan));
    });
    out
}

/// Format an estimated row count: whole numbers for anything ≥ 10, one
/// decimal below that (selectivities make fractional estimates common).
pub(crate) fn fmt_rows(est: f64) -> String {
    if est >= 10.0 {
        format!("{est:.0}")
    } else {
        format!("{est:.1}")
    }
}

/// One operator's label, without its children.
pub(crate) fn op_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { var, source } => format!("Scan {var} ← {}", pretty(source)),
        Plan::Unnest { var, path, .. } => format!("Unnest {var} ← {}", pretty(path)),
        Plan::Filter { pred, .. } => format!("Filter {}", pretty(pred)),
        Plan::Bind { var, expr, .. } => format!("Bind {var} ≡ {}", pretty(expr)),
        Plan::Join { on, .. } => {
            let kind = if on.is_empty() { "NestedLoopJoin" } else { "HashJoin" };
            let keys: Vec<String> = on
                .iter()
                .map(|(l, r)| format!("{} = {}", pretty(l), pretty(r)))
                .collect();
            format!("{kind} on [{}]", keys.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::plan_comprehension;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_store::travel::{self, TravelScale};

    #[test]
    fn explain_renders_pipeline() {
        let q = Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
                Expr::bind("city", Expr::var("c").proj("name")),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        let s = explain(&plan);
        assert!(s.contains("Reduce[bag]"), "{s}");
        assert!(s.contains("Scan c ← Cities"), "{s}");
        assert!(s.contains("Unnest h ← c.hotels"), "{s}");
        assert!(s.contains("Filter"), "{s}");
        assert!(s.contains("Bind city ≡ c.name"), "{s}");
    }

    #[test]
    fn estimates_annotate_every_operator() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let stats = Stats::gather(&db);
        let q = Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        let s = explain_with_estimates(&plan, &stats);
        // Every operator line (all lines but the Reduce header) carries an
        // estimate annotation.
        for line in s.lines().skip(1) {
            assert!(line.contains("(est≈"), "unannotated line: {line}");
        }
        assert!(s.contains(&format!("Scan c ← Cities  (est≈{})", fmt_rows(TravelScale::tiny().cities as f64))), "{s}");
    }
}
