//! Plan invariant verifier — the physical-layer half of the stage
//! verifier (`monoid_calculus::analysis::verify` checks the calculus
//! rewrites; this module checks the [`Plan`] handed to an executor).
//!
//! Run before execution whenever
//! [`verify_enabled`](monoid_calculus::analysis::verify_enabled) holds
//! (debug builds by default, `MONOID_VERIFY=1` anywhere). Each check is
//! tagged with a stage so failures land in
//! `analysis_verify_failures_total{stage}` and error messages say *which*
//! invariant broke:
//!
//! * `plan/binders` — no operator on a pipeline path rebinds a variable an
//!   upstream operator already bound (a rebind would silently shadow rows).
//!
//! Purity needs no check here: `Query::new` refuses a plan or head with a
//! heap effect (`PlanError::Impure`), so no `Query` carries one.
//!
//! The check reads the plan alone, never the state it will scan: nothing
//! a plan embeds can go stale against a snapshot.

use crate::logical::{Plan, Query};
use monoid_calculus::analysis::verify::{Stage, VerifyError};
use monoid_calculus::symbol::Symbol;
use std::collections::BTreeSet;

/// Check every plan invariant over `query`. Returns the first violation,
/// tagged with its stage; also bumps
/// `analysis_verify_failures_total{stage}` on failure.
pub fn verify_query(query: &Query) -> Result<(), VerifyError> {
    let result = check_binders(query.plan(), &mut BTreeSet::new());
    if let Err(e) = &result {
        e.stage.record_failure();
    }
    result
}

/// `plan/binders`: walk the pipeline root-to-leaf collecting bound
/// variables; any operator that rebinds an already-bound name is refused.
fn check_binders(plan: &Plan, bound: &mut BTreeSet<Symbol>) -> Result<(), VerifyError> {
    let bind = |var: Symbol, bound: &mut BTreeSet<Symbol>| {
        if bound.insert(var) {
            Ok(())
        } else {
            Err(VerifyError::new(
                Stage::PlanBinders,
                format!("operator rebinds `{var}`, which an upstream operator already bound"),
            ))
        }
    };
    match plan {
        Plan::Scan { var, .. } => bind(*var, bound),
        Plan::Unnest { input, var, .. } | Plan::Bind { input, var, .. } => {
            check_binders(input, bound)?;
            bind(*var, bound)
        }
        Plan::Filter { input, .. } => check_binders(input, bound),
        Plan::Join { left, right, .. } => {
            check_binders(left, bound)?;
            check_binders(right, bound)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlanError;
    use crate::logical::plan_comprehension;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;

    fn sample_query() -> Query {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("c").proj("name"),
            vec![Expr::gen("c", Expr::var("Cities"))],
        );
        plan_comprehension(&e).unwrap()
    }

    #[test]
    fn well_formed_query_passes() {
        assert!(verify_query(&sample_query()).is_ok());
    }

    #[test]
    fn duplicate_binder_is_caught() {
        let sample = sample_query();
        let plan = Plan::Unnest {
            input: Box::new(sample.plan().clone()),
            var: Symbol::new("c"),
            path: Expr::var("c").proj("hotels"),
        };
        let query = Query::new(plan, sample.monoid().clone(), sample.head().clone()).unwrap();
        let err = verify_query(&query).unwrap_err();
        assert_eq!(err.stage, Stage::PlanBinders);
        assert!(err.to_string().contains("rebinds"), "{err}");
    }

    #[test]
    fn post_planning_heap_effects_are_refused() {
        // The planner rejects impure comprehensions, so each case forges
        // one by rebuilding a planned query around an effect. The `Query`
        // constructor refuses it as the planner does, so no executor ever
        // holds a query that writes the heap or allocates on it.
        let assign = || Expr::var("c").assign(Expr::int(0));
        let alloc = || Expr::new_obj(Expr::record(vec![("name", Expr::var("c").proj("name"))]));
        type Forge = fn(&Query, Expr) -> Result<Query, PlanError>;
        let into_head: Forge = |q, e| Query::new(q.plan().clone(), q.monoid().clone(), e);
        let into_plan: Forge = |q, e| {
            let plan = Plan::Filter { input: Box::new(q.plan().clone()), pred: e };
            Query::new(plan, q.monoid().clone(), q.head().clone())
        };
        let cases: [(&str, Forge, Expr); 4] = [
            ("head :=", into_head, assign()),
            ("head new", into_head, alloc()),
            ("plan :=", into_plan, assign()),
            ("plan new", into_plan, alloc()),
        ];
        for (name, forge, expr) in cases {
            assert_eq!(forge(&sample_query(), expr), Err(PlanError::Impure), "{name}");
        }
    }
}
