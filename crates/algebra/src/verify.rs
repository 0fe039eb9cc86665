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
//! * `plan/effects` — the plan *and its head* neither mutate (`:=`) nor
//!   allocate (`new`), matching the planner's own `PlanError::Impure`
//!   refusal (a heap effect can only appear through post-planning surgery
//!   on the `Query`). This is the invariant every executor leans on: a
//!   plan is a pure read, so it runs against an immutable
//!   [`Snapshot`](monoid_store::Snapshot) and nothing it does needs
//!   committing.
//!
//! Both checks read the plan alone, never the state it will scan: nothing
//! a plan embeds can go stale against a snapshot.

use crate::logical::{Plan, Query};
use monoid_calculus::analysis::verify::record_failure;
use monoid_calculus::analysis::{effects_of, VerifyError};
use monoid_calculus::symbol::Symbol;
use std::collections::BTreeSet;

/// Check every plan invariant over `query`. Returns the first violation,
/// tagged with its stage; also bumps
/// `analysis_verify_failures_total{stage}` on failure.
pub fn verify_query(query: &Query) -> Result<(), VerifyError> {
    let result =
        check_binders(&query.plan, &mut BTreeSet::new()).and_then(|()| check_effects(query));
    if let Err(e) = &result {
        record_failure(e.stage);
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
                "plan/binders",
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

/// `plan/effects`: the planner refuses impure comprehensions
/// (`PlanError::Impure`), so a heap effect in the plan or the head means
/// the query was modified after planning — refuse to execute it. The head
/// is classified fresh (it is one small expression); the plan's own
/// expressions are re-scanned rather than trusting the cached
/// `plan_effects`, which post-planning surgery would leave stale.
fn check_effects(query: &Query) -> Result<(), VerifyError> {
    let effects = effects_of(&query.head).join(query.plan.effects());
    let offender = if effects.mutates {
        "a mutating (`:=`)"
    } else if effects.allocates {
        "an allocating (`new`)"
    } else {
        return Ok(());
    };
    Err(VerifyError::new(
        "plan/effects",
        format!(
            "query contains {offender} expression; the planner never emits one, so the query \
             was altered after planning"
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::plan_comprehension;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_store::travel::{self, TravelScale};

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
        let mut query = sample_query();
        query.plan = Plan::Unnest {
            input: Box::new(query.plan.clone()),
            var: Symbol::new("c"),
            path: Expr::var("c").proj("hotels"),
        };
        let err = verify_query(&query).unwrap_err();
        assert_eq!(err.stage, "plan/binders");
        assert!(err.to_string().contains("rebinds"), "{err}");
    }

    #[test]
    fn post_planning_heap_effects_are_refused() {
        // The planner rejects impure comprehensions, so each case forges
        // one by overwriting part of a planned query — the only way a heap
        // effect can reach an executor. Every executor runs this check
        // under stage verification, which is what lets them read an
        // immutable snapshot without a mutation fallback.
        let db = travel::generate(TravelScale::tiny(), 5);
        let assign = || Expr::var("c").assign(Expr::int(0));
        let alloc = || Expr::new_obj(Expr::record(vec![("name", Expr::var("c").proj("name"))]));
        type Forge = fn(&mut Query, Expr);
        let into_head: Forge = |q, e| q.head = e;
        let into_plan: Forge = |q, e| {
            q.plan = Plan::Filter { input: Box::new(q.plan.clone()), pred: e };
        };
        let cases: [(&str, Forge, Expr, &str); 4] = [
            ("head :=", into_head, assign(), ":="),
            ("head new", into_head, alloc(), "new"),
            ("plan :=", into_plan, assign(), ":="),
            ("plan new", into_plan, alloc(), "new"),
        ];
        for (name, forge, expr, needle) in cases {
            let mut query = sample_query();
            forge(&mut query, expr);
            let err = verify_query(&query).unwrap_err();
            assert_eq!(err.stage, "plan/effects", "{name}");
            assert!(err.to_string().contains(needle), "{name}: {err}");
            // And, wherever stage verification is on (every debug build),
            // the executors refuse it rather than run it.
            if monoid_calculus::analysis::verify_enabled() {
                let refused = crate::exec::execute(&query, &db).unwrap_err();
                assert!(refused.to_string().contains("plan/effects"), "{name}: {refused}");
            }
        }
    }
}
