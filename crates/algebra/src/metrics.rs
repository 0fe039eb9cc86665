//! Executor metering: the fleet registry as a *sink* for counted runs.
//!
//! The executor measures one thing — a [`QueryProfile`], read back from
//! the one counting probe after the run ([`crate::trace`]). Where a
//! profile describes *one* query, the registry
//! ([`monoid_calculus::metrics::global`]) accounts for a *fleet*:
//! [`record_profile`] folds a profile's per-operator cells by operator
//! kind (`scan`, `filter`, `join`, …) into cumulative counters — one
//! `add(n)` per kind per run, the lifted `sum[n]` monoid merged pointwise
//! — so the registry stays bounded no matter how many distinct plans run.
//!
//! The plain [`crate::execute`] path instantiates [`crate::NoProbe`],
//! whose empty hooks compile to nothing, and never touches the registry
//! (asserted by `tests/metrics.rs`).

use crate::logical::Plan;
use crate::trace::QueryProfile;
use monoid_calculus::metrics::{global, Counter};
use std::sync::{Arc, OnceLock};

/// Counter handles, resolved once per process; the per-kind arrays are
/// indexed like [`Plan::KIND_LABELS`], so every kind's series exists
/// (at zero) from the first recorded profile on.
struct ExecMetrics {
    rows: [Arc<Counter>; Plan::KIND_LABELS.len()],
    build_rows: [Arc<Counter>; Plan::KIND_LABELS.len()],
    short_circuits: Arc<Counter>,
    executions: Arc<Counter>,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        let by_kind = |name| Plan::KIND_LABELS.map(|k| r.counter_with(name, &[("operator", k)]));
        ExecMetrics {
            rows: by_kind("exec_rows_pushed_total"),
            build_rows: by_kind("exec_build_rows_total"),
            short_circuits: r.counter("exec_short_circuits_total"),
            executions: r.counter("exec_queries_total"),
        }
    })
}

/// Flush one counted run into the fleet registry: one execution, each
/// operator kind's rows pushed and build rows, and the short-circuit if
/// the reduction absorbed.
pub fn record_profile(profile: &QueryProfile) {
    let m = exec_metrics();
    m.executions.inc();
    for (i, kind) in Plan::KIND_LABELS.iter().enumerate() {
        let of_kind = || profile.operators.iter().filter(|o| o.kind == *kind);
        m.rows[i].add(of_kind().map(|o| o.actual_rows).sum());
        m.build_rows[i].add(of_kind().map(|o| o.build_rows).sum());
    }
    if profile.short_circuited {
        m.short_circuits.inc();
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
    fn a_recorded_profile_lands_in_the_registry_by_kind() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("c", Expr::var("Cities"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let plain = crate::exec::execute(&plan, &db).unwrap();
        let before = global().snapshot();
        let counted = crate::trace::execute_profiled_bound(&plan, &[], &db, &[]).unwrap();
        record_profile(&counted.profile);
        assert_eq!(plain, counted.value);
        let d = global().snapshot().diff(&before);
        assert!(d.counter("exec_queries_total") >= 1);
        assert!(
            d.counter_with("exec_rows_pushed_total", &[("operator", "scan")])
                >= TravelScale::tiny().cities as u64
        );
    }
}
