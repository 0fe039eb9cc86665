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

use crate::error::ExecResult;
use crate::logical::{Plan, Query};
use crate::trace::{self, QueryProfile};
use monoid_calculus::analysis::effects_of;
use monoid_calculus::metrics::{global, Counter};
use monoid_calculus::pretty::pretty;
use monoid_calculus::recorder;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::trace::{Phase, QueryTrace};
use monoid_calculus::value::Value;
use monoid_store::Snapshot;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Counter handles, resolved once per process; the per-kind arrays are
/// indexed like [`Plan::KIND_LABELS`], so every kind's series exists
/// (at zero) from the first metered run on.
struct ExecMetrics {
    rows: [Arc<Counter>; Plan::KIND_LABELS.len()],
    build_rows: [Arc<Counter>; Plan::KIND_LABELS.len()],
    short_circuits: Arc<Counter>,
    executions: Arc<Counter>,
    errors: Arc<Counter>,
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
            errors: r.counter("exec_query_errors_total"),
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

/// [`crate::execute_snapshot_bound`] with fleet metering: the run is
/// counted, then its rows pushed, build sizes, and short-circuit land in
/// the global registry, labeled by operator kind, alongside execution and
/// error counters (a failed run counts as an execution and an error; its
/// partial row counts are not flushed).
///
/// Opens a flight-recorder scope when no layer above owns one. The
/// algebra layer has no OQL source text, so the record is labeled by the
/// reduction itself (`Reduce[bag] head = …`); an over-threshold record's
/// slow capture carries the optimized plan text only — re-running under
/// the profiler is the serving layer's job, where effect-safety is known.
pub fn execute_metered_bound(
    query: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
) -> ExecResult<Value> {
    // Checked before building the label: `begin` would refuse anyway.
    let scope = if recorder::global().enabled() && !recorder::active() {
        recorder::begin(&format!("Reduce[{}] head = {}", query.monoid, pretty(&query.head)))
    } else {
        None
    };
    let started = Instant::now();
    let result = trace::run_counted(query, snap, params, &[], QueryTrace::new());
    match &result {
        Ok(analysis) => record_profile(&analysis.profile),
        Err(_) => {
            let m = exec_metrics();
            m.executions.inc();
            m.errors.inc();
        }
    }
    if let Some(scope) = scope {
        recorder::note_phase(Phase::Execute, started.elapsed().as_nanos());
        recorder::note_effects(|| effects_of(&query.head).join(query.plan_effects).to_string());
        let error = result.as_ref().err().map(ToString::to_string);
        scope.finish_capturing(error, |trigger| {
            (trigger.source.clone(), Some(crate::explain::explain(query)), None)
        });
    }
    result.map(|analysis| analysis.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::plan_comprehension;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_store::travel::{self, TravelScale};

    #[test]
    fn metered_execution_agrees_with_plain() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("c", Expr::var("Cities"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let plain = crate::exec::execute(&plan, &db).unwrap();
        let before = global().snapshot();
        let metered = execute_metered_bound(&plan, &db, &[]).unwrap();
        assert_eq!(plain, metered);
        let d = global().snapshot().diff(&before);
        assert!(d.counter("exec_queries_total") >= 1);
        assert!(
            d.counter_with("exec_rows_pushed_total", &[("operator", "scan")])
                >= TravelScale::tiny().cities as u64
        );
    }
}
