//! Executor metering: a [`Probe`] that routes per-operator row counts,
//! join build sizes, and short-circuit events into the process-wide
//! metrics registry ([`monoid_calculus::metrics::global`]).
//!
//! Where [`crate::trace::ExecProbe`] profiles *one* query (per-operator
//! cells read back into a `QueryProfile`), [`MetricsProbe`] accounts for
//! a *fleet*: its counters are cumulative across every metered
//! execution, labeled by operator kind (`scan`, `filter`, `hash-join`,
//! …) so the registry stays bounded no matter how many distinct plans
//! run.
//!
//! The zero-cost contract of the unprofiled path is preserved exactly as
//! with [`NoProbe`]: `MetricsProbe` is just another monomorphization of
//! the same generic executor — `ENABLED = false` keeps the timing
//! instrumentation compiled out, hooks inline to a relaxed atomic add,
//! and the plain [`crate::execute`] path still instantiates `NoProbe`,
//! whose empty hooks compile to nothing and which never touches the
//! registry (asserted by `tests/metrics.rs`).

use crate::error::ExecResult;
use crate::exec::{self, EnginePolicy, Probe};
use crate::logical::{Plan, Query};
use crate::parallel::{self, Fallback, ParallelReport};
use monoid_calculus::analysis::effects_of;
use monoid_calculus::metrics::{global, Counter, Histogram};
use monoid_calculus::pretty::pretty;
use monoid_calculus::recorder::{self, RecordScope, SlowQueryCapture};
use monoid_calculus::trace::Phase;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::Value;
use monoid_store::Snapshot;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Operator kinds, the label space of the executor's registry series.
const KINDS: [&str; 7] =
    ["scan", "index-lookup", "unnest", "filter", "bind", "join", "hash-probe"];

fn kind_index(plan: &Plan) -> usize {
    KINDS
        .iter()
        .position(|k| *k == plan.kind_label())
        .expect("every Plan::kind_label is in KINDS")
}

/// Per-kind counter handles, resolved once per process.
struct ExecMetrics {
    rows: [Arc<Counter>; 7],
    build_rows: [Arc<Counter>; 7],
    short_circuits: Arc<Counter>,
    executions: Arc<Counter>,
    errors: Arc<Counter>,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        ExecMetrics {
            rows: KINDS.map(|k| r.counter_with("exec_rows_pushed_total", &[("operator", k)])),
            build_rows: KINDS.map(|k| r.counter_with("exec_build_rows_total", &[("operator", k)])),
            short_circuits: r.counter("exec_short_circuits_total"),
            executions: r.counter("exec_queries_total"),
            errors: r.counter("exec_query_errors_total"),
        }
    })
}

/// A probe that charges every row an operator pushes to the cumulative
/// per-operator-kind counters in the global registry. Construct one per
/// query with [`MetricsProbe::for_query`] (it needs the plan to map
/// pre-order operator indexes to kinds), or run straight through
/// [`execute_metered_bound`].
pub struct MetricsProbe {
    /// Pre-order operator index → position in [`KINDS`].
    op_kind: Vec<usize>,
}

impl MetricsProbe {
    pub fn for_query(query: &Query) -> MetricsProbe {
        MetricsProbe::for_plan(&query.plan)
    }

    /// Build from a bare plan — the parallel driver rewrites worker plans
    /// (singleton scans, prebuilt probes) whose operator numbering differs
    /// from the original query's.
    pub fn for_plan(plan: &Plan) -> MetricsProbe {
        let mut op_kind = Vec::with_capacity(plan.node_count());
        collect_kinds(plan, &mut op_kind);
        MetricsProbe { op_kind }
    }
}

/// Pre-order kind collection, mirroring the executor's operator
/// numbering (self, then children left-to-right).
fn collect_kinds(plan: &Plan, out: &mut Vec<usize>) {
    out.push(kind_index(plan));
    match plan {
        Plan::Scan { .. } | Plan::IndexLookup { .. } => {}
        Plan::Unnest { input, .. } | Plan::Filter { input, .. } | Plan::Bind { input, .. } => {
            collect_kinds(input, out);
        }
        Plan::Join { left, right, .. } => {
            collect_kinds(left, out);
            collect_kinds(right, out);
        }
        Plan::HashProbe { left, .. } => collect_kinds(left, out),
    }
}

impl Probe for MetricsProbe {
    /// Timing stays compiled out — metering counts flows, it does not
    /// time operators (that is `ExecProbe`'s job).
    const ENABLED: bool = false;

    #[inline]
    fn row_out(&self, op: usize) {
        exec_metrics().rows[self.op_kind[op]].inc();
    }

    #[inline]
    fn build_rows(&self, op: usize, n: u64) {
        exec_metrics().build_rows[self.op_kind[op]].add(n);
    }

    #[inline]
    fn short_circuit(&self) {
        exec_metrics().short_circuits.inc();
    }
}

/// Parallel-engine counter handles, resolved once per process. The
/// `reason` label space of `parallel_fallback_total` is the closed
/// [`Fallback`] enum, so the registry stays bounded.
struct ParallelMetrics {
    executions: Arc<Counter>,
    workers: Arc<Counter>,
    fallbacks: [Arc<Counter>; 2],
    worker_rows: Arc<Histogram>,
    prebuilt_rows: Arc<Counter>,
}

fn parallel_metrics() -> &'static ParallelMetrics {
    static METRICS: OnceLock<ParallelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        ParallelMetrics {
            executions: r.counter("parallel_executions_total"),
            workers: r.counter("parallel_workers_total"),
            fallbacks: [Fallback::SingleThread, Fallback::TooFewRows]
                .map(|f| r.counter_with("parallel_fallback_total", &[("reason", f.as_str())])),
            worker_rows: r.histogram("parallel_worker_rows"),
            prebuilt_rows: r.counter("parallel_prebuilt_rows_total"),
        }
    })
}

fn record_parallel(report: &ParallelReport) {
    let m = parallel_metrics();
    m.executions.inc();
    m.workers.add(report.workers as u64);
    if let Some(reason) = report.fallback {
        let i = match reason {
            Fallback::SingleThread => 0,
            Fallback::TooFewRows => 1,
        };
        m.fallbacks[i].inc();
    }
    for &rows in &report.worker_rows {
        m.worker_rows.observe(rows);
    }
    m.prebuilt_rows.add(report.prebuilt_rows);
}

/// [`crate::execute_parallel_bound`] with fleet metering: per-operator
/// row and build counters flow through a shared [`MetricsProbe`] (built
/// from the rewritten worker plan), and the engine's [`ParallelReport`]
/// lands in the `parallel_*` family — executions, workers spawned,
/// per-worker row distribution, prebuilt build rows, and
/// `parallel_fallback_total{reason=…}` when the query ran sequentially.
pub fn execute_parallel_metered_bound(
    query: &Query,
    snap: &Snapshot,
    threads: usize,
    params: &[(Symbol, Value)],
) -> ExecResult<Value> {
    let scope = record_scope(query);
    let started = scope.is_some().then(Instant::now);
    let result =
        parallel::execute_parallel_with(query, snap, threads, params, MetricsProbe::for_plan);
    let result = match result {
        Ok((v, report)) => {
            record_parallel(&report);
            Ok(v)
        }
        Err(e) => {
            exec_metrics().errors.inc();
            Err(e)
        }
    };
    finish_scope(scope, started, query, &result);
    result
}

/// Open a flight-recorder scope for a plan-level metered execution. The
/// algebra layer has no OQL source text, so the record is labeled by the
/// reduction itself (`Reduce[bag] head = …`). Returns `None` — without
/// building the label — when the recorder is off or a higher layer
/// (serving, `explain_analyze`) already owns this thread's record.
fn record_scope(query: &Query) -> Option<RecordScope> {
    if !recorder::global().enabled() || recorder::active() {
        return None;
    }
    recorder::begin(&format!("Reduce[{}] head = {}", query.monoid, pretty(&query.head)))
}

/// Commit a scope opened by [`record_scope`]: stamp the execute phase,
/// the effect summary, and the outcome, and attach the optimized plan
/// text if the record crossed the slow-query threshold. (Plan text only
/// — re-running under the profiler is the serving layer's job, where
/// effect-safety is known.)
fn finish_scope(
    scope: Option<RecordScope>,
    started: Option<Instant>,
    query: &Query,
    result: &ExecResult<Value>,
) {
    let Some(scope) = scope else { return };
    if let Some(started) = started {
        recorder::note_phase(Phase::Execute, started.elapsed().as_nanos());
    }
    recorder::note_effects(|| effects_of(&query.head).join(query.plan_effects).to_string());
    let error = result.as_ref().err().map(ToString::to_string);
    if let Some(trigger) = scope.finish(error) {
        recorder::global().capture_slow(SlowQueryCapture {
            seq: trigger.seq,
            fingerprint: trigger.fingerprint,
            source: trigger.source,
            total_nanos: trigger.total_nanos,
            threshold_nanos: trigger.threshold_nanos,
            plan: Some(crate::explain::explain(query)),
            profile: None,
        });
    }
}

/// [`crate::execute_snapshot_bound`] with fleet metering: rows pushed,
/// build sizes, and short-circuits land in the global registry, labeled
/// by operator kind, alongside execution and error counters.
pub fn execute_metered_bound(
    query: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
) -> ExecResult<Value> {
    let m = exec_metrics();
    m.executions.inc();
    let probe = MetricsProbe::for_query(query);
    let scope = record_scope(query);
    let started = scope.is_some().then(Instant::now);
    let result = exec::run(query, snap, params, EnginePolicy::Auto, &probe).map(|r| r.value);
    if result.is_err() {
        m.errors.inc();
    }
    finish_scope(scope, started, query, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::plan_comprehension;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_store::travel::{self, TravelScale};

    #[test]
    fn pre_order_kinds_match_plan_shape() {
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
        let probe = MetricsProbe::for_query(&plan);
        // Pre-order: Unnest, Filter, Scan.
        assert_eq!(
            probe.op_kind.iter().map(|&i| KINDS[i]).collect::<Vec<_>>(),
            vec!["unnest", "filter", "scan"]
        );
    }

    #[test]
    fn metered_execution_agrees_with_plain() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("c", Expr::var("Cities"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let plain = exec::execute(&plan, &db).unwrap();
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

    #[test]
    fn parallel_metering_records_workers_and_fallbacks() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::List,
            Expr::var("h").proj("name"),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let seq = exec::execute(&plan, &db).unwrap();

        let before = global().snapshot();
        let par = execute_parallel_metered_bound(&plan, &db, 4, &[]).unwrap();
        assert_eq!(seq, par);
        let d = global().snapshot().diff(&before);
        assert!(d.counter("parallel_executions_total") >= 1);
        assert!(d.counter("parallel_workers_total") >= 2);
        assert_eq!(
            d.counter_with("parallel_fallback_total", &[("reason", "single-thread")]),
            0
        );

        // threads = 1 falls back and says why — and the series shows up
        // in the Prometheus exposition.
        let before = global().snapshot();
        execute_parallel_metered_bound(&plan, &db, 1, &[]).unwrap();
        let d = global().snapshot().diff(&before);
        assert_eq!(
            d.counter_with("parallel_fallback_total", &[("reason", "single-thread")]),
            1
        );
        let text = global().snapshot().to_prometheus();
        assert!(
            text.contains("parallel_fallback_total{reason=\"single-thread\"}"),
            "{text}"
        );
    }
}
