//! # monoid-db — umbrella crate
//!
//! Re-exports the whole system built around the monoid comprehension
//! calculus of Fegaras & Maier (SIGMOD 1995):
//!
//! * [`calculus`] — the calculus itself: monoids, comprehensions, type
//!   inference, normalization, evaluation, identity & updates.
//! * [`store`] — the object database substrate (schemas, extents, the
//!   paper's travel-agency database, synthetic data generation).
//! * [`oql`] — the ODMG-93 OQL front end (lexer, parser, translation into
//!   the calculus).
//! * [`algebra`] — the logical/physical algebra back end (canonical
//!   comprehension → pipelined iterator plans).
//! * [`vector`] — vectors and arrays as monoids (§4.1 extension library).
//!
//! Umbrella-level entry points: [`analyze`] (static analysis of OQL
//! source — effects + the MC001–MC009 lints, no execution),
//! [`explain_analyze`] (profiled end-to-end execution), and the
//! [`serving`] layer ([`prepare`] → [`Prepared::execute`] prepared
//! statements with `$name` placeholders, plus the drift-stamped
//! [`PlanCache`] behind [`Session::query`]: a plan outlives writes while
//! every extent stays within a factor of two of its prepared length).
//!
//! One store view: a plan reads a [`store::Snapshot`], which a
//! `&Database` derefs to; only a statement whose `EffectSummary` writes
//! touches `&mut Database` ([`Prepared::execute`], [`Session::query`],
//! `Database::query`).
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use monoid_algebra as algebra;
pub use monoid_calculus as calculus;
pub use monoid_oql as oql;
pub use monoid_store as store;
pub use monoid_vector as vector;

pub mod server;
pub mod serving;
pub mod wire;

pub use serving::{
    global_plan_cache, prepare, prepare_expr, prepare_on, prepare_on_snapshot,
    requests_in_flight, InFlightGuard, Params, PlanCache, Prepared, Session,
};

pub use monoid_calculus::prelude;

use monoid_algebra::Analysis;
use monoid_calculus::analysis::{AnalysisReport, Code, Diagnostic};
use monoid_calculus::error::EvalError;
use monoid_calculus::types::Schema;
use monoid_oql::OqlError;
use monoid_store::Snapshot;

/// Why a profiled end-to-end run failed: in the front end or at
/// plan/execution time.
#[derive(Debug, Clone)]
pub enum AnalyzeError {
    /// Lexing, parsing, or OQL → calculus translation failed.
    Oql(OqlError),
    /// Planning or execution failed.
    Exec(EvalError),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Oql(e) => write!(f, "{e}"),
            AnalyzeError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<OqlError> for AnalyzeError {
    fn from(e: OqlError) -> AnalyzeError {
        AnalyzeError::Oql(e)
    }
}

impl From<EvalError> for AnalyzeError {
    fn from(e: EvalError) -> AnalyzeError {
        AnalyzeError::Exec(e)
    }
}

/// Statically analyze an OQL query against `schema` *without executing
/// it*: parse → translate (recording source spans) → effect inference +
/// the MC001–MC008 lint pass, then MC009 from the statement prepared the
/// way `oqld` would prepare it (normalized, reordered with schema-only
/// statistics, planned): if [`Prepared::refusal`] says it runs on the
/// evaluator, the diagnostic carries the planner's reason verbatim,
/// anchored at the statement. This is what the `oqlint` binary prints;
/// `report.render()` for humans, `report.to_json()` for tools.
pub fn analyze(schema: &Schema, src: &str) -> Result<AnalysisReport, OqlError> {
    let (expr, spans) = monoid_oql::compile_analyzed(schema, src)?;
    let mut report = AnalysisReport::with_spans(&expr, &spans);
    if let Some(why) = prepare_expr(&expr, &monoid_algebra::Stats::default()).refusal() {
        report.push(Diagnostic {
            code: Code::FusedFallback,
            severity: Code::FusedFallback.default_severity(),
            span: spans.expr_span(&expr),
            message: format!("query does not run on the fused engine: {why}"),
            note: Some(
                "every plannable comprehension runs as one fused fold; this statement \
                 runs on the evaluator"
                    .into(),
            ),
        });
    }
    Ok(report)
}

/// `EXPLAIN ANALYZE` for OQL source: [`prepare_on`] `snap` (pass a
/// `&Database` for its current state) — lex/parse → translate → normalize
/// → optimize → plan, exactly as the statement would be prepared to be
/// served, gathered statistics reused — followed by
/// [`Prepared::profile`], which executes it counting rows per plan
/// operator. Returns the query's value together with a
/// [`monoid_algebra::QueryProfile`] carrying all six phase timings and a
/// plan tree that shows the cardinalities the statement was planned with
/// next to the observed ones (`profile.render()` for humans,
/// `profile.to_json()` for machines). Commits one flight-recorder record.
pub fn explain_analyze(src: &str, snap: &Snapshot) -> Result<Analysis, AnalyzeError> {
    let m = monoid_calculus::metrics::global();
    m.oql_queries_total.inc();
    let mut origin = serving::Origin::now(None);
    let started = std::time::Instant::now();
    let result = serving::Origin::or_fail(&mut origin, src, prepare_on(snap, src))
        .and_then(|stmt| stmt.profile_from(origin, snap, &Params::new()));
    m.oql_query_nanos.observe_nanos(started.elapsed().as_nanos());
    if result.is_err() {
        m.oql_query_errors_total.inc();
    }
    result
}
