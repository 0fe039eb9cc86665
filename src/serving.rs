//! The query serving layer: prepared statements and the epoch-aware plan
//! cache.
//!
//! [`prepare`] runs the whole front-of-pipeline once — parse → translate →
//! normalize → optimize → plan — and captures everything execution needs:
//! the canonical calculus form, the optimized [`Query`] plan, the cached
//! effect summary, and the optimizer's cardinality estimates. The source
//! may mention late-bound parameters (`$name`, or positional `$1`), which
//! travel through every stage as `Expr::Param` leaves; at execution time
//! [`Prepared::execute`] only binds the supplied [`Params`] into the root
//! environment and runs the plan. Nothing is re-parsed, re-normalized, or
//! re-optimized on the warm path — the per-phase `query_phase_nanos`
//! counters prove it (see `tests/prepared.rs`).
//!
//! **One store view.** A plan is a pure read, so preparing, caching,
//! executing a read, profiling, and the slow-query replay all take a
//! [`Snapshot`] (a `&Database` derefs to its current one). `&mut Database`
//! appears only on the writer path — [`Prepared::execute`] and
//! [`Session::query`] — where a statement whose cached [`EffectSummary`]
//! says it writes (`:=`, `new`: always an evaluator-mode update program)
//! commits its effects. [`Prepared::execute_snapshot`] and
//! [`Session::query_snapshot`] refuse such statements.
//!
//! On top sits [`PlanCache`]: a process-wide, sharded, byte-budgeted LRU
//! keyed by source text + schema fingerprint. Every entry is stamped with
//! the `(instance_id, epoch)` of the snapshot it was prepared against and
//! is served only to a snapshot reporting that exact pair, so a mutation
//! between executions can never yield a stale plan. The statistics a
//! prepare reads are kept in the snapshot's memo, so they are shared by
//! every prepare at one epoch and gathered again after a write.
//! [`Session::query`] is the umbrella fast
//! path that puts the two together: hit the cache, bind, execute.
//!
//! Cache traffic is metered in the process-wide registry:
//! `plan_cache_hits_total`, `plan_cache_misses_total`,
//! `plan_cache_evictions_total`, `plan_cache_invalidations_total`, and the
//! `prepare_nanos` cold-prepare latency histogram.
//!
//! **One owner.** A [`Prepared`] owns its statement's whole lifecycle:
//! it is the one spelling of normalize → optimize → plan (`EXPLAIN
//! ANALYZE` is [`prepare_on`] + [`Prepared::profile`]), and it builds the
//! one record each execution lands in the process-wide flight recorder
//! ([`monoid_calculus::recorder`]) — source fingerprint, effects and
//! engine from what it holds; session id, cache disposition and start
//! instant from the plain-data `Origin` a [`Session`] passes in; phase
//! timings, rows and outcome from the run. Executions crossing the
//! slow-query threshold (`MONOID_SLOW_QUERY_NANOS`) additionally capture
//! their optimized plan — and, for reads (on either path), a
//! [`Prepared::profile`] replay against the same snapshot. See
//! `docs/observability.md`.

use crate::AnalyzeError;
use monoid_algebra::{plan_comprehension, reorder_generators, Analysis, PlanError, Query, Stats};
use monoid_calculus::analysis::EffectSummary;
use monoid_calculus::error::EvalError;
use monoid_calculus::expr::Expr;
use monoid_calculus::normalize::normalize_traced;
use monoid_calculus::json::Json;
use monoid_calculus::recorder::{self, CacheDisposition, QueryRecord, SlowQueryCapture};
use monoid_calculus::symbol::Symbol;
use monoid_calculus::trace::{Phase, QueryTrace};
use monoid_calculus::types::Schema;
use monoid_calculus::value::{Env, Value};
use monoid_store::{Database, Snapshot};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Params
// ---------------------------------------------------------------------

/// Values for a prepared statement's `$name` placeholders. Names may be
/// given with or without the `$` prefix; they are stored canonically
/// (`$`-prefixed), which is also how the symbols appear in the plan.
#[derive(Debug, Clone, Default)]
pub struct Params {
    bindings: Vec<(Symbol, Value)>,
}

impl Params {
    pub fn new() -> Params {
        Params::default()
    }

    /// Builder-style bind: `Params::new().bind("city", v).bind("1", n)`.
    /// Re-binding a name replaces its previous value.
    pub fn bind(mut self, name: &str, value: Value) -> Params {
        self.set(name, value);
        self
    }

    /// In-place bind (same semantics as [`Params::bind`]).
    pub fn set(&mut self, name: &str, value: Value) {
        let sym = canonical_param(name);
        if let Some(slot) = self.bindings.iter_mut().find(|(s, _)| *s == sym) {
            slot.1 = value;
        } else {
            self.bindings.push((sym, value));
        }
    }

    /// The bound value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let sym = canonical_param(name);
        self.bindings.iter().find(|(s, _)| *s == sym).map(|(_, v)| v)
    }

    /// The canonical `($name, value)` pairs, in bind order.
    pub fn bindings(&self) -> &[(Symbol, Value)] {
        &self.bindings
    }
}

/// `city` and `$city` both name the parameter symbol `$city`.
fn canonical_param(name: &str) -> Symbol {
    if name.starts_with('$') {
        Symbol::new(name)
    } else {
        Symbol::new(&format!("${name}"))
    }
}

// ---------------------------------------------------------------------
// Prepared
// ---------------------------------------------------------------------

/// A fully pipelined query, ready to execute any number of times against
/// different parameter bindings. Produced by [`prepare`] (schema-only
/// statistics) or [`prepare_on`] (statistics gathered from a database).
#[derive(Debug, Clone)]
pub struct Prepared {
    source: String,
    canonical: Expr,
    exec: ExecMode,
    effects: EffectSummary,
    estimates: Vec<f64>,
    params: Vec<Symbol>,
    trace: QueryTrace,
    prepare_nanos: u128,
}

/// How a prepared statement runs. Plannable canonical comprehensions get
/// the pipelined algebra; everything else the language can express —
/// allocating (`new`) heads, update programs, arithmetic over subqueries,
/// a comprehension whose generators normalization inlined away — runs on
/// the evaluator over the same canonical form. Either way the warm path
/// starts *after* parse/normalize/optimize.
#[derive(Debug, Clone)]
enum ExecMode {
    Plan(Query),
    /// Evaluator mode, with the planner's reason for declining.
    Eval(PlanError),
}

/// Prepare `src` against `schema` alone: parse, translate (type-checking
/// the placeholders as fresh type variables), normalize to canonical
/// form, reorder with *default* (empty) statistics, and plan. Use
/// [`prepare_on`] when a database is at hand — its gathered statistics
/// give the optimizer real cardinalities.
pub fn prepare(schema: &Schema, src: &str) -> Result<Prepared, AnalyzeError> {
    prepare_with_stats(schema, src, &Stats::default())
}

/// Prepare `src` with statistics gathered from `snap` — the variant
/// [`Session::query`] and the plan cache use. Pass a `&Database` for its
/// current state.
pub fn prepare_on(snap: &Snapshot, src: &str) -> Result<Prepared, AnalyzeError> {
    prepare_with_stats(snap.schema(), src, &snapshot_stats(snap))
}

/// [`prepare_on`] under the name the frozen `benchmark/` crate imports;
/// exists only until the benchmark is re-pinned.
pub use self::prepare_on as prepare_on_snapshot;

/// The memo key of a snapshot's gathered [`Stats`]: one per memo.
#[derive(PartialEq)]
struct StatsKey;

/// What the memo charges for keeping a snapshot's statistics: a few
/// counters per extent, field and attribute, not the data they describe.
const STATS_BYTES: usize = 4 << 10;

/// Gather-or-reuse: `Stats::gather` walks every root and the whole heap,
/// but its result only changes when the data does. It is kept in the
/// snapshot's memo, so every prepare at one epoch — on any clone of the
/// snapshot — shares one gather, and a write (which installs a fresh
/// memo) means the next prepare gathers again.
fn snapshot_stats(snap: &Snapshot) -> Arc<Stats> {
    let memo = snap.memo();
    if let Some(stats) = memo.get(|_: &StatsKey| true).and_then(|s| s.downcast().ok()) {
        return stats;
    }
    let stats = Arc::new(Stats::gather(snap));
    memo.insert(StatsKey, stats.clone(), STATS_BYTES);
    stats
}

/// Prepare an already-built calculus expression (the bench builders, or
/// forms OQL cannot spell, e.g. allocating `new(…)` heads): normalize,
/// reorder with `stats`, plan. `Expr::Param` leaves become late-bound
/// parameters exactly as in OQL source.
pub fn prepare_expr(expr: &Expr, stats: &Stats) -> Prepared {
    let started = Instant::now();
    let mut trace = QueryTrace::new();
    let src = monoid_calculus::pretty::pretty(expr);
    trace.source = Some(src.clone());
    finish_prepare(started, trace, src, expr, stats)
}

fn prepare_with_stats(
    schema: &Schema,
    src: &str,
    stats: &Stats,
) -> Result<Prepared, AnalyzeError> {
    let started = Instant::now();
    let mut trace = QueryTrace::new();
    trace.source = Some(src.to_string());

    let program = trace.time(Phase::Parse, || monoid_oql::parse_program(src))?;
    let expr = trace.time(Phase::Translate, || {
        monoid_oql::Translator::new(schema).translate_program(&program)
    })?;
    Ok(finish_prepare(started, trace, src.to_string(), &expr, stats))
}

/// The back half of every prepare: normalize → optimize → plan, with the
/// trace and registry records all prepares share.
fn finish_prepare(
    started: Instant,
    mut trace: QueryTrace,
    src: String,
    expr: &Expr,
    stats: &Stats,
) -> Prepared {
    let start = Instant::now();
    let (canonical, _derivation, nstats) = normalize_traced(expr);
    trace.record(Phase::Normalize, start.elapsed().as_nanos());
    trace.normalize = Some(nstats);

    let reordered = trace.time(Phase::Optimize, || reorder_generators(&canonical, stats));

    let (estimates, exec) = match trace.time(Phase::Plan, || plan_comprehension(&reordered)) {
        Ok(query) => (stats.query_estimates(&query), ExecMode::Plan(query)),
        // Whatever the pipelined algebra declines stays preparable and
        // runs on the evaluator.
        Err(pe) => (Vec::new(), ExecMode::Eval(pe)),
    };

    let effects = EffectSummary::of(&canonical);
    let params = collect_params(&canonical);
    let prepare_nanos = started.elapsed().as_nanos();
    cache_metrics().prepare_nanos.observe_nanos(prepare_nanos);

    Prepared { source: src, canonical, exec, effects, estimates, params, trace, prepare_nanos }
}

/// Every distinct `$param` in `e`, in first-appearance order.
fn collect_params(e: &Expr) -> Vec<Symbol> {
    let mut out = Vec::new();
    e.visit(&mut |n| {
        if let Expr::Param(p) = n {
            if !out.contains(p) {
                out.push(*p);
            }
        }
    });
    out
}

impl Prepared {
    /// The original OQL source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The normalized (canonical-form) calculus expression.
    pub fn canonical(&self) -> &Expr {
        &self.canonical
    }

    /// The optimized physical plan, when the canonical form is plannable
    /// (`None` for evaluator-mode statements: allocating heads, update
    /// programs, non-comprehension roots).
    pub fn query(&self) -> Option<&Query> {
        match &self.exec {
            ExecMode::Plan(q) => Some(q),
            ExecMode::Eval(_) => None,
        }
    }

    /// Why this statement will not run as one fused fold, if it will not:
    /// the planner's reason for an evaluator-mode statement (every plan
    /// fuses). This is what lint MC009 reports.
    pub fn refusal(&self) -> Option<&PlanError> {
        match &self.exec {
            ExecMode::Plan(_) => None,
            ExecMode::Eval(why) => Some(why),
        }
    }

    /// The effect summary of the canonical form, computed once at prepare
    /// time (placeholders contribute nothing — they are pure leaves).
    pub fn effects(&self) -> &EffectSummary {
        &self.effects
    }

    /// The optimizer's per-operator cardinality estimates, in the plan's
    /// pre-order numbering.
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// The statement's `$`-prefixed parameter names, in first-appearance
    /// order.
    pub fn params(&self) -> &[Symbol] {
        &self.params
    }

    /// The prepare-time lifecycle trace (parse → translate → normalize →
    /// optimize → plan; no execute phase).
    pub fn trace(&self) -> &QueryTrace {
        &self.trace
    }

    /// Wall-clock nanoseconds the whole prepare took.
    pub fn prepare_nanos(&self) -> u128 {
        self.prepare_nanos
    }

    /// Check `params` against the statement's placeholders: every
    /// placeholder must be bound, and every binding must name a
    /// placeholder (catching typos eagerly instead of mid-scan).
    fn resolve<'p>(&self, params: &'p Params) -> Result<&'p [(Symbol, Value)], EvalError> {
        for p in &self.params {
            if !params.bindings.iter().any(|(s, _)| s == p) {
                return Err(EvalError::UnboundParameter(*p));
            }
        }
        for (s, _) in &params.bindings {
            if !self.params.contains(s) {
                return Err(EvalError::Other(format!(
                    "binding for `{s}` does not match any statement parameter"
                )));
            }
        }
        Ok(&params.bindings)
    }

    /// Does the statement write the heap (`:=` updates, `new`
    /// allocations)? Decided once, at prepare, from the cached
    /// [`EffectSummary`]; this is the *only* thing that routes a statement
    /// to the `&mut Database` writer path. Writers are always
    /// evaluator-mode — the planner refuses impure comprehensions.
    pub fn writes(&self) -> bool {
        self.effects.effects.mutates || self.effects.effects.allocates
    }

    /// The writer path: bind `params` into the root environment and run
    /// the statement against `db`, committing whatever heap effects it
    /// has. Read-only statements take exactly the
    /// [`Prepared::execute_snapshot`] path against the database's current
    /// state. No parse/normalize/optimize work happens here.
    pub fn execute(&self, db: &mut Database, params: &Params) -> Result<Value, AnalyzeError> {
        self.execute_from(Origin::now(None), db, params)
    }

    /// [`Prepared::execute`] on behalf of `origin` — a [`Session`]'s, or
    /// this call's own.
    pub(crate) fn execute_from(
        &self,
        origin: Option<Origin>,
        db: &mut Database,
        params: &Params,
    ) -> Result<Value, AnalyzeError> {
        let (result, execute_nanos) = self.run(origin.is_some(), params, |binds| {
            if self.writes() {
                self.run_write(db, binds)
            } else {
                self.run_read(db, binds)
            }
        });
        // (A writer's slow capture replays against the state it left.)
        self.record_run(origin, None, execute_nanos, &result, db, params);
        result
    }

    /// Execute against an immutable [`Snapshot`] — the concurrent-read
    /// path. Statements that [write](Prepared::writes) are refused: they
    /// need the `&mut Database` writer path, where epochs advance.
    /// Results are byte-identical to [`Prepared::execute`] against the
    /// database at the snapshot's epoch.
    pub fn execute_snapshot(
        &self,
        snap: &Snapshot,
        params: &Params,
    ) -> Result<Value, AnalyzeError> {
        self.execute_snapshot_from(Origin::now(None), snap, params)
    }

    /// [`Prepared::execute_snapshot`] on behalf of `origin`.
    pub(crate) fn execute_snapshot_from(
        &self,
        origin: Option<Origin>,
        snap: &Snapshot,
        params: &Params,
    ) -> Result<Value, AnalyzeError> {
        let (result, execute_nanos) = self.run(origin.is_some(), params, |binds| {
            if self.writes() {
                return Err(AnalyzeError::Exec(EvalError::Other(format!(
                    "statement has heap effects ({}) — snapshots are read-only; \
                     run it against the database writer instead",
                    self.effects
                ))));
            }
            self.run_read(snap, binds)
        });
        self.record_run(origin, Some(snap.epoch()), execute_nanos, &result, snap, params);
        result
    }

    /// What both paths share: eager binding validation, then `run` —
    /// timed, when a record will want the execute phase (here, not in the
    /// algebra layers below, which know nothing of records).
    fn run(
        &self,
        timed: bool,
        params: &Params,
        run: impl FnOnce(&[(Symbol, Value)]) -> Result<Value, AnalyzeError>,
    ) -> (Result<Value, AnalyzeError>, u64) {
        let binds = match self.resolve(params) {
            Ok(binds) => binds,
            Err(e) => return (Err(AnalyzeError::Exec(e)), 0),
        };
        let started = timed.then(Instant::now);
        let result = run(binds);
        (result, started.map_or(0, |s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)))
    }

    /// The record of one run, built from what the statement holds —
    /// source, effects, engine — plus who asked: session and cache
    /// disposition from `origin`, and on a miss the cold prepare's phase
    /// timings (a prepare trace has no execute phase, so nothing
    /// double-counts with the run's).
    fn new_record(&self, origin: &Origin) -> QueryRecord {
        let mut record = origin.record(&self.source);
        if origin.cache == CacheDisposition::Miss {
            record.add_trace(&self.trace);
        }
        record.effects = self.effects.to_string();
        let engine = if self.query().is_some() { "fused" } else { "eval" };
        record.engine = Some(engine.to_string());
        record
    }

    /// Record one `execute*`, if the recorder was on when it entered: an
    /// over-threshold one replays — reads only, whose second run cannot
    /// be observed — under the profiler against `snap`, the state the
    /// statement ran against.
    fn record_run(
        &self,
        origin: Option<Origin>,
        snapshot_epoch: Option<u64>,
        execute_nanos: u64,
        result: &Result<Value, AnalyzeError>,
        snap: &Snapshot,
        params: &Params,
    ) {
        let Some(origin) = origin else { return };
        let mut record = self.new_record(&origin);
        record.phase_nanos[Phase::Execute.index()] = execute_nanos;
        record.snapshot_epoch = snapshot_epoch;
        self.commit(origin, record, result.as_ref(), || {
            self.profile(snap, params).ok().map(|a| a.profile.to_json())
        });
    }

    /// Stamp the outcome and commit. An over-threshold record gets its
    /// deep capture: the full source (the record's is capped; slow
    /// queries are rare enough to keep whole), the optimized plan text
    /// and whatever `profile` yields.
    fn commit(
        &self,
        origin: Origin,
        mut record: QueryRecord,
        outcome: Result<&Value, &AnalyzeError>,
        profile: impl FnOnce() -> Option<Json>,
    ) {
        if let Ok(value) = outcome {
            record.rows = value.len().map_or(1, |n| n as u64);
        }
        if let Some(trigger) = origin.commit(record, outcome.err()) {
            recorder::global().capture_slow(SlowQueryCapture {
                seq: trigger.seq,
                fingerprint: trigger.fingerprint,
                source: self.source.clone(),
                total_nanos: trigger.total_nanos,
                threshold_nanos: trigger.threshold_nanos,
                plan: self.query().map(monoid_algebra::explain),
                profile: profile(),
            });
        }
    }

    /// The one profiled execution — `EXPLAIN ANALYZE`, the slow-query
    /// capture and flamegraphs (`.profile.to_folded()`) all run this:
    /// walk the plan under the counting probe against `snap`, next to the
    /// estimates the statement was planned with, and return the value
    /// with a profile whose trace is the statement's own lifecycle — the
    /// prepare's phases, then this run's execute. Commits no record.
    /// Only plan-mode statements have an operator tree to profile; an
    /// evaluator-mode statement reports the planner's refusal.
    pub fn profile(&self, snap: &Snapshot, params: &Params) -> Result<Analysis, AnalyzeError> {
        let binds = self.resolve(params).map_err(AnalyzeError::Exec)?;
        let query = match &self.exec {
            ExecMode::Plan(query) => query,
            ExecMode::Eval(why) => {
                return Err(AnalyzeError::Exec(EvalError::Other(why.to_string())))
            }
        };
        let mut analysis =
            monoid_algebra::execute_profiled_bound(query, &self.estimates, snap, binds)?;
        let executed = std::mem::replace(&mut analysis.profile.trace, self.trace.clone());
        analysis.profile.trace.phases.extend(executed.phases);
        Ok(analysis)
    }

    /// [`Prepared::profile`] as the umbrella `explain_analyze` runs it:
    /// one record, carrying the whole lifecycle the profile timed, and a
    /// slow capture that costs nothing — the profile is already in hand.
    pub(crate) fn profile_from(
        &self,
        origin: Option<Origin>,
        snap: &Snapshot,
        params: &Params,
    ) -> Result<Analysis, AnalyzeError> {
        let result = self.profile(snap, params);
        if let Some(origin) = origin {
            let mut record = self.new_record(&origin);
            if let Ok(analysis) = &result {
                record.add_trace(&analysis.profile.trace);
            }
            self.commit(origin, record, result.as_ref().map(|a| &a.value), || {
                result.as_ref().ok().map(|a| a.profile.to_json())
            });
        }
        result
    }

    /// A read: the plan (or, for evaluator-mode statements, the canonical
    /// form) over the snapshot's pinned heap.
    fn run_read(
        &self,
        snap: &Snapshot,
        binds: &[(Symbol, Value)],
    ) -> Result<Value, AnalyzeError> {
        match &self.exec {
            ExecMode::Plan(q) => Ok(monoid_algebra::execute_snapshot_bound(q, snap, binds)?),
            ExecMode::Eval(_) => Ok(snap.eval_unchecked(&self.canonical, &bound_env(snap, binds))?),
        }
    }

    /// A write: the canonical form through the database's own evaluation,
    /// so the effects commit (the paper's §4.2 state-transformer path).
    fn run_write(
        &self,
        db: &mut Database,
        binds: &[(Symbol, Value)],
    ) -> Result<Value, AnalyzeError> {
        Ok(db.query_in(&bound_env(db, binds), &self.canonical)?)
    }
}

/// The persistent roots with the parameter bindings layered over them.
fn bound_env(snap: &Snapshot, binds: &[(Symbol, Value)]) -> Env {
    let mut env = snap.env();
    for (p, v) in binds {
        env = env.bind(*p, v.clone());
    }
    env
}

// ---------------------------------------------------------------------
// Origin
// ---------------------------------------------------------------------

/// Who asked for a statement to run, as its flight-recorder record needs
/// it: plain data the entry point fills in — a [`Session`] its id and,
/// after the lookup, how the plan cache answered — and hands to the
/// [`Prepared`], which builds and commits the record. One exists only
/// while the recorder is enabled: [`Origin::now`] is the disabled path's
/// one atomic load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Origin {
    session: Option<u64>,
    cache: CacheDisposition,
    /// When the statement entered the serving layer; the record's total
    /// runs from here, so it includes the cache lookup and any lock wait.
    started: Instant,
}

impl Origin {
    pub(crate) fn now(session: Option<u64>) -> Option<Origin> {
        let cache = CacheDisposition::Uncached;
        recorder::global().enabled().then(|| Origin { session, cache, started: Instant::now() })
    }

    fn record(&self, source: &str) -> QueryRecord {
        let mut record = QueryRecord::new(source);
        record.session = self.session;
        record.cache = self.cache;
        record
    }

    /// Stamp the outcome and the wall-clock total, and commit.
    fn commit(
        self,
        mut record: QueryRecord,
        error: Option<&AnalyzeError>,
    ) -> Option<recorder::SlowTrigger> {
        record.error = error.map(ToString::to_string);
        record.total_nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        recorder::global().commit(record)
    }

    /// `prepared`, unless `source` never became a [`Prepared`]: then its
    /// record is the error, committed here — no statement exists to.
    pub(crate) fn or_fail<T>(
        origin: &mut Option<Origin>,
        source: &str,
        prepared: Result<T, AnalyzeError>,
    ) -> Result<T, AnalyzeError> {
        if let Err(e) = &prepared {
            if let Some(origin) = origin.take() {
                origin.commit(origin.record(source), Some(e));
            }
        }
        prepared
    }
}

// ---------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------

/// Shard count: fixed power of two so key → shard is a mask.
const SHARDS: usize = 8;

/// Default byte budget for the process-wide cache (approximate, across
/// all shards).
const DEFAULT_BUDGET_BYTES: usize = 8 * 1024 * 1024;

/// A sharded, LRU, byte-budgeted cache of [`Prepared`] statements, keyed
/// by source text + schema fingerprint and stamped with the
/// `(instance_id, epoch)` of the snapshot observed at prepare time.
///
/// An entry is served only to a snapshot whose pair equals its stamp, so
/// any mutation (heap write, allocation, root change) between executions
/// invalidates every entry prepared before it. Invalidation
/// is counted (`plan_cache_invalidations_total`) and followed by a fresh
/// prepare, never by serving the stale plan.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Approximate byte budget per shard.
    shard_budget: usize,
    /// Monotonic logical clock for LRU ordering.
    tick: AtomicU64,
}

#[derive(Default)]
struct Shard {
    entries: Vec<CacheEntry>,
    bytes: usize,
}

struct CacheEntry {
    source: String,
    schema_fp: u64,
    /// The `(instance_id, mutation_epoch)` pair observed at prepare
    /// time. Both halves must match for a hit: epochs are only
    /// comparable within one database instance, so an entry prepared
    /// against a different database that happens to share an epoch
    /// number must not be served (`tests/plan_cache.rs`).
    instance: u64,
    epoch: u64,
    bytes: usize,
    last_used: u64,
    prepared: Arc<Prepared>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::with_budget(DEFAULT_BUDGET_BYTES)
    }
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// A cache bounded to roughly `budget_bytes` across all shards.
    pub fn with_budget(budget_bytes: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (budget_bytes / SHARDS).max(1),
            tick: AtomicU64::new(0),
        }
    }

    /// The serving fast path: return the cached plan for `(src, schema)`
    /// if its stamp still matches `snap`'s `(instance_id, epoch)`;
    /// otherwise prepare (with statistics from `snap`), cache, and return
    /// it. Also reports the disposition: `true` when served from cache,
    /// `false` when freshly prepared (cold, stale-epoch, or evicted) —
    /// [`Session`] threads this into the flight recorder. Pass a
    /// `&Database` for its current state.
    ///
    /// Concurrent readers of one snapshot share entries with each other
    /// *and* with the writer path whenever the epochs agree; a reader
    /// pinned behind the writer simply re-prepares against its own epoch,
    /// replacing the entry of the same key.
    pub fn get_or_prepare_snapshot_traced(
        &self,
        snap: &Snapshot,
        src: &str,
    ) -> Result<(Arc<Prepared>, bool), AnalyzeError> {
        let fp = snap.schema_fingerprint();
        let (instance, epoch) = (snap.instance_id(), snap.epoch());
        let m = cache_metrics();
        let shard = &self.shards[(hash_key(src, fp) as usize) & (SHARDS - 1)];

        {
            let mut s = shard.lock().unwrap();
            if let Some(i) = s.entries.iter().position(|e| e.source == src && e.schema_fp == fp)
            {
                if s.entries[i].instance == instance && s.entries[i].epoch == epoch {
                    m.hits.inc();
                    let tick = self.tick.fetch_add(1, Ordering::Relaxed);
                    s.entries[i].last_used = tick;
                    return Ok((Arc::clone(&s.entries[i].prepared), true));
                }
                // Stale: the database mutated since this plan (and its
                // statistics) were captured — or the entry belongs to a
                // different database instance entirely. Refuse it.
                m.invalidations.inc();
                let dead = s.entries.remove(i);
                s.bytes -= dead.bytes;
            }
        }

        m.misses.inc();
        let prepared = Arc::new(prepare_on(snap, src)?);
        let bytes = approx_bytes(&prepared);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut s = shard.lock().unwrap();
        // A racing thread may have inserted the same key; replace rather
        // than duplicate.
        if let Some(i) = s.entries.iter().position(|e| e.source == src && e.schema_fp == fp) {
            let dead = s.entries.remove(i);
            s.bytes -= dead.bytes;
        }
        s.entries.push(CacheEntry {
            source: src.to_string(),
            schema_fp: fp,
            instance,
            epoch,
            bytes,
            last_used: tick,
            prepared: Arc::clone(&prepared),
        });
        s.bytes += bytes;
        while s.bytes > self.shard_budget && s.entries.len() > 1 {
            let (oldest, _) = s
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("non-empty");
            let dead = s.entries.remove(oldest);
            s.bytes -= dead.bytes;
            m.evictions.inc();
        }
        Ok((prepared, false))
    }

    /// Entries currently cached (all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes currently cached (all shards).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }

    /// Drop every entry (counters are not touched).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            s.entries.clear();
            s.bytes = 0;
        }
    }
}

fn hash_key(src: &str, fp: u64) -> u64 {
    let mut h = DefaultHasher::new();
    src.hash(&mut h);
    fp.hash(&mut h);
    h.finish()
}

/// Approximate retained size of a prepared statement: source text plus a
/// fixed charge per calculus node, plan operator, estimate, and param. A
/// planned statement also holds its compiled fold, which copies or
/// compiles each of the plan's expressions: a second charge per node.
fn approx_bytes(p: &Prepared) -> usize {
    let (plan_nodes, copies) = p.query().map_or((0, 1), |q| (q.plan().node_count(), 2));
    p.source.len()
        + 64 * copies * p.canonical.size()
        + 128 * plan_nodes
        + 8 * p.estimates.len()
        + 16 * p.params.len()
        + 256
}

/// The process-wide plan cache backing [`Session::new`].
pub fn global_plan_cache() -> &'static Arc<PlanCache> {
    static CACHE: OnceLock<Arc<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(PlanCache::new()))
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// The umbrella serving fast path: `session.query(db, src, &params)`
/// (or `query_snapshot(snap, …)` for lock-free reads) resolves `src`
/// through the plan cache (epoch-checked) and executes the prepared plan
/// with the given bindings. Sessions are cheap handles; by default they
/// all share the process-wide [`global_plan_cache`].
#[derive(Clone)]
pub struct Session {
    cache: Arc<PlanCache>,
    /// Process-unique id, stamped on every flight-recorder record this
    /// session produces. Clones share it — they are the same logical
    /// session over the same cache.
    id: u64,
}

/// A panic-safe increment of the `serving_requests_in_flight` gauge:
/// taken at the top of every serving entry point, released on drop —
/// unwinding included — so the gauge provably returns to zero once all
/// in-flight statements finish (`tests/snapshot_swap.rs`).
pub struct InFlightGuard {
    gauge: Arc<monoid_calculus::metrics::Gauge>,
}

impl InFlightGuard {
    /// Bump the gauge; the matching decrement runs on drop.
    pub fn enter() -> InFlightGuard {
        let gauge = Arc::clone(&serving_metrics().in_flight);
        gauge.add(1);
        InFlightGuard { gauge }
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.gauge.add(-1);
    }
}

/// Statements currently executing through the serving layer (the
/// `serving_requests_in_flight` gauge).
pub fn requests_in_flight() -> i64 {
    serving_metrics().in_flight.get()
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

fn next_session_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Session {
    /// A session over the process-wide plan cache.
    pub fn new() -> Session {
        Session {
            cache: Arc::clone(global_plan_cache()),
            id: next_session_id(),
        }
    }

    /// A session over a private cache (isolated tests, bounded budgets).
    pub fn with_cache(cache: Arc<PlanCache>) -> Session {
        Session { cache, id: next_session_id() }
    }

    /// The cache this session serves from.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The id stamped on this session's flight-recorder records.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Prepare-or-hit, then execute on the writer path: the statement
    /// may be an update program, and its effects commit to `db`.
    pub fn query(
        &self,
        db: &mut Database,
        src: &str,
        params: &Params,
    ) -> Result<Value, AnalyzeError> {
        let (_in_flight, mut origin) = self.enter();
        let stmt = self.lookup(&mut origin, db, src)?;
        stmt.execute_from(origin, db, params)
    }

    /// The snapshot-isolated serving path: resolve `src` through the
    /// plan cache keyed by the snapshot's pinned `(instance_id, epoch)`
    /// and execute against the snapshot — no lock on the live database,
    /// so any number of sessions run this concurrently while a writer
    /// commits new epochs. Write statements are refused (they need
    /// [`Session::query`] against the `&mut Database`).
    pub fn query_snapshot(
        &self,
        snap: &Snapshot,
        src: &str,
        params: &Params,
    ) -> Result<Value, AnalyzeError> {
        let (_in_flight, mut origin) = self.enter();
        let stmt = self.lookup(&mut origin, snap, src)?;
        stmt.execute_snapshot_from(origin, snap, params)
    }

    /// One statement enters this session: the in-flight gauge (held by
    /// the caller until the statement is done), the process-wide
    /// `serving_statements_total` counter, and the
    /// [`Origin`] — stamped with the session id — that the statement's
    /// [`Prepared`] will build its record from.
    pub(crate) fn enter(&self) -> (InFlightGuard, Option<Origin>) {
        let in_flight = InFlightGuard::enter();
        serving_metrics().statements.inc();
        (in_flight, Origin::now(Some(self.id)))
    }

    /// Resolve `src` through the plan cache — exactly once per statement
    /// — telling `origin` the disposition (or, for a failed prepare,
    /// committing its record with the error).
    pub(crate) fn lookup(
        &self,
        origin: &mut Option<Origin>,
        snap: &Snapshot,
        src: &str,
    ) -> Result<Arc<Prepared>, AnalyzeError> {
        let looked_up = self.cache.get_or_prepare_snapshot_traced(snap, src);
        let (stmt, hit) = Origin::or_fail(origin, src, looked_up)?;
        if let Some(origin) = origin {
            origin.cache = if hit { CacheDisposition::Hit } else { CacheDisposition::Miss };
        }
        Ok(stmt)
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct CacheMetrics {
    hits: Arc<monoid_calculus::metrics::Counter>,
    misses: Arc<monoid_calculus::metrics::Counter>,
    evictions: Arc<monoid_calculus::metrics::Counter>,
    invalidations: Arc<monoid_calculus::metrics::Counter>,
    prepare_nanos: Arc<monoid_calculus::metrics::Histogram>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = monoid_calculus::metrics::global();
        CacheMetrics {
            hits: r.counter("plan_cache_hits_total"),
            misses: r.counter("plan_cache_misses_total"),
            evictions: r.counter("plan_cache_evictions_total"),
            invalidations: r.counter("plan_cache_invalidations_total"),
            prepare_nanos: r.histogram("prepare_nanos"),
        }
    })
}

struct ServingMetrics {
    /// Statements currently inside a serving entry point (writer or
    /// snapshot path). Guard-maintained: returns to zero when the layer
    /// drains, panics included.
    in_flight: Arc<monoid_calculus::metrics::Gauge>,
    /// Statements served, across all sessions.
    statements: Arc<monoid_calculus::metrics::Counter>,
}

fn serving_metrics() -> &'static ServingMetrics {
    static METRICS: OnceLock<ServingMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = monoid_calculus::metrics::global();
        ServingMetrics {
            in_flight: r.gauge("serving_requests_in_flight"),
            statements: r.counter("serving_statements_total"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monoid_store::travel::{self, TravelScale};

    fn db() -> Database {
        travel::generate(TravelScale::tiny(), 42)
    }

    #[test]
    fn prepared_execute_matches_adhoc() {
        let mut db = db();
        let src = "select h.name from c in Cities, h in c.hotels where c.name = $city";
        let prepared = prepare_on(&db, src).unwrap();
        assert_eq!(prepared.params(), &[Symbol::new("$city")]);
        let v = prepared
            .execute(&mut db, &Params::new().bind("city", Value::str("Portland")))
            .unwrap();
        let adhoc = crate::explain_analyze(
            "select h.name from c in Cities, h in c.hotels where c.name = 'Portland'",
            &db,
        )
        .unwrap()
        .value;
        assert_eq!(v, adhoc);
    }

    #[test]
    fn rebinding_changes_results_not_plans() {
        let mut db = db();
        let src = "select r.price from h in Hotels, r in h.rooms where r.bed# >= $beds";
        let prepared = prepare_on(&db, src).unwrap();
        let a = prepared.execute(&mut db, &Params::new().bind("beds", Value::Int(1))).unwrap();
        let b = prepared.execute(&mut db, &Params::new().bind("beds", Value::Int(99))).unwrap();
        assert_ne!(a, b, "different bindings select different rows");
        assert_eq!(b.elements().unwrap().len(), 0);
    }

    #[test]
    fn missing_and_unknown_bindings_are_rejected() {
        let mut db = db();
        let prepared =
            prepare_on(&db, "select c.name from c in Cities where c.name = $city").unwrap();
        let err = prepared.execute(&mut db, &Params::new()).unwrap_err();
        assert!(err.to_string().contains("$city"), "{err}");
        let err = prepared
            .execute(
                &mut db,
                &Params::new()
                    .bind("city", Value::str("Portland"))
                    .bind("oops", Value::Int(1)),
            )
            .unwrap_err();
        assert!(err.to_string().contains("$oops"), "{err}");
    }

    #[test]
    fn cache_hits_serve_the_same_prepared() {
        let cache = PlanCache::new();
        let db = db();
        let src = "count(Cities)";
        let a = cache.get_or_prepare_snapshot_traced(&db, src).unwrap().0;
        let b = cache.get_or_prepare_snapshot_traced(&db, src).unwrap().0;
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn mutation_invalidates_cached_entries() {
        let cache = PlanCache::new();
        let mut db = db();
        let src = "count(Cities)";
        let a = cache.get_or_prepare_snapshot_traced(&db, src).unwrap().0;
        let before = db.mutation_epoch();
        db.set_root("Scratch", Value::Int(1));
        assert_ne!(before, db.mutation_epoch(), "root change advances the epoch");
        let b = cache.get_or_prepare_snapshot_traced(&db, src).unwrap().0;
        assert!(!Arc::ptr_eq(&a, &b), "mutation forced a re-prepare");
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        // A budget that holds only a couple of entries per shard.
        let cache = PlanCache::with_budget(SHARDS * 2048);
        let db = db();
        for i in 0..64 {
            let src = format!("select c.name from c in Cities where c.hotel# > {i}");
            cache.get_or_prepare_snapshot_traced(&db, &src).unwrap();
        }
        assert!(cache.bytes() <= SHARDS * 2048 + 4096, "budget enforced: {}", cache.bytes());
        assert!(cache.len() < 64, "older entries evicted");
    }

    /// A statement that dies mid-execution takes its origin — the only
    /// place its would-be record lived — down with its stack frame.
    #[test]
    fn nothing_ambient_survives_a_panicking_statement() {
        // A source no sibling test runs, so its fingerprint picks this
        // test's records out of the shared ring.
        let src = "select c.name from c in Cities where c.name = 'nothing ambient survives'";
        let recorded = move || {
            let mut ring = recorder::global().snapshot();
            ring.retain(|r| r.fingerprint == recorder::fingerprint(src));
            ring
        };
        recorder::global().set_enabled(true);
        let db = db();
        let stmt = prepare_on(&db, src).unwrap();
        let session = Session::with_cache(Arc::new(PlanCache::new()));
        let worker = std::thread::spawn(move || {
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (_in_flight, origin) = session.enter();
                assert!(origin.is_some() && requests_in_flight() == 1);
                stmt.run(true, &Params::new(), |_| panic!("statement died"))
            }));
            assert!(died.is_err());
            assert_eq!(requests_in_flight(), 0, "the in-flight gauge leaked");
            assert!(recorded().is_empty(), "the dead statement reached the ring");
            // The next statement on this thread records normally.
            session.query_snapshot(&db, src, &Params::new()).unwrap();
            let ours = recorded();
            assert_eq!(ours.len(), 1);
            assert_eq!(ours[0].session, Some(session.id()));
            assert_eq!(ours[0].cache, CacheDisposition::Miss);
        });
        worker.join().expect("worker's own assertions hold");
    }
}
