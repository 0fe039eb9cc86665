//! The query serving layer: prepared statements and the plan cache.
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
//! keyed by source text + schema fingerprint. Translation reads only the
//! schema, and statistics only choose the generator order, so a plan
//! outlives writes: every entry is stamped with its database's instance id
//! and the length of each extent its statistics saw, and it serves every
//! snapshot of that database whose extents are all within a factor of two
//! of their stamped lengths. Past that, or on another database, the
//! lookup prepares again. The statistics a prepare reads are kept in the
//! snapshot's memo, so they are shared by every prepare at one epoch and
//! assembled again after a write — from the per-extent parts an insert
//! carried, walking only the rest.
//! [`Session::query`] is the umbrella fast
//! path that puts the two together: hit the cache, bind, execute.
//!
//! Cache traffic is metered in the process-wide registry:
//! `plan_cache_hits_total`, `plan_cache_misses_total`,
//! `plan_cache_evictions_total`, `plan_cache_invalidations_total` (entries
//! found but refused: drift or another instance), and the
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
use monoid_algebra::{
    plan_comprehension, reorder_generators, Analysis, ExtentFacts, PlanError, Query, Stats,
};
use monoid_calculus::analysis::EffectSummary;
use monoid_calculus::error::EvalError;
use monoid_calculus::expr::Expr;
use monoid_calculus::normalize::{normalize_traced, NormalizeStats};
use monoid_calculus::json::Json;
use monoid_calculus::recorder::{self, CacheDisposition, QueryRecord, SlowQueryCapture};
use monoid_calculus::metrics;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::trace::Phase;
use monoid_calculus::types::Schema;
use monoid_calculus::value::{Env, Value};
use monoid_store::{Database, Snapshot};
use std::borrow::Borrow;
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
        self.set_symbol(canonical_param(name), value);
    }

    /// Bind the canonical symbol `sym`.
    pub(crate) fn set_symbol(&mut self, sym: Symbol, value: Value) {
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
    /// The prepare's phase timings, indexed by [`Phase::index`] (parse →
    /// plan; 0 for a phase that did not run, and always for execute).
    phase_nanos: [u64; Phase::ALL.len()],
    normalize: NormalizeStats,
    prepare_nanos: u128,
    /// What every flight-recorder record of the statement carries,
    /// computed once here rather than per execution.
    fingerprint: u64,
    record_source: Arc<str>,
    effects_text: Arc<str>,
    engine: &'static str,
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
    prepare_with_stats(schema, src, Stats::default)
}

/// Prepare `src` with statistics gathered from `snap` — the variant
/// [`Session::query`] and the plan cache use. Pass a `&Database` for its
/// current state. A gather this prepare runs (the snapshot's memo held
/// none) is timed in its Optimize phase and its `prepare_nanos`.
pub fn prepare_on(snap: &Snapshot, src: &str) -> Result<Prepared, AnalyzeError> {
    prepare_with_stats(snap.schema(), src, || snapshot_stats(snap))
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

/// Gather-or-reuse: `Stats::gather` walks every root and the whole heap
/// (borrowing each element, one sort of 8-byte keys per attribute's
/// distinct count),
/// but its result only changes when the data does. It is kept in the
/// snapshot's memo, so every prepare at one epoch — on any clone of the
/// snapshot — shares one gather. A write installs a fresh memo, so the
/// next prepare assembles again: from each root's part the memo still
/// holds (an insert carries all but its extent's), walking only the
/// roots without one. A walk that met a dangling object is not kept as
/// a part: a later insert may make the object live.
fn snapshot_stats(snap: &Snapshot) -> Arc<Stats> {
    let memo = snap.memo();
    if let Some(stats) = memo.get(|_: &StatsKey| true).and_then(|s| s.downcast().ok()) {
        return stats;
    }
    let parts = snap.roots().filter_map(|(name, root)| {
        if let Some(part) = memo.part(name).and_then(|p| p.downcast::<ExtentFacts>().ok()) {
            return Some((name, part));
        }
        let (part, live) = ExtentFacts::gather(snap.heap(), root)?;
        let part = Arc::new(part);
        if live {
            memo.keep_part(name, part.clone());
        }
        Some((name, part))
    });
    let stats = Arc::new(Stats::from_parts(parts));
    memo.insert(StatsKey, stats.clone(), STATS_BYTES);
    stats
}

/// Prepare an already-built calculus expression (the bench builders, or
/// forms OQL cannot spell, e.g. allocating `new(…)` heads): normalize,
/// reorder with `stats`, plan. `Expr::Param` leaves become late-bound
/// parameters exactly as in OQL source.
pub fn prepare_expr(expr: &Expr, stats: &Stats) -> Prepared {
    let started = Instant::now();
    let src = monoid_calculus::pretty::pretty(expr);
    finish_prepare(started, [0; Phase::ALL.len()], src, expr, || stats)
}

fn prepare_with_stats<S: Borrow<Stats>>(
    schema: &Schema,
    src: &str,
    stats: impl FnOnce() -> S,
) -> Result<Prepared, AnalyzeError> {
    let started = Instant::now();
    let mut phases = [0; Phase::ALL.len()];
    let program = Phase::Parse.time(&mut phases, || monoid_oql::parse_program(src))?;
    let expr = Phase::Translate.time(&mut phases, || {
        monoid_oql::Translator::new(schema).translate_program(&program)
    })?;
    Ok(finish_prepare(started, phases, src.to_string(), &expr, stats))
}

/// The back half of every prepare: normalize → optimize → plan, with the
/// phase timings and registry records all prepares share. `stats` is
/// called inside the Optimize phase, so a gather counts there.
fn finish_prepare<S: Borrow<Stats>>(
    started: Instant,
    mut phases: [u64; Phase::ALL.len()],
    src: String,
    expr: &Expr,
    stats: impl FnOnce() -> S,
) -> Prepared {
    let (canonical, _, normalize) = Phase::Normalize.time(&mut phases, || normalize_traced(expr));

    let (stats, reordered) = Phase::Optimize.time(&mut phases, || {
        let stats = stats();
        let reordered = reorder_generators(&canonical, stats.borrow());
        (stats, reordered)
    });
    let stats: &Stats = stats.borrow();

    let (estimates, exec) = match Phase::Plan.time(&mut phases, || plan_comprehension(&reordered)) {
        Ok(query) => (stats.query_estimates(&query), ExecMode::Plan(query)),
        // Whatever the pipelined algebra declines stays preparable and
        // runs on the evaluator.
        Err(pe) => (Vec::new(), ExecMode::Eval(pe)),
    };

    let effects = EffectSummary::of(&canonical);
    let params = collect_params(&canonical);
    let prepare_nanos = started.elapsed().as_nanos();
    metrics::global().prepare_nanos.observe_nanos(prepare_nanos);

    let engine = if matches!(exec, ExecMode::Plan(_)) { "fused" } else { "eval" };
    let QueryRecord { fingerprint, source: record_source, .. } = QueryRecord::new(&src);
    Prepared {
        fingerprint,
        record_source,
        effects_text: Arc::from(effects.to_string()),
        engine,
        source: src,
        canonical,
        exec,
        effects,
        estimates,
        params,
        phase_nanos: phases,
        normalize,
        prepare_nanos,
    }
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

    /// Nanos the prepare spent in `phase` (parse → translate → normalize
    /// → optimize → plan; 0 for a phase that did not run, and always for
    /// execute).
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
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

    /// The symbol a wire parameter `name` binds, as [`Params::set`] names
    /// it: `name` and `$name` both name `$name`. The name is matched
    /// against the statement's own placeholders where it lies in the
    /// frame; only a name that is none of them is interned — and then
    /// refused, by name, when the statement runs. `oqld` binds each
    /// parameter of a frame with [`Params::set_symbol`], so a later
    /// binding replaces an earlier one.
    pub(crate) fn wire_symbol(&self, name: &str) -> Symbol {
        let bare = name.strip_prefix('$').unwrap_or(name);
        let own = self.params.iter().find(|p| p.as_str().strip_prefix('$') == Some(bare));
        own.copied().unwrap_or_else(|| canonical_param(name))
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
        let (result, ran) = self.run(origin.is_some(), params, |binds| {
            if self.writes() {
                self.run_write(db, binds)
            } else {
                self.run_read(db, binds)
            }
        });
        // (A writer's slow capture replays against the state it left.)
        self.record_run(origin, None, ran, &result, db, params);
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
        let (result, ran) = self.run(origin.is_some(), params, |binds| {
            if self.writes() {
                return Err(AnalyzeError::Exec(EvalError::Other(format!(
                    "statement has heap effects ({}) — snapshots are read-only; \
                     run it against the database writer instead",
                    self.effects
                ))));
            }
            self.run_read(snap, binds)
        });
        self.record_run(origin, Some(snap.epoch()), ran, &result, snap, params);
        result
    }

    /// What both paths share: eager binding validation, then `run` —
    /// timed, when a record will want the execute phase (here, not in the
    /// algebra layers below, which know nothing of records): its nanos,
    /// and the instant it ended, which ends the record's total too.
    fn run(
        &self,
        timed: bool,
        params: &Params,
        run: impl FnOnce(&[(Symbol, Value)]) -> Result<Value, AnalyzeError>,
    ) -> (Result<Value, AnalyzeError>, Option<(u64, Instant)>) {
        let binds = match self.resolve(params) {
            Ok(binds) => binds,
            Err(e) => return (Err(AnalyzeError::Exec(e)), None),
        };
        let started = timed.then(Instant::now);
        let result = run(binds);
        let ran = started.map(|s| {
            let ended = Instant::now();
            (u64::try_from((ended - s).as_nanos()).unwrap_or(u64::MAX), ended)
        });
        (result, ran)
    }

    /// The record of one run, built from what the statement holds —
    /// source, effects, engine — plus who asked: session and cache
    /// disposition from `origin`, and on a miss the cold prepare's phase
    /// timings (a prepare times no execute phase, so nothing
    /// double-counts with the run's).
    fn new_record(&self, origin: &Origin) -> QueryRecord {
        let record = QueryRecord::of(self.fingerprint, self.record_source.clone());
        let mut record = origin.record(record);
        if origin.cache == CacheDisposition::Miss {
            record.phase_nanos = self.phase_nanos;
        }
        record.effects = self.effects_text.clone();
        record.engine = Some(self.engine);
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
        ran: Option<(u64, Instant)>,
        result: &Result<Value, AnalyzeError>,
        snap: &Snapshot,
        params: &Params,
    ) {
        let Some(origin) = origin else { return };
        let (execute_nanos, ended) = ran.unwrap_or_else(|| (0, Instant::now()));
        let mut record = self.new_record(&origin);
        record.phase_nanos[Phase::Execute.index()] = execute_nanos;
        record.snapshot_epoch = snapshot_epoch;
        self.commit(origin, record, result.as_ref(), ended, || {
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
        ended: Instant,
        profile: impl FnOnce() -> Option<Json>,
    ) {
        if let Ok(value) = outcome {
            // A scalar is one row; asked for its length, it would format
            // an error first.
            record.rows = match value {
                Value::List(_) | Value::Set(_) | Value::Vector(_) | Value::Bag(_) | Value::Str(_) => {
                    value.len().map_or(1, |n| n as u64)
                }
                _ => 1,
            };
        }
        if let Some(trigger) = origin.commit(record, outcome.err(), ended) {
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
    /// with a profile that accounts for the statement's own lifecycle —
    /// its source, the prepare's phases and normalization statistics, and
    /// this run's execute. Commits no record.
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
        let profile = &mut analysis.profile;
        profile.source = Some(self.source.clone());
        for (slot, prepared) in profile.phase_nanos.iter_mut().zip(self.phase_nanos) {
            *slot += prepared;
        }
        profile.normalize = Some(self.normalize.clone());
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
                record.phase_nanos = analysis.profile.phase_nanos;
            }
            let value = result.as_ref().map(|a| &a.value);
            self.commit(origin, record, value, Instant::now(), || {
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

    /// `record`, stamped with who asked.
    fn record(&self, mut record: QueryRecord) -> QueryRecord {
        record.session = self.session;
        record.cache = self.cache;
        record
    }

    /// Stamp the outcome and the wall-clock total up to `ended`, and
    /// commit.
    fn commit(
        self,
        mut record: QueryRecord,
        error: Option<&AnalyzeError>,
        ended: Instant,
    ) -> Option<recorder::SlowTrigger> {
        record.error = error.map(ToString::to_string);
        let total = ended.saturating_duration_since(self.started).as_nanos();
        record.total_nanos = u64::try_from(total).unwrap_or(u64::MAX);
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
                origin.commit(origin.record(QueryRecord::new(source)), Some(e), Instant::now());
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
/// by source text + schema fingerprint and stamped with the snapshot's
/// instance id and the length of each extent at prepare time.
///
/// A plan is a function of the query and the schema alone; the data only
/// chose its generator order. So an entry serves any snapshot of its own
/// database (a pinned older one, the writer's, one after any number of
/// inserts, `set_root`s or `:=` programs) whose every stamped extent is
/// still within a factor of two of its stamped length (an empty extent
/// counting as one member). An extent that has grown or shrunk past
/// that, or a snapshot of another database, gets a fresh prepare with
/// that snapshot's statistics, counted as an invalidation
/// (`plan_cache_invalidations_total`, the drift count), never the old
/// plan.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Approximate byte budget per shard.
    shard_budget: usize,
    /// Monotonic logical clock for LRU ordering.
    tick: AtomicU64,
}

/// How far an extent may drift from the length a plan was prepared at
/// before the plan is prepared again: a factor of two either way, with
/// an empty extent counted as one member.
const DRIFT: usize = 2;

#[derive(Default)]
struct Shard {
    entries: Vec<CacheEntry>,
    bytes: usize,
}

struct CacheEntry {
    source: String,
    schema_fp: u64,
    /// The database the plan was prepared against: another database may
    /// share the schema, never the entry (`tests/plan_cache.rs`).
    instance: u64,
    /// Each root the prepare's statistics saw as an extent, with its
    /// length then ([`extent_len`]), in root order.
    extents: Box<[(Symbol, usize)]>,
    bytes: usize,
    last_used: u64,
    prepared: Arc<Prepared>,
}

impl CacheEntry {
    /// Whether the stamp still holds for `snap`: the same database, and
    /// every stamped extent within [`DRIFT`] of its stamped length.
    fn serves(&self, snap: &Snapshot) -> bool {
        if self.instance != snap.instance_id() {
            return false;
        }
        // Roots are never removed, and both sides are in root order.
        let mut roots = snap.roots();
        self.extents.iter().all(|&(name, was)| {
            let Some((_, root)) = roots.find(|(n, _)| *n == name) else { return false };
            let (was, now) = (was.max(1), extent_len(root).unwrap_or(0).max(1));
            now <= was * DRIFT && was <= now * DRIFT
        })
    }
}

/// A root's length as the stamp reads it, in O(1): a list's, set's or
/// vector's elements, a bag's runs (an extent's members are distinct
/// objects, so its runs are its members), a string's bytes. `None` for
/// the roots statistics do not see as extents.
fn extent_len(root: &Value) -> Option<usize> {
    match root {
        Value::List(v) | Value::Set(v) | Value::Vector(v) => Some(v.len()),
        Value::Bag(runs) => Some(runs.len()),
        Value::Str(s) => Some(s.len()),
        _ => None,
    }
}

/// The stamp of a prepare against `snap`: the extents its statistics
/// see, with their lengths.
fn extent_stamp(snap: &Snapshot) -> Box<[(Symbol, usize)]> {
    snap.roots().filter_map(|(name, root)| Some((name, extent_len(root)?))).collect()
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
    /// if its stamp still serves `snap` (the same database, every extent
    /// within a factor of two of its stamped length); otherwise prepare
    /// (with statistics from `snap`), cache, and return it. Also reports the
    /// disposition: `true` when served from cache, `false` when freshly
    /// prepared (cold, drifted, another instance, or evicted) —
    /// [`Session`] threads this into the flight recorder. Pass a
    /// `&Database` for its current state.
    ///
    /// Concurrent readers, readers pinned behind the writer and the
    /// writer path all share one entry while their extents are within
    /// drift of its stamp; a snapshot outside it re-prepares against its
    /// own state, replacing the entry of the same key.
    pub fn get_or_prepare_snapshot_traced(
        &self,
        snap: &Snapshot,
        src: &str,
    ) -> Result<(Arc<Prepared>, bool), AnalyzeError> {
        let fp = snap.schema_fingerprint();
        let m = metrics::global();
        let shard = &self.shards[(hash_key(src, fp) as usize) & (SHARDS - 1)];

        {
            let mut s = shard.lock().unwrap();
            if let Some(i) = s.entries.iter().position(|e| e.source == src && e.schema_fp == fp)
            {
                if s.entries[i].serves(snap) {
                    m.plan_cache_hits_total.inc();
                    let tick = self.tick.fetch_add(1, Ordering::Relaxed);
                    s.entries[i].last_used = tick;
                    return Ok((Arc::clone(&s.entries[i].prepared), true));
                }
                // An extent drifted past the factor the plan's generator
                // order was chosen for, or the entry belongs to another
                // database. Prepare again.
                m.plan_cache_invalidations_total.inc();
                let dead = s.entries.remove(i);
                s.bytes -= dead.bytes;
            }
        }

        m.plan_cache_misses_total.inc();
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
            instance: snap.instance_id(),
            extents: extent_stamp(snap),
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
            m.plan_cache_evictions_total.inc();
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
/// through the plan cache (drift-checked) and executes the prepared plan
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
pub struct InFlightGuard(());

impl InFlightGuard {
    /// Bump the gauge; the matching decrement runs on drop.
    pub fn enter() -> InFlightGuard {
        metrics::global().serving_requests_in_flight.add(1);
        InFlightGuard(())
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        metrics::global().serving_requests_in_flight.add(-1);
    }
}

/// Statements currently executing through the serving layer (the
/// `serving_requests_in_flight` gauge).
pub fn requests_in_flight() -> i64 {
    metrics::global().serving_requests_in_flight.get()
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
    /// plan cache (an entry whose stamp the pinned snapshot is within
    /// drift of) and execute against the snapshot — no lock on the live database,
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
        metrics::global().serving_statements_total.inc();
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

#[cfg(test)]
mod tests {
    use super::*;
    use monoid_calculus::monoid::Monoid;
    use monoid_calculus::value::{Oid, Runs};
    use monoid_store::travel::{self, TravelScale};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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
    fn drift_invalidates_cached_entries() {
        let cache = PlanCache::new();
        let mut db = db();
        let src = "count(Cities)";
        let a = cache.get_or_prepare_snapshot_traced(&db, src).unwrap().0;
        let before = db.mutation_epoch();
        db.set_root("Scratch", Value::Int(1));
        assert_ne!(before, db.mutation_epoch(), "root change advances the epoch");
        let b = cache.get_or_prepare_snapshot_traced(&db, src).unwrap().0;
        assert!(Arc::ptr_eq(&a, &b), "a write that moves no extent keeps the plan");
        // Emptied, `Cities` counts as one member: past a factor of two.
        assert!(db.extent_len("Cities") > DRIFT);
        db.set_root("Cities", Value::Bag(Runs::default()));
        let (c, hit) = cache.get_or_prepare_snapshot_traced(&db, src).unwrap();
        assert!(!hit && !Arc::ptr_eq(&b, &c), "drift forced a re-prepare");
        assert_eq!(c.execute_snapshot(&db, &Params::new()).unwrap(), Value::Int(0));
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

    /// After every write of a seeded run, the statistics a cold prepare
    /// keeps — assembled from the parts an insert carried, walking only
    /// the roots without one — equal a fresh gather of the same snapshot,
    /// and print the same (`Debug` tells `-0.0` from `0.0`).
    #[test]
    fn carried_statistics_equal_a_fresh_gather() {
        use monoid_store::company;
        let travel_classes = [
            (travel::names::CITY, travel::names::CITIES),
            (travel::names::HOTEL, travel::names::HOTELS),
            (travel::names::EMPLOYEE, travel::names::EMPLOYEES),
            (travel::names::CLIENT, travel::names::CLIENTS),
        ];
        let company_classes = [
            (company::names::PERSON, company::names::PERSONS),
            (company::names::EMPLOYEE, company::names::EMPLOYEES),
            (company::names::MANAGER, company::names::MANAGERS),
        ];
        // A store, its `(class, extent)` pairs, and the statement read.
        type Store<'a> = (Database, &'a [(&'a str, &'a str)], &'a str);
        let stores: [Store<'_>; 2] = [
            (db(), &travel_classes, "exists h in Hotels: h.name = $name"),
            (
                company::generate(3, 4, 10, 7),
                &company_classes,
                "select e.name from e in CompanyEmployees where e.salary > $floor",
            ),
        ];
        // Every kind of write, a dangling root before the inserts that
        // make it live, then a seeded run.
        let script = [
            Write::Ghosts,
            Write::Insert(1),
            Write::Shrink(1),
            Write::Insert(1),
            Write::Ghosts,
            Write::InsertUnfiled,
            Write::Insert(0),
            Write::Marker,
            Write::Assign(0),
            Write::Insert(2),
        ];
        for (seed, (mut db, classes, src)) in stores.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1995 + seed as u64);
            let mut writes = script.to_vec();
            for _ in 0..40 {
                let n = rng.random_range(0..classes.len());
                let kinds = [
                    Write::Insert(n),
                    Write::Insert(n),
                    Write::InsertUnfiled,
                    Write::Shrink(n),
                    Write::Marker,
                    Write::Assign(n),
                    Write::Ghosts,
                ];
                writes.push(kinds[rng.random_range(0..kinds.len())]);
            }
            let mut carried = 0;
            for write in writes {
                apply(&mut db, write, classes, &mut rng);
                let parts =
                    classes.iter().filter(|(_, e)| db.memo().part(Symbol::new(e)).is_some());
                carried += parts.count();
                prepare_on(&db, src).unwrap();
                assert_eq!(db.memo().misses(), 1, "one gather per memo, after {write:?}");
                let (kept, fresh) = (snapshot_stats(&db), Stats::gather(&db));
                assert_eq!(*kept, fresh, "after {write:?}");
                assert_eq!(format!("{kept:?}"), format!("{fresh:?}"), "after {write:?}");
            }
            assert!(carried > 0, "some insert carried a part");
        }
    }

    /// One write of `carried_statistics_equal_a_fresh_gather`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Write {
        /// `Database::insert` into the class of extent `n` (mod the count).
        Insert(usize),
        /// An insert into a class that has no extent.
        InsertUnfiled,
        /// `set_root` of an extent to a list of all but its last member.
        Shrink(usize),
        /// `set_root` of a root no statement names.
        Marker,
        /// A `:=` query that rewrites one member of an extent.
        Assign(usize),
        /// `set_root` of a root holding the OIDs the next inserts allocate.
        Ghosts,
    }

    fn apply(db: &mut Database, write: Write, classes: &[(&str, &str)], rng: &mut StdRng) {
        let extent = |n: usize| Symbol::new(classes[n % classes.len()].1);
        let members = |db: &Database, n: usize| db.root(extent(n)).unwrap().elements().unwrap();
        let k = rng.random_range(0..1_000_i64);
        let rooms = (0..rng.random_range(0..4_i64))
            .map(|r| Value::record_from(vec![("price", Value::Float((k * 7 + r) as f64))]))
            .collect();
        let state = Value::record_from(vec![
            ("name", Value::str(&format!("w{k}"))),
            ("age", Value::Int(k % 90)),
            ("rooms", Value::list(rooms)),
        ]);
        match write {
            Write::Insert(n) => {
                db.insert(Symbol::new(classes[n % classes.len()].0), state).unwrap();
            }
            Write::InsertUnfiled => {
                db.insert(Symbol::new("Unfiled"), state).unwrap();
            }
            Write::Shrink(n) => {
                let mut kept = members(db, n);
                kept.pop();
                db.set_root(extent(n), Value::list(kept));
            }
            Write::Marker => db.set_root("Marker", Value::Int(k)),
            Write::Assign(n) => {
                let Some(Value::Obj(oid)) = members(db, n).first().cloned() else { return };
                let Value::Str(name) = db.field(oid, "name").unwrap() else { return };
                let rewrite = Expr::comp(
                    Monoid::All,
                    Expr::var("x").assign(Expr::record(vec![
                        ("name", Expr::str(&format!("a{k}"))),
                        ("age", Expr::int(k % 7)),
                    ])),
                    vec![
                        Expr::gen("x", Expr::Var(extent(n))),
                        Expr::pred(Expr::var("x").proj("name").eq(Expr::str(&name))),
                    ],
                );
                db.query(&rewrite).unwrap();
            }
            Write::Ghosts => {
                let next = db.object_count() as u64;
                let ghosts = [next, next + 2].map(|oid| Value::Obj(Oid(oid)));
                db.set_root("Ghosts", Value::list(ghosts.to_vec()));
            }
        }
    }
}
