//! Ordered parallel reduction — a direct payoff of the monoid framework.
//!
//! Every comprehension reduces through an *associative* merge, so a plan
//! can be evaluated by partitioning its outermost generator, running the
//! rest of the pipeline independently per partition, and merging the
//! partial accumulators **in partition order**. Associativity alone makes
//! the split correct: `(a ⊕ b) ⊕ (c ⊕ d) = a ⊕ b ⊕ c ⊕ d` needs no
//! commutativity as long as the partials are joined left-to-right, which
//! is exactly how the driver collects them. List, string, `oset`, and
//! sorted comprehensions therefore parallelize just like sets and sums;
//! idempotent semantics (`set`, `oset`) survive because the ordered merge
//! (`∪`, `∪̇`) deduplicates across partition boundaries.
//!
//! Two extensions take the partitioner beyond a single outer scan:
//!
//! * **Partition points.** The left spine may end in a [`Plan::Scan`] or a
//!   [`Plan::IndexLookup`]; either one's members are chunked across
//!   workers (the lookup key is evaluated once by the driver).
//! * **Shared build sides.** Hash joins on the spine are pre-materialized
//!   *once* by the driver into a [`BuildTable`] behind an `Arc`
//!   ([`Plan::HashProbe`]), instead of every worker rebuilding the same
//!   table. When the build sub-plan is scan-rooted, the materialization
//!   itself is also partitioned across workers.
//!
//! A plan is a pure read (the planner refuses `new`/`:=`;
//! [`crate::verify`] re-checks it), so the driver and every worker read
//! one immutable [`Snapshot`]: nothing a worker does needs reconciling on
//! join. The only fallbacks are physical, not algebraic: `threads ≤ 1`
//! and partition sources too small to amortize thread spawn
//! ([`Fallback::TooFewRows`], governed by [`min_rows_per_worker`]). Both
//! are reported with a reason — see [`ParallelReport`], which every run
//! also flushes into the `parallel_*` registry family
//! (`parallel_fallback_total{reason}` and friends).
//! Workers run uncounted ([`NoProbe`]): the fused fold in [`crate::fused`]
//! whenever the chain compiles, the per-row plan walk otherwise;
//! [`ParallelReport::fused`] records which engine the partitions ran.
//! For absorbing monoids (`some`/`all`) workers share a stop flag so one
//! worker's absorption short-circuits the rest.

use crate::error::ExecResult;
use crate::exec::{self, EnginePolicy, NoProbe};
use crate::fused::Engine;
use crate::logical::{BuildTable, JoinKind, Plan, Query};
use monoid_calculus::error::EvalError;
use monoid_calculus::eval::Evaluator;
use monoid_calculus::expr::Expr;
use monoid_calculus::metrics::{global, Counter, Histogram};
use monoid_calculus::monoid::Monoid;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::{self, Env, Value};
use monoid_store::Snapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Why a parallel execution ran sequentially instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// `threads ≤ 1`: nothing to fan out.
    SingleThread,
    /// The partition source holds fewer than `2 ×` the per-worker row
    /// floor ([`min_rows_per_worker`]): spawning threads would cost more
    /// than the rows they'd process. Parallelism is a pessimization here.
    TooFewRows,
}

impl Fallback {
    /// The `reason` label value in `parallel_fallback_total{reason=…}`.
    pub fn as_str(self) -> &'static str {
        match self {
            Fallback::SingleThread => "single-thread",
            Fallback::TooFewRows => "too-few-rows",
        }
    }
}

/// The minimum partition-source rows each worker must receive before the
/// driver fans out: the `MONOID_PARALLEL_MIN_ROWS` environment variable
/// when set to a positive integer, else 2. Sources smaller than twice
/// this floor run sequentially ([`Fallback::TooFewRows`]) — thread spawn
/// dwarfs the per-row work at that size.
pub fn min_rows_per_worker() -> usize {
    match std::env::var("MONOID_PARALLEL_MIN_ROWS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => 2,
    }
}

/// What one parallel execution did — workers spawned, rows per worker,
/// pre-materialized build rows, or the fallback reason if the engine ran
/// sequentially.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// The thread count the caller asked for.
    pub requested_threads: usize,
    /// Workers actually spawned (0 when the engine fell back).
    pub workers: usize,
    /// `Some(reason)` when the query ran sequentially.
    pub fallback: Option<Fallback>,
    /// Rows each worker pushed into its partial accumulator, in partition
    /// order.
    pub worker_rows: Vec<u64>,
    /// Build-side rows the driver materialized once into shared
    /// [`BuildTable`]s.
    pub prebuilt_rows: u64,
    /// Whether the workers ran the fused fold ([`crate::fused`]) instead
    /// of the per-partition plan walk.
    pub fused: bool,
}

impl ParallelReport {
    fn new(requested_threads: usize) -> ParallelReport {
        ParallelReport {
            requested_threads,
            workers: 0,
            fallback: None,
            worker_rows: Vec::new(),
            prebuilt_rows: 0,
            fused: false,
        }
    }

    /// Flush this run into the `parallel_*` registry family.
    fn record(&self) {
        let m = parallel_metrics();
        m.executions.inc();
        m.workers.add(self.workers as u64);
        if let Some(reason) = self.fallback {
            let i = match reason {
                Fallback::SingleThread => 0,
                Fallback::TooFewRows => 1,
            };
            m.fallbacks[i].inc();
        }
        for &rows in &self.worker_rows {
            m.worker_rows.observe(rows);
        }
        m.prebuilt_rows.add(self.prebuilt_rows);
    }
}

/// Parallel-engine registry handles, resolved once per process. The
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

/// The worker count to pass when the caller has no opinion: the
/// `MONOID_PARALLEL_THREADS` environment variable when set to a positive
/// integer (how CI runs the whole suite under a forced thread count),
/// else the machine's available parallelism.
pub fn default_threads() -> usize {
    match std::env::var("MONOID_PARALLEL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
    }
}

/// Execute `query` with the outermost generator partitioned over
/// `threads` workers; partials merge in partition order, so every monoid
/// — ordered or not — agrees byte-for-byte with sequential execution.
/// `params` are late-bound parameter values, bound into the driver's
/// root environment so every worker sees them exactly like a persistent
/// root. Also returns the [`ParallelReport`], which is flushed into the
/// `parallel_*` registry family and — workers spawned, the fallback
/// reason (if any), the engine, the reduced row count — noted on whatever
/// [`monoid_calculus::recorder`] scope is open on this thread.
pub fn execute_parallel_bound(
    query: &Query,
    snap: &Snapshot,
    threads: usize,
    params: &[(Symbol, Value)],
) -> ExecResult<(Value, ParallelReport)> {
    let result = execute_parallel_inner(query, snap, threads, params);
    if let Ok((value, report)) = &result {
        report.record();
        monoid_calculus::recorder::note_parallel(
            report.workers as u64,
            report.fallback.map(Fallback::as_str),
        );
        let engine = if report.fused { Engine::Fused } else { Engine::PlanWalk };
        monoid_calculus::recorder::note_engine(engine.as_str());
        monoid_calculus::recorder::note_result(value);
    }
    result
}

fn execute_parallel_inner(
    query: &Query,
    snap: &Snapshot,
    threads: usize,
    params: &[(Symbol, Value)],
) -> ExecResult<(Value, ParallelReport)> {
    let mut report = ParallelReport::new(threads);
    if threads <= 1 {
        return run_fallback(query, snap, params, report, Fallback::SingleThread);
    }
    exec::verify_if_enabled(query, snap)?;

    // Walk the left spine top-down: pre-materialize shared build tables in
    // the same order sequential execution would, and collect the partition
    // point (scan/index-lookup members) at the bottom.
    let env = exec::bind_params(snap.env(), params);
    let (plan, partition) = prepare(&query.plan, snap, &env, threads, &mut report)?;
    let PartitionPoint { var, elements } = partition;
    if elements.is_empty() {
        return Ok((value::zero(&query.monoid)?, report));
    }
    // Runtime floor: fanning out fewer than `floor` rows per worker loses
    // to thread spawn. With fewer than two workers' worth of rows the
    // whole query runs sequentially (and still gets the fused loop).
    let floor = min_rows_per_worker();
    if elements.len() < 2 * floor {
        return run_fallback(query, snap, params, report, Fallback::TooFewRows);
    }

    let worker_plan = replace_partition_root(&plan);
    // Workers run the fused fold when the chain compiles. Compiled once
    // here; shared by reference. Global resolution is checked once up
    // front; a missing name falls through to the plan-walk workers, which
    // report it as the plan walk would.
    let fused = crate::fused::compile_parts(&plan, &query.monoid, &query.head, query.plan_effects)
        .filter(|fq| fq.resolve_globals(&env).is_some());
    let stop = AtomicBool::new(false);
    let use_stop = matches!(query.monoid, Monoid::Some | Monoid::All);
    let stop = use_stop.then_some(&stop);
    let chunk = elements.len().div_ceil(threads).max(floor);

    let results = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in elements.chunks(chunk) {
            let (env, fused, worker_plan) = (&env, &fused, &worker_plan);
            handles.push(scope.spawn(move || -> ExecResult<(Value, u64)> {
                match fused {
                    Some(fq) => fq.fold_partition(part, snap.heap(), env, stop)?.ok_or_else(
                        || EvalError::Other("fused global resolution raced".into()),
                    ),
                    None => {
                        let mut ev = Evaluator::with_heap(snap.heap().clone());
                        run_partition(worker_plan, query, &mut ev, env, part, var, stop)
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| EvalError::Other("worker panicked".into()))?)
            .collect::<ExecResult<Vec<_>>>()
    })?;
    report.workers = results.len();
    report.fused = fused.is_some();

    // Join: merge partials in partition order.
    let mut acc = value::zero(&query.monoid)?;
    for (partial, rows) in results {
        report.worker_rows.push(rows);
        acc = value::merge(&query.monoid, &acc, &partial)?;
    }
    Ok((acc, report))
}

/// Sequential execution with the fallback reason recorded. A fallback is
/// not a slow path: the sequential run still goes through the fused fold
/// if the chain compiles.
fn run_fallback(
    query: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
    mut report: ParallelReport,
    reason: Fallback,
) -> ExecResult<(Value, ParallelReport)> {
    report.fallback = Some(reason);
    let run = exec::run(query, snap, params, EnginePolicy::Auto, &NoProbe)?;
    report.fused = run.engine == Engine::Fused;
    Ok((run.value, report))
}

/// The partitionable generator at the bottom of the left spine: its
/// variable and the members the driver distributes across workers.
struct PartitionPoint {
    var: Symbol,
    elements: Vec<Value>,
}

/// The left-spine child of `plan` — a unary operator's input, a join's
/// or probe's left — or `None` at the spine's bottom (a scan or index
/// lookup).
fn spine_child(plan: &Plan) -> Option<&Plan> {
    match plan {
        Plan::Scan { .. } | Plan::IndexLookup { .. } => None,
        Plan::Unnest { input, .. } | Plan::Filter { input, .. } | Plan::Bind { input, .. } => {
            Some(input)
        }
        Plan::Join { left, .. } | Plan::HashProbe { left, .. } => Some(left),
    }
}

/// `plan` rebuilt around a new left-spine child; everything off the
/// spine is cloned as is, and so is a leaf, which has no child to replace.
/// The one spine rebuild both rewrites below recurse through.
fn with_spine_child(plan: &Plan, child: Plan) -> Plan {
    let child = Box::new(child);
    match plan {
        Plan::Scan { .. } | Plan::IndexLookup { .. } => plan.clone(),
        Plan::Unnest { var, path, .. } => Plan::Unnest { input: child, var: *var, path: path.clone() },
        Plan::Filter { pred, .. } => Plan::Filter { input: child, pred: pred.clone() },
        Plan::Bind { var, expr, .. } => Plan::Bind { input: child, var: *var, expr: expr.clone() },
        Plan::Join { right, on, kind, .. } => {
            Plan::Join { left: child, right: right.clone(), on: on.clone(), kind: *kind }
        }
        Plan::HashProbe { table, on_left, .. } => {
            Plan::HashProbe { left: child, table: table.clone(), on_left: on_left.clone() }
        }
    }
}

/// Top-down spine rewrite: pre-materialize hash-join (and cross-product)
/// build sides into shared [`BuildTable`]s — in the order sequential
/// execution would materialize them — and resolve the partition point at
/// the spine's bottom.
fn prepare(
    plan: &Plan,
    snap: &Snapshot,
    env: &Env,
    threads: usize,
    report: &mut ParallelReport,
) -> ExecResult<(Plan, PartitionPoint)> {
    match plan {
        Plan::Scan { var, source } => {
            let sv = snap.eval_unchecked(source, env)?;
            let elements = exec::collection_elements(&sv)?;
            Ok((plan.clone(), PartitionPoint { var: *var, elements }))
        }
        Plan::IndexLookup { var, index, key } => {
            let kv = snap.eval_unchecked(key, env)?;
            let elements = index.lookup(&kv).to_vec();
            Ok((plan.clone(), PartitionPoint { var: *var, elements }))
        }
        // Hash joins and cross products (`on` empty) have
        // left-independent build sides: materialize once, share with
        // every worker. A keyed nested-loop join evaluates its right
        // keys against combined rows, so it stays per-worker (the
        // planner never emits that shape).
        Plan::Join { left, right, on, kind } if *kind == JoinKind::Hash || on.is_empty() => {
            let table = build_table(right, on, snap, env, threads, report)?;
            let (left, pp) = prepare(left, snap, env, threads, report)?;
            let on_left = on.iter().map(|(lk, _)| lk.clone()).collect();
            Ok((Plan::HashProbe { left: Box::new(left), table, on_left }, pp))
        }
        _ => {
            let child = spine_child(plan).expect("scan and index-lookup leaves matched above");
            let (child, pp) = prepare(child, snap, env, threads, report)?;
            Ok((with_spine_child(plan, child), pp))
        }
    }
}

/// Materialize a join's right side once into a shared [`BuildTable`].
/// Scan-rooted build plans are themselves partitioned across workers;
/// anything else goes through the sequential builder the plan walk uses.
fn build_table(
    right: &Plan,
    on: &[(Expr, Expr)],
    snap: &Snapshot,
    env: &Env,
    threads: usize,
    report: &mut ParallelReport,
) -> ExecResult<Arc<BuildTable>> {
    let table = match parallel_build_rows(right, on, snap, env, threads)? {
        Some(keyed) => {
            let mut table = BuildTable::with_capacity(right.bound_vars(), keyed.len());
            for (delta, key) in keyed {
                table.push(delta, key);
            }
            table
        }
        None => {
            let mut ev = Evaluator::with_heap(snap.heap().clone());
            exec::build_table(right, 0, on, &mut ev, env, &NoProbe)?
        }
    };
    report.prebuilt_rows += table.rows.len() as u64;
    Ok(Arc::new(table))
}

/// One materialized build-side row: its binding delta and its key.
type KeyedRow = (Vec<(Symbol, Value)>, Vec<Value>);

/// Partitioned build-side materialization. Returns `None` when the build
/// plan is not eligible (not scan-rooted, or too small to be worth
/// fanning out) — the caller falls back to sequential materialization.
fn parallel_build_rows(
    right: &Plan,
    on: &[(Expr, Expr)],
    snap: &Snapshot,
    env: &Env,
    threads: usize,
) -> ExecResult<Option<Vec<KeyedRow>>> {
    let mut root = right;
    while let Some(child) = spine_child(root) {
        root = child;
    }
    let Plan::Scan { var: bvar, source: bsource } = root else {
        return Ok(None);
    };
    let bvar = *bvar;
    let sv = snap.eval_unchecked(bsource, env)?;
    let elements = exec::collection_elements(&sv)?;
    if elements.len() < 2 {
        // Materializing a 0/1-element source in parallel is pure overhead;
        // let the sequential path handle it.
        return Ok(None);
    }
    let worker_plan = replace_partition_root(right);
    let chunk = elements.len().div_ceil(threads).max(1);
    let parts = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in elements.chunks(chunk) {
            let worker_plan = &worker_plan;
            handles.push(scope.spawn(move || -> ExecResult<Vec<KeyedRow>> {
                let mut ev = Evaluator::with_heap(snap.heap().clone());
                let mut scratch = value::ScratchRow::new();
                let mut out = Vec::new();
                for elem in part {
                    let row = env.bind(bvar, elem.clone());
                    for delta in exec::materialize(worker_plan, 0, &mut ev, &row, &NoProbe)? {
                        let key = exec::build_key(&mut ev, &mut scratch, env, &delta, on)?;
                        out.push((delta, key));
                    }
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| EvalError::Other("build worker panicked".into()))?)
            .collect::<ExecResult<Vec<_>>>()
    })?;
    // Concatenation in partition order = sequential materialization order.
    Ok(Some(parts.into_iter().flatten().collect()))
}

/// The plan with the partition root (the spine-bottom scan or index
/// lookup) replaced by a singleton scan over the already-bound partition
/// variable: the driver binds `var` per element, and scanning `[var]`
/// rebinds it exactly once through the normal pipeline.
fn replace_partition_root(plan: &Plan) -> Plan {
    match plan {
        Plan::Scan { var, .. } | Plan::IndexLookup { var, .. } => Plan::Scan {
            var: *var,
            source: Expr::CollLit(Monoid::List, vec![Expr::Var(*var)]),
        },
        _ => {
            let child = spine_child(plan).expect("scan and index-lookup leaves matched above");
            with_spine_child(plan, replace_partition_root(child))
        }
    }
}

/// One worker: push every element of `part` through the rewritten
/// pipeline into a local accumulator. `stop` (absorbing monoids only)
/// lets workers short-circuit each other.
fn run_partition(
    plan: &Plan,
    query: &Query,
    ev: &mut Evaluator,
    env: &Env,
    part: &[Value],
    var: Symbol,
    stop: Option<&AtomicBool>,
) -> ExecResult<(Value, u64)> {
    let mut acc = value::Accumulator::new(&query.monoid)?;
    let mut rows = 0u64;
    for elem in part {
        if let Some(s) = stop {
            if s.load(Ordering::Relaxed) {
                break;
            }
        }
        let row = env.bind(var, elem.clone());
        let completed = exec::run_plan(plan, 0, ev, &row, &NoProbe, &mut |ev, r| {
            let h = ev.eval(r, &query.head)?;
            acc.push_unit(h)?;
            rows += 1;
            if acc.absorbed() {
                if let Some(s) = stop {
                    s.store(true, Ordering::Relaxed);
                }
                return Ok(false);
            }
            Ok(true)
        })?;
        if !completed {
            break;
        }
    }
    Ok((acc.finish()?, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexCatalog;
    use crate::logical::plan_comprehension;
    use monoid_store::travel::{self, TravelScale};

    #[test]
    fn parallel_agrees_with_sequential() {
        let db = travel::generate(TravelScale::small(), 3);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::var("r").proj("bed#"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        let seq = crate::exec::execute(&plan, &db).unwrap();
        for threads in [2, 4, 7] {
            let (par, _) = execute_parallel_bound(&plan, &db, threads, &[]).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn set_results_agree_in_parallel() {
        let db = travel::generate(TravelScale::small(), 3);
        let q = Expr::comp(
            Monoid::Set,
            Expr::var("r").proj("bed#"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        let seq = crate::exec::execute(&plan, &db).unwrap();
        let (par, _) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn ordered_monoids_parallelize_with_ordered_merge() {
        // List and string comprehensions are order-sensitive; the ordered
        // merge of partials makes them parallelizable anyway — with ≥ 2
        // workers and byte-identical output.
        let db = travel::generate(TravelScale::small(), 3);
        for monoid in [Monoid::List, Monoid::OSet, Monoid::Sorted, Monoid::SortedBag] {
            let q = Expr::comp(
                monoid.clone(),
                Expr::var("r").proj("price"),
                vec![
                    Expr::gen("h", Expr::var("Hotels")),
                    Expr::gen("r", Expr::var("h").proj("rooms")),
                ],
            );
            let plan = plan_comprehension(&q).unwrap();
            let seq = crate::exec::execute(&plan, &db).unwrap();
            let (par, report) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
            assert_eq!(report.fallback, None, "{monoid}: no fallback");
            assert!(report.workers >= 2, "{monoid}: {} workers", report.workers);
            assert_eq!(seq, par, "{monoid}");
        }
        // A string concatenation over hotel names.
        let q = Expr::comp(
            Monoid::Str,
            Expr::var("h").proj("name"),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let seq = crate::exec::execute(&plan, &db).unwrap();
        let (par, report) = execute_parallel_bound(&plan, &db, 3, &[]).unwrap();
        assert!(report.workers >= 2);
        assert_eq!(seq, par, "string concatenation is order-exact");
    }

    #[test]
    fn tiny_index_buckets_fall_back_with_too_few_rows() {
        let db = travel::generate(TravelScale::with_hotels(60), 5);
        let mut cat = IndexCatalog::new();
        cat.build(&db, "Hotels", "name").unwrap();
        // Every generated hotel name is distinct, so the looked-up bucket
        // holds one member — far below the per-worker row floor. The
        // driver must refuse to fan out (spawning a thread for one row is
        // a pessimization) and still return the sequential answer.
        let q = Expr::comp(
            Monoid::Bag,
            Expr::var("r").proj("price"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(Expr::var("h").proj("name").eq(Expr::str("hotel_0_0"))),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        let (indexed, hits) = crate::index::apply_indexes(&plan, &cat, &db);
        assert_eq!(hits, 1);
        let seq = crate::exec::execute(&indexed, &db).unwrap();
        let (par, report) = execute_parallel_bound(&indexed, &db, 4, &[]).unwrap();
        assert_eq!(report.fallback, Some(Fallback::TooFewRows));
        assert_eq!(report.workers, 0);
        assert_eq!(seq, par);
    }

    #[test]
    fn sources_at_the_floor_boundary_still_fan_out() {
        // tiny = 3 cities × 2 hotels = 6 root rows ≥ 2 × the default
        // floor of 2, so the driver parallelizes; a 3-row slice of the
        // same extent would not (covered by the bucket test above).
        let db = travel::generate(TravelScale::tiny(), 3);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let (v, report) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
        assert_eq!(v, Value::Int(db.extent_len("Hotels") as i64));
        assert_eq!(report.fallback, None);
        assert!(report.workers >= 2, "{} workers", report.workers);
        // Each worker got at least the floor's worth of rows.
        let floor = min_rows_per_worker();
        assert!(report.worker_rows.len() <= db.extent_len("Hotels") / floor);
    }

    #[test]
    fn parallel_workers_run_the_fused_fold() {
        let db = travel::generate(TravelScale::small(), 3);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::var("r").proj("bed#"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        let seq = crate::exec::execute_plan_walk_bound(&plan, &db, &[]).unwrap();
        let (par, report) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
        assert!(report.fused, "linear chain should run fused in workers");
        assert_eq!(seq, par);
        // A hash join declines fusion: workers fall back to the plan walk
        // but the query still parallelizes.
        let j = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Hotels")),
                Expr::gen("b", Expr::var("Hotels")),
                Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("name"))),
            ],
        );
        let jplan = plan_comprehension(&j).unwrap();
        let jseq = crate::exec::execute_plan_walk_bound(&jplan, &db, &[]).unwrap();
        let (jpar, jreport) = execute_parallel_bound(&jplan, &db, 4, &[]).unwrap();
        assert!(!jreport.fused, "joins stay on the plan walk");
        assert_eq!(jseq, jpar);
    }

    #[test]
    fn hash_join_build_side_is_shared_and_prebuilt() {
        let db = travel::generate(TravelScale::small(), 3);
        // Self-join Hotels on name: planner picks a hash join.
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Hotels")),
                Expr::gen("b", Expr::var("Hotels")),
                Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("name"))),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        assert!(plan.plan.uses_hash_join());
        let seq = crate::exec::execute(&plan, &db).unwrap();
        let (par, report) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
        assert_eq!(seq, par);
        assert_eq!(
            report.prebuilt_rows,
            db.extent_len("Hotels") as u64,
            "build side materialized once, not once per worker"
        );
        assert!(report.workers >= 2);
    }

    #[test]
    fn single_thread_falls_back_with_a_reason() {
        let db = travel::generate(TravelScale::tiny(), 3);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let (v, report) = execute_parallel_bound(&plan, &db, 1, &[]).unwrap();
        assert_eq!(v, Value::Int(db.extent_len("Hotels") as i64));
        assert_eq!(report.fallback, Some(Fallback::SingleThread));
    }

    #[test]
    fn empty_partition_source_returns_zero() {
        let db = travel::generate(TravelScale::tiny(), 3);
        let q = Expr::comp(
            Monoid::List,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::CollLit(Monoid::List, vec![]))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let (v, report) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
        assert_eq!(v, Value::list(vec![]));
        assert_eq!(report.workers, 0);
        assert_eq!(report.fallback, None);
    }

    #[test]
    fn absorbing_monoids_short_circuit_across_workers() {
        let db = travel::generate(TravelScale::small(), 3);
        let q = Expr::comp(
            Monoid::Some,
            Expr::var("h").proj("name").eq(Expr::str("hotel_0_0")),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let (v, report) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
        assert_eq!(v, Value::Bool(true));
        let total: u64 = report.worker_rows.iter().sum();
        assert!(
            total < db.extent_len("Hotels") as u64,
            "workers stopped early: {total} rows"
        );
    }

    #[test]
    fn every_run_reports_to_the_parallel_registry_family() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::List,
            Expr::var("h").proj("name"),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let plan = plan_comprehension(&q).unwrap();
        let seq = crate::exec::execute(&plan, &db).unwrap();

        let before = global().snapshot();
        let (par, report) = execute_parallel_bound(&plan, &db, 4, &[]).unwrap();
        assert_eq!(seq, par);
        let d = global().snapshot().diff(&before);
        assert!(d.counter("parallel_executions_total") >= 1);
        assert!(d.counter("parallel_workers_total") >= report.workers as u64 && report.workers >= 2);
        assert_eq!(
            d.counter_with("parallel_fallback_total", &[("reason", "single-thread")]),
            0
        );

        // threads = 1 falls back and says why — and the series shows up
        // in the Prometheus exposition.
        let before = global().snapshot();
        execute_parallel_bound(&plan, &db, 1, &[]).unwrap();
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

    #[test]
    fn default_threads_reads_the_env_override() {
        // Can't set process env safely in a threaded test run; just check
        // the fallback path yields something sensible.
        assert!(default_threads() >= 1);
    }
}
