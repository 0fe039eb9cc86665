//! The plan walk: the reference interpreter for algebra plans.
//!
//! Every query runs on the fused fold ([`crate::fused`]); this module is
//! what the fold is checked against, and runs only when asked for by name
//! ([`execute_plan_walk_bound`]: the differential batteries and the
//! ablation baseline). It is deliberately the plainest correct
//! implementation: a push-based driver
//! that hands each operator's rows to its consumer as `Env` bindings, one
//! evaluator call per expression, a join as a `BTreeMap` build table plus a
//! probe. Scans and unnests never materialize intermediate collections; the
//! only materialization points are join build sides and the final `Reduce`
//! accumulator. `some`/`all` reductions short-circuit the entire pipeline
//! through the sink's `false` return, mirroring the evaluator.
//!
//! No probe rides on the walk: a profiled run counts the fold
//! ([`crate::trace`]).

use crate::error::ExecResult;
use crate::logical::{Plan, Query};
use monoid_calculus::error::EvalError;
use monoid_calculus::eval::Evaluator;
use monoid_calculus::expr::Expr;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::{self, Env, Value};
use monoid_store::Snapshot;

/// Layer parameter bindings over an environment. `params` are late-bound
/// `$name` values; their `$`-prefixed symbols can never shadow a root or a
/// query variable.
fn bind_params(mut env: Env, params: &[(Symbol, Value)]) -> Env {
    for (p, v) in params {
        env = env.bind(*p, v.clone());
    }
    env
}

/// Re-check the plan invariants (`crate::verify`) when stage verification
/// is on; a violation aborts execution with the stage-tagged message.
fn verify_if_enabled(query: &Query) -> ExecResult<()> {
    if monoid_calculus::analysis::verify_enabled() {
        crate::verify::verify_query(query)
            .map_err(|e| EvalError::Other(e.to_string()))?;
    }
    Ok(())
}

/// What every run starts from, on either engine: an evaluator over an
/// O(1) copy-on-write clone of the snapshot's pinned heap, discarded
/// afterwards, and the root environment with `params` bound, so
/// `Expr::Param` leaves resolve per execution. A `Query` is a pure read
/// (`Query::new` refuses `new`/`:=`), so it runs against an immutable
/// [`Snapshot`].
///
/// A `$param` is part of a run's signature: a run that leaves any
/// `$param` of the query unbound is refused here with
/// `EvalError::UnboundParameter`, whether or not a row would have reached
/// it — as `Prepared` refuses every served statement.
pub(crate) fn root(
    query: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
) -> ExecResult<(Evaluator, Env)> {
    verify_if_enabled(query)?;
    if let Some(p) = query.fused().params.iter().find(|p| params.iter().all(|(s, _)| s != *p)) {
        return Err(EvalError::UnboundParameter(*p));
    }
    Ok((Evaluator::with_heap(snap.heap().clone()), bind_params(snap.env(), params)))
}

/// Run a query against a [`Snapshot`] (a `&Database` or `&mut Database`
/// derefs to its current one), returning the reduced value. Any number
/// of threads may call this against clones of the same snapshot while a
/// writer keeps committing new epochs; the result is what a quiet
/// single-threaded run at the snapshot's epoch returns, byte for byte
/// (property-tested in `tests/concurrent_reads.rs`).
pub fn execute(query: &Query, snap: &Snapshot) -> ExecResult<Value> {
    execute_snapshot_bound(query, snap, &[])
}

/// [`execute`] with late-bound parameter values (prepared statements):
/// the query's fused fold ([`crate::fused`]), with the param-free join
/// tables kept in the snapshot's memo.
pub fn execute_snapshot_bound(
    query: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
) -> ExecResult<Value> {
    let (mut ev, env) = root(query, snap, params)?;
    crate::fused::serve(query.fused(), &mut ev, &env, snap.memo())
}

/// Run a query while *forcing* the plan-walk interpreter, even for
/// queries the fused engine covers — the ablation baseline `regress`
/// measures the fused speedup against, and the reference side of the
/// differential fused ≡ plan-walk equivalence tests.
pub fn execute_plan_walk_bound(
    query: &Query,
    snap: &Snapshot,
    params: &[(Symbol, Value)],
) -> ExecResult<Value> {
    let (mut ev, env) = root(query, snap, params)?;
    walk(query, &mut ev, &env)
}

/// Walk the plan tree, reducing every row the root pushes.
fn walk(query: &Query, ev: &mut Evaluator, env: &Env) -> ExecResult<Value> {
    let mut acc = value::Accumulator::new(query.monoid())?;
    run_plan(query.plan(), ev, env, &mut |ev, row_env| {
        let h = ev.eval(row_env, query.head())?;
        acc.push_unit(h)?;
        Ok(!acc.absorbed())
    })?;
    acc.finish()
}

/// Push every row of `plan` into `sink`; a `false` from the sink
/// short-circuits. Returns `false` if short-circuited.
fn run_plan(
    plan: &Plan,
    ev: &mut Evaluator,
    env: &Env,
    sink: &mut dyn FnMut(&mut Evaluator, &Env) -> ExecResult<bool>,
) -> ExecResult<bool> {
    match plan {
        Plan::Scan { var, source } => {
            let sv = ev.eval(env, source)?;
            for elem in collection_elements(&sv)? {
                if !sink(ev, &env.bind(*var, elem))? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Plan::Unnest { input, var, path } => run_plan(input, ev, env, &mut |ev, row| {
            let sv = ev.eval(row, path)?;
            for elem in collection_elements(&sv)? {
                if !sink(ev, &row.bind(*var, elem))? {
                    return Ok(false);
                }
            }
            Ok(true)
        }),
        Plan::Filter { input, pred } => run_plan(input, ev, env, &mut |ev, row| {
            if ev.eval(row, pred)?.as_bool()? {
                sink(ev, row)
            } else {
                Ok(true)
            }
        }),
        Plan::Bind { input, var, expr } => run_plan(input, ev, env, &mut |ev, row| {
            let v = ev.eval(row, expr)?;
            sink(ev, &row.bind(*var, v))
        }),
        Plan::Join { left, right, on } => {
            let table = build_table(right, on, ev, env)?;
            run_plan(left, ev, env, &mut |ev, lrow| {
                let key = on
                    .iter()
                    .map(|(lk, _)| ev.eval(lrow, lk))
                    .collect::<ExecResult<Vec<_>>>()?;
                if let Some(matches) = table.index.get(&key) {
                    for &i in matches {
                        if !sink(ev, &bind_delta(lrow, &table.rows[i]))? {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            })
        }
    }
}

/// A join's materialized build side: the right sub-plan's binding deltas
/// plus a key → row-indexes map. With no keys every row lands in the one
/// bucket of the empty key, and probing it is the cross product.
struct BuildTable {
    /// One binding delta per build row, in materialization order.
    rows: Vec<Vec<(Symbol, Value)>>,
    /// Right-side key values → indexes into `rows`.
    index: std::collections::BTreeMap<Vec<Value>, Vec<usize>>,
}

/// `base` extended with a build row's bindings, later ones shadowing.
fn bind_delta(base: &Env, delta: &[(Symbol, Value)]) -> Env {
    delta.iter().fold(base.clone(), |env, (var, v)| env.bind(*var, v.clone()))
}

/// Materialize a join's right side into a [`BuildTable`]. Each key is
/// evaluated against the top environment plus the row's delta.
fn build_table(
    right: &Plan,
    on: &[(Expr, Expr)],
    ev: &mut Evaluator,
    env: &Env,
) -> ExecResult<BuildTable> {
    let rows = materialize(right, ev, env)?;
    let mut index = std::collections::BTreeMap::new();
    if on.is_empty() {
        // Nothing to evaluate per row: the one bucket, filled directly.
        index.insert(Vec::new(), (0..rows.len()).collect());
        return Ok(BuildTable { rows, index });
    }
    for (i, delta) in rows.iter().enumerate() {
        let row = bind_delta(env, delta);
        let key = on.iter().map(|(_, rk)| ev.eval(&row, rk)).collect::<ExecResult<Vec<_>>>()?;
        index.entry(key).or_insert_with(Vec::new).push(i);
    }
    Ok(BuildTable { rows, index })
}

/// Materialize a sub-plan as a list of binding deltas (only the variables
/// the sub-plan itself binds).
fn materialize(
    plan: &Plan,
    ev: &mut Evaluator,
    env: &Env,
) -> ExecResult<Vec<Vec<(Symbol, Value)>>> {
    let vars = plan.bound_vars();
    let mut rows = Vec::new();
    run_plan(plan, ev, env, &mut |_, row| {
        let delta = vars
            .iter()
            .map(|v| {
                row.lookup(*v)
                    .cloned()
                    .map(|val| (*v, val))
                    .ok_or(EvalError::UnboundVariable(*v))
            })
            .collect::<ExecResult<Vec<_>>>()?;
        rows.push(delta);
        Ok(true)
    })?;
    Ok(rows)
}

fn collection_elements(v: &Value) -> ExecResult<Vec<Value>> {
    // An object in generator position binds once (§4.2 idiom), matching
    // the evaluator.
    if matches!(v, Value::Obj(_)) {
        return Ok(vec![v.clone()]);
    }
    v.elements()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{plan_comprehension, plan_with_options, PlanOptions};
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_store::travel::{self, TravelScale};
    use monoid_store::Database;

    fn db() -> Database {
        travel::generate(TravelScale::tiny(), 42)
    }

    /// Profile the query's fold and report its value and the rows its
    /// operators pushed, summed.
    fn counted(query: &Query, snap: &Snapshot) -> (Value, u64) {
        let run = crate::trace::execute_profiled_bound(query, &[], snap, &[]).unwrap();
        (run.value, run.profile.operators.iter().map(|o| o.actual_rows).sum())
    }

    fn portland() -> Expr {
        Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
                Expr::pred(Expr::var("r").proj("bed#").eq(Expr::int(3))),
            ],
        )
    }

    #[test]
    fn pipeline_agrees_with_evaluator() {
        let mut db = db();
        let q = portland();
        let direct = db.query(&q).unwrap();
        let plan = plan_comprehension(&q).unwrap();
        let piped = execute(&plan, &db).unwrap();
        assert_eq!(direct, piped);
    }

    #[test]
    fn hash_join_agrees_with_nested_loop() {
        // bag{ (e.name, h.name) | e ← Employees, h ← Hotels,
        //                         e.salary = h.name … } is nonsense; use a
        // self-join on bed#: pairs of hotels with same first-room price.
        let db = db();
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Hotels")),
                Expr::gen("b", Expr::var("Hotels")),
                Expr::pred(
                    Expr::var("a")
                        .proj("name")
                        .eq(Expr::var("b").proj("name")),
                ),
            ],
        );
        let hash = plan_comprehension(&q).unwrap();
        assert!(hash.plan().uses_hash_join());
        let nl = plan_with_options(
            &q,
            PlanOptions { hash_joins: false, push_predicates: true },
        )
        .unwrap();
        assert!(!nl.plan().uses_hash_join());
        let (vh, rh) = counted(&hash, &db);
        let (vn, rn) = counted(&nl, &db);
        assert_eq!(vh, vn);
        assert_eq!(execute_plan_walk_bound(&hash, &db, &[]).unwrap(), vh);
        assert_eq!(execute_plan_walk_bound(&nl, &db, &[]).unwrap(), vh);
        // Self-join on a key: hash join pushes strictly fewer rows.
        assert!(rh < rn, "hash {rh} vs nested-loop {rn}");
        // Every hotel matches exactly itself.
        assert_eq!(vh, Value::Int(db.extent_len("Hotels") as i64));
    }

    #[test]
    fn one_join_arm_runs_keyed_keyless_and_cross_product_plans() {
        // The same arm — build table, probe — serves a keyed join, the
        // same join with its keys left as filters (`hash_joins: false`),
        // and a cross product; all agree with the evaluator, for a
        // primitive, a collection and a short-circuiting monoid.
        let mut db = db();
        let a_name = || Expr::var("a").proj("name");
        let gens = |right: &str| {
            vec![Expr::gen("a", Expr::var("Hotels")), Expr::gen("b", Expr::var(right))]
        };
        let keyless = PlanOptions { hash_joins: false, push_predicates: true };
        for (monoid, head) in [
            (Monoid::Sum, Expr::int(1)),
            (Monoid::Bag, a_name()),
            (Monoid::Some, a_name().eq(Expr::str("hotel_0_0"))),
        ] {
            let mut quals = gens("Hotels");
            quals.push(Expr::pred(a_name().eq(Expr::var("b").proj("name"))));
            let join = Expr::comp(monoid.clone(), head.clone(), quals);
            let expected = db.query(&join).unwrap();
            let keyed = plan_comprehension(&join).unwrap();
            assert!(matches!(keyed.plan(), Plan::Join { on, .. } if on.len() == 1));
            assert_eq!(execute(&keyed, &db).unwrap(), expected, "{monoid} keyed");
            let filtered = plan_with_options(&join, keyless).unwrap();
            assert!(!filtered.plan().uses_hash_join());
            assert_eq!(execute(&filtered, &db).unwrap(), expected, "{monoid} keys as filters");

            let cross = Expr::comp(monoid.clone(), head, gens("Cities"));
            let plan = plan_comprehension(&cross).unwrap();
            assert!(matches!(plan.plan(), Plan::Join { on, .. } if on.is_empty()));
            assert_eq!(execute(&plan, &db).unwrap(), db.query(&cross).unwrap(), "{monoid} cross");
        }
    }

    #[test]
    fn short_circuits_some() {
        // `some{ 10 / x > 0 | x ← [1, 0] }`: the first row is the witness,
        // so a run that read the second would divide by zero.
        let db = db();
        let x = || Expr::var("x");
        let q = Expr::comp(
            Monoid::Some,
            Expr::int(10).div(x()).gt(Expr::int(0)),
            vec![Expr::gen("x", Expr::list_of(vec![Expr::int(1), Expr::int(0)]))],
        );
        let plan = plan_comprehension(&q).unwrap();
        assert_eq!(execute_plan_walk_bound(&plan, &db, &[]).unwrap(), Value::Bool(true));
        let (v, rows) = counted(&plan, &db);
        assert_eq!(v, Value::Bool(true));
        assert_eq!(rows, 1, "the fold's scan stops at the witness too");
    }

    #[test]
    fn cross_product_when_no_condition() {
        let db = db();
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Cities")),
                Expr::gen("b", Expr::var("Clients")),
            ],
        );
        let plan = plan_comprehension(&q).unwrap();
        let v = execute(&plan, &db).unwrap();
        let scale = TravelScale::tiny();
        assert_eq!(v, Value::Int((scale.cities * scale.clients) as i64));
    }

    #[test]
    fn snapshot_execution_matches_database_execution() {
        let mut db = db();
        let q = portland();
        let plan = plan_comprehension(&q).unwrap();
        let live = execute(&plan, &db).unwrap();
        let snap = db.snapshot();
        assert_eq!(execute(&plan, &snap).unwrap(), live);

        // The snapshot keeps answering from its pinned epoch even after
        // the writer rewrites every hotel. Rooms are plain records with
        // no identity, so the assignment targets the hotel objects:
        // every hotel is renamed and given a single bed#=3 room, which
        // makes the post-mutation answer a nonempty bag of "renamed" —
        // necessarily different from the pinned one.
        let update = Expr::comp(
            Monoid::All,
            Expr::var("h").assign(Expr::record(vec![
                ("name", Expr::str("renamed")),
                ("address", Expr::var("h").proj("address")),
                ("facilities", Expr::var("h").proj("facilities")),
                ("employees", Expr::var("h").proj("employees")),
                (
                    "rooms",
                    Expr::list_of(vec![Expr::record(vec![
                        ("bed#", Expr::int(3)),
                        ("price", Expr::int(1)),
                    ])]),
                ),
            ])),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        db.query(&update).unwrap();
        assert_eq!(execute(&plan, &snap).unwrap(), live);
        assert_ne!(execute(&plan, &db).unwrap(), live);
    }

    #[test]
    fn binds_execute() {
        let db = db();
        let q = Expr::Comp {
            monoid: Monoid::Sum,
            head: Box::new(Expr::var("two")),
            quals: vec![
                Expr::gen("c", Expr::var("Cities")),
                // An impure bind survives normalization and planning
                // rejects it; use a pure one here.
                Expr::bind("two", Expr::int(2)),
            ],
        };
        let plan = plan_comprehension(&q).unwrap();
        let v = execute(&plan, &db).unwrap();
        assert_eq!(v, Value::Int(2 * TravelScale::tiny().cities as i64));
    }
}
