//! Fused batch execution: a canonical comprehension as one monomorphic fold.
//!
//! The paper's central performance claim (§1, §6) is that normalization
//! produces canonical forms whose operator chains — scan → filter → bind →
//! unnest → reduce — *are* a single monoid homomorphism. The plan walk in
//! [`crate::exec`] honors that shape but pays per-row machinery for it: a
//! `dyn FnMut` sink call per operator per row, an `Arc`-allocated
//! environment node per binding, and a full evaluator dispatch (with step
//! ticking) per expression node. None of that is needed for a linear
//! chain: this module compiles the chain once into a flat stage list over
//! a slot-addressed row buffer, then drives the whole pipeline as one
//! tight loop that borrows rows from the extent's `Arc<Vec<Value>>` and
//! accumulates directly into the target monoid.
//!
//! What fuses: a linear `Scan`/`IndexLookup` spine extended only by
//! `Filter`/`Bind`/`Unnest` stages, whose embedded expressions are built
//! from literals, variables, parameters, records, tuples, projections,
//! arithmetic/comparison/logic, `if`, and `!` (deref) — and whose head and
//! plan are statically pure and non-allocating (PR 4's `Effects`). What
//! falls back to the plan walk: joins, allocating or
//! mutating expressions, vector monoids, and any expression form outside
//! the compiled subset (lambdas, nested comprehensions, `let`, …).
//! [`compile`] is the one place that decides; a declined query gets a
//! [`Refusal`] naming the construct, which is all lint MC009 reports.
//!
//! Equivalence is the load-bearing invariant: fused ≡ plan-walk
//! byte-identical, OID-for-OID. Two design rules enforce it. First, the
//! value-level semantics are *shared*, not duplicated — projections,
//! binary and unary operators delegate to the same
//! [`monoid_calculus::eval`] free functions the evaluator itself calls, so
//! results and error messages cannot drift. Second, the compiler declines
//! rather than approximates: any construct it cannot reproduce exactly
//! (including an unresolvable global, which the plan walk would report
//! with its own error) routes the query through the old path untouched.
//! Iteration order is the collection's canonical element order on both
//! engines, so ordered monoids (`list`, `str`, sorted variants) agree
//! without any re-sorting, and `some`/`all` short-circuit at the same
//! element.

use crate::error::ExecResult;
use crate::logical::{Plan, Query};
use monoid_calculus::analysis::effects_of;
use monoid_calculus::eval::{binop_values, project_value, unop_value, Evaluator};
use monoid_calculus::expr::{BinOp, Expr, Literal, UnOp};
use monoid_calculus::heap::Heap;
use monoid_calculus::monoid::Monoid;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::{Accumulator, Env, Value};

/// Which execution engine ran (or would run) a query. Surfaced by
/// `explain_analyze`, the flight recorder, and `Prepared::execute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The fused single-fold loop in this module.
    Fused,
    /// The push-based plan-tree interpreter in [`crate::exec`].
    PlanWalk,
}

impl Engine {
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Fused => "fused",
            Engine::PlanWalk => "plan-walk",
        }
    }
}

/// Why [`compile`] declined a query: the reason, and the binder or
/// sub-expression it was looking at when it gave up (lint MC009 looks
/// these up in the front end's span map).
#[derive(Debug, Clone, PartialEq)]
pub struct Refusal {
    pub reason: String,
    pub var: Option<Symbol>,
    pub expr: Option<Expr>,
}

impl Refusal {
    /// A refusal about the query as a whole.
    pub fn new(reason: impl Into<String>) -> Refusal {
        Refusal { reason: reason.into(), var: None, expr: None }
    }
}

/// The fused compiler's refusal for this query, `None` when it fuses.
pub fn refusal(query: &Query) -> Option<Refusal> {
    compile(query).err()
}

/// Static classification: would [`crate::exec::execute`] route this query
/// through the fused engine? (The one dynamic exception: a query whose
/// globals don't resolve at execution time still falls back, so the plan
/// walk can report the unbound name exactly as it always has.)
pub fn fused_eligible(query: &Query) -> bool {
    compile(query).is_ok()
}

/// The engine [`fused_eligible`] predicts for this query.
pub fn engine_of(query: &Query) -> Engine {
    if fused_eligible(query) {
        Engine::Fused
    } else {
        Engine::PlanWalk
    }
}

/// An expression compiled against the slot-addressed row buffer: variable
/// lookups become array indexing, and everything else mirrors the
/// evaluator's value-level semantics via the shared free functions.
#[derive(Debug, Clone)]
enum FusedExpr {
    Const(Value),
    Slot(usize),
    Record(Vec<(Symbol, FusedExpr)>),
    Tuple(Vec<FusedExpr>),
    Proj(Box<FusedExpr>, Symbol),
    TupleProj(Box<FusedExpr>, usize),
    Bin(BinOp, Box<FusedExpr>, Box<FusedExpr>),
    Un(UnOp, Box<FusedExpr>),
    If(Box<FusedExpr>, Box<FusedExpr>, Box<FusedExpr>),
    Deref(Box<FusedExpr>),
}

/// A borrowed slot override, chained through the fold's recursion: the
/// scan and unnest loops bind their current element *by reference* here
/// instead of cloning it into the row buffer (a record-valued element
/// costs two refcount round-trips per row). Lookup walks the chain
/// innermost-first and falls through to the owned buffer, so `Bind` —
/// whose value is freshly computed and already owned — keeps writing to
/// its (distinct, never overridden) slot.
struct Frame<'a> {
    slot: usize,
    value: &'a Value,
    parent: Option<&'a Frame<'a>>,
}

fn slot_value<'a>(slots: &'a [Value], frame: Option<&'a Frame<'a>>, slot: usize) -> &'a Value {
    let mut cur = frame;
    while let Some(f) = cur {
        if f.slot == slot {
            return f.value;
        }
        cur = f.parent;
    }
    &slots[slot]
}

impl FusedExpr {
    /// Evaluate as an *operand*: slot and constant references borrow
    /// instead of cloning. Projections, comparisons, and dereferences
    /// only need to look at their operands, and cloning a record-valued
    /// slot costs two refcount round-trips per row — the dominant cost
    /// of the fold once dispatch is gone.
    fn eval_ref<'a>(
        &'a self,
        slots: &'a [Value],
        frame: Option<&'a Frame<'a>>,
        heap: &Heap,
    ) -> ExecResult<std::borrow::Cow<'a, Value>> {
        use std::borrow::Cow;
        match self {
            FusedExpr::Const(v) => Ok(Cow::Borrowed(v)),
            FusedExpr::Slot(i) => Ok(Cow::Borrowed(slot_value(slots, frame, *i))),
            other => other.eval(slots, frame, heap).map(Cow::Owned),
        }
    }

    fn eval(&self, slots: &[Value], frame: Option<&Frame<'_>>, heap: &Heap) -> ExecResult<Value> {
        match self {
            FusedExpr::Const(v) => Ok(v.clone()),
            FusedExpr::Slot(i) => Ok(slot_value(slots, frame, *i).clone()),
            FusedExpr::Record(fields) => {
                let mut vals = Vec::with_capacity(fields.len());
                for (name, fe) in fields {
                    vals.push((*name, fe.eval(slots, frame, heap)?));
                }
                Ok(Value::record(vals))
            }
            FusedExpr::Tuple(items) => {
                let vals = items
                    .iter()
                    .map(|i| i.eval(slots, frame, heap))
                    .collect::<ExecResult<Vec<_>>>()?;
                Ok(Value::tuple(vals))
            }
            FusedExpr::Proj(inner, field) => {
                let v = inner.eval_ref(slots, frame, heap)?;
                project_value(heap, v.as_ref(), *field)
            }
            FusedExpr::TupleProj(inner, idx) => {
                let v = inner.eval_ref(slots, frame, heap)?;
                match v.as_ref() {
                    Value::Tuple(items) => items.get(*idx).cloned().ok_or_else(|| {
                        monoid_calculus::error::EvalError::TypeMismatch {
                            op: "tuple projection",
                            detail: format!("index {idx} on {}-tuple", items.len()),
                        }
                    }),
                    other => Err(monoid_calculus::error::EvalError::TypeMismatch {
                        op: "tuple projection",
                        detail: format!("expected tuple, got {}", other.kind()),
                    }),
                }
            }
            FusedExpr::Bin(op, lhs, rhs) => match op {
                // and/or short-circuit, exactly like the evaluator.
                BinOp::And => Ok(Value::Bool(
                    lhs.eval_ref(slots, frame, heap)?.as_bool()?
                        && rhs.eval_ref(slots, frame, heap)?.as_bool()?,
                )),
                BinOp::Or => Ok(Value::Bool(
                    lhs.eval_ref(slots, frame, heap)?.as_bool()?
                        || rhs.eval_ref(slots, frame, heap)?.as_bool()?,
                )),
                _ => {
                    let a = lhs.eval_ref(slots, frame, heap)?;
                    let b = rhs.eval_ref(slots, frame, heap)?;
                    binop_values(*op, a.as_ref(), b.as_ref())
                }
            },
            FusedExpr::Un(op, inner) => unop_value(*op, inner.eval(slots, frame, heap)?),
            FusedExpr::If(cond, then, els) => {
                if cond.eval_ref(slots, frame, heap)?.as_bool()? {
                    then.eval(slots, frame, heap)
                } else {
                    els.eval(slots, frame, heap)
                }
            }
            FusedExpr::Deref(inner) => match inner.eval_ref(slots, frame, heap)?.as_ref() {
                Value::Obj(oid) => Ok(heap.get(*oid)?.clone()),
                other => Err(monoid_calculus::error::EvalError::TypeMismatch {
                    op: "deref",
                    detail: format!("expected object, got {}", other.kind()),
                }),
            },
        }
    }
}

/// One non-root operator of the fused chain, in execution (bottom-up)
/// order.
#[derive(Debug)]
enum Stage {
    Filter(FusedExpr),
    Bind { slot: usize, expr: FusedExpr },
    Unnest { slot: usize, path: FusedExpr },
}

/// The chain's row producer.
#[derive(Debug)]
enum Root<'q> {
    Scan { slot: usize, source: &'q Expr },
    Index { slot: usize, index: &'q crate::index::Index, key: &'q Expr },
}

/// A fully compiled fused pipeline, borrowing the plan's expressions.
#[derive(Debug)]
struct FusedQuery<'q> {
    root: Root<'q>,
    stages: Vec<Stage>,
    head: FusedExpr,
    monoid: &'q Monoid,
    n_slots: usize,
    /// `(slot, name)` pairs to fill from the root environment at setup —
    /// extents, parameters, and any other free variable of the chain.
    globals: Vec<(usize, Symbol)>,
}

#[derive(Default)]
struct Compiler {
    /// Chain-variable scope at the current compilation point; later
    /// entries shadow earlier ones, mirroring `Env` lookup order.
    scope: Vec<(Symbol, usize)>,
    n_slots: usize,
    globals: Vec<(usize, Symbol)>,
}

impl Compiler {
    /// Allocate a fresh slot for a chain variable (shadowing any earlier
    /// binding of the same name, like `Env::bind` does).
    fn bind(&mut self, var: Symbol) -> usize {
        let slot = self.n_slots;
        self.n_slots += 1;
        self.scope.push((var, slot));
        slot
    }

    /// Resolve a variable reference: innermost chain binding first, then
    /// the (deduplicated) global slots.
    fn slot_of(&mut self, var: Symbol) -> usize {
        if let Some((_, slot)) = self.scope.iter().rev().find(|(v, _)| *v == var) {
            return *slot;
        }
        if let Some((slot, _)) = self.globals.iter().find(|(_, v)| *v == var) {
            return *slot;
        }
        let slot = self.n_slots;
        self.n_slots += 1;
        self.globals.push((slot, var));
        slot
    }

    /// `Err` carries the first sub-expression outside the compiled subset.
    fn compile_expr<'e>(&mut self, e: &'e Expr) -> Result<FusedExpr, &'e Expr> {
        Ok(match e {
            Expr::Lit(lit) => FusedExpr::Const(match lit {
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(x) => Value::Float(*x),
                Literal::Str(s) => Value::Str(s.clone()),
                Literal::Null => Value::Null,
            }),
            Expr::Var(v) | Expr::Param(v) => FusedExpr::Slot(self.slot_of(*v)),
            Expr::Record(fields) => FusedExpr::Record(
                fields
                    .iter()
                    .map(|(n, fe)| Ok((*n, self.compile_expr(fe)?)))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Expr::Tuple(items) => FusedExpr::Tuple(
                items
                    .iter()
                    .map(|i| self.compile_expr(i))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Expr::Proj(inner, field) => {
                FusedExpr::Proj(Box::new(self.compile_expr(inner)?), *field)
            }
            Expr::TupleProj(inner, idx) => {
                FusedExpr::TupleProj(Box::new(self.compile_expr(inner)?), *idx)
            }
            Expr::BinOp(op, lhs, rhs) => FusedExpr::Bin(
                *op,
                Box::new(self.compile_expr(lhs)?),
                Box::new(self.compile_expr(rhs)?),
            ),
            Expr::UnOp(op, inner) => FusedExpr::Un(*op, Box::new(self.compile_expr(inner)?)),
            Expr::If(cond, then, els) => FusedExpr::If(
                Box::new(self.compile_expr(cond)?),
                Box::new(self.compile_expr(then)?),
                Box::new(self.compile_expr(els)?),
            ),
            Expr::Deref(inner) => FusedExpr::Deref(Box::new(self.compile_expr(inner)?)),
            // Anything else — lambdas, nested comprehensions, let,
            // collection literals, heap writes — declines fusion; the plan
            // walk handles it.
            other => return Err(other),
        })
    }
}

/// A short human name for an expression form outside the compiled subset.
fn describe(e: &Expr) -> &'static str {
    match e {
        Expr::Lambda(..) => "a lambda",
        Expr::Comp { .. } => "a nested comprehension",
        Expr::VecComp { .. } => "a nested vector comprehension",
        Expr::Let(..) => "a `let` binding",
        Expr::CollLit(..) => "a collection literal",
        Expr::VecLit(..) => "a vector literal",
        Expr::VecIndex(..) => "vector indexing",
        Expr::Merge(..) => "a monoid merge",
        Expr::Zero(..) => "a monoid zero",
        Expr::Unit(..) => "a singleton injection",
        Expr::Hom { .. } => "a homomorphism",
        Expr::Apply(..) => "a function application",
        Expr::New(..) => "an allocation (`new`)",
        Expr::Assign(..) => "an assignment (`:=`)",
        _ => "an unsupported form",
    }
}

/// The refusal for `off`, the sub-expression [`Compiler::compile_expr`]
/// stopped at, found in the part of the query `what` names (bound to
/// `var`). Only ever runs on the declining path, so `what` is formatted
/// here, not by the caller.
fn outside(what: impl std::fmt::Display, var: Option<Symbol>, off: &Expr) -> Refusal {
    Refusal {
        reason: format!("{what} uses {}, outside the fused expression subset", describe(off)),
        var,
        expr: Some(off.clone()),
    }
}

/// Compile a query into a fused pipeline, or say which part of it falls
/// outside the fusible subset. The only function that inspects a plan's
/// shape for fusibility: teaching the fold a new operator means adding a
/// [`Stage`] here and deleting the matching `Err`.
fn compile(query: &Query) -> Result<FusedQuery<'_>, Refusal> {
    let Query { plan, monoid, head, plan_effects } = query;
    // Vector comprehensions accumulate through indexed slots, not a single
    // accumulator; they never reach plans anyway.
    if matches!(monoid, Monoid::VecOf(_)) {
        return Err(Refusal::new("vector monoid reductions accumulate through indexed slots"));
    }
    // Effects: the fused loop shares one immutable heap borrow across the
    // whole fold, so heap writes *and* allocations stay on the plan walk.
    let eff = effects_of(head).join(*plan_effects);
    if eff.mutates || eff.allocates {
        return Err(Refusal::new("the query writes the heap (`:=` or `new`)"));
    }
    // Flatten the linear chain; joins make it a tree and decline fusion.
    let mut chain = Vec::new();
    let mut node = plan;
    let spine_root = loop {
        match node {
            Plan::Scan { .. } | Plan::IndexLookup { .. } => break node,
            Plan::Unnest { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Bind { input, .. } => {
                chain.push(node);
                node = input;
            }
            Plan::Join { right, .. } => {
                // Every plan binds at least its root's variable.
                let var = right.bound_vars()[0];
                return Err(Refusal {
                    reason: format!(
                        "independent generator `{var}` requires a join, which is outside \
                         the fused subset"
                    ),
                    var: Some(var),
                    expr: None,
                });
            }
        }
    };
    chain.reverse(); // execution order: scan upward.

    let mut c = Compiler::default();
    let root = match spine_root {
        Plan::Scan { var, source } => Root::Scan { slot: c.bind(*var), source },
        Plan::IndexLookup { var, index, key } => {
            Root::Index { slot: c.bind(*var), index, key }
        }
        _ => unreachable!("loop breaks only on scan/index roots"),
    };
    let mut stages = Vec::with_capacity(chain.len());
    for stage in chain {
        match stage {
            Plan::Filter { pred, .. } => {
                let pred = c.compile_expr(pred).map_err(|off| outside("a predicate", None, off))?;
                stages.push(Stage::Filter(pred));
            }
            Plan::Bind { var, expr, .. } => {
                // Compile before binding: the expression sees the *outer*
                // binding of `var`, exactly like the plan walk.
                let expr = c.compile_expr(expr).map_err(|off| {
                    outside(format_args!("the binding `{var} ≡ …`"), Some(*var), off)
                })?;
                stages.push(Stage::Bind { slot: c.bind(*var), expr });
            }
            Plan::Unnest { var, path, .. } => {
                let path = c.compile_expr(path).map_err(|off| {
                    outside(format_args!("the path of generator `{var}`"), Some(*var), off)
                })?;
                stages.push(Stage::Unnest { slot: c.bind(*var), path });
            }
            _ => unreachable!("chain holds only unary stages"),
        }
    }
    let head = c.compile_expr(head).map_err(|off| outside("the head", None, off))?;
    Ok(FusedQuery {
        root,
        stages,
        head,
        monoid,
        n_slots: c.n_slots,
        globals: c.globals,
    })
}

/// The borrowed-or-expanded elements of a generator source. List, set, and
/// vector sources iterate the extent's `Arc<Vec<Value>>` in place — the
/// allocation-free path the fused loop exists for; bags, strings, and the
/// `§4.2` object-singleton idiom expand exactly like
/// the plan walk's `collection_elements`.
enum Rows<'a> {
    Borrowed(&'a [Value]),
    Owned(Vec<Value>),
}

fn rows_of(v: &Value) -> ExecResult<Rows<'_>> {
    match v {
        Value::Obj(_) => Ok(Rows::Owned(vec![v.clone()])),
        Value::List(items) | Value::Set(items) | Value::Vector(items) => {
            Ok(Rows::Borrowed(items))
        }
        other => other.elements().map(Rows::Owned),
    }
}

impl FusedQuery<'_> {
    /// The row buffer with global slots resolved against `env`; `None`
    /// (→ plan-walk fallback) when a name is missing, so unbound-variable
    /// errors keep their plan-walk shape.
    fn resolve_globals(&self, env: &Env) -> Option<Vec<Value>> {
        let mut slots = vec![Value::Null; self.n_slots];
        for (slot, name) in &self.globals {
            slots[*slot] = env.lookup(*name)?.clone();
        }
        Some(slots)
    }

}

/// Run the stage chain for the current row buffer; `false` means the
/// accumulator absorbed and the fold is over.
fn drive(
    stages: &[Stage],
    head: &FusedExpr,
    slots: &mut Vec<Value>,
    frame: Option<&Frame<'_>>,
    heap: &Heap,
    acc: &mut Accumulator,
) -> ExecResult<bool> {
    let Some((stage, rest)) = stages.split_first() else {
        let h = head.eval(slots, frame, heap)?;
        acc.push_unit(h)?;
        return Ok(!acc.absorbed());
    };
    match stage {
        Stage::Filter(pred) => {
            if pred.eval_ref(slots, frame, heap)?.as_bool()? {
                drive(rest, head, slots, frame, heap, acc)
            } else {
                Ok(true)
            }
        }
        Stage::Bind { slot, expr } => {
            let v = expr.eval(slots, frame, heap)?;
            slots[*slot] = v;
            drive(rest, head, slots, frame, heap, acc)
        }
        Stage::Unnest { slot, path } => {
            let pv = path.eval(slots, frame, heap)?;
            match rows_of(&pv)? {
                Rows::Borrowed(items) => {
                    for elem in items {
                        let f = Frame { slot: *slot, value: elem, parent: frame };
                        if !drive(rest, head, slots, Some(&f), heap, acc)? {
                            return Ok(false);
                        }
                    }
                }
                Rows::Owned(items) => {
                    for elem in &items {
                        let f = Frame { slot: *slot, value: elem, parent: frame };
                        if !drive(rest, head, slots, Some(&f), heap, acc)? {
                            return Ok(false);
                        }
                    }
                }
            }
            Ok(true)
        }
    }
}

/// Try the fused engine for a full sequential reduction. `Ok(None)` means
/// the query is outside the fusible subset (or a global failed to
/// resolve) and the caller should run the plan walk instead.
pub(crate) fn try_run_reduce(
    query: &Query,
    ev: &mut Evaluator,
    env: &Env,
) -> ExecResult<Option<Value>> {
    let Ok(fq) = compile(query) else {
        return Ok(None);
    };
    let Some(mut slots) = fq.resolve_globals(env) else {
        return Ok(None);
    };
    // The root source/key is one expression evaluated once per query; the
    // evaluator runs it so parameters, closures, and error reporting stay
    // exactly as the plan walk has them.
    let source_value;
    let (root_slot, rows) = match &fq.root {
        Root::Scan { slot, source } => {
            source_value = ev.eval(env, source)?;
            (*slot, rows_of(&source_value)?)
        }
        Root::Index { slot, index, key } => {
            let kv = ev.eval(env, key)?;
            (*slot, Rows::Borrowed(index.lookup(&kv)))
        }
    };
    let mut acc = Accumulator::new(fq.monoid)?;
    let items: &[Value] = match &rows {
        Rows::Borrowed(items) => items,
        Rows::Owned(items) => items,
    };
    for elem in items {
        let f = Frame { slot: root_slot, value: elem, parent: None };
        if !drive(&fq.stages, &fq.head, &mut slots, Some(&f), &ev.heap, &mut acc)? {
            break;
        }
    }
    Ok(Some(acc.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::plan_comprehension;
    use monoid_calculus::expr::Expr;

    fn scan_chain() -> Query {
        plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::var("r").proj("bed#"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
                Expr::pred(Expr::var("r").proj("bed#").ge(Expr::int(1))),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn linear_chains_fuse() {
        let q = scan_chain();
        assert!(fused_eligible(&q));
        assert_eq!(engine_of(&q).as_str(), "fused");
    }

    #[test]
    fn out_of_order_binds_still_make_a_dependent_generator_fuse() {
        // x ← xs, y ← b.kids, b ≡ x.child: the planner places `b` right
        // after `x`, so `y` is an unnest, not a join — a linear chain.
        let q = plan_comprehension(&Expr::comp(
            Monoid::Bag,
            Expr::var("y"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::gen("y", Expr::var("b").proj("kids")),
                Expr::bind("b", Expr::var("x").proj("child")),
            ],
        ))
        .unwrap();
        assert!(fused_eligible(&q), "{:?}", refusal(&q));
    }

    #[test]
    fn refusals_name_the_construct() {
        let join = plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Hotels")),
                Expr::gen("b", Expr::var("Cities")),
            ],
        ))
        .unwrap();
        assert_eq!(engine_of(&join), Engine::PlanWalk);
        let r = refusal(&join).expect("joins decline fusion");
        assert!(r.reason.contains("join") && r.reason.contains("`b`"), "{r:?}");
        assert_eq!(r.var, Some(Symbol::new("b")));

        // The offending sub-expression comes back whole, so a front end
        // can look its source position up.
        let mut lambda_head = scan_chain();
        lambda_head.head = Expr::lambda("x", Expr::var("x"));
        let r = refusal(&lambda_head).expect("a lambda is outside the subset");
        assert!(r.reason.contains("the head uses a lambda"), "{r:?}");
        assert_eq!(r.expr, Some(lambda_head.head.clone()));

        let mut nested_pred = scan_chain();
        let nested = Expr::comp(Monoid::Some, Expr::bool(true), vec![]);
        nested_pred.plan =
            Plan::Filter { input: Box::new(nested_pred.plan), pred: nested.clone() };
        let r = refusal(&nested_pred).expect("a nested comprehension is outside the subset");
        assert!(r.reason.contains("a predicate uses a nested comprehension"), "{r:?}");
        assert_eq!(r.expr, Some(nested));

        let mut vector = scan_chain();
        vector.monoid = Monoid::VecOf(Box::new(Monoid::Sum));
        assert!(refusal(&vector).expect("VecOf declines").reason.contains("vector monoid"));
    }

    #[test]
    fn shadowed_chain_variables_resolve_innermost_first() {
        // bind shadows the scan variable; references after the bind must
        // see the new slot, just like Env lookup.
        let q = plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::var("h"),
            vec![
                Expr::gen("h", Expr::var("Ints")),
                Expr::bind("h", Expr::var("h").add(Expr::int(1))),
            ],
        ))
        .unwrap();
        let env = Env::empty().bind(
            Symbol::new("Ints"),
            Value::list(vec![Value::Int(10), Value::Int(20)]),
        );
        let mut ev = Evaluator::with_heap(Heap::new());
        let v = try_run_reduce(&q, &mut ev, &env).unwrap().expect("fusible");
        assert_eq!(v, Value::Int(32));
    }

    #[test]
    fn missing_global_declines_at_resolution() {
        // `target` is free in the predicate, so it compiles to a global
        // slot filled from the root environment at setup.
        let q = plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(Expr::var("h").proj("name").eq(Expr::var("target"))),
            ],
        ))
        .unwrap();
        let fq = compile(&q).expect("fusible");
        // No `target` in this environment: resolution fails, the caller
        // falls back to the plan walk (which reports the unbound name).
        assert!(fq.resolve_globals(&Env::empty()).is_none());
        let env = Env::empty().bind(Symbol::new("target"), Value::str("x"));
        assert!(fq.resolve_globals(&env).is_some());
    }
}
