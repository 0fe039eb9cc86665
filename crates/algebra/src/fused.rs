//! Fused batch execution: a canonical comprehension as one monomorphic fold.
//!
//! The paper's central performance claim (§1, §6) is that normalization
//! produces canonical forms whose operator chains — scan → filter → bind →
//! unnest → join → reduce — *are* a single monoid homomorphism. The plan
//! walk in [`crate::exec`] honors that shape but pays per-row machinery for
//! it: a `dyn FnMut` sink call per operator per row, an `Arc`-allocated
//! environment node per binding, and a full evaluator dispatch (with step
//! ticking) per expression node. None of that is needed: this module
//! compiles the plan once into flat stage lists over a slot-addressed row
//! buffer, then drives the whole pipeline as one tight loop that borrows
//! rows from the extent's `Arc<Vec<Value>>` and accumulates directly into
//! the target monoid.
//!
//! What fuses: a `Scan` extended by `Filter`, `Bind`, `Unnest` and `Join`
//! stages (keyed joins, cross products, and keyed filters, which compile
//! to a join — below), whose
//! embedded expressions are built from literals, variables, parameters,
//! records, tuples, projections, arithmetic/comparison/logic, `if`, and `!`
//! (deref) — and whose head and plan are statically pure and non-allocating
//! (PR 4's `Effects`). What falls back to the plan walk: allocating or
//! mutating expressions, vector monoids, and any expression form outside
//! the compiled subset (lambdas, nested comprehensions, `let`, …), whether
//! it sits on the spine, in a join key, or in a join's right side.
//! [`compile`] is the one place that decides; a declined query gets a
//! [`Refusal`] naming the construct, which is all lint MC009 reports.
//!
//! A join is a bind inside the same fold (`genBind g f = λk z. g (λacc a.
//! (f a) k acc) z`), and a hash join is that bind over a prebuilt finite
//! map. The left input continues the spine; the right sub-plan compiles
//! into a chain of its own (same slot numbering) that runs *before the
//! first left row* into a [`Table`]: the right-bound slot values laid out
//! flat (a bare scan over a list/set extent shares the extent's `Arc` and
//! copies nothing) plus an index that discriminates the key by kind —
//! `i64`, string and OID keys hash into typed buckets, and everything else
//! (composite keys, floats, records, a build side mixing kinds) goes to one
//! `Value`-ordered map. Equality is [`Value::cmp`]'s, so
//! `1` meets `1.0` on both sides exactly as in the walk's `BTreeMap`. Tables
//! are built in the walk's order — outer join first, a join's right source
//! before its left one, all build rows before the first key — so whichever
//! error the walk reports first is the one the fold reports. Probing
//! evaluates the left keys against the current row and, for each match *in
//! build order*, pushes borrowed [`Frame`]s for the right slots and drives
//! the rest of the chain: rows stay left-major, so ordered monoids, float
//! sums and `some`/`all` short-circuits land where the walk puts them.
//!
//! A table whose right sub-plan and right keys read no `$param` is a
//! function of the snapshot alone, so it is built once per epoch: [`compile`]
//! marks it, and the first execution against a snapshot keeps it in the
//! snapshot's [`Memo`], keyed by that sub-plan and those keys (compared with
//! `==`). Every later execution against any clone of the snapshot probes the
//! same table; every mutation of the database starts a fresh memo, which is
//! the whole invalidation protocol. A table reading a `$param`, or one that
//! does not fit under [`monoid_store::memo::MEMO_BYTES`], is built per
//! execution and dies with it. Skipping a build cannot hide an error: a
//! table is only kept once the same pure build succeeded at this epoch.
//!
//! A keyed filter is the same bind with a constant probe. `Filter(k(x) =
//! e)` directly over `Scan x ← E`, where `E` and `k` read no `$param`, `k`
//! mentions only `x` and `e` does not mention `x`, compiles to a one-row
//! chain whose only stage is a `Join` against the bare scan keyed by `k` —
//! memoized like any param-free build side, so `exists h in Hotels: h.name
//! = $name` is one hash lookup per execution after the epoch's first.
//! Matches come back in build order, which is the extent's, so `some`
//! stops at the walk's witness and ordered monoids agree. Two rules keep
//! its errors the walk's, which reads `e` only on a row and `k` only on
//! the rows it reaches: the probe row exists only when the table has rows,
//! and a build that fails sends the execution to the plan walk, which
//! filters plainly (nothing has reached the accumulator by then).
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
use monoid_calculus::value::{Accumulator, Env, Oid, Value};
use monoid_store::memo::Memo;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
/// through the fused engine? (The dynamic exceptions: a query whose
/// globals don't resolve at execution time still falls back, so the plan
/// walk can report the unbound name exactly as it always has, and so does
/// one whose keyed filter's table fails to build.)
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

/// One non-root operator of a fused chain, in execution (bottom-up)
/// order.
#[derive(Debug)]
enum Stage<'q> {
    Filter(FusedExpr),
    Bind { slot: usize, expr: FusedExpr },
    Unnest { slot: usize, path: FusedExpr },
    /// Probe `build`'s table with `left_keys`; every match binds
    /// `right_slots` — the build side's variables, one table column
    /// each — and continues up the chain.
    Join { build: Build<'q>, left_keys: Vec<FusedExpr>, right_slots: Vec<usize> },
}

/// A scan — each row of `source` bound to `slot` — and the stages its
/// rows run through.
#[derive(Debug)]
struct Chain<'q> {
    slot: usize,
    source: Source<'q>,
    stages: Vec<Stage<'q>>,
}

/// Where a chain's rows come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source<'q> {
    /// Each element of a generator source, evaluated once per execution.
    Each(&'q Expr),
    /// A keyed filter's one probe row, which the chain's first stage joins
    /// with table `.0`. There is no row when that table is empty, so the
    /// probe is evaluated exactly when the walk's filter would read it.
    Probe(usize),
}

/// A join's right side: the chain that produces the build rows, the key
/// expressions over them, and which of the execution's tables it fills.
#[derive(Debug)]
struct Build<'q> {
    chain: Chain<'q>,
    keys: Vec<FusedExpr>,
    table: usize,
    /// The right sub-plan and its key expressions, when the build reads
    /// no `$param`: what the snapshot's memo keeps its table under.
    memo: Option<(&'q Plan, Vec<&'q Expr>)>,
}

/// A memoized table's key: a right sub-plan and its key expressions.
#[derive(PartialEq)]
struct TableKey {
    right: Plan,
    keys: Vec<Expr>,
}

impl TableKey {
    fn is(&self, right: &Plan, keys: &[&Expr]) -> bool {
        self.right == *right && self.keys.iter().eq(keys.iter().copied())
    }
}

/// A fully compiled fused pipeline, borrowing the plan's expressions.
#[derive(Debug)]
struct FusedQuery<'q> {
    chain: Chain<'q>,
    head: FusedExpr,
    monoid: &'q Monoid,
    n_slots: usize,
    n_tables: usize,
    /// `(slot, name)` pairs to fill from the root environment at setup —
    /// parameters and any other free variable of the compiled expressions.
    globals: Vec<(usize, Symbol)>,
}

#[derive(Default)]
struct Compiler {
    /// Chain-variable scope at the current compilation point; later
    /// entries shadow earlier ones, mirroring `Env` lookup order.
    scope: Vec<(Symbol, usize)>,
    n_slots: usize,
    n_tables: usize,
    globals: Vec<(usize, Symbol)>,
    /// `$param` leaves met so far, scan sources included.
    params: usize,
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
            Expr::Var(v) => FusedExpr::Slot(self.slot_of(*v)),
            Expr::Param(p) => {
                self.params += 1;
                FusedExpr::Slot(self.slot_of(*p))
            }
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

    /// One side of `join`'s key pairs, compiled against the current scope.
    /// A refusal names the offending sub-expression and, for a front end
    /// that did not record it, the generator that made this a join.
    fn join_keys<'e>(
        &mut self,
        keys: impl Iterator<Item = &'e Expr>,
        right: &Plan,
    ) -> Result<Vec<FusedExpr>, Refusal> {
        keys.map(|k| {
            self.compile_expr(k)
                .map_err(|off| outside("a join key", right.bound_vars().first().copied(), off))
        })
        .collect()
    }

    /// Compile `plan` into a chain, leaving its variables in scope. The
    /// only function that inspects a plan's shape: teaching the fold a new
    /// operator means adding a [`Stage`] here.
    fn chain<'q>(&mut self, plan: &'q Plan) -> Result<Chain<'q>, Refusal> {
        let (input, stage) = match plan {
            Plan::Scan { var, source } => {
                // The evaluator runs the source, but its `$param`s count.
                source.visit(&mut |e| self.params += usize::from(matches!(e, Expr::Param(_))));
                let slot = self.bind(*var);
                return Ok(Chain { slot, source: Source::Each(source), stages: Vec::new() });
            }
            Plan::Filter { input: below, pred: p } => {
                let input = self.chain(below)?;
                let pred =
                    self.compile_expr(p).map_err(|off| outside("a predicate", None, off))?;
                match (probe_key(below, p), pred) {
                    (Some((key, key_first)), FusedExpr::Bin(_, a, b)) => {
                        let (k, e) = if key_first { (*a, *b) } else { (*b, *a) };
                        return Ok(self.keyed(input, (&**below, key), k, e));
                    }
                    (_, pred) => (input, Stage::Filter(pred)),
                }
            }
            Plan::Bind { input, var, expr } => {
                let input = self.chain(input)?;
                // Compile before binding: the expression sees the *outer*
                // binding of `var`, exactly like the plan walk.
                let expr = self.compile_expr(expr).map_err(|off| {
                    outside(format_args!("the binding `{var} ≡ …`"), Some(*var), off)
                })?;
                (input, Stage::Bind { slot: self.bind(*var), expr })
            }
            Plan::Unnest { input, var, path } => {
                let input = self.chain(input)?;
                let path = self.compile_expr(path).map_err(|off| {
                    outside(format_args!("the path of generator `{var}`"), Some(*var), off)
                })?;
                (input, Stage::Unnest { slot: self.bind(*var), path })
            }
            Plan::Join { left, right, on } => {
                let input = self.chain(left)?;
                let left_keys = self.join_keys(on.iter().map(|(l, _)| l), right)?;
                // The right side is independent of the left: it compiles
                // (and its keys resolve) with only its own variables in
                // scope, as the walk runs it against the root environment.
                let left_scope = std::mem::take(&mut self.scope);
                let params = self.params;
                let chain = self.chain(right)?;
                let keys = self.join_keys(on.iter().map(|(_, r)| r), right)?;
                let memo = (self.params == params)
                    .then(|| (&**right, on.iter().map(|(_, r)| r).collect()));
                let right_scope = std::mem::replace(&mut self.scope, left_scope);
                // A joined row is the left row with the right side's
                // variables bound on top, in binding order.
                let right_slots = right_scope.iter().map(|(_, slot)| *slot).collect();
                self.scope.extend(right_scope);
                let build = Build { chain, keys, table: self.n_tables, memo };
                self.n_tables += 1;
                (input, Stage::Join { build, left_keys, right_slots })
            }
        };
        let mut chain = input;
        chain.stages.push(stage);
        Ok(chain)
    }

    /// A keyed filter as a join: a one-row chain whose only stage probes
    /// the table of `scan` — the bare scan the filter ran over, `k` its
    /// compiled key — with `probe`. The table reads no `$param`, so the
    /// memo keeps it under the scan's plan and `key`, like a join's.
    fn keyed<'q>(
        &mut self,
        scan: Chain<'q>,
        (plan, key): (&'q Plan, &'q Expr),
        k: FusedExpr,
        probe: FusedExpr,
    ) -> Chain<'q> {
        let table = self.n_tables;
        self.n_tables += 1;
        let right_slots = vec![scan.slot];
        let build = Build { chain: scan, keys: vec![k], table, memo: Some((plan, vec![key])) };
        // The probe row binds a slot nothing reads.
        let slot = self.n_slots;
        self.n_slots += 1;
        let stage = Stage::Join { build, left_keys: vec![probe], right_slots };
        Chain { slot, source: Source::Probe(table), stages: vec![stage] }
    }
}

/// When the compiled `pred` over `input` is `k(x) = e` or `e = k(x)` on a
/// scan `x ← E` whose table can be shared — `E` and `k` read no `$param`,
/// `k` mentions `x` and nothing else — and `e` does not mention `x`: `k`,
/// and whether it is the left operand.
fn probe_key<'q>(input: &Plan, pred: &'q Expr) -> Option<(&'q Expr, bool)> {
    let (Plan::Scan { var, source }, Expr::BinOp(BinOp::Eq, a, b)) = (input, pred) else {
        return None;
    };
    // Whether `e` reads `x`, another variable, a `$param`. Nothing in the
    // compiled subset binds a variable, so every `Var` in `pred` is free.
    let reads = |e: &Expr| {
        let mut r = (false, false, false);
        e.visit(&mut |e| match e {
            Expr::Var(v) if v == var => r.0 = true,
            Expr::Var(_) => r.1 = true,
            Expr::Param(_) => r.2 = true,
            _ => {}
        });
        r
    };
    let (a_reads, b_reads) = (reads(a), reads(b));
    if reads(source).2 {
        None
    } else if a_reads == (true, false, false) && !b_reads.0 {
        Some((a, true))
    } else if b_reads == (true, false, false) && !a_reads.0 {
        Some((b, false))
    } else {
        None
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
/// outside the fusible subset.
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
    let mut c = Compiler::default();
    let chain = c.chain(plan)?;
    let head = c.compile_expr(head).map_err(|off| outside("the head", None, off))?;
    Ok(FusedQuery {
        chain,
        head,
        monoid,
        n_slots: c.n_slots,
        n_tables: c.n_tables,
        globals: c.globals,
    })
}

/// The elements of a generator source. List, set, and vector sources
/// iterate the extent's `Arc<Vec<Value>>` in place — the allocation-free
/// path the fused loop exists for — and a bag iterates its `(value, count)`
/// runs in place, each value `count` times in run order; strings and the
/// `§4.2` object-singleton idiom expand exactly like the plan walk's
/// `collection_elements`.
enum Rows {
    Shared(Arc<Vec<Value>>),
    Owned(Vec<Value>),
    Runs(Arc<Vec<(Value, u64)>>),
}

impl Rows {
    /// Call `f` on every element in order until it returns `false`.
    #[inline(always)]
    fn each(&self, mut f: impl FnMut(&Value) -> ExecResult<bool>) -> ExecResult<bool> {
        let items = match self {
            Rows::Shared(items) => items.as_slice(),
            Rows::Owned(items) => items,
            Rows::Runs(runs) => {
                for (value, count) in runs.iter() {
                    for _ in 0..*count {
                        if !f(value)? {
                            return Ok(false);
                        }
                    }
                }
                return Ok(true);
            }
        };
        for value in items {
            if !f(value)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The elements as one shared vector: free for a list or set, a copy
    /// of each element for the rest (a join's bare-scan build side).
    fn into_shared(self) -> Arc<Vec<Value>> {
        match self {
            Rows::Shared(items) => items,
            Rows::Owned(items) => Arc::new(items),
            Rows::Runs(runs) => {
                let copies = runs.iter().flat_map(|(v, n)| (0..*n).map(move |_| v.clone()));
                Arc::new(copies.collect())
            }
        }
    }
}

fn rows_of(v: Value) -> ExecResult<Rows> {
    match v {
        Value::Obj(_) => Ok(Rows::Owned(vec![v])),
        Value::List(items) | Value::Set(items) | Value::Vector(items) => Ok(Rows::Shared(items)),
        Value::Bag(runs) => Ok(Rows::Runs(runs)),
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

/// "No row": the end of a bucket's chain, and a probe that found nothing.
const NONE: usize = usize::MAX;

/// A join's build side, materialized once per execution or once per
/// epoch: one value per right slot per row, laid out flat, and the rows of
/// each key chained in build order (`index` holds a key's first row,
/// `next[i]` the following row of the same key).
#[derive(Default)]
struct Table {
    rows: Arc<Vec<Value>>,
    next: Vec<usize>,
    index: KeyIndex,
    /// What the memo charges for keeping the table: the flat rows, each
    /// row's key values and two links. Values behind an `Arc` (records,
    /// strings) are shared with the heap and not counted.
    bytes: usize,
}

/// Build keys discriminated by kind. The typed buckets hold build sides
/// whose one key is uniformly of that kind; `Ordered` is the walk's own
/// `Value`-ordered map and takes everything else — composite keys, floats,
/// records, and any build side that mixes kinds (`Value::cmp` says
/// `1 = 1.0`, which no per-kind hash can honor across buckets).
#[derive(Default)]
enum KeyIndex {
    /// No keys: every build row matches (the cross product).
    #[default]
    All,
    Int(HashMap<i64, usize>),
    Str(HashMap<Arc<str>, usize>),
    Oid(HashMap<Oid, usize>),
    Ordered(BTreeMap<Vec<Value>, usize>),
}

/// Chain row `i` in front of its bucket. Rows are linked back to front, so
/// every chain ends up in ascending (build) order.
fn link(head: &mut usize, next: &mut [usize], i: usize) {
    next[i] = *head;
    *head = i;
}

/// The typed bucket of a build side whose keys are all of the kind `of`
/// accepts; `None` at the first key that is not.
fn typed<K: std::hash::Hash + Eq>(
    keys: &[Value],
    next: &mut [usize],
    of: impl Fn(&Value) -> Option<K>,
) -> Option<HashMap<K, usize>> {
    let mut map = HashMap::new();
    for (i, key) in keys.iter().enumerate().rev() {
        link(map.entry(of(key)?).or_insert(NONE), next, i);
    }
    Some(map)
}

impl Table {
    /// Index `n` build rows by `keys` (`arity` values per row, row-major).
    fn new(rows: Arc<Vec<Value>>, n: usize, arity: usize, keys: Vec<Value>) -> Table {
        let mut next = vec![NONE; n];
        let int = |k: &Value| if let Value::Int(k) = k { Some(*k) } else { None };
        let string = |k: &Value| if let Value::Str(k) = k { Some(k.clone()) } else { None };
        let oid = |k: &Value| if let Value::Obj(k) = k { Some(*k) } else { None };
        // A failed attempt leaves links behind; the next one rewrites
        // every row's.
        let index = if arity == 0 {
            let mut head = NONE;
            (0..n).rev().for_each(|i| link(&mut head, &mut next, i));
            KeyIndex::All
        } else if arity > 1 {
            Table::ordered(&keys, arity, &mut next)
        } else if let Some(map) = typed(&keys, &mut next, int) {
            KeyIndex::Int(map)
        } else if let Some(map) = typed(&keys, &mut next, string) {
            KeyIndex::Str(map)
        } else if let Some(map) = typed(&keys, &mut next, oid) {
            KeyIndex::Oid(map)
        } else {
            Table::ordered(&keys, 1, &mut next)
        };
        let bytes = std::mem::size_of::<Value>() * (rows.len() + keys.len() + 2 * n);
        Table { rows, next, index, bytes }
    }

    fn ordered(keys: &[Value], arity: usize, next: &mut [usize]) -> KeyIndex {
        let mut map = BTreeMap::new();
        for (i, key) in keys.chunks(arity).enumerate().rev() {
            link(map.entry(key.to_vec()).or_insert(NONE), next, i);
        }
        KeyIndex::Ordered(map)
    }

    /// The first build row matching the current left row, or [`NONE`].
    /// All left keys are evaluated before the lookup, like the walk.
    fn first_match(
        &self,
        keys: &[FusedExpr],
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        heap: &Heap,
    ) -> ExecResult<usize> {
        let hit = match &self.index {
            KeyIndex::All => return Ok(if self.next.is_empty() { NONE } else { 0 }),
            KeyIndex::Ordered(map) => {
                let key = keys
                    .iter()
                    .map(|k| k.eval(slots, frame, heap))
                    .collect::<ExecResult<Vec<_>>>()?;
                map.get(&key)
            }
            typed => match (typed, keys[0].eval_ref(slots, frame, heap)?.as_ref()) {
                (KeyIndex::Int(map), Value::Int(k)) => map.get(k),
                // `Value::cmp` meets an int key through its float image.
                (KeyIndex::Int(map), Value::Float(x)) => {
                    let k = *x as i64;
                    map.get(&k).filter(|_| (k as f64).total_cmp(x).is_eq())
                }
                (KeyIndex::Str(map), Value::Str(k)) => map.get(&**k),
                (KeyIndex::Oid(map), Value::Obj(k)) => map.get(k),
                // No other kind compares equal to these.
                _ => None,
            },
        };
        Ok(hit.copied().unwrap_or(NONE))
    }
}

/// What a fold needs besides its row: the heap and the execution's join
/// tables, both immutable while rows flow.
struct Cx<'a> {
    heap: &'a Heap,
    tables: &'a [Arc<Table>],
}

/// The fold's continuation `k`: where a chain's rows end up. Statically
/// dispatched, so the reduction and a join's build side share [`drive`]
/// without a per-row indirect call.
trait Sink {
    /// Consume the current row; `false` ends the fold.
    fn row(&mut self, slots: &[Value], frame: Option<&Frame<'_>>, heap: &Heap)
        -> ExecResult<bool>;
}

/// The reduction: evaluate the head, push it into the accumulator.
struct Reduce<'a> {
    head: &'a FusedExpr,
    acc: Accumulator,
}

impl Sink for Reduce<'_> {
    #[inline]
    fn row(
        &mut self,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        heap: &Heap,
    ) -> ExecResult<bool> {
        // A constant or bare-variable head (`count`, `select e`) needs no
        // trip through the expression interpreter.
        let h = match self.head {
            FusedExpr::Const(v) => v.clone(),
            FusedExpr::Slot(i) => slot_value(slots, frame, *i).clone(),
            other => other.eval(slots, frame, heap)?,
        };
        self.acc.push_unit(h)?;
        Ok(!self.acc.absorbed())
    }
}

/// A build side: append the value of each of `exprs` (a table's columns,
/// or its keys) to `out`.
struct Collect<'a> {
    exprs: &'a [FusedExpr],
    out: Vec<Value>,
}

impl Sink for Collect<'_> {
    fn row(
        &mut self,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        heap: &Heap,
    ) -> ExecResult<bool> {
        for e in self.exprs {
            self.out.push(e.eval(slots, frame, heap)?);
        }
        Ok(true)
    }
}

/// Run the stage chain for the current row buffer; `false` means the sink
/// is done (the accumulator absorbed) and the fold is over. Inlined into
/// every loop that produces rows, so a row that has run out of stages goes
/// straight to the sink.
#[inline(always)]
fn drive<K: Sink>(
    stages: &[Stage<'_>],
    cx: &Cx<'_>,
    slots: &mut [Value],
    frame: Option<&Frame<'_>>,
    k: &mut K,
) -> ExecResult<bool> {
    match stages.split_first() {
        None => k.row(slots, frame, cx.heap),
        Some((stage, rest)) => step(stage, rest, cx, slots, frame, k),
    }
}

/// One stage applied to the current row, then [`drive`] for the rest.
fn step<K: Sink>(
    stage: &Stage<'_>,
    rest: &[Stage<'_>],
    cx: &Cx<'_>,
    slots: &mut [Value],
    frame: Option<&Frame<'_>>,
    k: &mut K,
) -> ExecResult<bool> {
    match stage {
        Stage::Filter(pred) => {
            if pred.eval_ref(slots, frame, cx.heap)?.as_bool()? {
                drive(rest, cx, slots, frame, k)
            } else {
                Ok(true)
            }
        }
        Stage::Bind { slot, expr } => {
            let v = expr.eval(slots, frame, cx.heap)?;
            slots[*slot] = v;
            drive(rest, cx, slots, frame, k)
        }
        Stage::Unnest { slot, path } => {
            let rows = rows_of(path.eval(slots, frame, cx.heap)?)?;
            rows.each(|elem| {
                let f = Frame { slot: *slot, value: elem, parent: frame };
                drive(rest, cx, slots, Some(&f), k)
            })
        }
        Stage::Join { build, left_keys, right_slots } => {
            let table = &cx.tables[build.table];
            let mut i = table.first_match(left_keys, slots, frame, cx.heap)?;
            while i != NONE {
                let row = &table.rows[i * right_slots.len()..];
                if !bind_row(right_slots, row, rest, cx, slots, frame, k)? {
                    return Ok(false);
                }
                i = table.next[i];
            }
            Ok(true)
        }
    }
}

/// Bind `right_slots` to the leading values of `row` — borrowed frames,
/// nothing cloned — then drive `rest`.
fn bind_row<K: Sink>(
    right_slots: &[usize],
    row: &[Value],
    rest: &[Stage<'_>],
    cx: &Cx<'_>,
    slots: &mut [Value],
    frame: Option<&Frame<'_>>,
    k: &mut K,
) -> ExecResult<bool> {
    match right_slots.split_first() {
        None => drive(rest, cx, slots, frame, k),
        Some((slot, more)) => {
            let f = Frame { slot: *slot, value: &row[0], parent: frame };
            bind_row(more, &row[1..], rest, cx, slots, Some(&f), k)
        }
    }
}

/// One execution's mutable state: the evaluator (for scan sources and
/// keys, evaluated once each), the row buffer, the join tables built or
/// found so far, and the snapshot's memo, when the run has a snapshot.
struct Run<'a> {
    ev: &'a mut Evaluator,
    env: &'a Env,
    slots: Vec<Value>,
    tables: Vec<Arc<Table>>,
    memo: Option<&'a Memo>,
    /// A keyed filter's table failed to build: the run's error is not
    /// necessarily the walk's, so the walk runs instead.
    declined: bool,
}

impl Run<'_> {
    /// Build the table of every join on `chain` — outermost first, the
    /// order the walk reaches them — then evaluate the chain's scan
    /// source. The source is one expression evaluated once per execution;
    /// the evaluator runs it so parameters, closures, and error reporting
    /// stay exactly as the plan walk has them.
    fn open(&mut self, chain: &Chain<'_>) -> ExecResult<Rows> {
        for stage in chain.stages.iter().rev() {
            if let Stage::Join { build, right_slots, .. } = stage {
                let table = self.table(build, right_slots);
                // A keyed filter's build reads its key on every row, where
                // the walk's filter may stop (or fail) before a bad one.
                self.declined |= table.is_err() && chain.source == Source::Probe(build.table);
                self.tables[build.table] = table?;
            }
        }
        match chain.source {
            Source::Each(source) => rows_of(self.ev.eval(self.env, source)?),
            Source::Probe(table) => {
                let rows = usize::from(!self.tables[table].next.is_empty());
                Ok(Rows::Owned(vec![Value::Null; rows]))
            }
        }
    }

    /// Push every row of an opened chain through its stages into `k`.
    fn feed<K: Sink>(&mut self, chain: &Chain<'_>, rows: Rows, k: &mut K) -> ExecResult<()> {
        let cx = Cx { heap: &self.ev.heap, tables: &self.tables };
        rows.each(|elem| {
            let f = Frame { slot: chain.slot, value: elem, parent: None };
            drive(&chain.stages, &cx, &mut self.slots, Some(&f), k)
        })?;
        Ok(())
    }

    /// A join's table: the memo's, when the build reads no `$param` and
    /// already ran at this epoch; otherwise built here — and offered to
    /// the memo when it reads no `$param`.
    fn table(&mut self, build: &Build<'_>, right_slots: &[usize]) -> ExecResult<Arc<Table>> {
        let Some((memo, (right, keys))) = self.memo.zip(build.memo.as_ref()) else {
            return self.build(build, right_slots).map(Arc::new);
        };
        let hit = memo.get(|k: &TableKey| k.is(right, keys)).and_then(|t| t.downcast().ok());
        if let Some(table) = hit {
            return Ok(table);
        }
        let table = Arc::new(self.build(build, right_slots)?);
        let key =
            TableKey { right: (*right).clone(), keys: keys.iter().map(|&k| k.clone()).collect() };
        memo.insert(key, table.clone(), table.bytes);
        Ok(table)
    }

    /// Materialize a join's right side: all of its rows first, then all of
    /// their keys, as the walk does.
    fn build(&mut self, build: &Build<'_>, right_slots: &[usize]) -> ExecResult<Table> {
        let stride = right_slots.len();
        let rows = match self.open(&build.chain)? {
            // A bare scan's rows *are* the table's one column (a list or
            // set source lends its own `Arc`).
            rows if build.chain.stages.is_empty() => rows.into_shared(),
            opened => {
                let columns: Vec<_> = right_slots.iter().map(|s| FusedExpr::Slot(*s)).collect();
                let mut k = Collect { exprs: &columns, out: Vec::new() };
                self.feed(&build.chain, opened, &mut k)?;
                Arc::new(k.out)
            }
        };
        let n = rows.len() / stride;
        let mut k = Collect { exprs: &build.keys, out: Vec::with_capacity(n * build.keys.len()) };
        if !build.keys.is_empty() {
            let cx = Cx { heap: &self.ev.heap, tables: &[] };
            for row in rows.chunks(stride) {
                bind_row(right_slots, row, &[], &cx, &mut self.slots, None, &mut k)?;
            }
        }
        Ok(Table::new(rows, n, build.keys.len(), k.out))
    }
}

/// Try the fused engine for a full sequential reduction. `Ok(None)` means
/// the query is outside the fusible subset (or a global failed to
/// resolve, or a keyed filter's table failed to build) and the caller
/// should run the plan walk instead. `memo` is the
/// memo of the snapshot `env` and `ev`'s heap were taken from; `env` binds
/// that snapshot's roots and, under `$`-prefixed names, the parameters.
pub(crate) fn try_run_reduce(
    query: &Query,
    ev: &mut Evaluator,
    env: &Env,
    memo: Option<&Memo>,
) -> ExecResult<Option<Value>> {
    let Ok(fq) = compile(query) else {
        return Ok(None);
    };
    let Some(slots) = fq.resolve_globals(env) else {
        return Ok(None);
    };
    let mut k = Reduce { head: &fq.head, acc: Accumulator::new(fq.monoid)? };
    let tables = std::iter::repeat_with(Arc::default).take(fq.n_tables).collect();
    let mut run = Run { ev, env, slots, tables, memo, declined: false };
    // Every table is built before the first row reaches the sink, so
    // nothing of this run is observable when it declines.
    let opened = match run.open(&fq.chain) {
        Err(_) if run.declined => return Ok(None),
        opened => opened?,
    };
    run.feed(&fq.chain, opened, &mut k)?;
    Ok(Some(k.acc.finish()?))
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

    /// `sum{ 1 | a ← Hotels, b ← Cities, a.name = b.name }`.
    fn keyed_join() -> Query {
        plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Hotels")),
                Expr::gen("b", Expr::var("Cities")),
                Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("name"))),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn joins_fuse_into_one_stage_with_a_build_chain_of_their_own() {
        let q = keyed_join();
        assert_eq!(engine_of(&q), Engine::Fused, "{:?}", refusal(&q));
        let fq = compile(&q).unwrap();
        let [Stage::Join { build, left_keys, right_slots }] = fq.chain.stages.as_slice() else {
            panic!("{:?}", fq.chain.stages);
        };
        // Shared slot numbering: `a` is slot 0, `b` slot 1, and no extent
        // is a global — sources are evaluated, not compiled.
        assert_eq!((fq.chain.slot, build.chain.slot), (0, 1));
        assert_eq!((right_slots.as_slice(), left_keys.len(), build.keys.len()), (&[1][..], 1, 1));
        assert_eq!((fq.n_slots, fq.n_tables, fq.globals.len()), (2, 1, 0));
    }

    #[test]
    fn only_a_param_free_key_over_a_bare_scan_compiles_to_a_probe() {
        let (h, name) = (|| Expr::var("h"), || Expr::var("h").proj("name"));
        let filtered = |source: Expr, pred: Expr| Query {
            plan: Plan::Filter {
                input: Box::new(Plan::Scan { var: "h".into(), source }),
                pred,
            },
            monoid: Monoid::Some,
            head: Expr::bool(true),
            plan_effects: Default::default(),
        };
        let hotels = || Expr::var("Hotels");
        let probes =
            [name().eq(Expr::param("$n")), Expr::str("x").eq(name()), name().eq(Expr::var("g"))];
        for pred in probes {
            let q = filtered(hotels(), pred);
            let fq = compile(&q).unwrap();
            let [Stage::Join { build, left_keys, right_slots }] = fq.chain.stages.as_slice() else {
                panic!("{:?}", fq.chain.stages);
            };
            assert_eq!(fq.chain.source, Source::Probe(build.table));
            assert!(build.chain.stages.is_empty() && build.memo.is_some());
            assert_eq!((left_keys.len(), right_slots.as_slice()), (1, &[build.chain.slot][..]));
        }
        // The key reads a param or another variable, the probe reads `h`,
        // the source reads a param, or the filter is not an equality: a
        // plain filter.
        for (source, pred) in [
            (hotels(), name().add(Expr::param("$s")).eq(Expr::str("x"))),
            (hotels(), name().add(Expr::var("g")).eq(Expr::str("x"))),
            (hotels(), name().eq(h().proj("address"))),
            (Expr::param("$hotels"), name().eq(Expr::str("x"))),
            (hotels(), name().ne(Expr::str("x"))),
        ] {
            let q = filtered(source.clone(), pred.clone());
            let fq = compile(&q).unwrap();
            assert!(
                matches!(fq.chain.stages.as_slice(), [Stage::Filter(_)]),
                "{source:?} / {pred:?}: {:?}",
                fq.chain.stages
            );
        }
    }

    #[test]
    fn typed_buckets_chain_rows_in_build_order_and_meet_across_int_and_float() {
        let rows = |n: i64| Arc::new((0..n).map(Value::Int).collect::<Vec<_>>());
        let probe = |t: &Table, key: Value| {
            let mut hits = Vec::new();
            let mut i = t.first_match(&[FusedExpr::Const(key)], &[], None, &Heap::new()).unwrap();
            while i != NONE {
                hits.push(i);
                i = t.next[i];
            }
            hits
        };
        let ints = Table::new(rows(4), 4, 1, [7, 8, 7, 7].map(Value::Int).to_vec());
        assert!(matches!(ints.index, KeyIndex::Int(_)));
        assert_eq!(probe(&ints, Value::Int(7)), [0, 2, 3]);
        assert_eq!(probe(&ints, Value::Float(8.0)), [1], "1 = 1.0 from the probe side");
        assert!(probe(&ints, Value::Float(7.5)).is_empty());
        assert!(probe(&ints, Value::Float(-0.0)).is_empty() && probe(&ints, Value::Null).is_empty());

        // A build side mixing ints and floats leaves the typed buckets.
        let mixed = Table::new(rows(3), 3, 1, vec![Value::Int(1), Value::Float(1.0), Value::Int(2)]);
        assert!(matches!(mixed.index, KeyIndex::Ordered(_)));
        assert_eq!(probe(&mixed, Value::Int(1)), [0, 1]);
        assert_eq!(probe(&mixed, Value::Float(2.0)), [2]);

        let strs = Table::new(rows(3), 3, 1, ["x", "y", "x"].map(Value::str).to_vec());
        assert!(matches!(strs.index, KeyIndex::Str(_)));
        assert_eq!(probe(&strs, Value::str("x")), [0, 2]);
        assert!(probe(&strs, Value::Int(0)).is_empty());

        // No keys: one bucket holding every row.
        let all = Table::new(rows(3), 3, 0, Vec::new());
        assert_eq!(probe(&all, Value::Null), [0, 1, 2]);
        assert!(probe(&Table::new(rows(0), 0, 0, Vec::new()), Value::Null).is_empty());
    }

    #[test]
    fn refusals_name_the_construct() {
        // A join fuses; one whose key or right side leaves the expression
        // subset is refused at that sub-expression.
        let nested = Expr::comp(Monoid::Some, Expr::bool(true), vec![]);
        let mut nested_key = keyed_join();
        let Plan::Join { on, .. } = &mut nested_key.plan else { panic!() };
        on[0].1 = nested.clone();
        let r = refusal(&nested_key).expect("a nested comprehension is outside the subset");
        assert!(r.reason.contains("a join key uses a nested comprehension"), "{r:?}");
        assert_eq!((r.expr, r.var), (Some(nested.clone()), Some(Symbol::new("b"))));
        let lambda = Expr::lambda("x", Expr::var("x"));
        let Plan::Join { right, .. } = &mut nested_key.plan else { panic!() };
        **right = Plan::Filter { input: right.clone(), pred: lambda.clone() };
        let r = refusal(&nested_key).expect("the right side is compiled first");
        assert!(r.reason.contains("a predicate uses a lambda"), "{r:?}");
        assert_eq!(r.expr, Some(lambda));

        // The offending sub-expression comes back whole, so a front end
        // can look its source position up.
        let mut lambda_head = scan_chain();
        lambda_head.head = Expr::lambda("x", Expr::var("x"));
        let r = refusal(&lambda_head).expect("a lambda is outside the subset");
        assert!(r.reason.contains("the head uses a lambda"), "{r:?}");
        assert_eq!(r.expr, Some(lambda_head.head.clone()));

        let mut nested_pred = scan_chain();
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
        let v = try_run_reduce(&q, &mut ev, &env, None).unwrap().expect("fusible");
        assert_eq!(v, Value::Int(32));
    }

    #[test]
    fn a_right_variable_shadows_the_left_one_above_the_join_only() {
        // list{ x.v | x ← Ls, x ← Rs, x.k = x.k }: the left key reads the
        // left `x`, the right key and the head the right one. (Plan
        // verification refuses the rebinding, so this goes straight to the
        // fold.)
        let x = || Expr::var("x");
        let mut q = keyed_join();
        q.monoid = Monoid::List;
        q.head = x().proj("v");
        q.plan = Plan::Join {
            left: Box::new(Plan::Scan { var: "x".into(), source: Expr::var("Ls") }),
            right: Box::new(Plan::Scan { var: "x".into(), source: Expr::var("Rs") }),
            on: vec![(x().proj("k"), x().proj("k"))],
        };
        let row = |k: i64, v: &str| {
            Value::record_from(vec![("k", Value::Int(k)), ("v", Value::str(v))])
        };
        let env = Env::empty()
            .bind("Ls".into(), Value::list(vec![row(1, "left")]))
            .bind("Rs".into(), Value::list(vec![row(2, "other"), row(1, "right")]));
        let mut ev = Evaluator::with_heap(Heap::new());
        let v = try_run_reduce(&q, &mut ev, &env, None).unwrap().expect("fusible");
        assert_eq!(v, Value::list(vec![Value::str("right")]));
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
