//! The judgement *which plans fuse, and into what*: [`compile`] turns a
//! query into flat stage lists over a slot-addressed row buffer, or
//! refuses it with the construct that stopped it. It is the one place
//! that decides which engine runs, and the only code that looks at a
//! plan's shape. Per-row expressions leave here already resolved to a
//! [`Kernel`]: a compare or an operand when canonical forms make them one,
//! a [`FusedExpr`] tree otherwise.

use super::Refusal;
use monoid_calculus::analysis::effects_of;
use monoid_calculus::expr::{BinOp, Expr, Literal, UnOp};
use monoid_calculus::monoid::Monoid;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::Value;
use crate::logical::{Plan, Query};

/// An expression compiled against the slot-addressed row buffer: variable
/// lookups become array indexing, and everything else mirrors the
/// evaluator's value-level semantics via the shared free functions.
#[derive(Debug, Clone)]
pub(super) enum FusedExpr {
    Const(Value),
    Slot(usize),
    /// A record whose labels are sorted here, once, the way
    /// `Value::record` sorts them: `fields` stay in source order — the
    /// evaluator's, so the first failing field is its first — each with
    /// its position among `labels`.
    Record { labels: Vec<Symbol>, fields: Vec<(usize, FusedExpr)> },
    Tuple(Vec<FusedExpr>),
    Proj(Box<FusedExpr>, Symbol),
    TupleProj(Box<FusedExpr>, usize),
    Bin(BinOp, Box<FusedExpr>, Box<FusedExpr>),
    Un(UnOp, Box<FusedExpr>),
    If(Box<FusedExpr>, Box<FusedExpr>, Box<FusedExpr>),
    Deref(Box<FusedExpr>),
}

impl FusedExpr {
    /// Whether evaluating the expression reads any of `slots`.
    pub(super) fn reads(&self, slots: &[usize]) -> bool {
        match self {
            FusedExpr::Const(_) => false,
            FusedExpr::Slot(i) => slots.contains(i),
            FusedExpr::Record { fields, .. } => fields.iter().any(|(_, f)| f.reads(slots)),
            FusedExpr::Tuple(items) => items.iter().any(|i| i.reads(slots)),
            FusedExpr::Proj(e, _)
            | FusedExpr::TupleProj(e, _)
            | FusedExpr::Un(_, e)
            | FusedExpr::Deref(e) => e.reads(slots),
            FusedExpr::Bin(_, a, b) => a.reads(slots) || b.reads(slots),
            FusedExpr::If(c, t, e) => c.reads(slots) || t.reads(slots) || e.reads(slots),
        }
    }
}

/// A per-row expression, resolved once to the shape it has when it is
/// one of the two that canonical forms are made of — generators over
/// paths, predicates `path op value` — so most filters are a compare and
/// most heads an operand, and neither enters the tree interpreter. A
/// kernel reads and fails exactly as its tree would: a field is
/// `eval::project_ref`, a compare `binop_values`' `Value::cmp`.
#[derive(Debug)]
pub(super) enum Kernel {
    Operand(Operand),
    Compare(Compare),
    Tree(FusedExpr),
}

/// A value read by borrowing: a constant, a slot, or one field of a slot
/// (through the heap when the slot holds an object).
#[derive(Debug)]
pub(super) enum Operand {
    Const(Value),
    Slot(usize),
    Field(usize, Symbol),
}

/// `lhs op rhs` for a comparison operator: one `Value::cmp`, then
/// `holds[ordering + 1]` — whether `op` holds when `lhs` is less than,
/// equal to, or greater than `rhs`.
#[derive(Debug)]
pub(super) struct Compare {
    pub(super) lhs: Operand,
    pub(super) rhs: Operand,
    pub(super) holds: [bool; 3],
}

impl Kernel {
    /// Resolve a compiled expression's shape: a few pattern matches,
    /// since compilation runs on every execution.
    fn of(tree: FusedExpr) -> Kernel {
        if let FusedExpr::Bin(op, a, b) = &tree {
            let holds = match op {
                BinOp::Eq => Some([false, true, false]),
                BinOp::Ne => Some([true, false, true]),
                BinOp::Lt => Some([true, false, false]),
                BinOp::Le => Some([true, true, false]),
                BinOp::Gt => Some([false, false, true]),
                BinOp::Ge => Some([false, true, true]),
                _ => None,
            };
            if let (Some(holds), Some(lhs), Some(rhs)) = (holds, Operand::of(a), Operand::of(b)) {
                return Kernel::Compare(Compare { lhs, rhs, holds });
            }
        }
        match Operand::of(&tree) {
            Some(o) => Kernel::Operand(o),
            None => Kernel::Tree(tree),
        }
    }
}

impl Operand {
    fn of(e: &FusedExpr) -> Option<Operand> {
        match e {
            FusedExpr::Const(v) => Some(Operand::Const(v.clone())),
            FusedExpr::Slot(i) => Some(Operand::Slot(*i)),
            FusedExpr::Proj(inner, field) => match **inner {
                FusedExpr::Slot(i) => Some(Operand::Field(i, *field)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One non-root operator of a fused chain, in execution (bottom-up)
/// order.
#[derive(Debug)]
pub(super) enum Stage<'q> {
    Filter(Kernel),
    Bind { slot: usize, expr: Kernel },
    Unnest { slot: usize, path: Kernel },
    /// Probe `build`'s table with `left_keys`; every match binds
    /// `right_slots` — the build side's variables, one table column
    /// each — and continues up the chain.
    Join { build: Build<'q>, left_keys: Vec<FusedExpr>, right_slots: Vec<usize> },
}

/// A scan — each row of `source` bound to `slot` — and the stages its
/// rows run through.
#[derive(Debug)]
pub(super) struct Chain<'q> {
    pub(super) slot: usize,
    pub(super) source: Source<'q>,
    pub(super) stages: Vec<Stage<'q>>,
    /// The multiplicity rule: the chain's trailing generator — its last
    /// stage when that is a join or an unnest, its scan when it has no
    /// stages — hands the sink how many rows it has instead of the rows,
    /// because nothing the sink reads tells them apart. Only a reduction's
    /// chain sets it.
    pub(super) counted: bool,
}

/// Where a chain's rows come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Source<'q> {
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
pub(super) struct Build<'q> {
    pub(super) chain: Chain<'q>,
    pub(super) keys: Vec<FusedExpr>,
    pub(super) table: usize,
    /// The right sub-plan and its key expressions, when the build reads
    /// no `$param`: what the snapshot's memo keeps its table under.
    pub(super) memo: Option<(&'q Plan, Vec<&'q Expr>)>,
}

/// A fully compiled fused pipeline, borrowing the plan's expressions.
#[derive(Debug)]
pub(super) struct FusedQuery<'q> {
    pub(super) chain: Chain<'q>,
    pub(super) head: Kernel,
    pub(super) monoid: &'q Monoid,
    pub(super) n_slots: usize,
    pub(super) n_tables: usize,
    /// `(slot, name)` pairs to fill from the root environment at setup —
    /// parameters and any other free variable of the compiled expressions.
    pub(super) globals: Vec<(usize, Symbol)>,
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
            Expr::Record(fields) => {
                // A stable sort by name, as `Value::record` sorts.
                let mut order: Vec<usize> = (0..fields.len()).collect();
                order.sort_by(|&a, &b| fields[a].0.as_str().cmp(fields[b].0.as_str()));
                let mut at = vec![0; fields.len()];
                for (pos, &field) in order.iter().enumerate() {
                    at[field] = pos;
                }
                FusedExpr::Record {
                    labels: order.iter().map(|&field| fields[field].0).collect(),
                    fields: fields
                        .iter()
                        .zip(at)
                        .map(|((_, fe), pos)| Ok((pos, self.compile_expr(fe)?)))
                        .collect::<Result<Vec<_>, _>>()?,
                }
            }
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
                let source = Source::Each(source);
                return Ok(Chain { slot, source, stages: Vec::new(), counted: false });
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
                    (_, pred) => (input, Stage::Filter(Kernel::of(pred))),
                }
            }
            Plan::Bind { input, var, expr } => {
                let input = self.chain(input)?;
                // Compile before binding: the expression sees the *outer*
                // binding of `var`, exactly like the plan walk.
                let expr = self.compile_expr(expr).map_err(|off| {
                    outside(format_args!("the binding `{var} ≡ …`"), Some(*var), off)
                })?;
                (input, Stage::Bind { slot: self.bind(*var), expr: Kernel::of(expr) })
            }
            Plan::Unnest { input, var, path } => {
                let input = self.chain(input)?;
                let path = self.compile_expr(path).map_err(|off| {
                    outside(format_args!("the path of generator `{var}`"), Some(*var), off)
                })?;
                (input, Stage::Unnest { slot: self.bind(*var), path: Kernel::of(path) })
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
        Chain { slot, source: Source::Probe(table), stages: vec![stage], counted: false }
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
pub(super) fn compile(query: &Query) -> Result<FusedQuery<'_>, Refusal> {
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
    let mut chain = c.chain(plan)?;
    let head = c.compile_expr(head).map_err(|off| outside("the head", None, off))?;
    // Folding `n` equal heads is the monoid's `n`-fold power of one: when
    // the head reads none of the trailing generator's slots, its rows
    // differ in nothing the reduction sees.
    chain.counted = match chain.stages.last() {
        None => !head.reads(&[chain.slot]),
        Some(Stage::Unnest { slot, .. }) => !head.reads(&[*slot]),
        Some(Stage::Join { right_slots, .. }) => !head.reads(right_slots),
        Some(Stage::Filter(_) | Stage::Bind { .. }) => false,
    };
    Ok(FusedQuery {
        chain,
        head: Kernel::of(head),
        monoid,
        n_slots: c.n_slots,
        n_tables: c.n_tables,
        globals: c.globals,
    })
}
