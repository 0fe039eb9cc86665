//! The judgement *what a plan fuses into*: [`compile`] turns every
//! pure query into flat stage lists over a slot-addressed row buffer. It
//! is the only code that looks at a plan's shape. Per-row expressions
//! leave here already resolved to a [`Kernel`]: a compare or an operand
//! when canonical forms make them one, a [`FusedExpr`] tree otherwise —
//! whose leaves outside the compiled subset are handed to the evaluator
//! in place.

use super::table::TableKey;
use monoid_calculus::expr::{BinOp, Expr, Literal, UnOp};
use monoid_calculus::monoid::Monoid;
use monoid_calculus::subst::free_vars;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::Value;
use crate::logical::Plan;
use std::sync::Arc;

/// An expression compiled against the slot-addressed row buffer: variable
/// lookups become array indexing, and everything else mirrors the
/// evaluator's value-level semantics via the shared free functions.
#[derive(Debug, Clone, PartialEq)]
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
    /// A form outside the compiled subset — a lambda, a nested
    /// comprehension, `let`, a collection literal, … — or a root, run by
    /// the walk's evaluator over the run's root environment with `free`,
    /// the chain variables it reads, bound on top. Roots get no slot: the
    /// evaluator reads them where the walk does, and fails as it does when
    /// one is unbound.
    Eval { expr: Expr, free: Vec<(Symbol, usize)> },
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
            FusedExpr::Eval { free, .. } => free.iter().any(|(_, s)| slots.contains(s)),
        }
    }
}

/// A per-row expression, resolved once to the shape it has when it is
/// one of the two that canonical forms are made of — generators over
/// paths, predicates `path op value` — so most filters are a compare and
/// most heads an operand, and neither enters the tree interpreter. A
/// kernel reads and fails exactly as its tree would: a field is
/// `eval::project_ref`, a compare `binop_values`' `Value::cmp`.
#[derive(Debug, PartialEq)]
pub(super) enum Kernel {
    Operand(Operand),
    Compare(Compare),
    Tree(FusedExpr),
}

/// A value read by borrowing: a constant, a slot, or one field of a slot
/// (through the heap when the slot holds an object).
#[derive(Debug, PartialEq)]
pub(super) enum Operand {
    Const(Value),
    Slot(usize),
    Field(usize, Symbol),
}

/// `lhs op rhs` for a comparison operator: one `Value::cmp`, then
/// `holds[ordering + 1]` — whether `op` holds when `lhs` is less than,
/// equal to, or greater than `rhs`.
#[derive(Debug, PartialEq)]
pub(super) struct Compare {
    pub(super) lhs: Operand,
    pub(super) rhs: Operand,
    pub(super) holds: [bool; 3],
}

impl Kernel {
    /// Resolve a compiled expression's shape.
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
/// order. `op` is the plan operator's pre-order index ([`Plan::walk`]'s),
/// what a probe counts the stage's rows and time under.
#[derive(Debug, PartialEq)]
pub(super) enum Stage {
    Filter { op: usize, pred: Kernel },
    Bind { op: usize, slot: usize, expr: Kernel },
    Unnest { op: usize, slot: usize, path: Kernel },
    /// Probe `build`'s table with `left_keys`; every match binds
    /// `right_slots` — the build side's variables, one table column
    /// each — and continues up the chain.
    Join { op: usize, build: Build, left_keys: Vec<FusedExpr>, right_slots: Vec<usize> },
}

/// A scan — each row of `source` bound to `slot` — and the stages its
/// rows run through.
#[derive(Debug, PartialEq)]
pub(super) struct Chain {
    pub(super) slot: usize,
    pub(super) source: Source,
    pub(super) stages: Vec<Stage>,
    /// The multiplicity rule: the chain's trailing generator — its last
    /// stage when that is a join or an unnest, its scan when it has no
    /// stages — hands the sink how many rows it has instead of the rows,
    /// because nothing the sink reads tells them apart. Only a reduction's
    /// chain sets it.
    pub(super) counted: bool,
}

/// Where a chain's rows come from.
#[derive(Debug, PartialEq)]
pub(super) enum Source {
    /// Each element of a generator source, evaluated once per execution:
    /// the rows of the scan operator `.0`.
    Each(usize, Expr),
    /// A keyed filter's one probe row, which the chain's first stage joins
    /// with `table`. There is no row when that table is empty, so the
    /// probe is evaluated exactly when the walk's filter would read it.
    /// `plain` is the filter the probe stands for: when the table fails to
    /// build, the scan's rows run through it instead.
    Probe { table: usize, plain: Box<Stage> },
}

/// A join's right side: the chain that produces the build rows, the key
/// expressions over them, and which of the execution's tables it fills.
#[derive(Debug, PartialEq)]
pub(super) struct Build {
    pub(super) chain: Chain,
    pub(super) keys: Vec<FusedExpr>,
    pub(super) table: usize,
    /// What the snapshot's memo keeps the table under, when the build
    /// reads no `$param`.
    pub(super) memo: Option<Arc<TableKey>>,
}

/// A fully compiled fused pipeline: what a planned [`crate::Query`]
/// holds, compiled once, and every execution runs.
#[derive(Debug, PartialEq)]
pub(crate) struct FusedQuery {
    pub(super) chain: Chain,
    pub(super) head: Kernel,
    pub(super) monoid: Monoid,
    pub(super) n_slots: usize,
    pub(super) n_tables: usize,
    /// `(slot, $param)` pairs to fill from the root environment at setup:
    /// the parameters the compiled expressions read.
    pub(super) globals: Vec<(usize, Symbol)>,
    /// Every `$param` the query reads, once each, scan sources and
    /// evaluated leaves included: what a run must bind.
    pub(crate) params: Vec<Symbol>,
}

#[derive(Default)]
struct Compiler {
    /// Chain-variable scope at the current compilation point; later
    /// entries shadow earlier ones, mirroring `Env` lookup order.
    scope: Vec<(Symbol, usize)>,
    n_slots: usize,
    n_tables: usize,
    globals: Vec<(usize, Symbol)>,
    /// Every `$param` leaf met so far, scan sources included.
    params: Vec<Symbol>,
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

    /// The (deduplicated) global slot of `$param` `p`.
    fn param_slot(&mut self, p: Symbol) -> usize {
        self.params.push(p);
        if let Some((slot, _)) = self.globals.iter().find(|(_, v)| *v == p) {
            return *slot;
        }
        let slot = self.n_slots;
        self.n_slots += 1;
        self.globals.push((slot, p));
        slot
    }

    /// Note the `$param` leaves of `e`.
    fn note_params(&mut self, e: &Expr) {
        e.visit(&mut |e| {
            if let Expr::Param(p) = e {
                self.params.push(*p);
            }
        });
    }

    fn compile_expr(&mut self, e: &Expr) -> FusedExpr {
        match e {
            Expr::Lit(lit) => FusedExpr::Const(match lit {
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(x) => Value::Float(*x),
                Literal::Str(s) => Value::Str(s.clone()),
                Literal::Null => Value::Null,
            }),
            // Innermost chain binding first, as `Env` looks up; a root is
            // the evaluator's to read.
            Expr::Var(v) => match self.scope.iter().rev().find(|(s, _)| s == v) {
                Some((_, slot)) => FusedExpr::Slot(*slot),
                None => FusedExpr::Eval { expr: e.clone(), free: Vec::new() },
            },
            Expr::Param(p) => FusedExpr::Slot(self.param_slot(*p)),
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
                        .map(|((_, fe), pos)| (pos, self.compile_expr(fe)))
                        .collect(),
                }
            }
            Expr::Tuple(items) => {
                FusedExpr::Tuple(items.iter().map(|i| self.compile_expr(i)).collect())
            }
            Expr::Proj(inner, field) => FusedExpr::Proj(Box::new(self.compile_expr(inner)), *field),
            Expr::TupleProj(inner, idx) => {
                FusedExpr::TupleProj(Box::new(self.compile_expr(inner)), *idx)
            }
            Expr::BinOp(op, lhs, rhs) => FusedExpr::Bin(
                *op,
                Box::new(self.compile_expr(lhs)),
                Box::new(self.compile_expr(rhs)),
            ),
            Expr::UnOp(op, inner) => FusedExpr::Un(*op, Box::new(self.compile_expr(inner))),
            Expr::If(cond, then, els) => FusedExpr::If(
                Box::new(self.compile_expr(cond)),
                Box::new(self.compile_expr(then)),
                Box::new(self.compile_expr(els)),
            ),
            Expr::Deref(inner) => FusedExpr::Deref(Box::new(self.compile_expr(inner))),
            // Anything else goes to the evaluator as it stands. Its
            // `$param`s count, so a build side reading one is never kept.
            other => {
                self.note_params(other);
                let mut free: Vec<_> = free_vars(other)
                    .into_iter()
                    .filter_map(|v| self.scope.iter().rev().find(|(s, _)| *s == v).copied())
                    .collect();
                free.sort_by_key(|(_, slot)| *slot);
                FusedExpr::Eval { expr: other.clone(), free }
            }
        }
    }

    /// Compile `plan`, operator `op` in pre-order, into a chain, leaving
    /// its variables in scope. The only function that inspects a plan's
    /// shape: teaching the fold a new operator means adding a [`Stage`]
    /// here.
    fn chain(&mut self, plan: &Plan, op: usize) -> Chain {
        let (input, stage) = match plan {
            Plan::Scan { var, source } => {
                // The evaluator runs the source, but its `$param`s count.
                self.note_params(source);
                let slot = self.bind(*var);
                let source = Source::Each(op, source.clone());
                return Chain { slot, source, stages: Vec::new(), counted: false };
            }
            Plan::Filter { input: below, pred: p } => {
                let input = self.chain(below, op + 1);
                let pred = self.compile_expr(p);
                let filter = Stage::Filter { op, pred: Kernel::of(pred.clone()) };
                match (probe_key(below, p), pred) {
                    (Some((key, key_first)), FusedExpr::Bin(_, a, b)) => {
                        let probe = if key_first { (*a, *b) } else { (*b, *a) };
                        return self.keyed(op, input, (&**below, key), probe, filter);
                    }
                    _ => (input, filter),
                }
            }
            Plan::Bind { input, var, expr } => {
                let input = self.chain(input, op + 1);
                // Compile before binding: the expression sees the *outer*
                // binding of `var`, exactly like the plan walk.
                let expr = Kernel::of(self.compile_expr(expr));
                (input, Stage::Bind { op, slot: self.bind(*var), expr })
            }
            Plan::Unnest { input, var, path } => {
                let input = self.chain(input, op + 1);
                let path = Kernel::of(self.compile_expr(path));
                (input, Stage::Unnest { op, slot: self.bind(*var), path })
            }
            Plan::Join { left, right, on } => {
                let input = self.chain(left, op + 1);
                let left_keys = on.iter().map(|(l, _)| self.compile_expr(l)).collect();
                // The right side is independent of the left: it compiles
                // (and its keys resolve) with only its own variables in
                // scope, as the walk runs it against the root environment.
                let left_scope = std::mem::take(&mut self.scope);
                let params = self.params.len();
                let chain = self.chain(right, op + 1 + left.node_count());
                let keys = on.iter().map(|(_, r)| self.compile_expr(r)).collect();
                let memo = (self.params.len() == params).then(|| {
                    let keys = on.iter().map(|(_, r)| r.clone()).collect();
                    Arc::new(TableKey { right: (**right).clone(), keys })
                });
                let right_scope = std::mem::replace(&mut self.scope, left_scope);
                // A joined row is the left row with the right side's
                // variables bound on top, in binding order.
                let right_slots = right_scope.iter().map(|(_, slot)| *slot).collect();
                self.scope.extend(right_scope);
                let build = Build { chain, keys, table: self.n_tables, memo };
                self.n_tables += 1;
                (input, Stage::Join { op, build, left_keys, right_slots })
            }
        };
        let mut chain = input;
        chain.stages.push(stage);
        chain
    }

    /// A keyed filter, operator `op`, as a join: a one-row chain whose
    /// only stage probes the table of `scan` — the bare scan the filter
    /// ran over, `k` its compiled key — with `probe`, and which keeps
    /// `plain`, the filter it stands for. The table reads no `$param`, so
    /// the memo keeps it under the scan's plan and `key`, like a join's.
    fn keyed(
        &mut self,
        op: usize,
        scan: Chain,
        (right, key): (&Plan, &Expr),
        (k, probe): (FusedExpr, FusedExpr),
        plain: Stage,
    ) -> Chain {
        let table = self.n_tables;
        self.n_tables += 1;
        let right_slots = vec![scan.slot];
        let memo = Some(Arc::new(TableKey { right: right.clone(), keys: vec![key.clone()] }));
        let build = Build { chain: scan, keys: vec![k], table, memo };
        // The probe row binds a slot nothing reads.
        let slot = self.n_slots;
        self.n_slots += 1;
        let stage = Stage::Join { op, build, left_keys: vec![probe], right_slots };
        let source = Source::Probe { table, plain: Box::new(plain) };
        Chain { slot, source, stages: vec![stage], counted: false }
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
    // Whether `e` reads `x`, another variable, a `$param`. Every `Var` in
    // `pred` counts as a read, also one an inner comprehension binds: that
    // over-approximation can only keep a filter plain, never make a wrong
    // probe.
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

/// Compile `monoid{ head | plan }` into a fused pipeline. Runs once per
/// query, when it is planned.
pub(crate) fn compile(plan: &Plan, monoid: &Monoid, head: &Expr) -> FusedQuery {
    let mut c = Compiler::default();
    let mut chain = c.chain(plan, 0);
    let head = c.compile_expr(head);
    // Folding `n` equal heads is the monoid's `n`-fold power of one: when
    // the head reads none of the trailing generator's slots, its rows
    // differ in nothing the reduction sees.
    chain.counted = match chain.stages.last() {
        None => !head.reads(&[chain.slot]),
        Some(Stage::Unnest { slot, .. }) => !head.reads(&[*slot]),
        Some(Stage::Join { right_slots, .. }) => !head.reads(right_slots),
        Some(Stage::Filter { .. } | Stage::Bind { .. }) => false,
    };
    c.params.sort_unstable();
    c.params.dedup();
    FusedQuery {
        chain,
        head: Kernel::of(head),
        monoid: monoid.clone(),
        n_slots: c.n_slots,
        n_tables: c.n_tables,
        globals: c.globals,
        params: c.params,
    }
}
