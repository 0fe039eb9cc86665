//! The judgement *what a plan fuses into*: [`compile`] turns every
//! pure query into flat stage lists over a slot-addressed row buffer. It
//! is the only code that looks at a plan's shape. Per-row expressions
//! leave here already resolved to a [`Kernel`]: a compare or an operand
//! when canonical forms make them one, a [`FusedExpr`] tree otherwise —
//! whose leaves outside the compiled subset are handed to the evaluator
//! in place. A reduction chain whose rows read one attribute of one
//! extent's members (or of their members' collections) also gets a
//! [`LanePlan`]: the same filters and head over that attribute's value,
//! which [`super::lane`] folds over a dictionary-coded column — each
//! filter classified as a [`LaneFilter`] range or entry filter, and a
//! counted join keyed by the attribute kept as a [`LaneJoin`].

use super::lane::LaneKey;
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
    /// A root (a name no chain variable binds), read from the run's root
    /// environment the first time a row reads it and kept in the run's
    /// root cell `.0` after that. It fails as the walk's read fails, and
    /// only when a row reads it, so an empty scan still succeeds.
    Root(usize, Symbol),
    /// A form outside the compiled subset — a lambda, a nested
    /// comprehension, `let`, a collection literal, … — run by the walk's
    /// evaluator over the run's root environment with `free`, the chain
    /// variables it reads, bound on top.
    Eval { expr: Expr, free: Vec<(Symbol, usize)> },
}

impl FusedExpr {
    /// Whether evaluating the expression reads any of `slots`.
    pub(super) fn reads(&self, slots: &[usize]) -> bool {
        match self {
            FusedExpr::Const(_) | FusedExpr::Root(..) => false,
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

/// A value read by borrowing: a constant, a slot, a root, or one field of
/// a slot (through the heap when the slot holds an object).
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Operand {
    Const(Value),
    Slot(usize),
    Root(usize, Symbol),
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
            FusedExpr::Root(i, name) => Some(Operand::Root(*i, *name)),
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
    /// How many roots the compiled expressions read: a run's root cells.
    pub(super) n_roots: usize,
    /// The chain over a dictionary-coded column, when it is a lane chain.
    pub(super) lane: Option<LanePlan>,
}

/// A lane chain's second plan: its filters and head rewritten to read the
/// attribute's value from slot `value`, so each runs once per distinct
/// value of the attribute instead of once per row.
#[derive(Debug, PartialEq)]
pub(super) struct LanePlan {
    /// What the snapshot's memo keeps the lane under.
    pub(super) key: Arc<LaneKey>,
    /// The scan operator, and the unnest operator at depth 1.
    pub(super) scan: usize,
    pub(super) unnest: Option<usize>,
    /// The chain's filters, in order, each with its operator.
    pub(super) filters: Vec<(usize, LaneFilter)>,
    pub(super) head: Kernel,
    /// The slot a dictionary entry is bound to while the kernels run.
    pub(super) value: usize,
    /// The head is the attribute itself, the monoid sorts (`bag`, `set`,
    /// `sorted`, `sortedbag`) and the chain ends in no join: the result is
    /// the dictionary and each entry's count, with no head pushed.
    pub(super) counts: bool,
    /// The head reads no chain slot: every row pushes the same head.
    pub(super) once: bool,
    /// The join the chain ends in, when it does.
    pub(super) join: Option<LaneJoin>,
}

/// A lane chain's last stage, a counted join keyed by the lane's
/// attribute alone: operator `op`, probing table `table`, hands each row
/// its bucket's size, so each dictionary entry is probed once.
#[derive(Debug, PartialEq)]
pub(super) struct LaneJoin {
    pub(super) op: usize,
    pub(super) table: usize,
}

/// A lane chain's filter. A *range* compares the lane's value with an
/// operand that reads no row — a constant, a root or a `$param` — so it
/// keeps whole blocks of the sorted dictionary, found by bisection; any
/// other filter is an *entry* filter, run once per live entry.
#[derive(Debug, PartialEq)]
pub(super) enum LaneFilter {
    /// `value op operand`, the value on the left: an entry is kept when
    /// `holds[entry.cmp(operand) + 1]`.
    Range {
        operand: Operand,
        holds: [bool; 3],
    },
    Entry(Kernel),
}

impl LaneFilter {
    /// Classify `pred`, a filter rewritten to read the lane's value from
    /// slot `value`. Every other slot a lane kernel reads is a `$param`'s.
    fn of(pred: Kernel, value: usize) -> LaneFilter {
        if let Kernel::Compare(Compare { lhs, rhs, holds }) = &pred {
            let rowless = |o: &Operand| match o {
                Operand::Const(_) | Operand::Root(..) => true,
                Operand::Slot(s) => *s != value,
                Operand::Field(..) => false,
            };
            let [lt, eq, gt] = *holds;
            let range = match (lhs, rhs) {
                (Operand::Slot(v), operand) if *v == value => Some((operand, *holds)),
                // `operand op value`: the operand is less exactly when the
                // value is greater.
                (operand, Operand::Slot(v)) if *v == value => Some((operand, [gt, eq, lt])),
                _ => None,
            };
            if let Some((operand, holds)) = range.filter(|(o, _)| rowless(o)) {
                return LaneFilter::Range { operand: operand.clone(), holds };
            }
        }
        LaneFilter::Entry(pred)
    }
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
    /// The roots read so far, by root cell.
    roots: Vec<Symbol>,
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

    /// The root cell of root `name`, one per name.
    fn root(&mut self, name: Symbol) -> FusedExpr {
        let cell = self.roots.iter().position(|r| *r == name).unwrap_or_else(|| {
            self.roots.push(name);
            self.roots.len() - 1
        });
        FusedExpr::Root(cell, name)
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
            // Innermost chain binding first, as `Env` looks up; anything
            // else is a root.
            Expr::Var(v) => match self.scope.iter().rev().find(|(s, _)| s == v) {
                Some((_, slot)) => FusedExpr::Slot(*slot),
                None => self.root(*v),
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

    /// The lane plan of a reduction `chain` with `head`, when the chain
    /// scans a root extent, at most unnests one field of the scan
    /// variable, then only filters, at most ending in a counted join whose
    /// one left key is the attribute, and its filters and head read the
    /// chain's variables only as one attribute of the trailing generator.
    fn lane(&mut self, chain: &Chain, head: &Kernel, monoid: &Monoid) -> Option<LanePlan> {
        let Source::Each(scan, source @ Expr::Var(_)) = &chain.source else { return None };
        let (unnest, stages) = match chain.stages.split_first() {
            Some((
                Stage::Unnest { op, slot, path: Kernel::Operand(Operand::Field(owner, path)) },
                rest,
            )) if *owner == chain.slot => (Some((*op, *slot, *path)), rest),
            _ => (None, &chain.stages[..]),
        };
        let (filters, join) = match stages.split_last() {
            Some((Stage::Join { op, build, left_keys, .. }, rest)) if chain.counted => {
                (rest, Some((*op, build.table, &left_keys[..])))
            }
            _ => (stages, None),
        };
        let trailing = unnest.map_or(chain.slot, |(_, slot, _)| slot);
        let value = self.n_slots;
        let mut lane = OnLane { chain: [chain.slot, trailing], value, attr: None, reads: 0 };
        let filters = filters
            .iter()
            .map(|stage| match stage {
                Stage::Filter { op, pred } => {
                    Some((*op, LaneFilter::of(lane.kernel(pred)?, value)))
                }
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let join = match join {
            Some((op, table, [FusedExpr::Proj(key, attr)]))
                if **key == FusedExpr::Slot(trailing) && lane.is_attr(*attr) =>
            {
                Some(LaneJoin { op, table })
            }
            Some(_) => return None,
            None => None,
        };
        let reads = lane.reads;
        let head = lane.kernel(head)?;
        let once = lane.reads == reads;
        let attr = lane.attr?;
        self.n_slots += 1;
        let counts = join.is_none()
            && matches!(monoid, Monoid::Bag | Monoid::Set | Monoid::Sorted | Monoid::SortedBag)
            && head == Kernel::Operand(Operand::Slot(value));
        let key = LaneKey { source: source.clone(), path: unnest.map(|(.., path)| path), attr };
        let unnest = unnest.map(|(op, ..)| op);
        Some(LanePlan {
            key: Arc::new(key),
            scan: *scan,
            unnest,
            filters,
            head,
            value,
            counts,
            once,
            join,
        })
    }
}

/// Rewrites a lane chain's kernels: a read `t.a` of the trailing
/// generator's slot `t` (`chain[1]`) becomes a read of slot `value`, for
/// one attribute `a`; any other read of a chain slot is no lane.
struct OnLane {
    chain: [usize; 2],
    value: usize,
    attr: Option<Symbol>,
    /// How many reads of the attribute were rewritten so far.
    reads: usize,
}

impl OnLane {
    /// Whether `field` is the lane's attribute (the first one read is),
    /// counting the read.
    fn is_attr(&mut self, field: Symbol) -> bool {
        self.reads += 1;
        *self.attr.get_or_insert(field) == field
    }

    fn kernel(&mut self, k: &Kernel) -> Option<Kernel> {
        Some(match k {
            Kernel::Operand(o) => Kernel::Operand(self.operand(o)?),
            Kernel::Compare(c) => Kernel::Compare(Compare {
                lhs: self.operand(&c.lhs)?,
                rhs: self.operand(&c.rhs)?,
                holds: c.holds,
            }),
            Kernel::Tree(t) => Kernel::of(self.expr(t)?),
        })
    }

    fn operand(&mut self, o: &Operand) -> Option<Operand> {
        match o {
            Operand::Field(s, field) if *s == self.chain[1] => {
                self.is_attr(*field).then_some(Operand::Slot(self.value))
            }
            Operand::Field(s, _) | Operand::Slot(s) if self.chain.contains(s) => None,
            other => Some(other.clone()),
        }
    }

    fn boxed(&mut self, e: &FusedExpr) -> Option<Box<FusedExpr>> {
        self.expr(e).map(Box::new)
    }

    fn expr(&mut self, e: &FusedExpr) -> Option<FusedExpr> {
        Some(match e {
            FusedExpr::Proj(inner, field) if **inner == FusedExpr::Slot(self.chain[1]) => {
                return self.is_attr(*field).then_some(FusedExpr::Slot(self.value));
            }
            FusedExpr::Slot(s) if self.chain.contains(s) => return None,
            FusedExpr::Eval { free, .. } if !free.is_empty() => return None,
            FusedExpr::Const(_)
            | FusedExpr::Slot(_)
            | FusedExpr::Root(..)
            | FusedExpr::Eval { .. } => e.clone(),
            FusedExpr::Proj(inner, field) => FusedExpr::Proj(self.boxed(inner)?, *field),
            FusedExpr::TupleProj(inner, idx) => FusedExpr::TupleProj(self.boxed(inner)?, *idx),
            FusedExpr::Un(op, inner) => FusedExpr::Un(*op, self.boxed(inner)?),
            FusedExpr::Deref(inner) => FusedExpr::Deref(self.boxed(inner)?),
            FusedExpr::Bin(op, a, b) => FusedExpr::Bin(*op, self.boxed(a)?, self.boxed(b)?),
            FusedExpr::If(c, t, f) => FusedExpr::If(self.boxed(c)?, self.boxed(t)?, self.boxed(f)?),
            FusedExpr::Tuple(items) => {
                FusedExpr::Tuple(items.iter().map(|i| self.expr(i)).collect::<Option<_>>()?)
            }
            FusedExpr::Record { labels, fields } => FusedExpr::Record {
                labels: labels.clone(),
                fields: fields
                    .iter()
                    .map(|(at, f)| Some((*at, self.expr(f)?)))
                    .collect::<Option<_>>()?,
            },
        })
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
    let head = Kernel::of(head);
    let lane = c.lane(&chain, &head, monoid);
    FusedQuery {
        chain,
        head,
        monoid: monoid.clone(),
        n_slots: c.n_slots,
        n_tables: c.n_tables,
        globals: c.globals,
        params: c.params,
        n_roots: c.roots.len(),
        lane,
    }
}
