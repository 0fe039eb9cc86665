//! The judgement *what a compiled chain computes on a row*: rows borrowed
//! from the extent flow through the stages [`super::compile`] produced —
//! kernels first, the [`FusedExpr`] interpreter for the rest — into a
//! statically dispatched [`Sink`], the accumulator or a join's build side.

use super::compile::{Build, Chain, Compare, FusedExpr, FusedQuery, Kernel, Operand, Source, Stage};
use super::table::{Table, TableKey, NONE};
use crate::error::ExecResult;
use monoid_calculus::eval::{binop_values, project_ref, project_value, unop_value, Evaluator};
use monoid_calculus::expr::BinOp;
use monoid_calculus::heap::Heap;
use monoid_calculus::value::{Accumulator, Env, Value};
use monoid_store::memo::Memo;
use std::borrow::Cow;
use std::sync::Arc;

/// A borrowed slot override, chained through the fold's recursion: the
/// scan and unnest loops bind their current element *by reference* here
/// instead of cloning it into the row buffer (a record-valued element
/// costs two refcount round-trips per row). Lookup walks the chain
/// innermost-first and falls through to the owned buffer, so `Bind` —
/// whose value is freshly computed and already owned — keeps writing to
/// its (distinct, never overridden) slot.
pub(super) struct Frame<'a> {
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
    /// Evaluate as an *operand*: slot and constant references, and
    /// projections out of them, borrow instead of cloning. Projections,
    /// comparisons, and dereferences only need to look at their operands,
    /// and cloning a record-valued slot costs two refcount round-trips per
    /// row — the dominant cost of the fold once dispatch is gone.
    pub(super) fn eval_ref<'a>(
        &'a self,
        slots: &'a [Value],
        frame: Option<&'a Frame<'a>>,
        heap: &'a Heap,
    ) -> ExecResult<Cow<'a, Value>> {
        match self {
            FusedExpr::Const(v) => Ok(Cow::Borrowed(v)),
            FusedExpr::Slot(i) => Ok(Cow::Borrowed(slot_value(slots, frame, *i))),
            FusedExpr::Proj(inner, field) => match inner.eval_ref(slots, frame, heap)? {
                Cow::Borrowed(v) => project_ref(heap, v, *field).map(Cow::Borrowed),
                Cow::Owned(v) => project_value(heap, &v, *field).map(Cow::Owned),
            },
            other => other.eval(slots, frame, heap).map(Cow::Owned),
        }
    }

    pub(super) fn eval(
        &self,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        heap: &Heap,
    ) -> ExecResult<Value> {
        match self {
            FusedExpr::Const(v) => Ok(v.clone()),
            FusedExpr::Slot(i) => Ok(slot_value(slots, frame, *i).clone()),
            FusedExpr::Record { labels, fields } => {
                let mut vals: Vec<_> = labels.iter().map(|l| (*l, Value::Null)).collect();
                for (at, fe) in fields {
                    vals[*at].1 = fe.eval(slots, frame, heap)?;
                }
                Ok(Value::Record(Arc::new(vals)))
            }
            FusedExpr::Tuple(items) => {
                let vals = items
                    .iter()
                    .map(|i| i.eval(slots, frame, heap))
                    .collect::<ExecResult<Vec<_>>>()?;
                Ok(Value::tuple(vals))
            }
            FusedExpr::Proj(..) => self.eval_ref(slots, frame, heap).map(Cow::into_owned),
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

impl Operand {
    /// The operand's value, borrowed; a field fails as the walk's
    /// projection does.
    #[inline(always)]
    fn get<'a>(
        &'a self,
        slots: &'a [Value],
        frame: Option<&'a Frame<'a>>,
        heap: &'a Heap,
    ) -> ExecResult<&'a Value> {
        match self {
            Operand::Const(v) => Ok(v),
            Operand::Slot(i) => Ok(slot_value(slots, frame, *i)),
            Operand::Field(i, field) => project_ref(heap, slot_value(slots, frame, *i), *field),
        }
    }
}

impl Compare {
    /// Both operands, left first, then one `Value::cmp` — the order
    /// `binop_values`' comparison operators decide by.
    #[inline(always)]
    fn test(&self, slots: &[Value], frame: Option<&Frame<'_>>, heap: &Heap) -> ExecResult<bool> {
        let a = self.lhs.get(slots, frame, heap)?;
        let b = self.rhs.get(slots, frame, heap)?;
        Ok(self.holds[(a.cmp(b) as i8 + 1) as usize])
    }
}

impl Kernel {
    /// The value, owned: a binding, an unnest path, a head that is no
    /// operand. Not forced inline: forced into the reduction too, it
    /// measured no faster on `fusion/company-dept-join`, whose record
    /// head reads both join sides.
    #[inline]
    fn value(&self, slots: &[Value], frame: Option<&Frame<'_>>, heap: &Heap) -> ExecResult<Value> {
        match self {
            Kernel::Operand(o) => o.get(slots, frame, heap).cloned(),
            Kernel::Compare(c) => c.test(slots, frame, heap).map(Value::Bool),
            Kernel::Tree(t) => t.eval(slots, frame, heap),
        }
    }

    /// Whether a filter keeps the row.
    #[inline(always)]
    fn holds(&self, slots: &[Value], frame: Option<&Frame<'_>>, heap: &Heap) -> ExecResult<bool> {
        match self {
            Kernel::Compare(c) => c.test(slots, frame, heap),
            Kernel::Operand(o) => o.get(slots, frame, heap)?.as_bool(),
            Kernel::Tree(t) => t.eval_ref(slots, frame, heap)?.as_bool(),
        }
    }
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

    /// How many elements there are: a bag counts each run's copies
    /// (saturating, for a bag no fold could finish walking).
    fn len(&self) -> usize {
        match self {
            Rows::Shared(items) => items.len(),
            Rows::Owned(items) => items.len(),
            Rows::Runs(runs) => runs.iter().fold(0, |n, (_, c)| n.saturating_add(*c as usize)),
        }
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

impl FusedQuery {
    /// The row buffer with global slots resolved against `env`; `None`
    /// (→ plan-walk fallback) when a name is missing, so unbound-variable
    /// errors keep their plan-walk shape.
    pub(super) fn resolve_globals(&self, env: &Env) -> Option<Vec<Value>> {
        let mut slots = vec![Value::Null; self.n_slots];
        for (slot, name) in &self.globals {
            slots[*slot] = env.lookup(*name)?.clone();
        }
        Some(slots)
    }
}

/// What a fold needs besides its row: the heap and the execution's join
/// tables, both immutable while rows flow, and whether the chain's
/// trailing generator hands the sink a count ([`Chain::counted`]).
struct Cx<'a> {
    heap: &'a Heap,
    tables: &'a [Arc<Table>],
    counted: bool,
}

/// The fold's continuation `k`: where a chain's rows end up. Statically
/// dispatched, so the reduction and a join's build side share [`drive`]
/// without a per-row indirect call.
trait Sink {
    /// Consume the current row; `false` ends the fold.
    fn row(&mut self, slots: &[Value], frame: Option<&Frame<'_>>, heap: &Heap)
        -> ExecResult<bool>;

    /// Consume `n` rows that differ only in slots the sink does not read.
    fn rows(
        &mut self,
        n: usize,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        heap: &Heap,
    ) -> ExecResult<bool> {
        for _ in 0..n {
            if !self.row(slots, frame, heap)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The reduction: evaluate the head, push it into the accumulator.
struct Reduce<'a> {
    head: &'a Kernel,
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
        // An operand head (`count`'s constant, `$w`, `r.price`) is read
        // in place, the rest through `Kernel::value`.
        let h = match self.head {
            Kernel::Operand(o) => o.get(slots, frame, heap)?.clone(),
            head => head.value(slots, frame, heap)?,
        };
        self.acc.push_unit(h)?;
        Ok(!self.acc.absorbed())
    }

    /// One head, folded `n` times — and none evaluated when `n` is 0, as
    /// the walk evaluates none for a generator without rows. Out of line:
    /// it runs once per bucket, and inlined into the stages it made the
    /// per-row loops of the rest slower (`bulk-rows`' statement by ~3 %).
    #[inline(never)]
    fn rows(
        &mut self,
        n: usize,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        heap: &Heap,
    ) -> ExecResult<bool> {
        if n > 0 {
            self.acc.push_units(self.head.value(slots, frame, heap)?, n)?;
        }
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
    stages: &[Stage],
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
    stage: &Stage,
    rest: &[Stage],
    cx: &Cx<'_>,
    slots: &mut [Value],
    frame: Option<&Frame<'_>>,
    k: &mut K,
) -> ExecResult<bool> {
    match stage {
        Stage::Filter(pred) => {
            if pred.holds(slots, frame, cx.heap)? {
                drive(rest, cx, slots, frame, k)
            } else {
                Ok(true)
            }
        }
        Stage::Bind { slot, expr } => {
            let v = expr.value(slots, frame, cx.heap)?;
            slots[*slot] = v;
            drive(rest, cx, slots, frame, k)
        }
        Stage::Unnest { slot, path } => {
            let rows = rows_of(path.value(slots, frame, cx.heap)?)?;
            if cx.counted && rest.is_empty() {
                return k.rows(rows.len(), slots, frame, cx.heap);
            }
            rows.each(|elem| {
                let f = Frame { slot: *slot, value: elem, parent: frame };
                drive(rest, cx, slots, Some(&f), k)
            })
        }
        Stage::Join { build, left_keys, right_slots } => {
            let table = &cx.tables[build.table];
            let mut i = table.first_match(left_keys, slots, frame, cx.heap)?;
            if cx.counted && rest.is_empty() {
                return k.rows(table.rows_from(i), slots, frame, cx.heap);
            }
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
    rest: &[Stage],
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
    fn open(&mut self, chain: &Chain) -> ExecResult<Rows> {
        for stage in chain.stages.iter().rev() {
            if let Stage::Join { build, right_slots, .. } = stage {
                let table = self.table(build, right_slots);
                // A keyed filter's build reads its key on every row, where
                // the walk's filter may stop (or fail) before a bad one.
                self.declined |= table.is_err() && chain.source == Source::Probe(build.table);
                self.tables[build.table] = table?;
            }
        }
        match &chain.source {
            Source::Each(source) => rows_of(self.ev.eval(self.env, source)?),
            Source::Probe(table) => {
                let rows = usize::from(!self.tables[*table].next.is_empty());
                Ok(Rows::Owned(vec![Value::Null; rows]))
            }
        }
    }

    /// Push every row of an opened chain through its stages into `k`.
    fn feed<K: Sink>(&mut self, chain: &Chain, rows: Rows, k: &mut K) -> ExecResult<()> {
        let cx = Cx { heap: &self.ev.heap, tables: &self.tables, counted: chain.counted };
        if chain.counted && chain.stages.is_empty() {
            return k.rows(rows.len(), &self.slots, None, cx.heap).map(drop);
        }
        rows.each(|elem| {
            let f = Frame { slot: chain.slot, value: elem, parent: None };
            drive(&chain.stages, &cx, &mut self.slots, Some(&f), k)
        })?;
        Ok(())
    }

    /// A join's table: the memo's, when the build reads no `$param` and
    /// already ran at this epoch; otherwise built here — and offered to
    /// the memo when it reads no `$param`.
    fn table(&mut self, build: &Build, right_slots: &[usize]) -> ExecResult<Arc<Table>> {
        let Some((memo, key)) = self.memo.zip(build.memo.as_ref()) else {
            return self.build(build, right_slots).map(Arc::new);
        };
        let hit = memo.get(|k: &Arc<TableKey>| k == key).and_then(|t| t.downcast().ok());
        if let Some(table) = hit {
            return Ok(table);
        }
        let table = Arc::new(self.build(build, right_slots)?);
        memo.insert(key.clone(), table.clone(), table.bytes);
        Ok(table)
    }

    /// Materialize a join's right side: all of its rows first, then all of
    /// their keys, as the walk does.
    fn build(&mut self, build: &Build, right_slots: &[usize]) -> ExecResult<Table> {
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
            let cx = Cx { heap: &self.ev.heap, tables: &[], counted: false };
            for row in rows.chunks(stride) {
                bind_row(right_slots, row, &[], &cx, &mut self.slots, None, &mut k)?;
            }
        }
        Ok(Table::new(rows, n, build.keys.len(), k.out))
    }
}

/// Run a query's compiled fold as one sequential reduction. `Ok(None)`
/// means a global failed to resolve, or a keyed filter's table failed to
/// build, and the caller should run the plan walk instead. `memo` is the
/// memo of the snapshot `env` and `ev`'s heap were taken from; `env` binds
/// that snapshot's roots and, under `$`-prefixed names, the parameters.
pub(crate) fn try_run_reduce(
    fq: &FusedQuery,
    ev: &mut Evaluator,
    env: &Env,
    memo: Option<&Memo>,
) -> ExecResult<Option<Value>> {
    let Some(slots) = fq.resolve_globals(env) else {
        return Ok(None);
    };
    let mut k = Reduce { head: &fq.head, acc: Accumulator::new(&fq.monoid)? };
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
