//! The judgement *what a compiled chain computes on a row*: rows borrowed
//! from the extent flow through the stages [`super::compile`] produced —
//! kernels first, the [`FusedExpr`] interpreter for the rest, the walk's
//! evaluator for its `Eval` leaves — into a statically dispatched [`Sink`],
//! the accumulator or a join's build side. A [`Probe`] rides along and is
//! told what each operator did.

use super::compile::{
    Build, Chain, Compare, FusedExpr, FusedQuery, Kernel, LanePlan, Operand, Source, Stage,
};
use super::lane::{self, Lane};
use super::table::{Table, TableKey, NONE};
use crate::error::ExecResult;
use monoid_calculus::error::EvalError;
use monoid_calculus::eval::{
    binop_values, deref_value, project_ref, project_tuple, project_value, unop_value, Evaluator,
};
use monoid_calculus::expr::BinOp;
use monoid_calculus::heap::Heap;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::{Accumulator, Env, Runs, Value};
use monoid_store::memo::Memo;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-operator counter hooks, called as rows flow through a fold.
/// Operators are identified by their pre-order index in the plan tree
/// ([`Plan::walk`](crate::logical::Plan::walk)'s `op`) — the same order
/// `explain` renders them. [`NoProbe`], what served reads run with,
/// monomorphizes every hook to an empty inline function; the one counting
/// probe is `trace`'s `ExecProbe`. Hooks take `&self`, so the probe is
/// shared by reference down the recursion.
pub(crate) trait Probe {
    /// `true` when the probe counts: it switches the clock on around
    /// operator-local work.
    const ENABLED: bool;

    /// Operator `op` pushed `n` rows to its consumer.
    #[inline(always)]
    fn rows_out(&self, _op: usize, _n: usize) {}

    /// Operator `op` indexed a table of `n` build rows (joins, and keyed
    /// filters).
    #[inline(always)]
    fn build_rows(&self, _op: usize, _n: usize) {}

    /// `nanos` of work attributable to `op` alone: a scan's source, a
    /// filter's predicate, a binding, an unnest's path, a join's keys,
    /// index build and probes.
    #[inline(always)]
    fn self_nanos(&self, _op: usize, _nanos: u64) {}

    /// The reduction absorbed (`some`/`all`) and cut the fold short.
    #[inline(always)]
    fn short_circuit(&self) {}
}

/// The probe of a served read: counts nothing.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// Run `f`, charging its wall-clock time to `op` when the probe counts.
#[inline(always)]
pub(super) fn timed<P: Probe, R>(probe: &P, op: usize, f: impl FnOnce() -> R) -> R {
    if !P::ENABLED {
        return f();
    }
    let start = Instant::now();
    let out = f();
    probe.self_nanos(op, start.elapsed().as_nanos() as u64);
    out
}

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
        cx: &'a Cx<'a>,
    ) -> ExecResult<Cow<'a, Value>> {
        match self {
            FusedExpr::Const(v) => Ok(Cow::Borrowed(v)),
            FusedExpr::Slot(i) => Ok(Cow::Borrowed(slot_value(slots, frame, *i))),
            FusedExpr::Root(cell, name) => cx.root(*cell, *name).map(Cow::Borrowed),
            FusedExpr::Proj(inner, field) => match inner.eval_ref(slots, frame, cx)? {
                Cow::Borrowed(v) => project_ref(cx.heap, v, *field).map(Cow::Borrowed),
                Cow::Owned(v) => project_value(cx.heap, &v, *field).map(Cow::Owned),
            },
            other => other.eval(slots, frame, cx).map(Cow::Owned),
        }
    }

    pub(super) fn eval(
        &self,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        cx: &Cx<'_>,
    ) -> ExecResult<Value> {
        match self {
            FusedExpr::Const(v) => Ok(v.clone()),
            FusedExpr::Slot(i) => Ok(slot_value(slots, frame, *i).clone()),
            FusedExpr::Root(cell, name) => cx.root(*cell, *name).cloned(),
            FusedExpr::Record { labels, fields } => {
                // Allocated once at its exact size, then filled in place.
                let mut vals: Arc<[_]> = labels.iter().map(|l| (*l, Value::Null)).collect();
                let slots_of = Arc::get_mut(&mut vals).expect("a fresh record is unshared");
                for (at, fe) in fields {
                    slots_of[*at].1 = fe.eval(slots, frame, cx)?;
                }
                Ok(Value::Record(vals))
            }
            FusedExpr::Tuple(items) => {
                let vals = items
                    .iter()
                    .map(|i| i.eval(slots, frame, cx))
                    .collect::<ExecResult<Vec<_>>>()?;
                Ok(Value::tuple(vals))
            }
            FusedExpr::Proj(..) => self.eval_ref(slots, frame, cx).map(Cow::into_owned),
            FusedExpr::TupleProj(inner, idx) => {
                project_tuple(&*inner.eval_ref(slots, frame, cx)?, *idx)
            }
            FusedExpr::Bin(op, lhs, rhs) => match op {
                // and/or short-circuit, exactly like the evaluator.
                BinOp::And => Ok(Value::Bool(
                    lhs.eval_ref(slots, frame, cx)?.as_bool()?
                        && rhs.eval_ref(slots, frame, cx)?.as_bool()?,
                )),
                BinOp::Or => Ok(Value::Bool(
                    lhs.eval_ref(slots, frame, cx)?.as_bool()?
                        || rhs.eval_ref(slots, frame, cx)?.as_bool()?,
                )),
                _ => {
                    let a = lhs.eval_ref(slots, frame, cx)?;
                    let b = rhs.eval_ref(slots, frame, cx)?;
                    binop_values(*op, a.as_ref(), b.as_ref())
                }
            },
            FusedExpr::Un(op, inner) => unop_value(*op, inner.eval(slots, frame, cx)?),
            FusedExpr::If(cond, then, els) => {
                if cond.eval_ref(slots, frame, cx)?.as_bool()? {
                    then.eval(slots, frame, cx)
                } else {
                    els.eval(slots, frame, cx)
                }
            }
            FusedExpr::Deref(inner) => deref_value(cx.heap, &*inner.eval_ref(slots, frame, cx)?),
            // The walk's own evaluator, over an O(1) clone of the heap.
            FusedExpr::Eval { expr, free } => {
                let env = free.iter().fold(cx.env.clone(), |env, (var, slot)| {
                    env.bind(*var, slot_value(slots, frame, *slot).clone())
                });
                Evaluator::with_heap(cx.heap.clone()).eval(&env, expr)
            }
        }
    }
}

impl Operand {
    /// The operand's value, borrowed; a field fails as the walk's
    /// projection does.
    #[inline(always)]
    pub(super) fn get<'a>(
        &'a self,
        slots: &'a [Value],
        frame: Option<&'a Frame<'a>>,
        cx: &'a Cx<'a>,
    ) -> ExecResult<&'a Value> {
        match self {
            Operand::Const(v) => Ok(v),
            Operand::Slot(i) => Ok(slot_value(slots, frame, *i)),
            Operand::Root(cell, name) => cx.root(*cell, *name),
            Operand::Field(i, field) => project_ref(cx.heap, slot_value(slots, frame, *i), *field),
        }
    }
}

impl Compare {
    /// Both operands, left first, then one `Value::cmp` — the order
    /// `binop_values`' comparison operators decide by.
    #[inline(always)]
    fn test(&self, slots: &[Value], frame: Option<&Frame<'_>>, cx: &Cx<'_>) -> ExecResult<bool> {
        let a = self.lhs.get(slots, frame, cx)?;
        let b = self.rhs.get(slots, frame, cx)?;
        Ok(self.holds[(a.cmp(b) as i8 + 1) as usize])
    }
}

impl Kernel {
    /// The value, owned: a binding, an unnest path, a head that is no
    /// operand. Not forced inline: forced into the reduction too, it
    /// measured no faster on `fusion/company-dept-join`, whose record
    /// head reads both join sides.
    #[inline]
    pub(super) fn value(
        &self,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        cx: &Cx<'_>,
    ) -> ExecResult<Value> {
        match self {
            Kernel::Operand(o) => o.get(slots, frame, cx).cloned(),
            Kernel::Compare(c) => c.test(slots, frame, cx).map(Value::Bool),
            Kernel::Tree(t) => t.eval(slots, frame, cx),
        }
    }

    /// Whether a filter keeps the row.
    #[inline(always)]
    pub(super) fn holds(
        &self,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        cx: &Cx<'_>,
    ) -> ExecResult<bool> {
        match self {
            Kernel::Compare(c) => c.test(slots, frame, cx),
            Kernel::Operand(o) => o.get(slots, frame, cx)?.as_bool(),
            Kernel::Tree(t) => t.eval_ref(slots, frame, cx)?.as_bool(),
        }
    }
}

/// The elements of a generator source. List, set, and vector sources
/// iterate the extent's `Arc<Vec<Value>>` in place — the allocation-free
/// path the fused loop exists for — and a bag iterates its `(value, count)`
/// runs in place, each value `count` times in run order; strings and the
/// `§4.2` object-singleton idiom expand exactly like the plan walk's
/// `collection_elements`.
pub(super) enum Rows {
    Shared(Arc<Vec<Value>>),
    Owned(Vec<Value>),
    Runs(Runs),
    /// `n` rows whose value nothing reads: a keyed filter's probe row.
    Blank(usize),
}

impl Rows {
    /// Call `f` on every element in order until it returns `false`.
    #[inline(always)]
    pub(super) fn each(&self, mut f: impl FnMut(&Value) -> ExecResult<bool>) -> ExecResult<bool> {
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
            Rows::Blank(n) => {
                let blank = Value::Null;
                for _ in 0..*n {
                    if !f(&blank)? {
                        return Ok(false);
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
            Rows::Blank(n) => *n,
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
            Rows::Blank(n) => Arc::new(vec![Value::Null; n]),
        }
    }
}

pub(super) fn rows_of(v: Value) -> ExecResult<Rows> {
    match v {
        Value::Obj(_) => Ok(Rows::Owned(vec![v])),
        Value::List(items) | Value::Set(items) | Value::Vector(items) => Ok(Rows::Shared(items)),
        Value::Bag(runs) => Ok(Rows::Runs(runs)),
        other => other.elements().map(Rows::Owned),
    }
}

/// What a fold needs besides its row: the heap, the run's root
/// environment (the roots and `$param`s an `Eval` leaf reads), the run's
/// root cells and the execution's join tables, all immutable while rows
/// flow, and whether the chain's trailing generator hands the sink a count
/// ([`Chain::counted`]).
pub(super) struct Cx<'a> {
    pub(super) heap: &'a Heap,
    pub(super) env: &'a Env,
    pub(super) roots: &'a [OnceCell<Value>],
    pub(super) tables: &'a [Arc<Table>],
    pub(super) counted: bool,
}

impl<'a> Cx<'a> {
    /// Root `name`, read from the root environment into its cell on the
    /// first read of the run, from the cell after that. Unbound, it fails
    /// as the evaluator's read fails, on every read.
    #[inline]
    fn root(&self, cell: usize, name: Symbol) -> ExecResult<&'a Value> {
        let cell = &self.roots[cell];
        match cell.get() {
            Some(v) => Ok(v),
            None => {
                let v = self.env.lookup(name).ok_or(EvalError::UnboundVariable(name))?;
                Ok(cell.get_or_init(|| v.clone()))
            }
        }
    }
}

/// The fold's continuation `k`: where a chain's rows end up. Statically
/// dispatched, so the reduction and a join's build side share [`drive`]
/// without a per-row indirect call.
trait Sink {
    /// Consume the current row; `false` ends the fold.
    fn row(&mut self, slots: &[Value], frame: Option<&Frame<'_>>, cx: &Cx<'_>) -> ExecResult<bool>;

    /// Consume `n` rows that differ only in slots the sink does not read.
    fn rows(
        &mut self,
        n: usize,
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        cx: &Cx<'_>,
    ) -> ExecResult<bool> {
        for _ in 0..n {
            if !self.row(slots, frame, cx)? {
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
        cx: &Cx<'_>,
    ) -> ExecResult<bool> {
        // An operand head (`count`'s constant, `$w`, `r.price`) is read
        // in place, the rest through `Kernel::value`.
        let h = match self.head {
            Kernel::Operand(o) => o.get(slots, frame, cx)?.clone(),
            head => head.value(slots, frame, cx)?,
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
        cx: &Cx<'_>,
    ) -> ExecResult<bool> {
        if n > 0 {
            self.acc.push_units(self.head.value(slots, frame, cx)?, n)?;
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
        cx: &Cx<'_>,
    ) -> ExecResult<bool> {
        for e in self.exprs {
            self.out.push(e.eval(slots, frame, cx)?);
        }
        Ok(true)
    }
}

/// Run the stage chain for the current row buffer; `false` means the sink
/// is done (the accumulator absorbed) and the fold is over. Inlined into
/// every loop that produces rows, so a row that has run out of stages goes
/// straight to the sink.
#[inline(always)]
fn drive<K: Sink, P: Probe>(
    stages: &[Stage],
    cx: &Cx<'_>,
    slots: &mut [Value],
    frame: Option<&Frame<'_>>,
    k: &mut K,
    probe: &P,
) -> ExecResult<bool> {
    match stages.split_first() {
        None => k.row(slots, frame, cx),
        Some((stage, rest)) => step(stage, rest, cx, slots, frame, k, probe),
    }
}

/// One stage applied to the current row, then [`drive`] for the rest.
fn step<K: Sink, P: Probe>(
    stage: &Stage,
    rest: &[Stage],
    cx: &Cx<'_>,
    slots: &mut [Value],
    frame: Option<&Frame<'_>>,
    k: &mut K,
    probe: &P,
) -> ExecResult<bool> {
    match stage {
        Stage::Filter { op, pred } => {
            if timed(probe, *op, || pred.holds(slots, frame, cx))? {
                probe.rows_out(*op, 1);
                drive(rest, cx, slots, frame, k, probe)
            } else {
                Ok(true)
            }
        }
        Stage::Bind { op, slot, expr } => {
            slots[*slot] = timed(probe, *op, || expr.value(slots, frame, cx))?;
            probe.rows_out(*op, 1);
            drive(rest, cx, slots, frame, k, probe)
        }
        Stage::Unnest { op, slot, path } => {
            let rows = rows_of(timed(probe, *op, || path.value(slots, frame, cx))?)?;
            if cx.counted && rest.is_empty() {
                let n = rows.len();
                probe.rows_out(*op, n);
                return k.rows(n, slots, frame, cx);
            }
            rows.each(|elem| {
                probe.rows_out(*op, 1);
                let f = Frame { slot: *slot, value: elem, parent: frame };
                drive(rest, cx, slots, Some(&f), k, probe)
            })
        }
        Stage::Join { op, build, left_keys, right_slots } => {
            let table = &cx.tables[build.table];
            let mut i = timed(probe, *op, || table.first_match(left_keys, slots, frame, cx))?;
            if cx.counted && rest.is_empty() {
                let n = table.rows_from(i);
                probe.rows_out(*op, n);
                return k.rows(n, slots, frame, cx);
            }
            while i != NONE {
                probe.rows_out(*op, 1);
                let row = &table.rows[i * right_slots.len()..];
                let then = &mut |f: Option<&Frame<'_>>| drive(rest, cx, slots, f, k, probe);
                if !bind_row(right_slots, row, frame, then)? {
                    return Ok(false);
                }
                i = table.next[i];
            }
            Ok(true)
        }
    }
}

/// Bind `right_slots` to the leading values of `row` — borrowed frames,
/// nothing cloned — and hand the innermost frame to `then`.
fn bind_row<R>(
    right_slots: &[usize],
    row: &[Value],
    frame: Option<&Frame<'_>>,
    then: &mut impl FnMut(Option<&Frame<'_>>) -> R,
) -> R {
    match right_slots.split_first() {
        None => then(frame),
        Some((slot, more)) => {
            let f = Frame { slot: *slot, value: &row[0], parent: frame };
            bind_row(more, &row[1..], Some(&f), then)
        }
    }
}

/// A chain ready to feed: its rows, the slot each binds, the scan
/// operator that counts them (a keyed filter's probe row is no
/// operator's), and the stages they run through — `first`, then `rest`.
struct Opened<'c> {
    rows: Rows,
    slot: usize,
    scan: Option<usize>,
    first: Option<&'c Stage>,
    rest: &'c [Stage],
}

/// One execution's mutable state: the evaluator (for scan sources and
/// keys, evaluated once each), the row buffer, the join tables built or
/// found so far, the snapshot's memo, when the run keeps tables there,
/// and the probe told what each operator did.
struct Run<'a, P> {
    ev: &'a mut Evaluator,
    env: &'a Env,
    roots: Vec<OnceCell<Value>>,
    slots: Vec<Value>,
    tables: Vec<Arc<Table>>,
    memo: Option<&'a Memo>,
    probe: &'a P,
}

impl<P: Probe> Run<'_, P> {
    /// Build the table of every join on `chain` — outermost first, the
    /// order the walk reaches them — then evaluate the chain's scan
    /// source. The source is one expression evaluated once per execution;
    /// the evaluator runs it so parameters, closures, and error reporting
    /// stay exactly as the plan walk has them.
    ///
    /// A keyed filter's build reads its key on every member, where the
    /// walk's filter may stop (or fail) before a bad one. So when that
    /// table fails to build, the chain opens as the bare scan the table
    /// was built from, whose rows run through the plain filter and then
    /// the chain's other stages. Nothing has reached a sink yet, and the
    /// failed table is not kept.
    fn open<'c>(&mut self, chain: &'c Chain) -> ExecResult<Opened<'c>> {
        let failed = self.tables(chain)?;
        self.source(chain, failed)
    }

    /// [`Run::open`]'s first half: build the tables of `chain`'s joins,
    /// and name the bare scan to open instead when a keyed filter's table
    /// failed to build.
    fn tables<'c>(&mut self, chain: &'c Chain) -> ExecResult<Option<&'c Chain>> {
        let mut failed = None;
        for stage in chain.stages.iter().rev() {
            if let Stage::Join { op, build, right_slots, .. } = stage {
                match (self.table(*op, build, right_slots), &chain.source) {
                    (Ok(table), _) => {
                        self.probe.build_rows(*op, table.next.len());
                        self.tables[build.table] = table;
                    }
                    (Err(_), Source::Probe { table, .. }) if *table == build.table => {
                        failed = Some(&build.chain);
                    }
                    (Err(e), _) => return Err(e),
                }
            }
        }
        Ok(failed)
    }

    /// [`Run::open`]'s second half: evaluate the scan source — or open the
    /// bare scan `failed` names — once the tables are built.
    fn source<'c>(
        &mut self,
        chain: &'c Chain,
        failed: Option<&'c Chain>,
    ) -> ExecResult<Opened<'c>> {
        let (first, rest) =
            chain.stages.split_first().map_or((None, &[][..]), |(f, r)| (Some(f), r));
        match (&chain.source, failed) {
            (Source::Each(op, source), _) => {
                let rows = rows_of(timed(self.probe, *op, || self.ev.eval(self.env, source))?)?;
                Ok(Opened { rows, slot: chain.slot, scan: Some(*op), first, rest })
            }
            (Source::Probe { plain, .. }, Some(scan)) => {
                Ok(Opened { first: Some(&**plain), rest, ..self.open(scan)? })
            }
            (Source::Probe { table, .. }, None) => {
                let rows = Rows::Blank(usize::from(!self.tables[*table].next.is_empty()));
                Ok(Opened { rows, slot: chain.slot, scan: None, first, rest })
            }
        }
    }

    /// Push every row of an opened chain through its stages into `k`;
    /// `false` when the sink cut the fold short. `counted` is the chain's
    /// [`Chain::counted`].
    fn feed<K: Sink>(&mut self, opened: Opened<'_>, counted: bool, k: &mut K) -> ExecResult<bool> {
        let Opened { rows, slot, scan, first, rest } = opened;
        let (heap, env, tables, probe) = (&self.ev.heap, self.env, &self.tables[..], self.probe);
        let cx = Cx { heap, env, roots: &self.roots, tables, counted };
        let scanned = |n| {
            if let Some(op) = scan {
                probe.rows_out(op, n);
            }
        };
        if counted && first.is_none() {
            let n = rows.len();
            scanned(n);
            return k.rows(n, &self.slots, None, &cx);
        }
        rows.each(|elem| {
            scanned(1);
            let f = Frame { slot, value: elem, parent: None };
            match first {
                Some(stage) => step(stage, rest, &cx, &mut self.slots, Some(&f), k, probe),
                None => k.row(&self.slots, Some(&f), &cx),
            }
        })
    }

    /// A lane chain's lane, or `None` when it is refused: built or refused
    /// once per epoch in the memo (a lane the memo will not keep is
    /// refused there for the epoch's later runs), or for this run alone
    /// when the run keeps nothing.
    fn lane(&mut self, plan: &LanePlan) -> Option<Arc<Lane>> {
        let build = |run: &mut Self| {
            let (ev, env) = (&mut *run.ev, run.env);
            timed(run.probe, plan.scan, || lane::build(ev, env, &plan.key))
        };
        let Some(memo) = self.memo else { return build(self).map(Arc::new) };
        if let Some(kept) = memo.get(|k: &Arc<lane::LaneKey>| *k == plan.key) {
            return kept.downcast().ok();
        }
        let built = build(self).map(Arc::new);
        let kept =
            built.as_ref().is_some_and(|l| memo.insert(plan.key.clone(), l.clone(), l.bytes));
        if !kept {
            memo.insert(plan.key.clone(), Arc::new(lane::Refused), 0);
        }
        built
    }

    /// Join `op`'s table: the memo's, when the build reads no `$param` and
    /// already ran at this epoch; otherwise built here — and offered to
    /// the memo when it reads no `$param`.
    fn table(&mut self, op: usize, build: &Build, right_slots: &[usize]) -> ExecResult<Arc<Table>> {
        let Some((memo, key)) = self.memo.zip(build.memo.as_ref()) else {
            return self.build(op, build, right_slots).map(Arc::new);
        };
        let hit = memo.get(|k: &Arc<TableKey>| k == key).and_then(|t| t.downcast().ok());
        if let Some(table) = hit {
            return Ok(table);
        }
        let table = Arc::new(self.build(op, build, right_slots)?);
        memo.insert(key.clone(), table.clone(), table.bytes);
        Ok(table)
    }

    /// Materialize join `op`'s right side: all of its rows first, then all
    /// of their keys, as the walk does. The right side's operators count
    /// their own rows and time; the join's is the keys and the index.
    fn build(&mut self, op: usize, build: &Build, right_slots: &[usize]) -> ExecResult<Table> {
        let stride = right_slots.len();
        let opened = self.open(&build.chain)?;
        let (rows, bare) = match (opened.scan, opened.first) {
            // A bare scan's rows *are* the table's one column (a list or
            // set source lends its own `Arc`).
            (Some(scan), None) => (opened.rows.into_shared(), Some(scan)),
            _ => {
                let columns: Vec<_> = right_slots.iter().map(|s| FusedExpr::Slot(*s)).collect();
                let mut k = Collect { exprs: &columns, out: Vec::new() };
                self.feed(opened, build.chain.counted, &mut k)?;
                (Arc::new(k.out), None)
            }
        };
        let n = rows.len() / stride;
        let table = timed(self.probe, op, || {
            let mut k = Collect { exprs: &build.keys, out: Vec::with_capacity(n * build.keys.len()) };
            if !build.keys.is_empty() {
                let (heap, env, roots) = (&self.ev.heap, self.env, &self.roots[..]);
                let cx = Cx { heap, env, roots, tables: &[], counted: false };
                for row in rows.chunks(stride) {
                    bind_row(right_slots, row, None, &mut |f| k.row(&self.slots, f, &cx))?;
                }
            }
            Ok(Table::new(rows, n, build.keys.len(), k.out))
        })?;
        // A bare scan's rows count once its table is built: a keyed
        // filter whose build fails counts only what its plain filter scans.
        if let Some(scan) = bare {
            self.probe.rows_out(scan, n);
        }
        Ok(table)
    }
}

/// What a join's slot holds until its table is built or found: one empty
/// table every run shares, so opening a run allocates none.
fn unbuilt() -> Arc<Table> {
    static EMPTY: OnceLock<Arc<Table>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Arc::default))
}

/// Run a query's compiled fold as one sequential reduction, telling
/// `probe` what each operator did. `memo` is the memo of the snapshot
/// `env` and `ev`'s heap were taken from, or `None` to build every table
/// in this run; `env` binds that snapshot's roots and, under
/// `$`-prefixed names, the parameters — every one the query reads, which
/// `exec::root` checked.
pub(crate) fn try_run_reduce<P: Probe>(
    fq: &FusedQuery,
    ev: &mut Evaluator,
    env: &Env,
    memo: Option<&Memo>,
    probe: &P,
) -> ExecResult<Value> {
    let mut slots = vec![Value::Null; fq.n_slots];
    for (slot, name) in &fq.globals {
        slots[*slot] = env.lookup(*name).ok_or(EvalError::UnboundParameter(*name))?.clone();
    }
    let mut k = Reduce { head: &fq.head, acc: Accumulator::new(&fq.monoid)? };
    let tables = std::iter::repeat_with(unbuilt).take(fq.n_tables).collect();
    let roots = std::iter::repeat_with(OnceCell::new).take(fq.n_roots).collect();
    let mut run = Run { ev, env, roots, slots, tables, memo, probe };
    // The tables first, so a failing build fails the run on either path;
    // then a lane chain folds its column when it has one, decided once,
    // before any row.
    let failed = run.tables(&fq.chain)?;
    if let Some(plan) = &fq.lane {
        if let Some(column) = run.lane(plan) {
            let (heap, roots, tables) = (&run.ev.heap, &run.roots[..], &run.tables[..]);
            let cx = Cx { heap, env, roots, tables, counted: false };
            return lane::fold(&column, plan, &fq.monoid, k.acc, &mut run.slots, &cx, probe);
        }
    }
    let opened = run.source(&fq.chain, failed)?;
    if !run.feed(opened, fq.chain.counted, &mut k)? {
        probe.short_circuit();
    }
    k.acc.finish()
}

/// A served read's fold: nothing counted, and the param-free tables kept
/// in the snapshot's `memo`.
pub(crate) fn serve(
    fq: &FusedQuery,
    ev: &mut Evaluator,
    env: &Env,
    memo: &Memo,
) -> ExecResult<Value> {
    try_run_reduce(fq, ev, env, Some(memo), &NoProbe)
}
