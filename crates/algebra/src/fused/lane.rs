//! The judgement *what a lane chain computes over a column*: one
//! attribute of an extent's members — or of the members of one of their
//! collections — laid out as a dictionary of its distinct values, each
//! with the number of rows holding it, and one code per row, in the order
//! the plain chain reads the rows. Sorted and counted, the dictionary is
//! a bag's canonical runs, so a bag is a finite map from values to
//! multiplicities and a filter on it restricts its support. A range
//! filter — the attribute compared with an operand that reads no row —
//! reads its operand once and keeps blocks of the sorted dictionary,
//! found by bisection; other filters and the head run once per entry
//! still live. The rows then only look their entry's verdict up, and a
//! sorting monoid over the attribute itself is built from the kept
//! entries' runs: a `bag` whose kept entries are one block is a window of
//! the lane's runs, sharing their storage, whatever the block. When the
//! filters are all ranges that keep one block each, that block is taken
//! straight from the bisections, with no verdict per entry. A
//! counted join keyed by the attribute is a pointwise product of the
//! lane's counts with its table's buckets: each live entry is probed once,
//! an entry meeting no build row is dropped, and a row pushes its head
//! once per build row it meets — a head that reads no chain slot once for
//! all of them.

use super::compile::{LaneFilter, LanePlan};
use super::drive::{rows_of, timed, Cx, Probe};
use crate::error::ExecResult;
use monoid_calculus::error::EvalError;
use monoid_calculus::eval::{project_ref, Evaluator};
use monoid_calculus::expr::Expr;
use monoid_calculus::monoid::Monoid;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::{canonical_runs, float_key, Accumulator, Env, Runs, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::{discriminant, size_of};
use std::ops::Range;
use std::sync::Arc;

/// What the memo keeps a lane under: the extent's source, the field of
/// its members the chain unnests (none when it reads the members
/// themselves), and the attribute.
#[derive(Debug, PartialEq)]
pub(super) struct LaneKey {
    pub(super) source: Expr,
    pub(super) path: Option<Symbol>,
    pub(super) attr: Symbol,
}

/// What the memo keeps for a refused lane: the epoch's runs drive the
/// plain chain without building it again.
pub(super) struct Refused;

/// One attribute over an extent, dictionary-coded.
pub(super) struct Lane {
    /// The dictionary and how many rows hold each entry: the distinct
    /// values, sorted, all of one scalar kind, so that equal under
    /// [`Value::cmp`] means identical, each with its row count (at least
    /// one). That is a bag's canonical runs: a counted `bag` over a block
    /// of the lane is a window of them, shared.
    runs: Runs,
    /// Each row's index into `runs`, in the order the plain chain reads
    /// the rows.
    codes: Vec<u32>,
    /// Where each member's rows start in `codes`, and their end: member
    /// `j` owns `codes[owners[j]..owners[j + 1]]` (one row each when the
    /// lane reads the members themselves). Only a profile reads it.
    owners: Vec<u32>,
    /// What the memo charges: the dictionary's values and row counts, a
    /// word each for the codes and the offsets. Strings are shared with
    /// the heap.
    pub(super) bytes: usize,
}

/// A scalar, hashed by kind: a float by its [`float_key`], which is
/// [`Value::cmp`]'s equality.
#[derive(Hash, PartialEq, Eq)]
enum Key {
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(Arc<str>),
}

/// The dictionary while the rows are read: each new value's code is its
/// first-seen position.
#[derive(Default)]
struct Dict {
    index: HashMap<Key, u32>,
    values: Vec<Value>,
    codes: Vec<u32>,
}

impl Dict {
    /// Code one row's value; `false` when it is no scalar, or not of the
    /// first value's kind.
    fn push(&mut self, v: &Value) -> bool {
        let key = match v {
            Value::Bool(b) => Key::Bool(*b),
            Value::Int(i) => Key::Int(*i),
            Value::Float(x) => Key::Float(float_key(*x)),
            Value::Str(s) => Key::Str(s.clone()),
            _ => return false,
        };
        if self.values.first().is_some_and(|first| discriminant(first) != discriminant(v)) {
            return false;
        }
        let Ok(next) = u32::try_from(self.values.len()) else { return false };
        let values = &mut self.values;
        let code = *self.index.entry(key).or_insert_with(|| {
            values.push(v.clone());
            next
        });
        self.codes.push(code);
        true
    }
}

/// Build the lane `key` names, reading the rows as the plain chain reads
/// them: every member of the source, and every member of each one's
/// `path` collection. `None` — a refusal — when a row is off the shape:
/// the source or a path fails to evaluate or is no collection, an object
/// dangles, the attribute is missing, or a value is no scalar of the
/// first one's kind. The plain chain then meets the same rows and reports
/// what the walk reports. A lane whose dictionary holds more than half
/// its rows is refused too.
pub(super) fn build(ev: &mut Evaluator, env: &Env, key: &LaneKey) -> Option<Lane> {
    let rows = rows_of(ev.eval(env, &key.source).ok()?).ok()?;
    let heap = &ev.heap;
    let mut dict = Dict::default();
    let mut owners = vec![0];
    let attr = |row: &Value, dict: &mut Dict| Ok(dict.push(project_ref(heap, row, key.attr)?));
    let whole = rows.each(|owner| {
        let fits = match key.path {
            None => attr(owner, &mut dict)?,
            Some(path) => rows_of(project_ref(heap, owner, path)?.clone())?
                .each(|row| attr(row, &mut dict))?,
        };
        let Ok(end) = u32::try_from(dict.codes.len()) else { return Ok(false) };
        owners.push(end);
        Ok(fits)
    });
    // A value that repeats less than twice on average is evaluated about
    // as often as the plain chain evaluates it, and the rows are visited
    // again on top: no lane.
    if !matches!(whole, Ok(true)) || 2 * dict.values.len() > dict.codes.len() {
        return None;
    }
    // Sort the distinct values only, and recode the rows by rank.
    let Dict { values, mut codes, .. } = dict;
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
    let mut rank = vec![0; values.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i as usize] = r as u32;
    }
    let mut rows = vec![0; values.len()];
    for c in &mut codes {
        *c = rank[*c as usize];
        rows[*c as usize] += 1;
    }
    let runs: Vec<_> =
        order.iter().zip(rows).map(|(&i, n)| (values[i as usize].clone(), n)).collect();
    let bytes = (size_of::<Value>() + size_of::<u64>()) * runs.len()
        + size_of::<u32>() * (codes.len() + owners.len());
    Some(Lane { runs: runs.into(), codes, owners, bytes })
}

/// What a row holding one dictionary entry does: reach the sink, stop at
/// a filter, or fail — at a filter or at the head. A byte per entry is all
/// the row loop reads: against an enum holding each entry's head or error,
/// it measured ≈ 25 % faster on `bulk-rows`' statement. While the filters
/// run, `KEEP` marks an entry still live.
const KEEP: u8 = 0;
const DROP: u8 = 1;
const FAIL: u8 = 2;

/// Each dictionary entry's verdict, decided once: `verdict[e]` is what a
/// row holding entry `e` does, `heads[e]` the head it pushes (when the
/// fold pushes a head per entry), `failed` the error of each entry that
/// fails, `held[e]` how many filters hold for it (when a probe counts
/// them), and `bucket[e]` how many build rows it meets (when the chain
/// ends in a join; 0 for an entry no probe reached).
struct Verdicts {
    verdict: Vec<u8>,
    heads: Vec<Value>,
    failed: Vec<(u32, EvalError)>,
    held: Vec<usize>,
    bucket: Vec<usize>,
}

impl Verdicts {
    /// Run the filters in order, each over the entries still live, then
    /// the join's probe of every entry that passed them all — an entry
    /// whose bucket is empty is dropped — then the head of every entry
    /// still live. A range filter reads its operand once and keeps whole
    /// blocks of the dictionary; any other filter, and the head, run with
    /// the entry in `plan.value`. A head that reads no chain slot is left
    /// to the fold, which evaluates it once.
    fn of<P: Probe>(
        lane: &Lane,
        plan: &LanePlan,
        slots: &mut [Value],
        cx: &Cx<'_>,
        probe: &P,
    ) -> Verdicts {
        let n = lane.runs.len();
        let mut v = Verdicts {
            verdict: vec![KEEP; n],
            heads: Vec::new(),
            failed: Vec::new(),
            held: if P::ENABLED { vec![0; n] } else { Vec::new() },
            bucket: Vec::new(),
        };
        for (op, filter) in &plan.filters {
            timed(probe, *op, || match filter {
                LaneFilter::Range { operand, holds } => match operand.get(slots, None, cx) {
                    Ok(x) => v.range::<P>(&lane.runs, x, holds),
                    Err(err) => v.fail_live(&err),
                },
                LaneFilter::Entry(pred) => {
                    for (e, (value, _)) in lane.runs.iter().enumerate() {
                        if v.verdict[e] == KEEP {
                            slots[plan.value] = value.clone();
                            match pred.holds(slots, None, cx) {
                                Ok(true) if P::ENABLED => v.held[e] += 1,
                                Ok(true) => {}
                                Ok(false) => v.verdict[e] = DROP,
                                Err(err) => v.fail(e, err),
                            }
                        }
                    }
                }
            });
        }
        if let Some(join) = &plan.join {
            let table = &cx.tables[join.table];
            timed(probe, join.op, || {
                v.bucket = vec![0; n];
                for (e, (value, _)) in lane.runs.iter().enumerate() {
                    if v.verdict[e] == KEEP {
                        match table.rows_from(table.find(value)) {
                            0 => v.verdict[e] = DROP,
                            rows => v.bucket[e] = rows,
                        }
                    }
                }
            });
        }
        if !plan.counts && !plan.once {
            v.heads = vec![Value::Null; n];
            for (e, (value, _)) in lane.runs.iter().enumerate() {
                if v.verdict[e] == KEEP {
                    slots[plan.value] = value.clone();
                    match plan.head.value(slots, None, cx) {
                        Ok(head) => v.heads[e] = head,
                        Err(err) => v.fail(e, err),
                    }
                }
            }
        }
        v
    }

    /// A range filter with operand `x`: the dictionary is sorted by
    /// [`Value::cmp`] and holds one kind, so `entry.cmp(x)` never
    /// decreases along it — Int↔Float compare through a monotone `as
    /// f64`, other kinds by a constant shape rank — and the entries less
    /// than, equal to and greater than `x` are three blocks, found by two
    /// bisections. Live entries in a block `holds` rejects are dropped.
    fn range<P: Probe>(&mut self, runs: &[(Value, u64)], x: &Value, holds: &[bool; 3]) {
        let [_, lt, le, end] = blocks(runs, x);
        for (block, keep) in [(0..lt, holds[0]), (lt..le, holds[1]), (le..end, holds[2])] {
            if !keep {
                for verdict in &mut self.verdict[block] {
                    if *verdict == KEEP {
                        *verdict = DROP;
                    }
                }
            } else if P::ENABLED {
                for e in block.filter(|&e| self.verdict[e] == KEEP) {
                    self.held[e] += 1;
                }
            }
        }
    }

    /// Entry `e` fails with `err`.
    fn fail(&mut self, e: usize, err: EvalError) {
        self.verdict[e] = FAIL;
        self.failed.push((e as u32, err));
    }

    /// Every live entry fails with `err`: a range filter's operand that
    /// cannot be read fails the first row that reaches the filter.
    fn fail_live(&mut self, err: &EvalError) {
        for e in 0..self.verdict.len() {
            if self.verdict[e] == KEEP {
                self.fail(e, err.clone());
            }
        }
    }

    /// The error of entry `code`, which fails.
    fn error(&self, code: u32) -> EvalError {
        let at = self.failed.iter().find(|(e, _)| *e == code);
        at.map(|(_, err)| err.clone()).expect("a failing entry has its error")
    }

    /// A counted result: the kept entries with their row counts, in
    /// `monoid`'s canonical form. A `bag` whose kept entries are one block
    /// is that block of the lane's runs: a window of them, nothing copied.
    fn counted(&self, runs: &Runs, monoid: &Monoid) -> Value {
        let kept = |e: &usize| self.verdict[*e] == KEEP;
        let lo = (0..runs.len()).find(kept).unwrap_or(0);
        let hi = (lo..runs.len()).rfind(kept).map_or(lo, |e| e + 1);
        if (lo..hi).all(|e| kept(&e)) {
            return block(runs, lo..hi, monoid);
        }
        let kept = runs.iter().enumerate().filter(|(e, _)| kept(e));
        canonical_runs(monoid, kept.map(|(_, run)| run.clone()))
    }
}

/// The bounds of the three blocks of the sorted dictionary `runs` whose
/// entries are less than, equal to and greater than `x`, found by two
/// bisections: `[0, lt, le, runs.len()]`.
fn blocks(runs: &[(Value, u64)], x: &Value) -> [usize; 4] {
    let lt = runs.partition_point(|(e, _)| e.cmp(x) == Ordering::Less);
    let le = lt + runs[lt..].partition_point(|(e, _)| e.cmp(x) != Ordering::Greater);
    [0, lt, le, runs.len()]
}

/// A counted result over the entries of one block of `runs`: for a `bag`,
/// a window of them, nothing copied.
fn block(runs: &Runs, block: Range<usize>, monoid: &Monoid) -> Value {
    if *monoid == Monoid::Bag {
        return Value::Bag(runs.window(block));
    }
    canonical_runs(monoid, runs[block].iter().cloned())
}

/// The one block of the dictionary that a chain of range filters alone
/// keeps, taken straight from the bisections, with no verdict per entry:
/// each filter keeps one block — every comparison but `!=` — so their
/// intersection is one block too. `None` when the chain has any other
/// filter. An operand that cannot be read fails the run while an entry
/// is still live, as it fails the first row that reaches its filter.
fn ranged(
    lane: &Lane,
    plan: &LanePlan,
    slots: &[Value],
    cx: &Cx<'_>,
) -> Option<ExecResult<Range<usize>>> {
    let one_block = |f: &LaneFilter| {
        matches!(f, LaneFilter::Range { holds, .. } if *holds != [true, false, true])
    };
    if !plan.filters.iter().all(|(_, f)| one_block(f)) {
        return None;
    }
    let (mut lo, mut hi) = (0, lane.runs.len());
    for (_, filter) in &plan.filters {
        let LaneFilter::Range { operand, holds } = filter else { unreachable!("checked above") };
        match operand.get(slots, None, cx) {
            Ok(x) => {
                let bounds = blocks(&lane.runs, x);
                let (first, last) = (holds.iter().position(|&h| h), holds.iter().rposition(|&h| h));
                let (from, to) =
                    first.zip(last).map_or((0, 0), |(f, l)| (bounds[f], bounds[l + 1]));
                (lo, hi) = (lo.max(from), hi.min(to));
            }
            Err(err) if lo < hi => return Some(Err(err)),
            Err(_) => {}
        }
    }
    Some(Ok(if lo < hi { lo..hi } else { 0..0 }))
}

/// Fold a lane chain over its lane into `monoid`'s value, `acc` its
/// accumulator. Filters, the join's probe and the head run once per live
/// dictionary entry, with the entry in `plan.value` — a range filter once
/// per run — and the rows are then visited in order, so the first row
/// whose entry fails fails the run with its error, `some` and `all` stop
/// at the walk's row, and every other monoid is pushed the head of each
/// kept row in the walk's order, `n`-fold for a row meeting a bucket of
/// `n` build rows — except a sorting monoid over the attribute itself,
/// which is built from the lane's runs and visits the rows only to find
/// the first that fails, and a head that reads no chain slot, which is
/// pushed once, as many times as there are kept rows (each entry's rows
/// times its bucket), when no entry fails and that number fits. A sorting
/// monoid over the attribute whose filters are ranges that keep one block
/// each is that block of the runs (`ranged`), unless a probe counts the
/// rows each filter keeps.
pub(super) fn fold<P: Probe>(
    lane: &Lane,
    plan: &LanePlan,
    monoid: &Monoid,
    mut acc: Accumulator,
    slots: &mut [Value],
    cx: &Cx<'_>,
    probe: &P,
) -> ExecResult<Value> {
    if plan.counts && !P::ENABLED {
        if let Some(kept) = ranged(lane, plan, slots, cx) {
            return kept.map(|kept| block(&lane.runs, kept, monoid));
        }
    }
    let v = Verdicts::of(lane, plan, slots, cx, probe);
    let codes = &lane.codes;
    let trailing = plan.unnest.unwrap_or(plan.scan);
    // How many rows a row holding kept entry `e` hands the reduction.
    let times = |e: usize| if v.bucket.is_empty() { 1 } else { v.bucket[e] };
    // The value, how many rows were visited, and whether `some`/`all`
    // stopped there.
    let (value, end, stopped) = timed(probe, trailing, || -> ExecResult<_> {
        if plan.counts {
            // Every entry is some row's, so a failing entry fails the run
            // at the first row that holds one.
            if !v.failed.is_empty() {
                let at = codes.iter().find(|&&code| v.verdict[code as usize] == FAIL);
                return Err(v.error(*at.expect("a failing entry is some row's")));
            }
            return Ok((v.counted(&lane.runs, monoid), codes.len(), false));
        }
        // Every push the rows make is the same head: one push of their
        // number, which is exact for every monoid — an `Int` sum that
        // overflows walks the pushes and names the walk's partial sum.
        if plan.once && v.failed.is_empty() {
            let mut kept = lane.runs.iter().enumerate().filter(|(e, _)| v.verdict[*e] == KEEP);
            let total = kept.try_fold(0usize, |sum, (e, (_, rows))| {
                usize::try_from(*rows).ok()?.checked_mul(times(e))?.checked_add(sum)
            });
            if let Some(total) = total {
                if total > 0 {
                    acc.push_units(plan.head.value(slots, None, cx)?, total)?;
                }
                if acc.absorbed() {
                    let at = codes.iter().position(|&code| v.verdict[code as usize] == KEEP);
                    return Ok((acc.finish()?, at.expect("a kept entry is some row's") + 1, true));
                }
                return Ok((acc.finish()?, codes.len(), false));
            }
        }
        // The rows in order. The plain lane's loop pushes each kept row's
        // head; a join's, or a head read once, its bucket's count of it.
        if v.bucket.is_empty() && !plan.once {
            return visit(codes, &v, acc, |acc, e| acc.push_unit(v.heads[e].clone()));
        }
        let mut once = None;
        visit(codes, &v, acc, |acc, e| {
            let head = if !plan.once {
                v.heads[e].clone()
            } else if let Some(head) = &once {
                Value::clone(head)
            } else {
                once.insert(plan.head.value(slots, None, cx)?).clone()
            };
            acc.push_units(head, times(e))
        })
    })?;
    if stopped {
        probe.short_circuit();
    }
    if P::ENABLED {
        report(lane, plan, &v, (end, stopped), probe);
    }
    Ok(value)
}

/// Visit the rows in order: `push` folds in a kept row's entry, the first
/// row whose entry fails fails the run, and `some`/`all` stop at the row
/// that absorbs. The value, how many rows were visited, and whether the
/// fold stopped there. Generic, so each caller's loop is compiled with its
/// own push inline: one loop carrying the join's branches too made
/// `regress`' `sum-beds` and `list-prices` 40–55 % slower in process.
fn visit(
    codes: &[u32],
    v: &Verdicts,
    mut acc: Accumulator,
    mut push: impl FnMut(&mut Accumulator, usize) -> ExecResult<()>,
) -> ExecResult<(Value, usize, bool)> {
    for (i, &code) in codes.iter().enumerate() {
        match v.verdict[code as usize] {
            KEEP => {
                push(&mut acc, code as usize)?;
                if acc.absorbed() {
                    return Ok((acc.finish()?, i + 1, true));
                }
            }
            DROP => {}
            _ => return Err(v.error(code)),
        }
    }
    Ok((acc.finish()?, codes.len(), false))
}

/// Tell `probe` what the walk's operators pushed over the lane's first
/// `end` rows: the members scanned up to the last of them when the fold
/// `stopped` there (every member, trailing empty collections included,
/// otherwise), the rows unnested, the rows each filter kept, and the
/// pairs the join made.
fn report<P: Probe>(
    lane: &Lane,
    plan: &LanePlan,
    v: &Verdicts,
    (end, stopped): (usize, bool),
    probe: &P,
) {
    let members = if stopped {
        lane.owners.partition_point(|&o| (o as usize) < end)
    } else {
        lane.owners.len() - 1
    };
    probe.rows_out(plan.scan, members);
    if let Some(op) = plan.unnest {
        probe.rows_out(op, end);
    }
    let mut seen = vec![0; lane.runs.len()];
    for &code in &lane.codes[..end] {
        seen[code as usize] += 1;
    }
    for (k, (op, _)) in plan.filters.iter().enumerate() {
        let kept = seen.iter().zip(&v.held).filter(|(_, h)| **h > k).map(|(n, _)| n).sum();
        probe.rows_out(*op, kept);
    }
    if let Some(join) = &plan.join {
        probe.rows_out(join.op, seen.iter().zip(&v.bucket).map(|(n, b)| n * b).sum());
    }
}
