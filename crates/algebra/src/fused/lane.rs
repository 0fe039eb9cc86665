//! The judgement *what a lane chain computes over a column*: one
//! attribute of an extent's members — or of the members of one of their
//! collections — laid out as a dictionary of its distinct values and one
//! code per row, in the order the plain chain reads the rows. The
//! chain's filters and head run once per dictionary entry; the rows then
//! only look their entry's verdict up, and a sorting monoid over the
//! attribute itself reads how many rows hold each entry, counted when the
//! lane is built.

use super::compile::LanePlan;
use super::drive::{rows_of, timed, Cx, Probe};
use crate::error::ExecResult;
use monoid_calculus::error::EvalError;
use monoid_calculus::eval::{project_ref, Evaluator};
use monoid_calculus::expr::Expr;
use monoid_calculus::monoid::Monoid;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::{canonical_runs, Accumulator, Env, Value};
use std::collections::HashMap;
use std::mem::{discriminant, size_of};
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
    /// The distinct values, sorted, all of one scalar kind, so that equal
    /// under [`Value::cmp`] means identical.
    dict: Vec<Value>,
    /// Each row's index into `dict`, in the order the plain chain reads
    /// the rows.
    codes: Vec<u32>,
    /// How many rows hold each entry: `rows[e]` codes are `e`, at least
    /// one each.
    rows: Vec<u64>,
    /// Where each member's rows start in `codes`, and their end: member
    /// `j` owns `codes[owners[j]..owners[j + 1]]` (one row each when the
    /// lane reads the members themselves). Only a profile reads it.
    owners: Vec<u32>,
    /// What the memo charges: the dictionary's values and row counts, a
    /// word each for the codes and the offsets. Strings are shared with
    /// the heap.
    pub(super) bytes: usize,
}

/// A scalar, hashed by kind: a float by its bits, which is
/// [`Value::cmp`]'s `total_cmp` equality.
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
            Value::Float(x) => Key::Float(x.to_bits()),
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
    let dict: Vec<Value> = order.iter().map(|&i| values[i as usize].clone()).collect();
    let bytes = (size_of::<Value>() + size_of::<u64>()) * dict.len()
        + size_of::<u32>() * (codes.len() + owners.len());
    Some(Lane { dict, codes, rows, owners, bytes })
}

/// What a row holding one dictionary entry does: reach the sink, stop at
/// a filter, or fail — at a filter or at the head. A byte per entry is all
/// the row loop reads: against an enum holding each entry's head or error,
/// it measured ≈ 25 % faster on `bulk-rows`' statement.
const KEEP: u8 = 0;
const DROP: u8 = 1;
const FAIL: u8 = 2;

/// Each dictionary entry's verdict, decided once: `verdict[e]` is what a
/// row holding entry `e` does, `heads[e]` the head it pushes (when the
/// fold pushes heads), `failed` the error of each entry that fails, and
/// `held[e]` how many filters hold for it (when a probe counts them).
struct Verdicts {
    verdict: Vec<u8>,
    heads: Vec<Value>,
    failed: Vec<(u32, EvalError)>,
    held: Vec<usize>,
}

impl Verdicts {
    /// Run the filters, in order, and the head of every entry that passes
    /// them, with the entry in `plan.value`.
    fn of<P: Probe>(
        lane: &Lane,
        plan: &LanePlan,
        slots: &mut [Value],
        cx: &Cx<'_>,
        probe: &P,
    ) -> Verdicts {
        let n = lane.dict.len();
        let mut v = Verdicts {
            verdict: Vec::with_capacity(n),
            heads: Vec::with_capacity(if plan.counts { 0 } else { n }),
            failed: Vec::new(),
            held: Vec::with_capacity(if P::ENABLED { n } else { 0 }),
        };
        for (e, value) in lane.dict.iter().enumerate() {
            slots[plan.value] = value.clone();
            let mut held = 0;
            let mut outcome = Ok(true);
            for (op, pred) in &plan.filters {
                outcome = timed(probe, *op, || pred.holds(slots, None, cx));
                if !matches!(outcome, Ok(true)) {
                    break;
                }
                held += 1;
            }
            // A kept entry's head, a dropped entry's nothing, a failed
            // entry's error.
            let head = match outcome {
                Ok(true) if !plan.counts => plan.head.value(slots, None, cx).map(Some),
                Ok(true) => Ok(Some(Value::Null)),
                Ok(false) => Ok(None),
                Err(err) => Err(err),
            };
            let (verdict, head) = match head {
                Ok(Some(head)) => (KEEP, head),
                Ok(None) => (DROP, Value::Null),
                Err(err) => {
                    v.failed.push((e as u32, err));
                    (FAIL, Value::Null)
                }
            };
            if !plan.counts {
                v.heads.push(head);
            }
            v.verdict.push(verdict);
            if P::ENABLED {
                v.held.push(held);
            }
        }
        v
    }

    /// The error of entry `code`, which fails.
    fn error(&self, code: u32) -> EvalError {
        let at = self.failed.iter().find(|(e, _)| *e == code);
        at.map(|(_, err)| err.clone()).expect("a failing entry has its error")
    }
}

/// Fold a lane chain over its lane into `monoid`'s value, `acc` its
/// accumulator. Filters and head run once per dictionary entry, with the
/// entry in `plan.value`; the rows are then visited in order, so the
/// first row whose entry fails fails the run with its error, `some` and
/// `all` stop at the walk's row, and every other monoid is pushed the
/// head of each kept row in the walk's order — except a sorting monoid
/// over the attribute itself, which is built from the dictionary and its
/// kept entries' row counts, and visits the rows only to find the first
/// that fails.
pub(super) fn fold<P: Probe>(
    lane: &Lane,
    plan: &LanePlan,
    monoid: &Monoid,
    mut acc: Accumulator,
    slots: &mut [Value],
    cx: &Cx<'_>,
    probe: &P,
) -> ExecResult<Value> {
    let v = Verdicts::of(lane, plan, slots, cx, probe);
    let codes = &lane.codes;
    let trailing = plan.unnest.unwrap_or(plan.scan);
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
            let kept = v.verdict.iter().map(|&verdict| verdict == KEEP);
            let runs = lane.dict.iter().zip(&lane.rows).zip(kept).filter(|(_, keep)| *keep);
            let value = canonical_runs(monoid, runs.map(|((v, n), _)| (v.clone(), *n)));
            return Ok((value, codes.len(), false));
        }
        for (i, &code) in codes.iter().enumerate() {
            match v.verdict[code as usize] {
                KEEP => {
                    acc.push_unit(v.heads[code as usize].clone())?;
                    if acc.absorbed() {
                        return Ok((acc.finish()?, i + 1, true));
                    }
                }
                DROP => {}
                _ => return Err(v.error(code)),
            }
        }
        Ok((acc.finish()?, codes.len(), false))
    })?;
    if stopped {
        probe.short_circuit();
    }
    if P::ENABLED {
        report(lane, plan, &v.held, (end, stopped), probe);
    }
    Ok(value)
}

/// Tell `probe` what the walk's operators pushed over the lane's first
/// `end` rows: the members scanned up to the last of them when the fold
/// `stopped` there (every member, trailing empty collections included,
/// otherwise), the rows unnested, and the rows each filter kept.
fn report<P: Probe>(
    lane: &Lane,
    plan: &LanePlan,
    held: &[usize],
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
    let mut seen = vec![0; lane.dict.len()];
    for &code in &lane.codes[..end] {
        seen[code as usize] += 1;
    }
    for (k, (op, _)) in plan.filters.iter().enumerate() {
        let kept = seen.iter().zip(held).filter(|(_, h)| **h > k).map(|(n, _)| n).sum();
        probe.rows_out(*op, kept);
    }
}
