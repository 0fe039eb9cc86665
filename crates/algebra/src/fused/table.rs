//! The judgement *which build rows a left row meets*: a join's right side,
//! materialized once per execution or once per epoch, as flat rows chained
//! per key in build order. Every key is indexed by the walk's own
//! [`Value::cmp`]-ordered map, so `1` meets `1.0` as it does in the walk,
//! except a build side whose one key is a string on every row, which
//! hashes (no other kind compares equal to a string).

use super::compile::FusedExpr;
use super::drive::{Cx, Frame};
use crate::error::ExecResult;
use crate::logical::Plan;
use monoid_calculus::expr::Expr;
use monoid_calculus::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A memoized table's key: a right sub-plan and its key expressions,
/// built when the query is compiled.
#[derive(Debug, PartialEq)]
pub(super) struct TableKey {
    pub(super) right: Plan,
    pub(super) keys: Vec<Expr>,
}

/// "No row": the end of a bucket's chain, and a probe that found nothing.
pub(super) const NONE: usize = usize::MAX;

/// A join's build side, materialized once per execution or once per
/// epoch: one value per right slot per row, laid out flat, and the rows of
/// each key chained in build order (`index` holds a key's first row,
/// `next[i]` the following row of the same key, `count[i]` how many rows
/// its chain holds from `i` on — at a key's first row, its bucket's size).
#[derive(Default)]
pub(super) struct Table {
    pub(super) rows: Arc<Vec<Value>>,
    pub(super) next: Vec<usize>,
    pub(super) count: Vec<usize>,
    pub(super) index: KeyIndex,
    /// What the memo charges for keeping the table: the flat rows and each
    /// row's key values, a `Value`-sized word each for its link and its
    /// index entry, and a word for its count. Values behind an `Arc`
    /// (records, strings) are shared with the heap and not counted.
    pub(super) bytes: usize,
}

/// A table's key index. `Str` holds a build side whose one key is a
/// string on every row (the keyed probes of `point-wire`, `mixed-rw` and
/// `join-wire`); `Ordered` is the walk's own `Value`-ordered map and takes
/// every other key, so `Value::cmp` alone decides what meets.
#[derive(Default)]
pub(super) enum KeyIndex {
    /// No keys: every build row matches (the cross product).
    #[default]
    All,
    Str(HashMap<Arc<str>, usize>),
    Ordered(BTreeMap<Vec<Value>, usize>),
}

/// A table's chains while they are linked: `next` and `count` per row.
struct Links {
    next: Vec<usize>,
    count: Vec<usize>,
}

impl Links {
    /// Chain row `i` in front of its bucket. Rows are linked back to
    /// front, so every chain ends up in ascending (build) order, and the
    /// row behind `i` already knows how many follow it.
    fn link(&mut self, head: &mut usize, i: usize) {
        self.next[i] = *head;
        self.count[i] = 1 + if *head == NONE { 0 } else { self.count[*head] };
        *head = i;
    }
}

/// The string buckets of a build side whose one key is a string on every
/// row; `None` at the first key that is not. The map is sized for a key
/// per row up front, so the build never rehashes.
fn strings(keys: &[Value], links: &mut Links) -> Option<HashMap<Arc<str>, usize>> {
    let mut map = HashMap::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate().rev() {
        let Value::Str(k) = key else { return None };
        links.link(map.entry(k.clone()).or_insert(NONE), i);
    }
    Some(map)
}

impl Table {
    /// Index `n` build rows by `keys` (`arity` values per row, row-major).
    pub(super) fn new(rows: Arc<Vec<Value>>, n: usize, arity: usize, keys: Vec<Value>) -> Table {
        let mut links = Links { next: vec![NONE; n], count: vec![0; n] };
        // A failed string attempt leaves links behind; the ordered map
        // rewrites every row's.
        let index = match arity {
            0 => {
                let mut head = NONE;
                (0..n).rev().for_each(|i| links.link(&mut head, i));
                KeyIndex::All
            }
            1 => match strings(&keys, &mut links) {
                Some(map) => KeyIndex::Str(map),
                None => Table::ordered(&keys, 1, &mut links),
            },
            _ => Table::ordered(&keys, arity, &mut links),
        };
        let bytes = std::mem::size_of::<Value>() * (rows.len() + keys.len() + 2 * n)
            + std::mem::size_of::<usize>() * n;
        let Links { next, count } = links;
        Table { rows, next, count, index, bytes }
    }

    fn ordered(keys: &[Value], arity: usize, links: &mut Links) -> KeyIndex {
        let mut map = BTreeMap::new();
        for (i, key) in keys.chunks(arity).enumerate().rev() {
            links.link(map.entry(key.to_vec()).or_insert(NONE), i);
        }
        KeyIndex::Ordered(map)
    }

    /// How many build rows the chain starting at `first` holds: a
    /// bucket's size from [`Table::first_match`]'s answer.
    pub(super) fn rows_from(&self, first: usize) -> usize {
        if first == NONE {
            0
        } else {
            self.count[first]
        }
    }

    /// The first build row matching the current left row, or [`NONE`].
    /// All left keys are evaluated before the lookup, like the walk.
    pub(super) fn first_match(
        &self,
        keys: &[FusedExpr],
        slots: &[Value],
        frame: Option<&Frame<'_>>,
        cx: &Cx<'_>,
    ) -> ExecResult<usize> {
        match (&self.index, keys) {
            (KeyIndex::Ordered(map), [_, _, ..]) => {
                let key = keys
                    .iter()
                    .map(|k| k.eval(slots, frame, cx))
                    .collect::<ExecResult<Vec<_>>>()?;
                Ok(map.get(&key).copied().unwrap_or(NONE))
            }
            (_, [key]) => Ok(self.find(&*key.eval_ref(slots, frame, cx)?)),
            // No keys: the cross product's one bucket.
            _ => Ok(self.find(&Value::Null)),
        }
    }

    /// The first build row whose one key equals `key` under
    /// [`Value::cmp`], or [`NONE`]: every row of a table without keys.
    pub(super) fn find(&self, key: &Value) -> usize {
        let hit = match (&self.index, key) {
            (KeyIndex::All, _) => return if self.next.is_empty() { NONE } else { 0 },
            (KeyIndex::Ordered(map), _) => map.get(std::slice::from_ref(key)),
            (KeyIndex::Str(map), Value::Str(k)) => map.get(&**k),
            // No other kind compares equal to a string.
            _ => None,
        };
        hit.copied().unwrap_or(NONE)
    }
}
