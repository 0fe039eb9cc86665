//! The judgement *which build rows a left row meets*: a join's right side,
//! materialized once per execution or once per epoch, as flat rows chained
//! per key in build order, with the key index discriminated by kind so
//! that equality stays [`Value::cmp`]'s.

use super::compile::FusedExpr;
use super::drive::Frame;
use crate::error::ExecResult;
use crate::logical::Plan;
use monoid_calculus::expr::Expr;
use monoid_calculus::heap::Heap;
use monoid_calculus::value::{Oid, Value};
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

/// Build keys discriminated by kind. The typed buckets hold build sides
/// whose one key is uniformly of that kind; `Ordered` is the walk's own
/// `Value`-ordered map and takes everything else — composite keys, floats,
/// records, and any build side that mixes kinds (`Value::cmp` says
/// `1 = 1.0`, which no per-kind hash can honor across buckets).
#[derive(Default)]
pub(super) enum KeyIndex {
    /// No keys: every build row matches (the cross product).
    #[default]
    All,
    Int(HashMap<i64, usize>),
    Str(HashMap<Arc<str>, usize>),
    Oid(HashMap<Oid, usize>),
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

/// The typed bucket of a build side whose keys are all of the kind `of`
/// accepts; `None` at the first key that is not.
fn typed<K: std::hash::Hash + Eq>(
    keys: &[Value],
    links: &mut Links,
    of: impl Fn(&Value) -> Option<K>,
) -> Option<HashMap<K, usize>> {
    let mut map = HashMap::new();
    for (i, key) in keys.iter().enumerate().rev() {
        links.link(map.entry(of(key)?).or_insert(NONE), i);
    }
    Some(map)
}

impl Table {
    /// Index `n` build rows by `keys` (`arity` values per row, row-major).
    pub(super) fn new(rows: Arc<Vec<Value>>, n: usize, arity: usize, keys: Vec<Value>) -> Table {
        let mut links = Links { next: vec![NONE; n], count: vec![0; n] };
        let int = |k: &Value| if let Value::Int(k) = k { Some(*k) } else { None };
        let string = |k: &Value| if let Value::Str(k) = k { Some(k.clone()) } else { None };
        let oid = |k: &Value| if let Value::Obj(k) = k { Some(*k) } else { None };
        // A failed attempt leaves links behind; the next one rewrites
        // every row's.
        let index = if arity == 0 {
            let mut head = NONE;
            (0..n).rev().for_each(|i| links.link(&mut head, i));
            KeyIndex::All
        } else if arity > 1 {
            Table::ordered(&keys, arity, &mut links)
        } else if let Some(map) = typed(&keys, &mut links, int) {
            KeyIndex::Int(map)
        } else if let Some(map) = typed(&keys, &mut links, string) {
            KeyIndex::Str(map)
        } else if let Some(map) = typed(&keys, &mut links, oid) {
            KeyIndex::Oid(map)
        } else {
            Table::ordered(&keys, 1, &mut links)
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
