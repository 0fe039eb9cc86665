//! A snapshot's memo: values derived from one epoch's data, built once and
//! shared by every clone of the [`Snapshot`](crate::Snapshot) that holds it.
//!
//! The store does not know what it keeps: a key is any `PartialEq` value
//! (compared with `==`, never hashed) and a value is an
//! `Arc<dyn Any + Send + Sync>` its builder downcasts. It keeps tables,
//! statistics and lanes. The fused engine keeps its param-free hash tables
//! here — a join's build side, or the extent a keyed filter probes — keyed
//! by the sub-plan that produces the rows and the key expressions over
//! them, and its lanes — one attribute over an extent, dictionary-coded —
//! keyed by the extent, the path and the attribute, or the refusal of a
//! lane that does not fit; the serving layer keeps the statistics its
//! prepares read, one gather per memo. Beside its entries it holds the
//! epoch's root environment, built by the first read that asks for it,
//! and per-extent *parts*: what was derived from one root alone (the
//! serving layer keeps each root's statistics there), keyed by the
//! root's name. Neither is an entry.
//!
//! The epoch *is* the invalidation protocol. Every [`Database`] path that
//! can change what a query reads installs a fresh memo, so the old one
//! stays with the snapshots taken before the change and dies with the
//! last of them. The fresh memo holds no entry. Only an insert carries
//! anything into it: the parts of every extent but the one it grew,
//! since allocating an object changes no other root and no live object.
//! Nothing is evicted; a value that does not fit under [`MEMO_BYTES`] is
//! simply not kept, and its builder builds it again next time, as it
//! would without a memo.
//!
//! The lock is held for a lookup or an insert, never while a value is
//! built: two executions that miss at once both build, and the first
//! insert wins.
//!
//! [`Database`]: crate::Database

use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::Env;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The most bytes one snapshot's memo holds, as its builders count them.
pub const MEMO_BYTES: usize = 32 << 20;

/// A memoized value, shared; its builder downcasts it.
pub type Shared = Arc<dyn Any + Send + Sync>;

/// Derived values of one epoch. See the module docs.
#[derive(Default)]
pub struct Memo {
    state: Mutex<State>,
    /// The epoch's root environment ([`crate::Snapshot::env`]); not an
    /// entry, so it counts in neither `len`, `bytes` nor `misses`.
    env: OnceLock<Env>,
}

#[derive(Default)]
struct State {
    entries: Vec<(Box<dyn Any + Send + Sync>, Shared)>,
    /// What the entries hold, in their builders' count.
    bytes: usize,
    /// Lookups that found nothing — each one a build.
    misses: usize,
    /// Extent name → what was derived from that root alone.
    parts: BTreeMap<Symbol, Shared>,
}

impl State {
    fn find<K: 'static>(&self, is_key: impl Fn(&K) -> bool) -> Option<&Shared> {
        self.entries
            .iter()
            .find(|(key, _)| key.downcast_ref::<K>().is_some_and(&is_key))
            .map(|(_, value)| value)
    }
}

impl Memo {
    /// Every update leaves `State` whole (a push after a check), so a
    /// panic elsewhere while the lock was held cannot leave it torn.
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value kept under the key `is_key` accepts. A miss is counted:
    /// the caller is about to build.
    pub fn get<K: 'static>(&self, is_key: impl Fn(&K) -> bool) -> Option<Shared> {
        let mut state = self.lock();
        let hit = state.find(&is_key).cloned();
        state.misses += usize::from(hit.is_none());
        hit
    }

    /// Keep `value`, which its builder counts as `bytes`, under `key` —
    /// unless an equal key is already kept (the first insert wins) or the
    /// memo has no room for it. Whether it was kept.
    pub fn insert<K: PartialEq + Send + Sync + 'static>(
        &self,
        key: K,
        value: Shared,
        bytes: usize,
    ) -> bool {
        let mut state = self.lock();
        if state.find(|k: &K| *k == key).is_some() || state.bytes.saturating_add(bytes) > MEMO_BYTES {
            return false;
        }
        state.bytes += bytes;
        state.entries.push((Box::new(key), value));
        true
    }

    /// The part kept for `extent`. A part is not an entry: looking for
    /// one counts no miss.
    pub fn part(&self, extent: Symbol) -> Option<Shared> {
        self.lock().parts.get(&extent).cloned()
    }

    /// Keep `part` for `extent`, unless one is kept already (the first
    /// wins). It costs nothing against [`MEMO_BYTES`].
    pub fn keep_part(&self, extent: Symbol, part: Shared) {
        self.lock().parts.entry(extent).or_insert(part);
    }

    /// A fresh memo for the epoch an insert into `touched` starts: no
    /// entry, and every part of this memo but `touched`'s.
    pub(crate) fn carry_parts(&self, touched: Option<Symbol>) -> Memo {
        let mut parts = self.lock().parts.clone();
        if let Some(extent) = touched {
            parts.remove(&extent);
        }
        Memo { state: Mutex::new(State { parts, ..State::default() }), env: OnceLock::new() }
    }

    /// The epoch's root environment: `build`'s, built once, by the first
    /// caller.
    pub(crate) fn env(&self, build: impl FnOnce() -> Env) -> &Env {
        self.env.get_or_init(build)
    }

    /// How many values are kept.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What the kept values hold, in their builders' count.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// How many lookups found nothing: the builds this memo has seen.
    pub fn misses(&self) -> usize {
        self.lock().misses
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.lock();
        f.debug_struct("Memo")
            .field("entries", &state.entries.len())
            .field("bytes", &state.bytes)
            .field("misses", &state.misses)
            .field("parts", &state.parts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: &Shared) -> i64 {
        *v.downcast_ref::<i64>().expect("an i64")
    }

    #[test]
    fn the_first_insert_under_a_key_wins_and_misses_are_counted() {
        let memo = Memo::default();
        assert!(memo.get(|k: &String| k == "a").is_none());
        assert!(memo.insert("a".to_string(), Arc::new(1_i64), 8));
        assert!(!memo.insert("a".to_string(), Arc::new(2_i64), 8));
        assert_eq!(memo.get(|k: &String| k == "a").as_ref().map(int), Some(1));
        assert_eq!((memo.len(), memo.misses()), (1, 1));
        // Keys of another type never match, whatever they compare like.
        assert!(memo.get(|k: &&str| *k == "a").is_none());
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn a_value_over_the_byte_cap_is_not_kept() {
        let memo = Memo::default();
        assert!(memo.insert(1_u8, Arc::new(1_i64), MEMO_BYTES - 8));
        assert!(!memo.insert(2_u8, Arc::new(2_i64), 16));
        assert!(memo.insert(3_u8, Arc::new(3_i64), 8));
        assert!(memo.get(|k: &u8| *k == 2).is_none());
        assert_eq!(memo.get(|k: &u8| *k == 3).as_ref().map(int), Some(3));
        assert_eq!((memo.len(), memo.bytes()), (2, MEMO_BYTES));
    }

    #[test]
    fn memo_parts_are_not_entries_and_carry_all_but_the_touched_extent() {
        let (a, b) = (Symbol::new("A"), Symbol::new("B"));
        let memo = Memo::default();
        assert!(memo.part(a).is_none());
        memo.keep_part(a, Arc::new(1_i64));
        memo.keep_part(a, Arc::new(2_i64));
        memo.keep_part(b, Arc::new(3_i64));
        assert_eq!(memo.part(a).as_ref().map(int), Some(1), "the first part wins");
        assert_eq!((memo.len(), memo.bytes(), memo.misses()), (0, 0, 0));
        assert!(memo.insert(0_u8, Arc::new(4_i64), 8));

        let next = memo.carry_parts(Some(a));
        assert!(next.part(a).is_none());
        assert!(Arc::ptr_eq(&next.part(b).unwrap(), &memo.part(b).unwrap()));
        assert_eq!((next.len(), next.bytes(), next.misses()), (0, 0, 0));
        let all = memo.carry_parts(None);
        assert_eq!(
            (all.part(a).as_ref().map(int), all.part(b).as_ref().map(int)),
            (Some(1), Some(3))
        );
        assert!(all.is_empty());
    }
}
