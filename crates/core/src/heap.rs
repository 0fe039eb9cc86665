//! The object heap — identity and updates (paper §4.2).
//!
//! The paper models `new`/`!`/`:=` with a monoid of *state transformers*
//! that thread an object heap ("bindings from OIDs to object states")
//! through every operation. Operationally that is exactly a mutable heap
//! threaded left-to-right through evaluation, which is what we implement:
//! the evaluator owns a [`Heap`] and qualifiers see each other's effects in
//! order, reproducing all four of the paper's examples (see
//! `tests/identity_updates.rs`).

use crate::error::{EvalError, EvalResult};
use crate::value::{Oid, Value};
use std::sync::Arc;

/// A growable store of object states indexed by [`Oid`].
///
/// Storage is copy-on-write: the state vector lives behind an `Arc`, so
/// cloning a heap is O(1) regardless of how many objects it holds. A
/// mutation (`alloc`/`set`) on a heap whose storage is shared with a
/// clone first unshares it (one deep copy), leaving every other clone
/// untouched — which is exactly the snapshot-isolation contract the
/// store builds on: readers holding a snapshot keep seeing the heap as
/// it was, writers commit new epochs against their own copy.
#[derive(Debug, Clone)]
pub struct Heap {
    states: Arc<Vec<Value>>,
    /// Bumped on every mutation (`alloc`/`set`). Consumers (the store's
    /// mutation epoch, the plan walk's per-operator heap-mutation counts)
    /// compare versions to detect that the heap changed between two
    /// points in time; the counter
    /// travels with the heap through clone and `mem::take`/restore cycles.
    version: u64,
}

impl Default for Heap {
    fn default() -> Heap {
        Heap { states: Arc::new(Vec::new()), version: 0 }
    }
}

impl Heap {
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Allocate a new object with the given state; returns its identity.
    /// Distinct calls always produce distinct OIDs (the paper's first
    /// example: `some{ !x = !y | x ← new(1), y ← new(1) }` is true — equal
    /// *states* — while `x = y` would be false — distinct *identities*).
    pub fn alloc(&mut self, state: Value) -> Oid {
        let states = Arc::make_mut(&mut self.states);
        let oid = Oid(states.len() as u64);
        states.push(state);
        self.version += 1;
        oid
    }

    /// Dereference: the current state of `oid`.
    pub fn get(&self, oid: Oid) -> EvalResult<&Value> {
        self.states
            .get(oid.0 as usize)
            .ok_or(EvalError::InvalidOid(oid.0))
    }

    /// Update the state of `oid`.
    pub fn set(&mut self, oid: Oid, state: Value) -> EvalResult<()> {
        if (oid.0 as usize) >= self.states.len() {
            return Err(EvalError::InvalidOid(oid.0));
        }
        let states = Arc::make_mut(&mut self.states);
        states[oid.0 as usize] = state;
        self.version += 1;
        Ok(())
    }

    /// Do `self` and `other` share the same underlying storage (i.e. is
    /// cloning between them still free)? Diagnostic for the COW tests —
    /// equal answers do not require shared storage.
    pub fn shares_storage_with(&self, other: &Heap) -> bool {
        Arc::ptr_eq(&self.states, &other.states)
    }

    /// Mutation counter: strictly increases across `alloc`/`set` calls.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Iterate over `(oid, state)` pairs (used by stores to snapshot).
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &Value)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, v)| (Oid(i as u64), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_allocations_distinct_identities() {
        let mut h = Heap::new();
        let a = h.alloc(Value::Int(1));
        let b = h.alloc(Value::Int(1));
        assert_ne!(a, b);
        assert_eq!(h.get(a).unwrap(), h.get(b).unwrap());
    }

    #[test]
    fn set_updates_state() {
        let mut h = Heap::new();
        let a = h.alloc(Value::Int(1));
        h.set(a, Value::Int(42)).unwrap();
        assert_eq!(h.get(a).unwrap(), &Value::Int(42));
    }

    #[test]
    fn version_tracks_mutations() {
        let mut h = Heap::new();
        let v0 = h.version();
        let a = h.alloc(Value::Int(1));
        assert!(h.version() > v0);
        let v1 = h.version();
        h.set(a, Value::Int(2)).unwrap();
        assert!(h.version() > v1);
        // Clones carry the version; reads do not bump it.
        let c = h.clone();
        assert_eq!(c.version(), h.version());
        let _ = h.get(a).unwrap();
        assert_eq!(c.version(), h.version());
    }

    #[test]
    fn clones_share_storage_until_written() {
        let mut h = Heap::new();
        let a = h.alloc(Value::Int(1));
        let snapshot = h.clone();
        assert!(snapshot.shares_storage_with(&h), "clone is O(1)");
        // Writing through one side unshares it; the other keeps the old
        // states and version.
        h.set(a, Value::Int(2)).unwrap();
        assert!(!snapshot.shares_storage_with(&h));
        assert_eq!(snapshot.get(a).unwrap(), &Value::Int(1));
        assert_eq!(h.get(a).unwrap(), &Value::Int(2));
        assert!(h.version() > snapshot.version());
        // Allocation on the writer is invisible to the snapshot.
        let b = h.alloc(Value::Int(3));
        assert_eq!(snapshot.len(), 1);
        assert!(snapshot.get(b).is_err());
        // Once unshared, further writes stay in place (no copies needed).
        let states_before = Arc::as_ptr(&h.states);
        h.set(a, Value::Int(4)).unwrap();
        assert_eq!(Arc::as_ptr(&h.states), states_before);
    }

    #[test]
    fn dangling_oid_is_an_error() {
        let h = Heap::new();
        assert!(matches!(h.get(Oid(7)), Err(EvalError::InvalidOid(7))));
        let mut h = h;
        assert!(h.set(Oid(7), Value::Null).is_err());
    }
}
