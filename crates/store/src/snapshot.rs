//! Immutable database snapshots for concurrent, snapshot-isolated reads.
//!
//! A [`Snapshot`] is the read-only face of a [`Database`](crate::Database) at one point in
//! time: the Arc'd heap, roots, and schema, stamped with the
//! `(instance_id, mutation_epoch)` pair that keys the plan cache, and the
//! epoch's [`Memo`] of derived values (the fused engine's join tables,
//! the optimizer's gathered statistics), which every clone shares and
//! every mutation of the database replaces. Taking one is O(1) —
//! [`Database::snapshot`](crate::Database::snapshot) clones the one `Snapshot` the database owns, a
//! handful of `Arc`s — and the snapshot is `Send + Sync + Clone`, so any
//! number of reader threads can execute against it while the owning
//! database keeps committing new epochs. The copy-on-write storage
//! underneath ([`monoid_calculus::heap::Heap`]) guarantees a reader never sees a
//! torn state: a writer's first mutation after the snapshot unshares the
//! storage, leaving the snapshot bit-for-bit what it was.
//!
//! Because the monoid-comprehension calculus evaluates queries as pure
//! folds over the extents, snapshot reads are serializable for free: a
//! query against epoch *e* returns exactly what a single-threaded run
//! against the database at epoch *e* would have returned, byte for byte
//! (property-tested in `tests/concurrent_reads.rs`). Statements whose
//! effects would write the heap (`:=`, `new`) are refused here — they
//! must run against the `&mut Database` writer path, which is where
//! epochs advance.

use crate::database::store_metrics;
use crate::memo::Memo;
use monoid_calculus::analysis::EffectSummary;
use monoid_calculus::error::{EvalError, EvalResult, TypeResult};
use monoid_calculus::eval::Evaluator;
use monoid_calculus::expr::Expr;
use monoid_calculus::heap::Heap;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::typecheck::{TypeChecker, TypeEnv};
use monoid_calculus::types::{Schema, Type};
use monoid_calculus::value::{Env, Oid, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An immutable view of a [`Database`](crate::Database) at one mutation
/// epoch. Cheap to take, cheap to clone, safe to share across threads.
///
/// This is the *one* read surface of the store: a `Database` owns its
/// current state as a `Snapshot` and derefs to it, so every accessor
/// here is also what `db.root(..)`, `db.state(..)`, `db.env()` resolve
/// to. The fields are crate-private so only the writer in
/// [`crate::database`] can advance them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) schema: Arc<Schema>,
    /// [`schema_fingerprint`] of `schema`, computed once when the
    /// database is created — a database's schema never changes.
    pub(crate) schema_fp: u64,
    pub(crate) heap: Heap,
    /// Named persistent roots: extents (bags of objects) and any other
    /// top-level values.
    pub(crate) roots: Arc<BTreeMap<Symbol, Value>>,
    /// Which class each extent member list belongs to, for `insert`.
    pub(crate) extent_of: Arc<BTreeMap<Symbol, Symbol>>,
    /// Bumped on every root mutation (`insert` extent growth, `set_root`).
    /// Heap mutations are tracked by the heap's own version counter; the
    /// two together form [`Snapshot::epoch`].
    pub(crate) roots_epoch: u64,
    /// Process-unique identity (see [`Snapshot::instance_id`]); `0` for
    /// `Database::default()`.
    pub(crate) instance: u64,
    /// Values derived from this epoch's data; shared by clones, replaced
    /// by every mutation of the owning database.
    pub(crate) memo: Arc<Memo>,
}

/// Deterministic (per-process) fingerprint of a schema's debug form —
/// symbols intern to stable ids within a process, which is the lifetime
/// of every cache keyed by it.
pub(crate) fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{schema:?}").hash(&mut h);
    h.finish()
}

/// The anonymous empty state (`Database::default()`): what
/// `Database::new` builds over the empty schema — fingerprint included —
/// under the anonymous instance id `0`.
impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot { instance: 0, ..crate::Database::new(Schema::default()).snapshot() }
    }
}

impl Snapshot {
    /// A process-unique identity for the database this state belongs to.
    /// Paired with [`Snapshot::epoch`] it keys the plan cache: equal
    /// `(instance_id, epoch)` means the same data, byte for byte. `0` is
    /// `Database::default()`'s anonymous id.
    pub fn instance_id(&self) -> u64 {
        self.instance
    }

    /// The mutation epoch this state is at: heap version plus root
    /// mutations. Constant for a frozen snapshot; strictly increasing
    /// across every mutation of the owning database (see
    /// [`Database::mutation_epoch`](crate::Database::mutation_epoch)).
    pub fn epoch(&self) -> u64 {
        self.heap.version() + self.roots_epoch
    }

    /// The memo of values derived from this state, shared by every clone
    /// of this snapshot and by no later epoch (see [`crate::memo`]).
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Fingerprint of [`Snapshot::schema`], fixed at `Database::new` —
    /// the schema half of the plan cache's key.
    pub fn schema_fingerprint(&self) -> u64 {
        self.schema_fp
    }

    /// The pinned heap. Cloning it is O(1) (copy-on-write storage), which
    /// is how executors obtain an owned evaluator heap without copying
    /// the store.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    pub fn root(&self, name: Symbol) -> Option<&Value> {
        if self.is_extent(name) {
            store_metrics().extent_scans.inc();
        }
        self.roots.get(&name)
    }

    pub fn roots(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.roots.iter().map(|(k, v)| (*k, v))
    }

    /// The environment binding every persistent root, for evaluation.
    /// Counts each extent bound into scope as a (potential) extent scan
    /// — this is the point where a query gains access to the extents.
    /// (Every declared extent has a root from `Database::new` on, and
    /// roots are never removed.)
    pub fn env(&self) -> Env {
        store_metrics().extent_scans.add(self.extent_of.len() as u64);
        Env::from_bindings(self.roots.iter().map(|(k, v)| (*k, v.clone())))
    }

    /// Number of members of an extent.
    pub fn extent_len(&self, extent: impl Into<Symbol>) -> usize {
        self.roots
            .get(&extent.into())
            .and_then(|v| v.len().ok())
            .unwrap_or(0)
    }

    /// Is `name` the extent of some class?
    pub fn is_extent(&self, name: Symbol) -> bool {
        self.extent_of.values().any(|e| *e == name)
    }

    /// Number of objects in the heap.
    pub fn object_count(&self) -> usize {
        self.heap.len()
    }

    /// Read the state of an object.
    pub fn state(&self, oid: Oid) -> EvalResult<&Value> {
        store_metrics().state_reads.inc();
        self.heap.get(oid)
    }

    /// Read a field of an object's record state (convenience for tests
    /// and loaders).
    pub fn field(&self, oid: Oid, name: impl Into<Symbol>) -> EvalResult<Value> {
        let name = name.into();
        self.state(oid)?
            .field(name)
            .cloned()
            .ok_or_else(|| EvalError::Other(format!("object has no field `{name}`")))
    }

    /// Type-check a query against this state's schema.
    pub fn check(&self, e: &Expr) -> TypeResult<Type> {
        let mut tc = TypeChecker::with_schema(&self.schema);
        tc.check(&TypeEnv::new(), e)
    }

    /// Evaluate a *read-only* query against the pinned state. Statements
    /// whose effect summary writes the heap (`:=` updates, `new`
    /// allocations) are refused with an error naming the offending
    /// effect — they need the `&mut Database` writer path, both so their
    /// effects actually commit and so the OIDs they mint are not dangling
    /// references into a discarded local heap.
    pub fn query(&self, e: &Expr) -> EvalResult<Value> {
        let summary = EffectSummary::of(e);
        if summary.effects.mutates || summary.effects.allocates {
            return Err(EvalError::Other(format!(
                "statement has heap effects ({summary}) — snapshots are read-only; \
                 run it against the database writer instead"
            )));
        }
        self.eval_unchecked(e, &self.env())
    }

    /// Evaluate `e` under `env` against the pinned heap without an effect
    /// check — the executors' entry point, used after planning already
    /// proved purity. Local heap effects, were any to happen, would be
    /// discarded with the evaluator's copy-on-write heap clone.
    pub fn eval_unchecked(&self, e: &Expr, env: &Env) -> EvalResult<Value> {
        let mut ev = Evaluator::with_heap(self.heap.clone());
        ev.eval(env, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::travel::{self, TravelScale};
    use monoid_calculus::monoid::Monoid;

    fn sum_beds() -> Expr {
        Expr::comp(
            Monoid::Sum,
            Expr::var("r").proj("bed#"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        )
    }

    #[test]
    fn snapshot_pins_the_epoch_across_writer_mutations() {
        let mut db = travel::generate(TravelScale::tiny(), 42);
        let snap = db.snapshot();
        assert_eq!(snap.epoch(), db.mutation_epoch());
        assert_eq!(snap.instance_id(), db.instance_id());
        let before = snap.query(&sum_beds()).unwrap();

        // Writer commits new epochs; the snapshot keeps answering from
        // its pinned state. Rooms are plain records with no identity, so
        // the mutation assigns through the hotel objects, giving every
        // hotel a single bed#=99 room.
        let update = Expr::comp(
            Monoid::All,
            Expr::var("h").assign(Expr::record(vec![
                ("name", Expr::var("h").proj("name")),
                ("address", Expr::var("h").proj("address")),
                ("facilities", Expr::var("h").proj("facilities")),
                ("employees", Expr::var("h").proj("employees")),
                (
                    "rooms",
                    Expr::list_of(vec![Expr::record(vec![
                        ("bed#", Expr::int(99)),
                        ("price", Expr::int(1)),
                    ])]),
                ),
            ])),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        db.query(&update).unwrap();
        assert!(db.mutation_epoch() > snap.epoch());
        assert_eq!(snap.query(&sum_beds()).unwrap(), before);
        assert_ne!(db.query(&sum_beds()).unwrap(), before);
    }

    #[test]
    fn snapshot_is_o1_and_refuses_writes() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let snap = db.snapshot();
        assert!(snap.heap().shares_storage_with(db.heap()), "no copy taken");
        let alloc = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("x", Expr::new_obj(Expr::int(1)))],
        );
        let err = snap.query(&alloc).unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
    }

    #[test]
    fn snapshot_env_matches_database_env() {
        let mut db = travel::generate(TravelScale::tiny(), 42);
        let snap = db.snapshot();
        let q = sum_beds();
        assert_eq!(snap.query(&q).unwrap(), db.query(&q).unwrap());
    }
}
