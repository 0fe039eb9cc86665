//! The object database: a schema, an object heap, named persistent roots
//! (class extents among them), and query entry points.
//!
//! This is the substrate the paper assumes: "persistent roots" that OQL
//! names resolve against, objects with identity whose state lives in a
//! heap, and class extents one can iterate. Queries are calculus
//! expressions evaluated against the database's heap with the roots in
//! scope; the heap is threaded through evaluation so update programs
//! (paper §4.2/§4.3) mutate the database in place.

use crate::memo::Memo;
use crate::Snapshot;
use monoid_calculus::error::EvalResult;
use monoid_calculus::eval::Evaluator;
use monoid_calculus::expr::Expr;
use monoid_calculus::heap::Heap;
use monoid_calculus::metrics;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::types::Schema;
use monoid_calculus::value::{Env, Oid, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// An object database: the one writer of a [`Snapshot`].
///
/// The database owns its readable state *as* a `Snapshot` and derefs to
/// it, so every read accessor (`schema`, `root`, `state`, `env`,
/// `check`, …) is the snapshot's, and [`Database::snapshot`] is a clone
/// of one field — O(1), since schema, roots, and the heap's storage all
/// live behind `Arc`s. Mutations go through `Arc::make_mut` — free while
/// no snapshot is outstanding, one copy-on-write unshare when one is —
/// so writers never block readers and readers never observe a torn
/// state.
#[derive(Debug, Default)]
pub struct Database {
    current: Snapshot,
}

impl std::ops::Deref for Database {
    type Target = Snapshot;

    fn deref(&self) -> &Snapshot {
        &self.current
    }
}

/// Clones get a *fresh* instance id and a fresh memo: a clone and its
/// original mutate independently afterwards, so their epochs would
/// collide under a shared id and stale gathered statistics — or join
/// tables — could be served for the wrong data.
impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            current: Snapshot {
                instance: next_instance(),
                memo: Arc::default(),
                ..self.current.clone()
            },
        }
    }
}

fn next_instance() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Database {
    /// An empty database over `schema`. Every class extent declared in the
    /// schema starts as an empty bag.
    pub fn new(schema: Schema) -> Database {
        let mut roots = BTreeMap::new();
        let mut extent_of = BTreeMap::new();
        for class in schema.classes() {
            if let Some(extent) = class.extent {
                roots.insert(extent, Value::bag_from(Vec::new()));
                extent_of.insert(class.name, extent);
            }
        }
        Database {
            current: Snapshot {
                schema_fp: crate::snapshot::schema_fingerprint(&schema),
                schema: Arc::new(schema),
                heap: Heap::new(),
                roots: Arc::new(roots),
                extent_of: Arc::new(extent_of),
                roots_epoch: 0,
                instance: next_instance(),
                memo: Arc::default(),
            },
        }
    }

    /// An immutable, `O(1)` snapshot of this database's current state,
    /// stamped with `(instance_id, epoch)`. Any number of reader threads
    /// can execute against the snapshot concurrently while this database
    /// keeps mutating — a mutation after the snapshot copy-on-writes the
    /// shared storage, so the snapshot keeps seeing exactly the state it
    /// was taken at (see [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        self.current.clone()
    }

    /// The current [`Snapshot::epoch`]: a counter that strictly
    /// increases across every mutation of the database — object
    /// allocation, state update (including updates made by query
    /// evaluation), extent growth, and root rebinding. Two equal epochs
    /// mean no mutation happened in between, which is what the snapshot
    /// memo's derived values rely on.
    pub fn mutation_epoch(&self) -> u64 {
        self.current.epoch()
    }

    /// The state a mutation is about to change, under the fresh `memo`:
    /// what was derived from the old state stays with the snapshots taken
    /// of it. Every writer goes through here; only an insert hands it
    /// anything but an empty memo.
    fn advance(&mut self, memo: Memo) -> &mut Snapshot {
        self.current.memo = Arc::new(memo);
        &mut self.current
    }

    /// Direct heap access for bulk loaders.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.advance(Memo::default()).heap
    }

    /// Allocate an object of `class` with the given record `state` and add
    /// it to the class's extent (if it has one). Returns the new identity.
    ///
    /// A fresh OID sorts after every object in the heap, so adding it to a
    /// bag extent is an append to the bag's runs — in place while no
    /// snapshot shares them. A root that is not a bag is rebuilt as one.
    ///
    /// The new memo keeps the old one's parts for every other extent
    /// ([`Memo`]): an allocation changes no other root and no object a
    /// root could reach before.
    pub fn insert(&mut self, class: Symbol, state: Value) -> EvalResult<Oid> {
        let touched = self.current.extent_of.get(&class).copied();
        let memo = self.current.memo.carry_parts(touched);
        let cur = self.advance(memo);
        let oid = cur.heap.alloc(state);
        let m = metrics::global();
        m.store_objects_inserted_total.inc();
        m.store_heap_objects.set(cur.heap.len() as i64);
        if let Some(extent) = touched {
            let obj = Value::Obj(oid);
            let root = Arc::make_mut(&mut cur.roots)
                .entry(extent)
                .or_insert_with(|| Value::bag_from(Vec::new()));
            match root {
                Value::Bag(runs) => {
                    let runs = runs.make_mut();
                    match runs.binary_search_by(|(v, _)| v.cmp(&obj)) {
                        Ok(i) => runs[i].1 += 1,
                        Err(i) => runs.insert(i, (obj, 1)),
                    }
                }
                other => {
                    let mut elems = other.elements()?;
                    elems.push(obj);
                    *other = Value::bag_from(elems);
                }
            }
            cur.roots_epoch += 1;
        }
        Ok(oid)
    }

    /// Set (or create) a named persistent root.
    pub fn set_root(&mut self, name: impl Into<Symbol>, value: Value) {
        let cur = self.advance(Memo::default());
        Arc::make_mut(&mut cur.roots).insert(name.into(), value);
        cur.roots_epoch += 1;
    }

    /// Evaluate a query over the roots ([`Database::query_in`]).
    pub fn query(&mut self, e: &Expr) -> EvalResult<Value> {
        self.query_in(&self.env(), e)
    }

    /// Evaluate a query under `env`: the roots, and whatever the caller
    /// binds over them. The heap is moved into the evaluator and back, so
    /// update programs mutate the database in place without copying; only
    /// a query that changed the heap advances to a fresh memo, so a read —
    /// or a write that wrote nothing — keeps what its epoch has derived.
    /// Records query count, latency, and errors in the process-wide
    /// metrics registry.
    pub fn query_in(&mut self, env: &Env, e: &Expr) -> EvalResult<Value> {
        let m = metrics::global();
        m.store_queries_total.inc();
        let started = Instant::now();
        let version = self.current.heap.version();
        let mut ev = Evaluator::with_heap(std::mem::take(&mut self.current.heap));
        let result = ev.eval(env, e);
        self.current.heap = ev.heap;
        if self.current.heap.version() != version {
            self.advance(Memo::default());
        }
        m.store_query_nanos.observe_nanos(started.elapsed().as_nanos());
        m.store_heap_objects.set(self.object_count() as i64);
        if result.is_err() {
            m.store_query_errors_total.inc();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monoid_calculus::monoid::Monoid;
    use monoid_calculus::types::{ClassDef, Type};

    fn tiny_schema() -> Schema {
        let mut s = Schema::new();
        s.add_class(ClassDef {
            name: Symbol::new("Point"),
            state: Type::record(vec![
                (Symbol::new("x"), Type::Int),
                (Symbol::new("y"), Type::Int),
            ]),
            extent: Some(Symbol::new("Points")),
            superclass: None,
        });
        s
    }

    #[test]
    fn insert_populates_extent() {
        let mut db = Database::new(tiny_schema());
        let class = Symbol::new("Point");
        for i in 0..3 {
            db.insert(
                class,
                Value::record_from(vec![("x", Value::Int(i)), ("y", Value::Int(-i))]),
            )
            .unwrap();
        }
        assert_eq!(db.extent_len("Points"), 3);
        assert_eq!(db.object_count(), 3);
    }

    fn point(i: i64) -> Value {
        Value::record_from(vec![("x", Value::Int(i)), ("y", Value::Int(-i))])
    }

    /// The update program `all{ p := ⟨x=10, y=20⟩ | p ← Points }`.
    fn move_every_point() -> Expr {
        Expr::comp(
            Monoid::All,
            Expr::var("p").assign(Expr::record(vec![
                ("x", Expr::int(10)),
                ("y", Expr::int(20)),
            ])),
            vec![Expr::gen("p", Expr::var("Points"))],
        )
    }

    fn runs_ptr(db: &Database) -> *const (Value, u64) {
        match db.root(Symbol::new("Points")) {
            Some(Value::Bag(runs)) => runs.as_ptr(),
            other => panic!("Points is not a bag: {other:?}"),
        }
    }

    #[test]
    fn inserts_append_to_the_extent_in_place_and_spare_snapshots() {
        let mut db = Database::new(tiny_schema());
        let class = Symbol::new("Point");
        let mut oids = Vec::new();
        for i in 0..5 {
            oids.push(Value::Obj(db.insert(class, point(i)).unwrap()));
        }
        assert_eq!(db.root(Symbol::new("Points")), Some(&Value::bag_from(oids.clone())));

        // No snapshot outstanding: the runs' allocation is reused.
        let before = runs_ptr(&db);
        oids.push(Value::Obj(db.insert(class, point(5)).unwrap()));
        assert_eq!(runs_ptr(&db), before);

        // A snapshot keeps the extent it was taken at.
        let snap = db.snapshot();
        oids.push(Value::Obj(db.insert(class, point(6)).unwrap()));
        assert_eq!(snap.root(Symbol::new("Points")), Some(&Value::bag_from(oids[..6].to_vec())));
        assert_eq!(db.root(Symbol::new("Points")), Some(&Value::bag_from(oids.clone())));
    }

    #[test]
    fn insert_after_an_extent_was_set_to_a_list_rebuilds_it_as_a_bag() {
        let mut db = Database::new(tiny_schema());
        let class = Symbol::new("Point");
        let first = Value::Obj(db.insert(class, point(0)).unwrap());
        db.set_root("Points", Value::list(vec![first.clone(), first.clone()]));
        let second = Value::Obj(db.insert(class, point(1)).unwrap());
        assert_eq!(
            db.root(Symbol::new("Points")),
            Some(&Value::bag_from(vec![first.clone(), second, first]))
        );
        db.set_root("Points", Value::Int(3));
        assert!(db.insert(class, point(2)).is_err(), "not a collection");
    }

    #[test]
    fn query_over_extent() {
        let mut db = Database::new(tiny_schema());
        let class = Symbol::new("Point");
        for i in 1..=4 {
            db.insert(
                class,
                Value::record_from(vec![("x", Value::Int(i)), ("y", Value::Int(0))]),
            )
            .unwrap();
        }
        // sum{ p.x | p ← Points, p.x > 2 } = 7
        let q = Expr::comp(
            Monoid::Sum,
            Expr::var("p").proj("x"),
            vec![
                Expr::gen("p", Expr::var("Points")),
                Expr::pred(Expr::var("p").proj("x").gt(Expr::int(2))),
            ],
        );
        assert_eq!(db.query(&q).unwrap(), Value::Int(7));
        // And the query type-checks against the schema.
        assert_eq!(db.check(&q).unwrap(), Type::Int);
    }

    #[test]
    fn updates_persist_across_queries() {
        let mut db = Database::new(tiny_schema());
        let class = Symbol::new("Point");
        let oid = db
            .insert(class, Value::record_from(vec![("x", Value::Int(1)), ("y", Value::Int(2))]))
            .unwrap();
        assert_eq!(db.query(&move_every_point()).unwrap(), Value::Bool(true));
        assert_eq!(db.field(oid, "x").unwrap(), Value::Int(10));
    }

    #[test]
    fn mutation_epoch_advances_on_every_mutation_kind() {
        let mut db = Database::new(tiny_schema());
        let e0 = db.mutation_epoch();
        // Insert: heap alloc + extent growth.
        let oid = db
            .insert(
                Symbol::new("Point"),
                Value::record_from(vec![("x", Value::Int(1)), ("y", Value::Int(2))]),
            )
            .unwrap();
        let e1 = db.mutation_epoch();
        assert!(e1 > e0);
        // Root rebinding.
        db.set_root("marker", Value::Int(7));
        let e2 = db.mutation_epoch();
        assert!(e2 > e1);
        // Heap update through query evaluation (`:=`).
        db.query(&move_every_point()).unwrap();
        let e3 = db.mutation_epoch();
        assert!(e3 > e2, "heap mutation inside a query advances the epoch");
        // Read-only operations do not, and keep the epoch's memo.
        db.memo().insert((), Arc::new(()), 0);
        let _ = db.state(oid).unwrap();
        let sum = Expr::comp(
            Monoid::Sum,
            Expr::var("p").proj("x"),
            vec![Expr::gen("p", Expr::var("Points"))],
        );
        db.query(&sum).unwrap();
        assert!(db.query(&Expr::var("missing")).is_err());
        assert_eq!(db.mutation_epoch(), e3);
        assert_eq!(db.memo().len(), 1, "a read keeps its epoch's memo");
    }

    #[test]
    fn every_writer_and_every_clone_starts_a_fresh_memo() {
        let mut db = Database::new(tiny_schema());
        let kept = |db: &Database| db.memo().insert((), Arc::new(()), 0);
        let writes: [&dyn Fn(&mut Database); 5] = [
            &|db| {
                db.insert(Symbol::new("Point"), point(1)).unwrap();
            },
            &|db| db.set_root("marker", Value::Int(1)),
            &|db| {
                let _ = db.heap_mut();
            },
            &|db| *db = db.clone(),
            &|db| {
                db.query(&move_every_point()).unwrap();
            },
        ];
        for write in writes {
            kept(&db);
            let snap = db.snapshot();
            write(&mut db);
            assert!(db.memo().is_empty());
            assert_eq!(snap.memo().len(), 1, "the snapshot keeps its epoch's memo");
        }
    }

    #[test]
    fn an_insert_carries_the_memo_parts_of_every_extent_it_did_not_grow() {
        let mut schema = tiny_schema();
        for (class, extent) in [("Line", Some("Lines")), ("Loose", None)] {
            schema.add_class(ClassDef {
                name: Symbol::new(class),
                state: Type::record(vec![(Symbol::new("x"), Type::Int)]),
                extent: extent.map(Symbol::new),
                superclass: None,
            });
        }
        let mut db = Database::new(schema);
        let (points, lines) = (Symbol::new("Points"), Symbol::new("Lines"));
        let keep_parts = |db: &Database| {
            for extent in [points, lines] {
                db.memo().keep_part(extent, Arc::new(extent));
            }
            db.memo().insert((), Arc::new(()), 0);
        };
        let parts = |memo: &Memo| [points, lines].map(|e| memo.part(e).is_some());

        keep_parts(&db);
        let snap = db.snapshot();
        db.insert(Symbol::new("Point"), point(1)).unwrap();
        assert_eq!(parts(db.memo()), [false, true], "the grown extent's part is dropped");
        assert!(Arc::ptr_eq(&db.memo().part(lines).unwrap(), &snap.memo().part(lines).unwrap()));
        assert_eq!((db.memo().len(), db.memo().bytes(), db.memo().misses()), (0, 0, 0));
        assert_eq!(parts(snap.memo()), [true, true], "the snapshot keeps its epoch's parts");

        keep_parts(&db);
        db.insert(Symbol::new("Loose"), point(2)).unwrap();
        assert_eq!(parts(db.memo()), [true, true], "no extent grew");
        assert!(db.memo().is_empty());

        let writes: [&dyn Fn(&mut Database); 4] = [
            &|db| db.set_root("marker", Value::Int(1)),
            &|db| {
                let _ = db.heap_mut();
            },
            &|db| *db = db.clone(),
            &|db| {
                db.query(&move_every_point()).unwrap();
            },
        ];
        for write in writes {
            keep_parts(&db);
            write(&mut db);
            assert_eq!(parts(db.memo()), [false, false]);
        }
    }

    #[test]
    fn roots_are_visible_to_queries() {
        let mut db = Database::new(Schema::new());
        db.set_root("answer", Value::Int(42));
        let q = Expr::var("answer").add(Expr::int(0));
        assert_eq!(db.query(&q).unwrap(), Value::Int(42));
    }

    #[test]
    fn unknown_root_is_an_error() {
        let mut db = Database::new(Schema::new());
        assert!(db.query(&Expr::var("nothing")).is_err());
    }

    #[test]
    fn store_operations_feed_the_metrics_registry() {
        // Other tests in this binary also hit the global registry
        // concurrently, so assert deltas as lower bounds.
        let before = metrics::global().snapshot();
        let mut db = Database::new(tiny_schema());
        let class = Symbol::new("Point");
        let oid = db
            .insert(class, Value::record_from(vec![("x", Value::Int(1)), ("y", Value::Int(2))]))
            .unwrap();
        let _ = db.state(oid).unwrap();
        let q = Expr::comp(
            Monoid::Sum,
            Expr::var("p").proj("x"),
            vec![Expr::gen("p", Expr::var("Points"))],
        );
        db.query(&q).unwrap();
        assert!(db.query(&Expr::var("missing")).is_err());
        let d = metrics::global().snapshot().diff(&before);
        assert!(d.counter("store_objects_inserted_total") >= 1);
        assert!(d.counter("store_state_reads_total") >= 1);
        assert!(d.counter("store_queries_total") >= 2);
        assert!(d.counter("store_query_errors_total") >= 1);
        // Both queries bound the Points extent into scope.
        assert!(d.counter("store_extent_scans_total") >= 2);
        let lat = d.histogram_with("store_query_nanos", &[]).unwrap();
        assert!(lat.count >= 2, "two queries timed, saw {}", lat.count);
        assert!(metrics::global().snapshot().gauge("store_heap_objects").is_some());
    }
}
