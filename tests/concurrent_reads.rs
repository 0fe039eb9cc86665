//! Snapshot isolation under concurrency: many reader threads execute
//! against pinned [`Snapshot`]s while a writer commits new epochs, and
//! every result must be byte-identical to a quiet single-threaded run of
//! the same query at the same epoch.
//!
//! Two layers:
//!
//! * a threaded battery — N readers in a loop, each taking a fresh
//!   snapshot per statement through the real serving path
//!   ([`Session::query_snapshot`]), racing one writer that commits a
//!   visible mutation per epoch and records the single-threaded answer
//!   for each epoch it publishes;
//! * a ≥256-case property test over *random mutation interleavings* —
//!   snapshots pinned at arbitrary points of a random op sequence must
//!   replay to exactly the value a fresh database fed the same op prefix
//!   produces, even after every later op has run.

use monoid_db::algebra::execute_plan_walk_bound;
use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::value::Value;
use monoid_db::store::{travel, Database, Snapshot, TravelScale};
use monoid_db::{prepare_on, Params, Session};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// Counting query whose answer changes whenever the writer inserts a
/// city: the readers' probe.
const COUNT_CITIES: &str = "count(Cities)";

/// A self-join of the cities on `hotel#`: the writer's inserts change its
/// build side, which the fused fold keeps in the snapshot's memo.
const CITY_PAIRS: &str =
    "count(select c.name from a in Cities, c in Cities where a.hotel# = c.hotel#)";

/// A keyed filter: the fused fold probes a table of `Hotels` by name that
/// the snapshot's memo keeps, whatever `$name` is bound to.
const HOTEL_NAMED: &str = "exists h in Hotels: h.name = $name";

fn db(seed: u64) -> Database {
    travel::generate(TravelScale::tiny(), seed)
}

fn city(name: &str) -> Value {
    Value::record_from(vec![
        ("name", Value::str(name)),
        ("hotels", Value::list(vec![])),
        ("hotel#", Value::Int(0)),
    ])
}

fn hotel(name: &str) -> Value {
    Value::record_from(vec![
        ("name", Value::str(name)),
        ("address", Value::str("1 New St")),
        ("facilities", Value::set_from(vec![])),
        ("employees", Value::list(vec![])),
        ("rooms", Value::list(vec![])),
    ])
}

/// The single-threaded oracle: execute `src` against a snapshot with a
/// private cold session — no shared cache, no other threads.
fn oracle(snap: &Snapshot, src: &str) -> Value {
    let session = Session::with_cache(Arc::new(monoid_db::PlanCache::new()));
    session.query_snapshot(snap, src, &Params::new()).expect("oracle query executes")
}

/// The oracle for a join or a probe: the plan walk, which builds its
/// table per execution (or filters plainly) and never reads the
/// snapshot's memo.
fn walk_oracle(snap: &Snapshot, src: &str, params: &Params) -> Value {
    let stmt = prepare_on(snap, src).expect("oracle statement prepares");
    let plan = stmt.query().expect("the statement has a plan");
    execute_plan_walk_bound(plan, snap, params.bindings()).expect("oracle walk executes")
}

/// Every statement the readers send, with its single-threaded answer.
fn answers(snap: &Snapshot) -> [(&'static str, Value); 2] {
    [
        (COUNT_CITIES, oracle(snap, COUNT_CITIES)),
        (CITY_PAIRS, walk_oracle(snap, CITY_PAIRS, &Params::new())),
    ]
}

// ---------------------------------------------------------------------
// Threaded battery
// ---------------------------------------------------------------------

/// N readers race one writer. The writer publishes, for every epoch it
/// commits, the single-threaded answer at that epoch; each reader
/// observation (epoch, value) must match the published answer exactly.
#[test]
fn concurrent_readers_see_single_threaded_answers() {
    const READERS: usize = 8;
    const WRITES: usize = 40;
    const READS_PER_READER: usize = 60;

    let database = Arc::new(RwLock::new(db(11)));
    // (epoch, statement) → the quiet single-threaded answer at that epoch.
    let expected: Arc<Mutex<Expected>> = Arc::new(Mutex::new(HashMap::new()));
    publish(&expected, &database.read().unwrap().snapshot());

    let writer = {
        let database = Arc::clone(&database);
        let expected = Arc::clone(&expected);
        std::thread::spawn(move || {
            for i in 0..WRITES {
                let snap = {
                    let mut d = database.write().unwrap();
                    d.insert(Symbol::new("City"), city(&format!("w{i}"))).unwrap();
                    d.snapshot()
                };
                // Publish the oracle answer for the epoch just committed
                // *outside* the write lock — readers race the map, which
                // is exactly the point: an observation is only checked
                // against its own epoch's entry.
                publish(&expected, &snap);
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let database = Arc::clone(&database);
            std::thread::spawn(move || {
                let session = Session::new();
                let mut seen = Vec::with_capacity(READS_PER_READER);
                for i in 0..READS_PER_READER {
                    let src = [COUNT_CITIES, CITY_PAIRS][i % 2];
                    let snap = database.read().unwrap().snapshot();
                    let value = session
                        .query_snapshot(&snap, src, &Params::new())
                        .expect("snapshot read executes");
                    seen.push((snap.epoch(), src, value));
                }
                seen
            })
        })
        .collect();

    let observations: Vec<(u64, &str, Value)> =
        readers.into_iter().flat_map(|r| r.join().expect("reader thread completes")).collect();
    writer.join().expect("writer thread completes");

    assert_eq!(observations.len(), READERS * READS_PER_READER);
    let expected = expected.lock().unwrap();
    let mut epochs_seen = std::collections::BTreeSet::new();
    for (epoch, src, value) in &observations {
        let want = expected
            .get(&(*epoch, *src))
            .unwrap_or_else(|| panic!("reader observed unpublished epoch {epoch}"));
        assert_eq!(value, want, "epoch {epoch}: `{src}` diverged from oracle");
        epochs_seen.insert(*epoch);
    }
    // Sanity on the harness itself: the counting query really does move
    // with the writer, so equality above is not vacuous.
    let values: std::collections::BTreeSet<i64> = observations
        .iter()
        .filter(|(_, src, _)| *src == COUNT_CITIES)
        .map(|(_, _, v)| match v {
            Value::Int(n) => *n,
            other => panic!("count query returned {other:?}"),
        })
        .collect();
    assert!(!epochs_seen.is_empty());
    assert_eq!(
        expected.len(),
        2 * (WRITES + 1),
        "every committed epoch published exactly one oracle answer per statement"
    );
    // The final epoch's answer reflects all WRITES inserts.
    let epochs: std::collections::BTreeSet<u64> = expected.keys().map(|(e, _)| *e).collect();
    let (first, last) = (*epochs.first().unwrap(), *epochs.last().unwrap());
    let base = match expected[&(first, COUNT_CITIES)] {
        Value::Int(n) => n,
        ref other => panic!("count query returned {other:?}"),
    };
    assert_eq!(expected[&(last, COUNT_CITIES)], Value::Int(base + WRITES as i64));
    assert!(values.iter().all(|n| (base..=base + WRITES as i64).contains(n)));
    // The join moved with the writer too, and runs off the memo: the
    // final epoch keeps one table and the lane of `a.hotel#` the counted
    // join folds over, next to the one statistics gather its prepares
    // share, and reading it again builds nothing. (Readers still
    // running at the final epoch may each have missed once before the
    // first insert won, so only reads after the first are counted.)
    assert_ne!(expected[&(first, CITY_PAIRS)], expected[&(last, CITY_PAIRS)]);
    let snap = database.read().unwrap().snapshot();
    let session = Session::new();
    let mut built = None;
    for _ in 0..3 {
        let value = session.query_snapshot(&snap, CITY_PAIRS, &Params::new()).unwrap();
        assert_eq!(value, expected[&(last, CITY_PAIRS)]);
        let misses = snap.memo().misses();
        assert_eq!(*built.get_or_insert(misses), misses, "a warm read rebuilt");
    }
    assert_eq!(snap.memo().len(), 3);
}

/// `(epoch, statement) → answer`, as the writer publishes it.
type Expected = HashMap<(u64, &'static str), Value>;

fn publish(expected: &Mutex<Expected>, snap: &Snapshot) {
    for (src, value) in answers(snap) {
        expected.lock().unwrap().insert((snap.epoch(), src), value);
    }
}

/// Readers pinned to one snapshot keep answering from it while the
/// writer commits arbitrarily many epochs past them — and unshared COW
/// storage means the live database and the pinned snapshot evolve
/// independently.
#[test]
fn pinned_snapshots_never_observe_later_commits() {
    let database = Arc::new(RwLock::new(db(13)));
    let pinned = database.read().unwrap().snapshot();
    let before = oracle(&pinned, COUNT_CITIES);

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let pinned = pinned.clone();
            let before = before.clone();
            let database = Arc::clone(&database);
            std::thread::spawn(move || {
                let session = Session::new();
                for i in 0..50 {
                    if i % 5 == 0 {
                        let mut d = database.write().unwrap();
                        let n = d.mutation_epoch();
                        d.set_root("Scratch", Value::Int(n as i64));
                        d.insert(Symbol::new("City"), city(&format!("p{n}"))).unwrap();
                    }
                    let v = session
                        .query_snapshot(&pinned, COUNT_CITIES, &Params::new())
                        .expect("pinned read executes");
                    assert_eq!(v, before, "pinned snapshot drifted");
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("pinned reader completes");
    }

    // The live database really did move on.
    let live = database.read().unwrap().snapshot();
    assert!(live.epoch() > pinned.epoch());
    assert_ne!(oracle(&live, COUNT_CITIES), before);
    // And the pinned snapshot still answers from its own epoch.
    assert_eq!(oracle(&pinned, COUNT_CITIES), before);
}

/// Readers pinned before a writer inserts a hotel keep answering `false`
/// for it from their epoch's table, and readers at the new epoch answer
/// `true` from theirs — each what the walk answers at that epoch.
#[test]
fn pinned_probes_miss_an_inserted_hotel_and_new_epochs_find_it() {
    let database = Arc::new(RwLock::new(db(17)));
    let pinned = database.read().unwrap().snapshot();
    let params = Params::new().bind("name", Value::str("hotel_new"));
    // Warm the pinned epoch's table, so it is built exactly once.
    let session = Session::new();
    assert_eq!(session.query_snapshot(&pinned, HOTEL_NAMED, &params).unwrap(), Value::Bool(false));
    let start = Arc::new(std::sync::Barrier::new(5));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (database, pinned) = (Arc::clone(&database), pinned.clone());
            let (params, start) = (params.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let session = Session::new();
                let mut seen = Vec::new();
                start.wait();
                // Alternate the pinned snapshot with the live one until the
                // live one has moved past it.
                loop {
                    let live = database.read().unwrap().snapshot();
                    for snap in [&pinned, &live] {
                        let v = session.query_snapshot(snap, HOTEL_NAMED, &params).unwrap();
                        seen.push((snap.epoch(), v));
                    }
                    if seen.len() >= 40 && live.epoch() != pinned.epoch() {
                        return seen;
                    }
                }
            })
        })
        .collect();
    start.wait();
    database.write().unwrap().insert(Symbol::new("Hotel"), hotel("hotel_new")).unwrap();
    let observations: Vec<(u64, Value)> =
        readers.into_iter().flat_map(|r| r.join().expect("reader thread completes")).collect();

    let inserted = database.read().unwrap().snapshot();
    let before = walk_oracle(&pinned, HOTEL_NAMED, &params);
    let after = walk_oracle(&inserted, HOTEL_NAMED, &params);
    assert_eq!((&before, &after), (&Value::Bool(false), &Value::Bool(true)));
    for (epoch, value) in &observations {
        let want = if *epoch == pinned.epoch() { &before } else { &after };
        assert!([pinned.epoch(), inserted.epoch()].contains(epoch), "unknown epoch {epoch}");
        assert_eq!(value, want, "epoch {epoch}");
    }
    assert!(observations.iter().any(|(e, _)| *e == inserted.epoch()));
    // One table and one statistics gather per epoch: the pinned ones were
    // never rebuilt — the live epoch's re-prepares did not evict the
    // pinned statistics — and the new epoch kept one of each (readers
    // that missed at once may each have built).
    assert_eq!((pinned.memo().len(), pinned.memo().misses()), (2, 2));
    assert_eq!(inserted.memo().len(), 2);
}

// ---------------------------------------------------------------------
// Property test: random mutation interleavings
// ---------------------------------------------------------------------

/// One step of a random history.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a fresh city into the extent.
    InsertCity,
    /// Clobber a scratch root (epoch bump without touching the extent).
    SetScratch(i64),
    /// Pin a snapshot here.
    Pin,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::InsertCity),
        (-100i64..100).prop_map(Op::SetScratch),
        Just(Op::Pin),
    ]
}

/// Replay `ops[..k]` into a fresh database and return the oracle answers
/// at that point.
fn replay(seed: u64, ops: &[Op]) -> (Value, Value) {
    let mut d = db(seed);
    let mut inserted = 0usize;
    for op in ops {
        apply(&mut d, op, &mut inserted);
    }
    let snap = d.snapshot();
    (oracle(&snap, COUNT_CITIES), oracle(&snap, "sum(select c.hotel# from c in Cities)"))
}

fn apply(d: &mut Database, op: &Op, inserted: &mut usize) {
    match op {
        Op::InsertCity => {
            d.insert(Symbol::new("City"), city(&format!("gen{inserted}"))).unwrap();
            *inserted += 1;
        }
        Op::SetScratch(n) => d.set_root("Scratch", Value::Int(*n)),
        Op::Pin => {}
    }
}

proptest! {
    // ≥256 interleavings, as the battery demands.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Snapshots pinned at arbitrary points of a random mutation history
    /// answer — *after the whole history has run* — exactly what a fresh
    /// database fed the same prefix answers. COW isolation holds at
    /// every interleaving, not just the ones the threaded battery
    /// happens to hit.
    #[test]
    fn random_interleavings_preserve_pinned_answers(
        seed in 0u64..64,
        ops in prop::collection::vec(op(), 1..24),
    ) {
        let mut d = db(seed);
        let mut inserted = 0usize;
        let mut pins: Vec<(usize, Snapshot)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, Op::Pin) {
                pins.push((i, d.snapshot()));
            }
            apply(&mut d, op, &mut inserted);
        }
        // Pin the final state too, so every run checks at least one.
        pins.push((ops.len(), d.snapshot()));

        for (prefix_len, snap) in &pins {
            let (want_count, want_sum) = replay(seed, &ops[..*prefix_len]);
            prop_assert_eq!(&oracle(snap, COUNT_CITIES), &want_count);
            prop_assert_eq!(
                &oracle(snap, "sum(select c.hotel# from c in Cities)"),
                &want_sum
            );
            // Epochs pinned earlier never exceed the live epoch.
            prop_assert!(snap.epoch() <= d.mutation_epoch());
        }
    }
}
