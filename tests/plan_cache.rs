//! The plan cache's freshness stamp is the full `(instance_id,
//! mutation_epoch)` pair, not the epoch alone. Epoch numbers are only
//! comparable within one database instance: two freshly-generated
//! databases march through the *same* epoch values, so an epoch-only
//! stamp would serve one instance's plan — and the optimizer statistics
//! baked into it — to the other. These tests pin the pair semantics for
//! the live-database path, the snapshot path, and the one-slot stats
//! gather reuse behind `prepare_on`.

use monoid_db::calculus::value::Value;
use monoid_db::store::{travel, Database, TravelScale};
use monoid_db::{Params, PlanCache, Session};
use std::sync::Arc;

fn db(seed: u64) -> Database {
    travel::generate(TravelScale::tiny(), seed)
}

const SRC: &str = "select h.name from c in Cities, h in c.hotels where c.name = $city";

fn params() -> Params {
    Params::new().bind("city", Value::str("Portland"))
}

/// Two instances at identical epochs must not share entries: the lookup
/// on the second instance is a miss, not a cross-instance hit.
#[test]
fn identical_epochs_on_different_instances_do_not_collide() {
    let a = db(7);
    let b = db(7); // same seed, same schema, same epoch trajectory
    assert_eq!(a.mutation_epoch(), b.mutation_epoch(), "the trap this test pins");
    assert_ne!(a.instance_id(), b.instance_id());

    let cache = PlanCache::new();
    let (for_a, hit) = cache.get_or_prepare_snapshot_traced(&a, SRC).unwrap();
    assert!(!hit, "first lookup is cold");
    let (for_b, hit) = cache.get_or_prepare_snapshot_traced(&b, SRC).unwrap();
    assert!(!hit, "same epoch but a different instance must miss");
    assert!(!Arc::ptr_eq(&for_a, &for_b), "each instance prepared its own statement");

    // Within one instance the entry is served normally.
    let (again, hit) = cache.get_or_prepare_snapshot_traced(&b, SRC).unwrap();
    assert!(hit);
    assert!(Arc::ptr_eq(&for_b, &again));
}

/// The snapshot path uses the same pair: a snapshot of instance A never
/// hits instance B's entry, and a snapshot at the entry's own stamp
/// does.
#[test]
fn snapshot_lookups_respect_the_instance_half() {
    let a = db(9);
    let b = db(9);
    let cache = PlanCache::new();

    let (for_a, _) = cache.get_or_prepare_snapshot_traced(&a.snapshot(), SRC).unwrap();
    let (hit_a, disposition) = cache.get_or_prepare_snapshot_traced(&a.snapshot(), SRC).unwrap();
    assert!(disposition, "same instance, same epoch: hit");
    assert!(Arc::ptr_eq(&for_a, &hit_a));

    let (for_b, disposition) =
        cache.get_or_prepare_snapshot_traced(&b.snapshot(), SRC).unwrap();
    assert!(!disposition, "other instance at the same epoch: miss");
    assert!(!Arc::ptr_eq(&for_a, &for_b));

    // A writer on the live database and a snapshot pinned at the old
    // epoch key different entries too.
    let mut a = a;
    let pinned = a.snapshot();
    a.set_root("Scratch", Value::Int(1));
    let (fresh, disposition) = cache.get_or_prepare_snapshot_traced(&a, SRC).unwrap();
    assert!(!disposition, "the epoch moved: re-prepare");
    let (old, disposition) = cache.get_or_prepare_snapshot_traced(&pinned, SRC).unwrap();
    // The pinned epoch's entry was replaced by the fresh one in the LRU
    // slot, so this is a miss that re-prepares at the pinned stamp — the
    // important property is it never serves the *newer* epoch's entry.
    assert!(!disposition);
    assert!(!Arc::ptr_eq(&fresh, &old));

    // Both statements still execute correctly against their own stamp.
    let session = Session::with_cache(Arc::new(PlanCache::new()));
    let live = session.query(&mut a, SRC, &params()).unwrap();
    let snap_v = session.query_snapshot(&pinned, SRC, &params()).unwrap();
    assert_eq!(live, snap_v, "scratch root does not affect the query result");
}

/// End-to-end through `Session`: statements served to two instances in
/// alternation never cross-contaminate results.
#[test]
fn alternating_instances_get_their_own_answers() {
    let mut small = db(11);
    let mut grown = db(11);
    // Grow one instance so the two answers differ.
    grown
        .insert(
            monoid_db::calculus::symbol::Symbol::new("City"),
            Value::record_from(vec![
                ("name", Value::str("Extra")),
                ("hotels", Value::list(vec![])),
                ("hotel#", Value::Int(0)),
            ]),
        )
        .unwrap();

    let session = Session::with_cache(Arc::new(PlanCache::new()));
    let count_small = session.query(&mut small, "count(Cities)", &Params::new()).unwrap();
    let count_grown = session.query(&mut grown, "count(Cities)", &Params::new()).unwrap();
    assert_eq!(count_small, Value::Int(3));
    assert_eq!(count_grown, Value::Int(4));
    // Alternate a few times: every answer stays with its instance.
    for _ in 0..3 {
        assert_eq!(
            session.query(&mut small, "count(Cities)", &Params::new()).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            session.query(&mut grown, "count(Cities)", &Params::new()).unwrap(),
            Value::Int(4)
        );
    }
}
