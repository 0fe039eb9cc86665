//! Soundness of the constraint & cardinality inference
//! (`calculus::analysis::infer`) against real executions:
//!
//! * the inferred cardinality interval always contains the row count the
//!   execution probe actually observed flowing into the reduction;
//! * every key certificate survives an exhaustive duplicate check over
//!   the store it was derived from.
//!
//! Queries and stores are both random: ≥ 256 cases over seeded travel
//! databases and a grammar of canonical comprehensions (dependent and
//! independent generators, equality/range/negated predicates, plain and
//! short-circuiting monoids).

use monoid_db::algebra::{execute_profiled_bound, plan_comprehension, Stats};
use monoid_db::calculus::analysis::{infer, Catalog};
use monoid_db::calculus::expr::Expr;
use monoid_db::calculus::monoid::Monoid;
use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::value::Value;
use monoid_db::store::{travel, Database, TravelScale};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// A random canonical comprehension over the travel schema.
// ---------------------------------------------------------------------------

/// Which second generator follows `c in Cities`, if any.
#[derive(Debug, Clone, Copy)]
enum Second {
    None,
    /// `h in c.hotels` — a dependent path.
    Dependent,
    /// `h in Hotels` — an independent extent (a join or cross product).
    Extent,
}

#[derive(Debug, Clone)]
struct Shape {
    second: Second,
    /// `r in h.rooms` (only meaningful when a second generator binds `h`).
    rooms: bool,
    /// `c.name = <s>` — sometimes a present city, sometimes not.
    city_name: Option<String>,
    /// Negate the city predicate (`not (c.name = s)`).
    negate_city: bool,
    /// A range conjunction over `r.bed#`: `(op, k)` with op 0 `=`,
    /// 1 `>=`, 2 `<`.
    bed: Option<(u8, i64)>,
    /// 0 bag, 1 set, 2 sum, 3 some (short-circuiting).
    monoid: u8,
}

fn shape() -> impl Strategy<Value = Shape> {
    let second = prop_oneof![
        Just(Second::None),
        Just(Second::Dependent),
        Just(Second::Extent),
    ];
    // The vendored proptest shim has no `prop::option`; a paired bool
    // plays the Some/None coin instead.
    let city = (
        prop::bool::ANY,
        prop::sample::select(vec![
            "Portland".to_string(),
            "Seattle".to_string(),
            "Boston".to_string(),
            "Nowhere".to_string(),
        ]),
    )
        .prop_map(|(some, name)| some.then_some(name));
    let bed = (prop::bool::ANY, 0u8..3, -1i64..7)
        .prop_map(|(some, op, k)| some.then_some((op, k)));
    (second, prop::bool::ANY, city, prop::bool::ANY, bed, 0u8..4)
        .prop_map(|(second, rooms, city_name, negate_city, bed, monoid)| Shape {
            second,
            rooms,
            city_name,
            negate_city,
            bed,
            monoid,
        })
}

fn build(shape: &Shape) -> Expr {
    let mut quals = vec![Expr::gen("c", Expr::var("Cities"))];
    if let Some(name) = &shape.city_name {
        let eq = Expr::var("c").proj("name").eq(Expr::str(name));
        quals.push(Expr::pred(if shape.negate_city { eq.not() } else { eq }));
    }
    let have_h = !matches!(shape.second, Second::None);
    match shape.second {
        Second::None => {}
        Second::Dependent => quals.push(Expr::gen("h", Expr::var("c").proj("hotels"))),
        Second::Extent => quals.push(Expr::gen("h", Expr::var("Hotels"))),
    }
    let have_r = have_h && shape.rooms;
    if have_r {
        quals.push(Expr::gen("r", Expr::var("h").proj("rooms")));
        if let Some((op, k)) = shape.bed {
            let lhs = Expr::var("r").proj("bed#");
            let p = match op {
                0 => lhs.eq(Expr::int(k)),
                1 => lhs.ge(Expr::int(k)),
                _ => lhs.lt(Expr::int(k)),
            };
            quals.push(Expr::pred(p));
        }
    }
    let deepest = if have_r {
        Expr::var("r").proj("bed#")
    } else if have_h {
        Expr::var("h").proj("name")
    } else {
        Expr::var("c").proj("name")
    };
    let (monoid, head) = match shape.monoid {
        0 => (Monoid::Bag, deepest),
        1 => (Monoid::Set, deepest),
        2 => (Monoid::Sum, Expr::int(1)),
        _ => (
            Monoid::Some,
            if have_r {
                Expr::var("r").proj("bed#").gt(Expr::int(2))
            } else {
                Expr::var("c").proj("hotel#").gt(Expr::int(0))
            },
        ),
    };
    Expr::comp(monoid, head, quals)
}

// ---------------------------------------------------------------------------
// Key-certificate validation: exhaustive duplicate check over the store.
// ---------------------------------------------------------------------------

/// Every element of the named collection as the generator would see it:
/// extents by root name, dependent paths by field name across the whole
/// heap (the same aggregation the gathered catalog uses).
fn collection_elements(db: &Database, key: Symbol) -> Vec<Value> {
    let mut out = Vec::new();
    for (name, value) in db.roots() {
        if name == key {
            if let Ok(es) = value.elements() {
                out.extend(es);
            }
        }
    }
    for (_, state) in db.heap().iter() {
        if let Value::Record(fields) = state {
            for (fname, fv) in fields.iter() {
                if *fname == key {
                    if let Ok(es) = fv.elements() {
                        out.extend(es);
                    }
                }
            }
        }
    }
    out
}

/// Dereference one level: generators over extents of objects see OIDs,
/// but attribute facts are gathered over the referenced records.
fn deref(db: &Database, v: &Value) -> Value {
    match v {
        Value::Obj(oid) => db.heap().get(*oid).expect("live oid").clone(),
        other => other.clone(),
    }
}

fn check_key_certs(db: &Database, e: &Expr, catalog: &Catalog) -> Result<(), TestCaseError> {
    let facts = infer(e, catalog);
    for cert in &facts.keys {
        let elems = collection_elements(db, cert.collection);
        match cert.attr {
            // A distinct-elements certificate: the raw generator values
            // (OIDs included — object identity is the value) never repeat.
            None => {
                let mut seen = BTreeSet::new();
                for el in &elems {
                    prop_assert!(
                        seen.insert(el.clone()),
                        "duplicate element in `{}` despite cert: {}",
                        cert.collection,
                        cert.reason
                    );
                }
            }
            // A unique-attribute certificate: the attribute's values,
            // over the dereferenced records, never repeat.
            Some(attr) => {
                let mut seen = BTreeSet::new();
                for el in &elems {
                    let Value::Record(fields) = deref(db, el) else { continue };
                    let Some((_, v)) = fields.iter().find(|(n, _)| *n == attr) else {
                        continue;
                    };
                    prop_assert!(
                        seen.insert(v.clone()),
                        "duplicate `{}.{}` despite cert: {}",
                        cert.collection,
                        attr,
                        cert.reason
                    );
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------------

proptest! {
    // ≥ 256 random store/query cases per run (the acceptance floor).
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inferred_interval_contains_observed_rows(s in shape(), seed in 0u64..8) {
        let db = travel::generate(TravelScale::tiny(), seed);
        let e = build(&s);
        let stats = Stats::gather(&db);
        let catalog = stats.catalog();
        let facts = infer(&e, catalog);
        let query = plan_comprehension(&e).unwrap();

        // The probe's observed row count lies inside the inferred interval.
        let analysis = execute_profiled_bound(&query, &[], &db, &[]).unwrap();
        let actual = analysis.profile.rows_to_reduce as f64;
        prop_assert!(
            actual <= facts.rows.hi + 1e-9,
            "observed {actual} rows above inferred hi {} for {:?}", facts.rows, s
        );
        if !analysis.profile.short_circuited {
            prop_assert!(
                facts.rows.lo <= actual + 1e-9,
                "observed {actual} rows below inferred lo {} for {:?}", facts.rows, s
            );
        }

        // Every key certificate survives an exhaustive duplicate check.
        check_key_certs(&db, &e, catalog)?;
    }
}
