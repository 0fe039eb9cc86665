//! Secondary indexes — the physical-design dimension the companion paper
//! \[17\] ("An Algebraic Framework for Physical OODB Design") adds on top of
//! the calculus. The SIGMOD paper's efficiency story is: normalize to
//! canonical form, map to the algebra, then choose physical access paths.
//! This module supplies the access paths: hash-style indexes on extent
//! fields, and an optimizer pass that rewrites `Scan → Filter(var.f = k)`
//! pipelines into index lookups.
//!
//! Indexes are immutable snapshots of the database at build time, stamped
//! with the database's [mutation epoch](Snapshot::epoch). The
//! rewrite pass refuses a stale index — a lookup built before the last
//! update would silently answer from old data — and skips it
//! ([`apply_indexes`]); [`IndexCatalog::build`] again to refresh one.

use crate::error::ExecResult;
use crate::logical::{Plan, Query};
use monoid_calculus::error::EvalError;
use monoid_calculus::expr::{BinOp, Expr};
use monoid_calculus::subst::free_vars;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::Value;
use monoid_store::Snapshot;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// An index over one field of one extent: field value → member objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    pub extent: Symbol,
    pub field: Symbol,
    entries: BTreeMap<Value, Vec<Value>>,
    len: usize,
    /// The database's mutation epoch when this snapshot was built.
    epoch: u64,
}

impl Index {
    /// The [mutation epoch](Snapshot::epoch) this index was built
    /// at; it answers correctly only while the database still reports the
    /// same epoch.
    pub fn built_at_epoch(&self) -> u64 {
        self.epoch
    }

    /// Is this snapshot still consistent with `db`?
    pub fn is_fresh(&self, db: &Snapshot) -> bool {
        self.epoch == db.epoch()
    }
    /// All members whose field equals `key`.
    pub fn lookup(&self, key: &Value) -> &[Value] {
        self.entries.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }
}

/// A set of indexes, keyed by `(extent, field)`.
#[derive(Debug, Default, Clone)]
pub struct IndexCatalog {
    indexes: HashMap<(Symbol, Symbol), Arc<Index>>,
}

impl IndexCatalog {
    pub fn new() -> IndexCatalog {
        IndexCatalog::default()
    }

    /// Build (or rebuild) an index on `extent`.`field`.
    pub fn build(
        &mut self,
        db: &Snapshot,
        extent: impl Into<Symbol>,
        field: impl Into<Symbol>,
    ) -> ExecResult<()> {
        let extent = extent.into();
        let field = field.into();
        let root = db
            .root(extent)
            .ok_or_else(|| EvalError::Other(format!("no extent `{extent}` to index")))?;
        let mut entries: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
        let mut len = 0usize;
        for member in root.elements()? {
            let key = match &member {
                Value::Obj(oid) => db
                    .state(*oid)?
                    .field(field)
                    .cloned()
                    .ok_or_else(|| {
                        EvalError::Other(format!("member of `{extent}` has no field `{field}`"))
                    })?,
                other => other.field(field).cloned().ok_or_else(|| {
                    EvalError::Other(format!("member of `{extent}` has no field `{field}`"))
                })?,
            };
            entries.entry(key).or_default().push(member);
            len += 1;
        }
        self.indexes.insert(
            (extent, field),
            Arc::new(Index { extent, field, entries, len, epoch: db.epoch() }),
        );
        Ok(())
    }

    pub fn get(&self, extent: Symbol, field: Symbol) -> Option<&Arc<Index>> {
        self.indexes.get(&(extent, field))
    }

    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }
}

/// Rewrite `Filter(var.field = key) ∘ Scan(var ← Extent)` into an index
/// lookup wherever the catalog has a matching **fresh** index and the key
/// expression is independent of the scan variable. Indexes whose snapshot
/// epoch trails `db.epoch()` are refused — the filter pipeline
/// stays as-is rather than answering from stale data. Returns the
/// rewritten query and how many lookups were introduced.
pub fn apply_indexes(query: &Query, catalog: &IndexCatalog, db: &Snapshot) -> (Query, usize) {
    let mut count = 0;
    let epoch = db.epoch();
    let plan = rewrite(&query.plan, catalog, epoch, &mut count);
    // Recompute the static effect classification: the rewrite replaces
    // filter+scan pipelines with index lookups, which can only shrink the
    // set of embedded expressions.
    let plan_effects = plan.effects();
    (
        Query { plan, monoid: query.monoid.clone(), head: query.head.clone(), plan_effects },
        count,
    )
}

fn rewrite(plan: &Plan, catalog: &IndexCatalog, epoch: u64, count: &mut usize) -> Plan {
    match plan {
        Plan::Filter { input, pred } => {
            // Try the pattern on this filter + an immediate scan below.
            if let Plan::Scan { var, source: Expr::Var(extent) } = input.as_ref() {
                if let Some((field, key)) = match_field_equality(pred, *var) {
                    if let Some(index) = catalog.get(*extent, field) {
                        // A snapshot from an earlier epoch would answer
                        // with pre-update data; keep the scan instead.
                        if index.built_at_epoch() == epoch {
                            *count += 1;
                            return Plan::IndexLookup {
                                var: *var,
                                index: index.clone(),
                                key: Box::new(key),
                            };
                        }
                    }
                }
            }
            Plan::Filter {
                input: Box::new(rewrite(input, catalog, epoch, count)),
                pred: pred.clone(),
            }
        }
        Plan::Unnest { input, var, path } => Plan::Unnest {
            input: Box::new(rewrite(input, catalog, epoch, count)),
            var: *var,
            path: path.clone(),
        },
        Plan::Bind { input, var, expr } => Plan::Bind {
            input: Box::new(rewrite(input, catalog, epoch, count)),
            var: *var,
            expr: expr.clone(),
        },
        Plan::Join { left, right, on } => Plan::Join {
            left: Box::new(rewrite(left, catalog, epoch, count)),
            right: Box::new(rewrite(right, catalog, epoch, count)),
            on: on.clone(),
        },
        Plan::Scan { .. } | Plan::IndexLookup { .. } => plan.clone(),
    }
}

/// Match `var.field = key` (either orientation) where `key` does not
/// mention `var`.
fn match_field_equality(pred: &Expr, var: Symbol) -> Option<(Symbol, Expr)> {
    let Expr::BinOp(BinOp::Eq, a, b) = pred else { return None };
    let try_side = |proj: &Expr, key: &Expr| -> Option<(Symbol, Expr)> {
        let Expr::Proj(base, field) = proj else { return None };
        let Expr::Var(v) = base.as_ref() else { return None };
        if *v == var && !free_vars(key).contains(&var) {
            Some((*field, key.clone()))
        } else {
            None
        }
    };
    try_side(a, b).or_else(|| try_side(b, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::logical::plan_comprehension;
    use monoid_calculus::monoid::Monoid;
    use monoid_store::travel::{self, TravelScale};

    fn portland_query() -> Expr {
        Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
            ],
        )
    }

    #[test]
    fn index_build_and_lookup() {
        let db = travel::generate(TravelScale::tiny(), 5);
        let mut cat = IndexCatalog::new();
        cat.build(&db, "Cities", "name").unwrap();
        let idx = cat.get(Symbol::new("Cities"), Symbol::new("name")).unwrap();
        assert_eq!(idx.len(), TravelScale::tiny().cities);
        assert_eq!(idx.lookup(&Value::str("Portland")).len(), 1);
        assert_eq!(idx.lookup(&Value::str("Nowhere")).len(), 0);
    }

    #[test]
    fn optimizer_introduces_index_lookup() {
        let db = travel::generate(TravelScale::tiny(), 5);
        let mut cat = IndexCatalog::new();
        cat.build(&db, "Cities", "name").unwrap();
        let q = plan_comprehension(&portland_query()).unwrap();
        let (indexed, hits) = apply_indexes(&q, &cat, &db);
        assert_eq!(hits, 1);
        assert!(format!("{:?}", indexed.plan).contains("IndexLookup"));
        // Results agree with the unindexed plan.
        let plain = execute(&q, &db).unwrap();
        let fast = execute(&indexed, &db).unwrap();
        assert_eq!(plain, fast);
    }

    #[test]
    fn index_scan_does_less_work() {
        let db = travel::generate(TravelScale::with_hotels(400), 5);
        let mut cat = IndexCatalog::new();
        cat.build(&db, "Cities", "name").unwrap();
        let q = plan_comprehension(&portland_query()).unwrap();
        let (indexed, _) = apply_indexes(&q, &cat, &db);
        let (v1, plain_steps) = crate::exec::execute_counted_bound(&q, &db, &[]).unwrap();
        let (v2, index_steps) = crate::exec::execute_counted_bound(&indexed, &db, &[]).unwrap();
        assert_eq!(v1, v2);
        assert!(
            index_steps * 4 < plain_steps,
            "index {index_steps} vs scan {plain_steps}"
        );
    }

    #[test]
    fn no_index_no_rewrite() {
        let db = travel::generate(TravelScale::tiny(), 5);
        let q = plan_comprehension(&portland_query()).unwrap();
        let (same, hits) = apply_indexes(&q, &IndexCatalog::new(), &db);
        assert_eq!(hits, 0);
        assert_eq!(same.plan, q.plan);
    }

    #[test]
    fn stale_indexes_are_refused() {
        // Regression: the rewrite pass used to install index lookups built
        // before the latest update, answering queries from stale data.
        // Now snapshots carry the mutation epoch and a trailing index is
        // skipped (the plan keeps its scan, which reads live data).
        let mut db = travel::generate(TravelScale::tiny(), 5);
        let mut cat = IndexCatalog::new();
        cat.build(&db, "Cities", "name").unwrap();
        let q = plan_comprehension(&portland_query()).unwrap();
        let (_, hits) = apply_indexes(&q, &cat, &db);
        assert_eq!(hits, 1, "fresh index is used");

        // Any mutation — here a field update — advances the epoch.
        let touch = Expr::comp(
            Monoid::All,
            Expr::var("e").assign(Expr::record(vec![
                ("name", Expr::var("e").proj("name")),
                ("salary", Expr::int(1)),
            ])),
            vec![Expr::gen("e", Expr::var("Employees"))],
        );
        db.query(&touch).unwrap();
        let idx = cat.get(Symbol::new("Cities"), Symbol::new("name")).unwrap();
        assert!(!idx.is_fresh(&db), "snapshot trails the database");
        let (plan, hits) = apply_indexes(&q, &cat, &db);
        assert_eq!(hits, 0, "stale index is refused");
        assert!(!format!("{:?}", plan.plan).contains("IndexLookup"));

        // Building again refreshes the snapshot, and the rewrite uses it.
        cat.build(&db, "Cities", "name").unwrap();
        let (plan, hits) = apply_indexes(&q, &cat, &db);
        assert_eq!(hits, 1);
        assert!(format!("{:?}", plan.plan).contains("IndexLookup"));
        assert!(cat
            .get(Symbol::new("Cities"), Symbol::new("name"))
            .unwrap()
            .is_fresh(&db));
    }
}
