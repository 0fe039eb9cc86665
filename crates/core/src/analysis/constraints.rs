//! The fact domain of the abstract interpreter ([`super::infer`]): closed
//! intervals over non-negative reals, a sound selectivity algebra on
//! `[0, 1]` fractions, and the statistics catalog the algebra layer fills
//! from a live database (`Stats::gather` in `monoid-algebra`).
//!
//! The split matters for crate layering: the *shapes* of the facts live
//! here in the core (so the interpreter can reason over canonical
//! comprehensions without a store dependency), while the *numbers* are
//! gathered by whoever owns a `Database` and handed in as a [`Catalog`].
//! It is the planner's *one* fact table: `Stats` is a `Catalog` and
//! nothing beside it — the cost model reads extent sizes
//! ([`ExtentFacts::size`]) and fan-outs ([`FieldFacts::avg_fanout`]) from
//! the same walk the interpreter's intervals come from.
//! An empty catalog is always a sound input — every lookup misses and the
//! interpreter falls back to `[0, ∞)` / `[0, 1]` top elements.

use crate::symbol::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// A closed interval `[lo, hi]` over the non-negative reals; `hi` may be
/// `+∞`. Used both for cardinalities (absolute row counts) and, through
/// the `*_sel` combinators, for predicate selectivities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    /// The selectivity top element: nothing is known, any fraction of the
    /// rows may survive.
    pub const ANY_FRACTION: Interval = Interval { lo: 0.0, hi: 1.0 };
    /// The cardinality top element.
    pub const UNBOUNDED: Interval = Interval { lo: 0.0, hi: f64::INFINITY };
    /// The always-true selectivity / the one-row cardinality.
    pub const ONE: Interval = Interval { lo: 1.0, hi: 1.0 };
    /// The always-false selectivity / the empty cardinality.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    pub fn new(lo: f64, hi: f64) -> Interval {
        let lo = lo.max(0.0);
        Interval { lo, hi: hi.max(lo) }
    }

    pub fn point(x: f64) -> Interval {
        Interval::new(x, x)
    }

    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    pub fn is_empty(&self) -> bool {
        self.hi <= 0.0
    }

    /// Interval product (both operands non-negative). `0 × ∞` resolves to
    /// `0`: a generator over an empty extent yields no rows no matter how
    /// unbounded the other factor is.
    pub fn product(self, o: Interval) -> Interval {
        fn m(a: f64, b: f64) -> f64 {
            if a == 0.0 || b == 0.0 {
                0.0
            } else {
                a * b
            }
        }
        Interval::new(m(self.lo, o.lo), m(self.hi, o.hi))
    }

    /// Midpoint, for costing. An unbounded interval has no midpoint; fall
    /// back to `default` (clamped into the interval).
    pub fn midpoint(&self, default: f64) -> f64 {
        if self.hi.is_finite() {
            (self.lo + self.hi) / 2.0
        } else {
            default.max(self.lo)
        }
    }

    /// Geometric midpoint `√(lo·hi)` (with `lo` clamped to ≥ 1), the
    /// estimate that minimizes the worst-case *q-error* over the interval:
    /// whichever endpoint the true count lands on, the ratio is at most
    /// `√(hi/lo)`. Used for short-circuiting reductions, whose observed
    /// row count stops anywhere in `[1, hi]`.
    pub fn geometric_midpoint(&self) -> f64 {
        let lo = self.lo.max(1.0);
        if self.hi.is_finite() {
            (lo * self.hi.max(lo)).sqrt()
        } else {
            lo
        }
    }

    // ---- the sound selectivity algebra over [0, 1] fractions ----
    //
    // If the fraction of rows satisfying `A` lies in `[la, ha]` and the
    // fraction satisfying `B` in `[lb, hb]`, then by inclusion–exclusion:

    /// `A ∧ B` ∈ `[max(0, la + lb − 1), min(ha, hb)]`.
    pub fn and_sel(self, o: Interval) -> Interval {
        Interval::new((self.lo + o.lo - 1.0).max(0.0), self.hi.min(o.hi))
    }

    /// `A ∨ B` ∈ `[max(la, lb), min(1, ha + hb)]`.
    pub fn or_sel(self, o: Interval) -> Interval {
        Interval::new(self.lo.max(o.lo), (self.hi + o.hi).min(1.0))
    }

    /// `¬A` ∈ `[1 − ha, 1 − la]`.
    pub fn not_sel(self) -> Interval {
        Interval::new((1.0 - self.hi).max(0.0), (1.0 - self.lo).min(1.0))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi.is_finite() {
            write!(f, "[{}, {}]", self.lo, self.hi)
        } else {
            write!(f, "[{}, ∞)", self.lo)
        }
    }
}

/// Per-attribute statistics of the (scalar-valued) fields of one
/// collection's element records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrFacts {
    /// Rows observed carrying this attribute.
    pub count: u64,
    /// Distinct values observed.
    pub distinct: u64,
    /// The highest multiplicity of any single value — the sound
    /// "at most this many rows share a value" bound.
    pub max_freq: u64,
    /// Numeric domain, when every observed value was a number.
    pub min: Option<f64>,
    pub max: Option<f64>,
}

impl AttrFacts {
    /// Is this attribute a key of its collection (every observed value
    /// distinct)?
    pub fn unique(&self) -> bool {
        self.count > 0 && self.distinct == self.count
    }
}

/// Facts about one named extent (a database root that is a collection).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtentFacts {
    pub size: u64,
    /// Were the extent's elements pairwise distinct when gathered? True
    /// for OID extents built by the store — the basis of the generator
    /// key certificate.
    pub distinct_elements: bool,
    pub attrs: BTreeMap<Symbol, AttrFacts>,
}

/// Facts about one named record field whose values are collections —
/// the fan-out statistics that bound dependent generators (`h ← c.hotels`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FieldFacts {
    /// Occurrences of the field with a collection value.
    pub occurrences: u64,
    pub min_fanout: u64,
    pub max_fanout: u64,
    /// Total elements across occurrences (`avg = total / occurrences`).
    pub total: u64,
    /// Attribute statistics of the element records of this collection.
    pub attrs: BTreeMap<Symbol, AttrFacts>,
}

impl FieldFacts {
    pub fn avg_fanout(&self) -> f64 {
        self.total as f64 / (self.occurrences.max(1)) as f64
    }
}

/// The statistics catalog: everything the abstract interpreter knows
/// about the data, keyed by extent name and by field name. Field facts
/// are keyed by field *name* alone (not per class), so their bounds cover
/// every occurrence of that name in the store — coarser, but sound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    pub extents: BTreeMap<Symbol, ExtentFacts>,
    pub fields: BTreeMap<Symbol, FieldFacts>,
}

impl Catalog {
    pub fn extent(&self, name: Symbol) -> Option<&ExtentFacts> {
        self.extents.get(&name)
    }

    pub fn field(&self, name: Symbol) -> Option<&FieldFacts> {
        self.fields.get(&name)
    }

    /// Attribute facts for `attr` of the elements of the collection named
    /// `of` (an extent or a field), whichever is known.
    pub fn attr(&self, of: Symbol, attr: Symbol) -> Option<&AttrFacts> {
        self.extents
            .get(&of)
            .and_then(|e| e.attrs.get(&attr))
            .or_else(|| self.fields.get(&of).and_then(|f| f.attrs.get(&attr)))
    }

    pub fn is_empty(&self) -> bool {
        self.extents.is_empty() && self.fields.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_product_handles_zero_times_infinity() {
        let z = Interval::ZERO.product(Interval::UNBOUNDED);
        assert_eq!(z, Interval::ZERO);
        let p = Interval::point(3.0).product(Interval::new(2.0, 4.0));
        assert_eq!(p, Interval::new(6.0, 12.0));
    }

    #[test]
    fn selectivity_algebra_is_sound_on_point_fractions() {
        // A = 0.6, B = 0.5 ⇒ A∧B ∈ [0.1, 0.5], A∨B ∈ [0.6, 1].
        let a = Interval::point(0.6);
        let b = Interval::point(0.5);
        let and = a.and_sel(b);
        assert!((and.lo - 0.1).abs() < 1e-9 && (and.hi - 0.5).abs() < 1e-9);
        let or = a.or_sel(b);
        assert!((or.lo - 0.6).abs() < 1e-9 && (or.hi - 1.0).abs() < 1e-9);
        let not = a.not_sel();
        assert!((not.lo - 0.4).abs() < 1e-9 && (not.hi - 0.4).abs() < 1e-9);
    }

    #[test]
    fn geometric_midpoint_minimizes_worst_case_q_error() {
        let i = Interval::new(1.0, 100.0);
        let g = i.geometric_midpoint();
        assert!((g - 10.0).abs() < 1e-9);
        // Worst-case ratio at either endpoint is the same: 10×.
        assert!((g / i.lo - i.hi / g).abs() < 1e-9);
    }

    #[test]
    fn attr_uniqueness_requires_full_distinctness() {
        let mut a = AttrFacts { count: 5, distinct: 5, max_freq: 1, min: None, max: None };
        assert!(a.unique());
        a.distinct = 4;
        assert!(!a.unique());
        assert!(!AttrFacts::default().unique());
    }
}
