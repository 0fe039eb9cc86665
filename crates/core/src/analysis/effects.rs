//! Effect inference: a bottom-up pass that classifies every subterm on a
//! small effect lattice.
//!
//! The lattice is a product of four boolean flags ordered by implication
//! (`pure` at the bottom, everything set at the top); joining two effects
//! is field-wise `or`. The flags are exactly the hazards the rest of the
//! pipeline cares about:
//!
//! * **allocates** — contains `new(e)`: evaluating it grows the heap, so
//!   the statement must commit through the database writer, not run
//!   against an immutable snapshot.
//! * **mutates** — contains `e₁ := e₂`: evaluating it writes the heap —
//!   the writer path again, and evaluation order becomes observable.
//! * **reads_heap** — contains `!e`: result depends on heap state, so the
//!   term cannot be freely duplicated/deleted/reordered.
//! * **short_circuits** — contains a `some`/`all` reduction: executors may
//!   stop early.
//!
//! [`EffectSummary::of`] pairs the root effect with the term's free
//! variables; at a query root the free variables are precisely the named
//! extents the query reads, so `reads_extents()` falls out for free.

use crate::expr::Expr;
use crate::monoid::Monoid;
use crate::subst::free_vars;
use crate::symbol::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// One point of the effect lattice. `join` is field-wise `or`; the bottom
/// element is [`Effects::PURE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects {
    /// Contains `new(e)` — evaluation allocates heap objects.
    pub allocates: bool,
    /// Contains `e₁ := e₂` — evaluation writes the heap.
    pub mutates: bool,
    /// Contains `!e` — evaluation reads object state from the heap.
    pub reads_heap: bool,
    /// Contains a `some`/`all` reduction — evaluation may stop early.
    pub short_circuits: bool,
}

impl Effects {
    /// The bottom of the lattice: no effects at all.
    pub const PURE: Effects = Effects {
        allocates: false,
        mutates: false,
        reads_heap: false,
        short_circuits: false,
    };

    /// Least upper bound: field-wise `or`.
    pub fn join(self, other: Effects) -> Effects {
        Effects {
            allocates: self.allocates || other.allocates,
            mutates: self.mutates || other.mutates,
            reads_heap: self.reads_heap || other.reads_heap,
            short_circuits: self.short_circuits || other.short_circuits,
        }
    }

    /// Heap-independent: no allocation, no mutation, no dereference. The
    /// one purity judgement: the normalizer's duplicating, deleting and
    /// reordering rules, the planner and the linter all ask it
    /// (short-circuiting is not an effect in that sense — a pure `some{…}`
    /// is still pure).
    pub fn is_pure(self) -> bool {
        !self.allocates && !self.mutates && !self.reads_heap
    }
}

impl fmt::Display for Effects {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<&str> = Vec::new();
        if self.allocates {
            parts.push("allocates");
        }
        if self.mutates {
            parts.push("mutates");
        }
        if self.reads_heap {
            parts.push("reads-heap");
        }
        if self.short_circuits {
            parts.push("short-circuits");
        }
        if parts.is_empty() {
            write!(f, "pure")
        } else {
            write!(f, "{}", parts.join("+"))
        }
    }
}

/// Does this monoid's reduction admit early exit?
pub fn monoid_short_circuits(m: &Monoid) -> bool {
    matches!(m, Monoid::Some | Monoid::All)
}

/// The direct (node-local) effect of `e`, ignoring children.
fn node_effect(e: &Expr) -> Effects {
    let mut eff = Effects::PURE;
    match e {
        Expr::New(_) => eff.allocates = true,
        Expr::Assign(..) => eff.mutates = true,
        Expr::Deref(_) => eff.reads_heap = true,
        Expr::Comp { monoid, .. } | Expr::Hom { monoid, .. } => {
            eff.short_circuits = monoid_short_circuits(monoid);
        }
        _ => {}
    }
    eff
}

/// The effect of `e`: the join of its node-local effect with all its
/// subterms' effects. Single bottom-up pass, no allocation.
pub fn effects_of(e: &Expr) -> Effects {
    let mut eff = Effects::PURE;
    e.visit(&mut |node| eff = eff.join(node_effect(node)));
    eff
}

/// The root-level effect classification of a query term, plus its free
/// variables. At a query root the free variables are exactly the extent
/// names the query reads (everything else is bound by a qualifier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSummary {
    pub effects: Effects,
    /// Free variables in deterministic (sorted) order.
    pub free: BTreeSet<Symbol>,
}

impl EffectSummary {
    pub fn of(e: &Expr) -> EffectSummary {
        EffectSummary {
            effects: effects_of(e),
            free: free_vars(e).into_iter().collect(),
        }
    }

    pub fn is_pure(&self) -> bool {
        self.effects.is_pure()
    }

    /// Does the term reference any named extent (free variable)?
    pub fn reads_extents(&self) -> bool {
        !self.free.is_empty()
    }
}

impl fmt::Display for EffectSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.effects)?;
        if self.reads_extents() {
            let names: Vec<&str> = self.free.iter().map(crate::symbol::Symbol::as_str).collect();
            write!(f, " reads[{}]", names.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_comprehension_is_pure() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("a"),
            vec![Expr::gen("a", Expr::list_of(vec![Expr::int(1), Expr::int(2)]))],
        );
        let eff = effects_of(&e);
        assert!(eff.is_pure());
        assert!(!eff.short_circuits);
    }

    #[test]
    fn assignment_marks_mutation() {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("x").assign(Expr::int(1)),
            vec![Expr::gen("x", Expr::var("xs"))],
        );
        let eff = effects_of(&e);
        assert!(eff.mutates);
        assert!(!eff.is_pure());
    }

    #[test]
    fn allocation_and_deref_are_distinct_flags() {
        let alloc = Expr::new_obj(Expr::int(1));
        assert!(effects_of(&alloc).allocates);
        assert!(!effects_of(&alloc).mutates);
        let read = Expr::var("o").deref();
        assert!(effects_of(&read).reads_heap);
        assert!(!effects_of(&read).allocates);
    }

    #[test]
    fn quantifiers_short_circuit() {
        let e = Expr::comp(
            Monoid::Some,
            Expr::var("x").gt(Expr::int(0)),
            vec![Expr::gen("x", Expr::var("xs"))],
        );
        assert!(effects_of(&e).short_circuits);
        // …and the flag propagates upward through an enclosing term.
        let outer = Expr::if_(e, Expr::int(1), Expr::int(0));
        assert!(effects_of(&outer).short_circuits);
    }

    #[test]
    fn summary_reports_extents() {
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("h").proj("name"),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let s = EffectSummary::of(&e);
        assert!(s.reads_extents());
        assert_eq!(s.free.len(), 1);
        assert!(s.free.contains(&Symbol::new("Hotels")));
        assert!(s.is_pure());
    }
}
