//! The logical algebra and the translation from canonical comprehensions.
//!
//! The paper (§1, §6) argues the calculus is amenable to efficient
//! evaluation because normalization produces *canonical forms* —
//! comprehensions whose generators range over simple paths — which map
//! directly onto pipelined algebra plans. This module is that mapping:
//!
//! * the first generator becomes a [`Plan::Scan`];
//! * a generator whose source mentions an earlier variable becomes an
//!   [`Plan::Unnest`] (path navigation, e.g. `h ← c.hotels`);
//! * a generator independent of everything bound so far becomes a
//!   [`Plan::Join`] against a fresh scan — equality predicates connecting
//!   the two sides become its keys, and no keys is the cross product;
//! * predicates are placed at the lowest point where their variables are
//!   bound (predicate pushdown);
//! * the comprehension monoid and head become the top `Reduce`.

use crate::error::PlanError;
use crate::fused::FusedQuery;
use monoid_calculus::analysis::{effects_of, Effects};
use monoid_calculus::expr::{BinOp, Expr, Qual};
use monoid_calculus::monoid::Monoid;
use monoid_calculus::subst::free_vars;
use monoid_calculus::symbol::Symbol;
use std::collections::HashSet;
use std::sync::Arc;

/// A logical plan node. Rows are variable bindings; every node adds
/// bindings (scan/unnest/join) or filters rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Bind `var` to each element of `source` (evaluated once against the
    /// database roots).
    Scan { var: Symbol, source: Expr },
    /// Bind `var` to each element of `path` evaluated per input row
    /// (dependent generator — pipelined navigation).
    Unnest { input: Box<Plan>, var: Symbol, path: Expr },
    /// Keep rows satisfying `pred`.
    Filter { input: Box<Plan>, pred: Expr },
    /// Bind `var` to `expr` per row (a residual `≡` binding).
    Bind { input: Box<Plan>, var: Symbol, expr: Expr },
    /// Combine independent sub-plans. `on` holds equi-pairs
    /// `(left key, right key)` the build table is keyed by; an empty `on`
    /// is a cross product (plus any residual predicate above).
    Join { left: Box<Plan>, right: Box<Plan>, on: Vec<(Expr, Expr)> },
}

impl Plan {
    /// The variables this plan binds.
    pub fn bound_vars(&self) -> Vec<Symbol> {
        match self {
            Plan::Scan { var, .. } => vec![*var],
            Plan::Unnest { input, var, .. } | Plan::Bind { input, var, .. } => {
                let mut v = input.bound_vars();
                v.push(*var);
                v
            }
            Plan::Filter { input, .. } => input.bound_vars(),
            Plan::Join { left, right, .. } => {
                let mut v = left.bound_vars();
                v.extend(right.bound_vars());
                v
            }
        }
    }

    /// Every value [`Plan::kind_label`] returns — the closed label space
    /// profile loaders validate against.
    pub const KIND_LABELS: [&'static str; 5] = ["scan", "unnest", "filter", "bind", "join"];

    /// Short operator-kind label — the bounded label space the
    /// plan-quality audit's per-kind table aggregates profiles under.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Plan::Scan { .. } => "scan",
            Plan::Unnest { .. } => "unnest",
            Plan::Filter { .. } => "filter",
            Plan::Bind { .. } => "bind",
            Plan::Join { .. } => "join",
        }
    }

    /// Visit every operator as `(op, depth, node)` in pre-order — *the*
    /// operator numbering: root = 0, a unary operator's input at `op + 1`,
    /// a join's right child after the whole left subtree. Probes,
    /// estimates, `explain` and profiles all index operators by this `op`.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(usize, usize, &'a Plan)) {
        fn go<'a>(
            plan: &'a Plan,
            next: &mut usize,
            depth: usize,
            visit: &mut impl FnMut(usize, usize, &'a Plan),
        ) {
            visit(*next, depth, plan);
            *next += 1;
            match plan {
                Plan::Scan { .. } => {}
                Plan::Unnest { input, .. }
                | Plan::Filter { input, .. }
                | Plan::Bind { input, .. } => go(input, next, depth + 1, visit),
                Plan::Join { left, right, .. } => {
                    go(left, next, depth + 1, visit);
                    go(right, next, depth + 1, visit);
                }
            }
        }
        go(self, &mut 0, 0, visit);
    }

    /// Number of operators [`Plan::walk`] visits.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_, _, _| n += 1);
        n
    }

    /// Visit every calculus expression embedded in the plan (scan
    /// sources, unnest paths, predicates, bind expressions, join keys).
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Plan::Scan { source, .. } => f(source),
            Plan::Unnest { input, path, .. } => {
                f(path);
                input.for_each_expr(f);
            }
            Plan::Filter { input, pred } => {
                f(pred);
                input.for_each_expr(f);
            }
            Plan::Bind { input, expr, .. } => {
                f(expr);
                input.for_each_expr(f);
            }
            Plan::Join { left, right, on, .. } => {
                for (l, r) in on {
                    f(l);
                    f(r);
                }
                left.for_each_expr(f);
                right.for_each_expr(f);
            }
        }
    }

    /// The join of the effects of every embedded expression — what the
    /// fused compiler reads, once, at plan time, so no engine re-scans the
    /// plan at runtime (`docs/analysis.md`).
    pub fn effects(&self) -> Effects {
        let mut eff = Effects::PURE;
        self.for_each_expr(&mut |e| eff = eff.join(effects_of(e)));
        eff
    }

    /// Does any join in the plan probe by key (a non-empty `on`)?
    pub fn uses_hash_join(&self) -> bool {
        match self {
            Plan::Scan { .. } => false,
            Plan::Unnest { input, .. } | Plan::Filter { input, .. } | Plan::Bind { input, .. } => {
                input.uses_hash_join()
            }
            Plan::Join { left, right, on } => {
                !on.is_empty() || left.uses_hash_join() || right.uses_hash_join()
            }
        }
    }
}

/// A complete query: a row-producing plan reduced into a monoid, and the
/// fused fold compiled from the two. The fields are private, so the fold
/// cannot drift from the plan it was compiled from.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    plan: Plan,
    monoid: Monoid,
    head: Expr,
    fused: Arc<FusedQuery>,
}

impl Query {
    /// `monoid{ head | plan }`, with its fused fold compiled here, once.
    /// A query is a pure read — the fold shares one immutable heap across
    /// the whole run — so a plan or head that writes (`:=`) or allocates
    /// (`new`) is refused with [`PlanError::Impure`], as the planner
    /// refuses an impure comprehension.
    pub fn new(plan: Plan, monoid: Monoid, head: Expr) -> Result<Query, PlanError> {
        let eff = effects_of(&head).join(plan.effects());
        if eff.mutates || eff.allocates {
            return Err(PlanError::Impure);
        }
        let fused = Arc::new(crate::fused::compile(&plan, &monoid, &head));
        Ok(Query { plan, monoid, head, fused })
    }

    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    pub fn monoid(&self) -> &Monoid {
        &self.monoid
    }

    pub fn head(&self) -> &Expr {
        &self.head
    }

    /// The compiled fold.
    pub(crate) fn fused(&self) -> &FusedQuery {
        &self.fused
    }
}

/// Planner options (the ablation switches for benchmark B6).
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Detect equality predicates across independent sub-plans and make
    /// them join keys. Off ⇒ every independent join is a filtered cross
    /// product.
    pub hash_joins: bool,
    /// Place predicates at the lowest point where their variables are
    /// bound. Off ⇒ all predicates evaluate at the top of the plan.
    pub push_predicates: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { hash_joins: true, push_predicates: true }
    }
}

/// Compile a canonical comprehension into a [`Query`] plan with default
/// options.
pub fn plan_comprehension(e: &Expr) -> Result<Query, PlanError> {
    plan_with_options(e, PlanOptions::default())
}

/// Compile with explicit options.
pub fn plan_with_options(e: &Expr, opts: PlanOptions) -> Result<Query, PlanError> {
    let Expr::Comp { monoid, head, quals } = e else {
        return Err(match e {
            Expr::VecComp { .. } => PlanError::VectorComprehension,
            _ => PlanError::NotAComprehension,
        });
    };
    if !effects_of(e).is_pure() {
        return Err(PlanError::Impure);
    }

    // Split qualifiers.
    let mut gens: Vec<(Symbol, Expr)> = Vec::new();
    let mut binds: Vec<(Symbol, Expr)> = Vec::new();
    let mut preds: Vec<Expr> = Vec::new();
    for q in quals {
        match q {
            Qual::Gen(v, src) => gens.push((*v, src.clone())),
            Qual::Bind(v, e) => binds.push((*v, e.clone())),
            Qual::Pred(p) => preds.push(p.clone()),
            Qual::VecGen { .. } => {
                return Err(PlanError::Unsupported(
                    "vector generators (use direct evaluation)".into(),
                ))
            }
        }
    }
    if gens.is_empty() {
        return Err(PlanError::Unsupported(
            "comprehension with no generators (evaluate directly)".into(),
        ));
    }

    // NOTE on ordering: qualifiers are dependency-ordered by construction
    // (a source can only mention earlier variables), and binds/preds are
    // re-placed at their lowest legal point below. Pending predicates wait
    // until their variables are bound.
    let mut plan: Option<Plan> = None;
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut pending_preds: Vec<Expr> = preds;
    let mut pending_binds: Vec<(Symbol, Expr)> = binds;

    for (var, src) in gens {
        let src_fv = free_vars(&src);
        let depends = src_fv.iter().any(|v| bound.contains(v));
        plan = Some(match plan {
            None => Plan::Scan { var, source: src },
            Some(current) => {
                if depends {
                    Plan::Unnest { input: Box::new(current), var, path: src }
                } else {
                    // Independent source: a join, keyed by the
                    // equi-predicates connecting {bound} × {var}.
                    let right = Plan::Scan { var, source: src };
                    let mut on: Vec<(Expr, Expr)> = Vec::new();
                    if opts.hash_joins {
                        let mut remaining = Vec::new();
                        for p in pending_preds {
                            match split_equi(&p, &bound, var) {
                                Some(pair) => on.push(pair),
                                None => remaining.push(p),
                            }
                        }
                        pending_preds = remaining;
                    }
                    Plan::Join { left: Box::new(current), right: Box::new(right), on }
                }
            }
        });
        bound.insert(var);

        // Place binds/preds that are now fully bound.
        if opts.push_predicates {
            loop {
                let mut progressed = false;
                let mut rest_binds = Vec::new();
                for (bv, be) in std::mem::take(&mut pending_binds) {
                    if free_vars(&be).iter().all(|v| bound.contains(v)) {
                        plan = Some(Plan::Bind {
                            input: Box::new(plan.take().expect("plan started")),
                            var: bv,
                            expr: be,
                        });
                        bound.insert(bv);
                        progressed = true;
                    } else {
                        rest_binds.push((bv, be));
                    }
                }
                pending_binds = rest_binds;
                let mut rest_preds = Vec::new();
                for p in std::mem::take(&mut pending_preds) {
                    if free_vars(&p).iter().all(|v| bound.contains(v)) {
                        plan = Some(Plan::Filter {
                            input: Box::new(plan.take().expect("plan started")),
                            pred: p,
                        });
                        progressed = true;
                    } else {
                        rest_preds.push(p);
                    }
                }
                pending_preds = rest_preds;
                if !progressed {
                    break;
                }
            }
        }
    }

    let mut plan = plan.expect("at least one generator");
    // Anything still pending goes on top (or everything, with pushdown
    // off).
    for (bv, be) in pending_binds {
        plan = Plan::Bind { input: Box::new(plan), var: bv, expr: be };
    }
    for p in pending_preds {
        plan = Plan::Filter { input: Box::new(plan), pred: p };
    }

    Query::new(plan, monoid.clone(), head.as_ref().clone())
}

/// If `p` is `lhs = rhs` with one side's variables all bound (left of the
/// join) and the other side's variables exactly touching `right_var`,
/// return the `(left key, right key)` pair.
fn split_equi(
    p: &Expr,
    bound: &HashSet<Symbol>,
    right_var: Symbol,
) -> Option<(Expr, Expr)> {
    let Expr::BinOp(BinOp::Eq, a, b) = p else { return None };
    let fa = free_vars(a);
    let fb = free_vars(b);
    let left_side = |fv: &HashSet<Symbol>| {
        !fv.is_empty() && fv.iter().all(|v| bound.contains(v))
    };
    let right_side = |fv: &HashSet<Symbol>| {
        fv.contains(&right_var) && fv.iter().all(|v| *v == right_var)
    };
    if left_side(&fa) && right_side(&fb) {
        return Some((a.as_ref().clone(), b.as_ref().clone()));
    }
    if left_side(&fb) && right_side(&fa) {
        return Some((b.as_ref().clone(), a.as_ref().clone()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn portland() -> Expr {
        Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
                Expr::pred(Expr::var("r").proj("bed#").eq(Expr::int(3))),
            ],
        )
    }

    #[test]
    fn portland_becomes_scan_filter_unnest_pipeline() {
        let q = plan_comprehension(&portland()).unwrap();
        // Scan(c) → Filter(name) → Unnest(h) → Unnest(r) → Filter(bed#)
        let Plan::Filter { input, .. } = &q.plan else { panic!("{:?}", q.plan) };
        let Plan::Unnest { input, var, .. } = input.as_ref() else { panic!() };
        assert_eq!(*var, Symbol::new("r"));
        let Plan::Unnest { input, var, .. } = input.as_ref() else { panic!() };
        assert_eq!(*var, Symbol::new("h"));
        let Plan::Filter { input, .. } = input.as_ref() else { panic!() };
        assert!(matches!(input.as_ref(), Plan::Scan { .. }));
        assert!(!q.plan.uses_hash_join());
    }

    #[test]
    fn independent_sources_with_equality_become_hash_join() {
        // bag{ (x,y) | x ← A, y ← B, x.k = y.k }
        let e = Expr::comp(
            Monoid::Bag,
            Expr::Tuple(vec![Expr::var("x"), Expr::var("y")]),
            vec![
                Expr::gen("x", Expr::var("A")),
                Expr::gen("y", Expr::var("B")),
                Expr::pred(Expr::var("x").proj("k").eq(Expr::var("y").proj("k"))),
            ],
        );
        let q = plan_comprehension(&e).unwrap();
        assert!(q.plan.uses_hash_join());
        let Plan::Join { on, .. } = &q.plan else { panic!("{:?}", q.plan) };
        assert_eq!(on.len(), 1);
    }

    #[test]
    fn hash_join_detection_can_be_disabled() {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("A")),
                Expr::gen("y", Expr::var("B")),
                Expr::pred(Expr::var("x").eq(Expr::var("y"))),
            ],
        );
        let q = plan_with_options(
            &e,
            PlanOptions { hash_joins: false, push_predicates: true },
        )
        .unwrap();
        assert!(!q.plan.uses_hash_join());
    }

    #[test]
    fn impure_comprehension_is_rejected() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("x").deref(),
            vec![Expr::gen("x", Expr::new_obj(Expr::int(0)))],
        );
        assert_eq!(plan_comprehension(&e), Err(PlanError::Impure));
    }

    #[test]
    fn non_comprehension_is_rejected() {
        assert_eq!(
            plan_comprehension(&Expr::int(3)),
            Err(PlanError::NotAComprehension)
        );
    }

    #[test]
    fn walk_numbers_a_joins_right_child_after_its_left_subtree() {
        // Filter(Join(Filter(Scan x), Scan y)): the build side follows the
        // whole two-node probe side.
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("A")),
                Expr::pred(Expr::var("x").proj("k").eq(Expr::int(1))),
                Expr::gen("y", Expr::var("B")),
                Expr::pred(Expr::var("x").proj("k").eq(Expr::var("y").proj("k"))),
                Expr::pred(Expr::var("y").proj("k").eq(Expr::int(1))),
            ],
        );
        let q = plan_comprehension(&e).unwrap();
        let mut seen = Vec::new();
        q.plan.walk(&mut |op, depth, node| seen.push((op, depth, node.kind_label())));
        assert_eq!(
            seen,
            vec![(0, 0, "filter"), (1, 1, "join"), (2, 2, "filter"), (3, 3, "scan"), (4, 2, "scan")]
        );
        assert_eq!(q.plan.node_count(), 5);
        assert!(seen.iter().all(|(_, _, kind)| Plan::KIND_LABELS.contains(kind)));
    }

    #[test]
    fn predicates_go_to_lowest_point() {
        let q = plan_comprehension(&portland()).unwrap();
        // The city-name filter must sit directly on the scan, not at top.
        fn scan_is_filtered(p: &Plan) -> bool {
            match p {
                Plan::Filter { input, .. } => {
                    matches!(input.as_ref(), Plan::Scan { .. }) || scan_is_filtered(input)
                }
                Plan::Unnest { input, .. } | Plan::Bind { input, .. } => scan_is_filtered(input),
                Plan::Join { left, .. } => scan_is_filtered(left),
                Plan::Scan { .. } => false,
            }
        }
        assert!(scan_is_filtered(&q.plan));
    }
}
