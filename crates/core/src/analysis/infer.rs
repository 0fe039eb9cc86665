//! Constraint and cardinality inference: a bottom-up abstract
//! interpretation over canonical comprehensions.
//!
//! The paper's normal form is simple enough to *reason about*, not just
//! execute: generators range over extents and paths, predicates are
//! pushed-down boolean terms, and the whole qualifier list is
//! dependency-ordered. This module exploits that shape to derive, without
//! running anything:
//!
//! * **cardinality intervals** — a sound `[lo, hi]` bound on the number
//!   of rows that reach the reduction ([`QueryFacts::rows`]);
//! * **key / uniqueness certificates** — a generator over an extent of
//!   distinct OIDs, or a predicate equating a bound variable's unique
//!   attribute to a term not involving it, pins *at most one* element per
//!   valuation of the other variables ([`KeyCert`]);
//! * **functional dependencies** — every `v ≡ e` bind determines `v`
//!   from the generator variables free in `e` ([`FunDep`]).
//!
//! Which engine runs a query is not modelled here: the algebra crate's
//! compiler decides and reports its own refusal (lint MC009, attached by
//! the umbrella `analyze`).
//!
//! The row-interval upper bound uses *absolute-count elimination* rather
//! than selectivity multiplication: each generator contributes its size
//! bound, and a key certificate replaces that contribution with the
//! certified cap (1, or the attribute's maximum value frequency).
//! Elimination respects determinant ordering — a variable is only
//! eliminated when the term that determines it mentions only surviving
//! variables — which keeps mutually-referential equalities sound. The
//! fraction-valued [`QueryFacts::selectivity`] interval is estimate-grade
//! (it feeds the optimizer's costing), while `rows` is the certified
//! bound the soundness property tests check.

use super::constraints::{Catalog, Interval};
use super::effects::monoid_short_circuits;
use super::lint::{lint_with_spans, Code, Diagnostic, SpanMap};
use crate::expr::{BinOp, Expr, Literal, Qual, UnOp};
use crate::monoid::Monoid;
use crate::subst::free_vars;
use crate::symbol::Symbol;
use std::collections::{HashMap, HashSet};

/// A uniqueness certificate: at most one element of `collection` can be
/// bound to `var` per valuation of the other variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCert {
    pub var: Symbol,
    /// The extent or field name whose elements `var` ranges over.
    pub collection: Symbol,
    /// `None`: the collection's elements are themselves pairwise distinct
    /// (an OID extent). `Some(attr)`: a predicate equates `var.attr`, a
    /// unique attribute, to a term not involving `var`.
    pub attr: Option<Symbol>,
    pub reason: String,
}

/// A functional dependency contributed by a `v ≡ e` bind: `var` is
/// determined by the generator variables in `determinants`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunDep {
    pub var: Symbol,
    pub determinants: Vec<Symbol>,
}

/// Per-generator facts.
#[derive(Debug, Clone, PartialEq)]
pub struct GenFacts {
    pub var: Symbol,
    /// Contribution of this generator to the row count, per outer row.
    pub rows: Interval,
    /// The extent or field name the source ranges, when recognizable.
    pub collection: Option<Symbol>,
    /// Certified cap after key elimination (`1` or a max-frequency), if a
    /// certificate applied to this generator.
    pub capped_at: Option<f64>,
}

/// Everything the abstract interpreter derives about one comprehension.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFacts {
    /// Sound bound on the rows reaching the reduction. Short-circuiting
    /// monoids (`some`/`all`) force `lo = 0`: the fold may stop anywhere.
    pub rows: Interval,
    /// Estimate-grade combined predicate selectivity (fraction algebra).
    pub selectivity: Interval,
    pub gens: Vec<GenFacts>,
    pub keys: Vec<KeyCert>,
    pub deps: Vec<FunDep>,
}

// ---------------------------------------------------------------------------
// Cardinality and constraint inference
// ---------------------------------------------------------------------------

/// The context the interpreter threads through the qualifier walk.
struct Ctx<'a> {
    catalog: &'a Catalog,
    /// Generator variables in qualifier order.
    gens: Vec<GenFacts>,
    gen_vars: HashSet<Symbol>,
    /// All locally-bound variables (generators + binds), to keep free
    /// extent names distinct from bound ones.
    local: HashSet<Symbol>,
    /// `v → (base, attr)` for `v ≡ base.attr` binds: domain facts
    /// propagate through the alias.
    aliases: HashMap<Symbol, (Symbol, Symbol)>,
    /// Bind var → the generator variables it (transitively) depends on.
    bind_deps: HashMap<Symbol, HashSet<Symbol>>,
}

impl Ctx<'_> {
    fn gen_index(&self, v: Symbol) -> Option<usize> {
        self.gens.iter().position(|g| g.var == v)
    }

    fn collection_of(&self, v: Symbol) -> Option<Symbol> {
        self.gen_index(v).and_then(|i| self.gens[i].collection)
    }

    /// Resolve `e` to a `(generator var, attribute)` path: `v.attr`
    /// directly, or a bind alias `b ≡ v.attr`.
    fn attr_path(&self, e: &Expr) -> Option<(Symbol, Symbol)> {
        match e {
            Expr::Proj(inner, attr) => match inner.as_ref() {
                Expr::Var(v) if self.gen_vars.contains(v) => Some((*v, *attr)),
                _ => None,
            },
            Expr::Var(v) => self.aliases.get(v).copied(),
            _ => None,
        }
    }

    /// The generator variables `e` (transitively) depends on.
    fn gen_needs(&self, e: &Expr) -> HashSet<Symbol> {
        let mut out = HashSet::new();
        for v in free_vars(e) {
            if self.gen_vars.contains(&v) {
                out.insert(v);
            } else if let Some(deps) = self.bind_deps.get(&v) {
                out.extend(deps.iter().copied());
            }
        }
        out
    }
}

/// A pending cap: generator `gen` contributes at most `factor` rows per
/// valuation of the variables in `needs` — usable only while those
/// variables survive elimination.
struct Det {
    gen: usize,
    factor: f64,
    needs: HashSet<Symbol>,
}

/// Classify a generator source: its per-outer-row cardinality interval,
/// the collection name it ranges (for attribute lookups), and an OID key
/// certificate when the catalog knows the elements are distinct.
fn source_facts(
    src: &Expr,
    var: Symbol,
    ctx: &Ctx<'_>,
) -> (Interval, Option<Symbol>, Option<KeyCert>) {
    match src {
        Expr::Var(name) if !ctx.local.contains(name) => match ctx.catalog.extent(*name) {
            Some(ext) => {
                let cert = ext.distinct_elements.then(|| KeyCert {
                    var,
                    collection: *name,
                    attr: None,
                    reason: format!(
                        "`{}` ranges extent `{}`, whose elements are pairwise-distinct \
                         object identities",
                        var.as_str(),
                        name.as_str()
                    ),
                });
                (Interval::point(ext.size as f64), Some(*name), cert)
            }
            None => (Interval::UNBOUNDED, Some(*name), None),
        },
        Expr::Var(name) => match ctx.aliases.get(name) {
            // `v ≡ u.attr; x ← v` iterates the aliased collection.
            Some((_, attr)) => (field_interval(ctx.catalog, *attr), Some(*attr), None),
            None => (Interval::UNBOUNDED, None, None),
        },
        Expr::Proj(_, field) => (field_interval(ctx.catalog, *field), Some(*field), None),
        Expr::CollLit(m, items) => {
            let n = items.len() as f64;
            if m.props().idempotent && !items.is_empty() {
                (Interval::new(1.0, n), None, None)
            } else {
                (Interval::point(n), None, None)
            }
        }
        Expr::Unit(..) => (Interval::ONE, None, None),
        Expr::UnOp(UnOp::ToBag | UnOp::ToList, inner) => source_facts(inner, var, ctx),
        _ => (Interval::UNBOUNDED, None, None),
    }
}

fn field_interval(catalog: &Catalog, field: Symbol) -> Interval {
    match catalog.field(field) {
        Some(f) => Interval::new(f.min_fanout as f64, f.max_fanout as f64),
        None => Interval::UNBOUNDED,
    }
}

fn numeric_literal(e: &Expr) -> Option<f64> {
    match e {
        Expr::Lit(Literal::Int(i)) => Some(*i as f64),
        Expr::Lit(Literal::Float(x)) => Some(*x),
        _ => None,
    }
}

fn mentions_param(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |n| found |= matches!(n, Expr::Param(_)));
    found
}

/// Flatten a top-level conjunction.
fn conjuncts(p: &Expr) -> Vec<&Expr> {
    match p {
        Expr::BinOp(BinOp::And, a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        _ => vec![p],
    }
}

/// Estimate-grade selectivity interval of a predicate (sound fraction
/// algebra over conjunction/disjunction/negation; key equalities take
/// `[0, 1/|extent|]`, range predicates compare against gathered domains).
fn selectivity(p: &Expr, ctx: &Ctx<'_>) -> Interval {
    match p {
        Expr::BinOp(BinOp::And, a, b) => selectivity(a, ctx).and_sel(selectivity(b, ctx)),
        Expr::BinOp(BinOp::Or, a, b) => selectivity(a, ctx).or_sel(selectivity(b, ctx)),
        Expr::UnOp(UnOp::Not, inner) => selectivity(inner, ctx).not_sel(),
        Expr::Lit(Literal::Bool(b)) => {
            if *b {
                Interval::ONE
            } else {
                Interval::ZERO
            }
        }
        Expr::BinOp(op, a, b) if a == b && crate::normalize::is_pure(a) => match op {
            BinOp::Eq | BinOp::Le | BinOp::Ge => Interval::ONE,
            BinOp::Ne | BinOp::Lt | BinOp::Gt => Interval::ZERO,
            _ => Interval::ANY_FRACTION,
        },
        Expr::BinOp(BinOp::Eq, a, b) => eq_selectivity(a, b, ctx)
            .or_else(|| eq_selectivity(b, a, ctx))
            .unwrap_or(Interval::ANY_FRACTION),
        Expr::BinOp(op, a, b) if op.is_comparison() => {
            range_selectivity(*op, a, b, ctx).unwrap_or(Interval::ANY_FRACTION)
        }
        _ => Interval::ANY_FRACTION,
    }
}

/// Selectivity of `path = rhs` when `path` resolves to a bound variable's
/// attribute with gathered statistics.
fn eq_selectivity(path: &Expr, rhs: &Expr, ctx: &Ctx<'_>) -> Option<Interval> {
    let (v, attr) = ctx.attr_path(path)?;
    if free_vars(rhs).contains(&v) {
        return None;
    }
    let coll = ctx.collection_of(v)?;
    let facts = ctx.catalog.attr(coll, attr)?;
    if facts.count == 0 {
        return None;
    }
    // Out-of-domain constants are statically empty.
    if let (Some(x), Some(mn), Some(mx)) = (numeric_literal(rhs), facts.min, facts.max) {
        if x < mn || x > mx {
            return Some(Interval::ZERO);
        }
    }
    Some(Interval::new(0.0, facts.max_freq as f64 / facts.count as f64))
}

/// Selectivity of `path <op> literal` (either orientation) against the
/// attribute's gathered numeric domain. Returns `ZERO`/`ONE` only when
/// the whole domain falls on one side of the constant.
fn range_selectivity(op: BinOp, a: &Expr, b: &Expr, ctx: &Ctx<'_>) -> Option<Interval> {
    let (path, lit, op) = if let Some(x) = numeric_literal(b) {
        (a, x, op)
    } else if let Some(x) = numeric_literal(a) {
        // `c < path` ≡ `path > c`, etc.
        let flipped = match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        };
        (b, x, flipped)
    } else {
        return None;
    };
    let (v, attr) = ctx.attr_path(path)?;
    let coll = ctx.collection_of(v)?;
    let facts = ctx.catalog.attr(coll, attr)?;
    let (mn, mx) = (facts.min?, facts.max?);
    let verdict = match op {
        BinOp::Lt => {
            if mx < lit {
                Some(true)
            } else if mn >= lit {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Le => {
            if mx <= lit {
                Some(true)
            } else if mn > lit {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Gt => {
            if mn > lit {
                Some(true)
            } else if mx <= lit {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Ge => {
            if mn >= lit {
                Some(true)
            } else if mx < lit {
                Some(false)
            } else {
                None
            }
        }
        _ => None,
    };
    Some(match verdict {
        Some(true) => Interval::ONE,
        Some(false) => Interval::ZERO,
        None => Interval::ANY_FRACTION,
    })
}

/// Accumulated per-attribute constraints within one conjunction, used for
/// the statically-empty check. Bounds start from the gathered domain (if
/// any) and tighten as conjuncts arrive; `eq` holds the pinned literal.
#[derive(Default)]
struct AttrConstraint {
    eq: Option<Literal>,
    lo: Option<(f64, bool)>, // (bound, strict)
    hi: Option<(f64, bool)>,
    contradictory: bool,
}

impl AttrConstraint {
    fn seeded(facts: Option<&super::constraints::AttrFacts>) -> AttrConstraint {
        let mut c = AttrConstraint::default();
        if let Some(f) = facts {
            c.lo = f.min.map(|x| (x, false));
            c.hi = f.max.map(|x| (x, false));
        }
        c
    }

    fn add_eq(&mut self, lit: &Literal) {
        match &self.eq {
            Some(prev) if prev != lit => self.contradictory = true,
            _ => self.eq = Some(lit.clone()),
        }
        if let Some(x) = lit_num(lit) {
            self.check_num(x);
        }
    }

    fn add_lower(&mut self, x: f64, strict: bool) {
        match self.lo {
            Some((cur, cs)) if cur > x || (cur == x && cs) => {}
            _ => self.lo = Some((x, strict)),
        }
        self.recheck();
    }

    fn add_upper(&mut self, x: f64, strict: bool) {
        match self.hi {
            Some((cur, cs)) if cur < x || (cur == x && cs) => {}
            _ => self.hi = Some((x, strict)),
        }
        self.recheck();
    }

    fn check_num(&mut self, x: f64) {
        if let Some((lo, strict)) = self.lo {
            if x < lo || (x == lo && strict) {
                self.contradictory = true;
            }
        }
        if let Some((hi, strict)) = self.hi {
            if x > hi || (x == hi && strict) {
                self.contradictory = true;
            }
        }
    }

    fn recheck(&mut self) {
        if let (Some((lo, ls)), Some((hi, hs))) = (self.lo, self.hi) {
            if lo > hi || (lo == hi && (ls || hs)) {
                self.contradictory = true;
            }
        }
        if let Some(lit) = self.eq.clone() {
            if let Some(x) = lit_num(&lit) {
                self.check_num(x);
            }
        }
    }
}

fn lit_num(l: &Literal) -> Option<f64> {
    match l {
        Literal::Int(i) => Some(*i as f64),
        Literal::Float(x) => Some(*x),
        _ => None,
    }
}

/// If the conjunction of `p`'s top-level conjuncts is unsatisfiable over
/// some bound attribute (two different pinned constants, a constant
/// outside the gathered domain, or an empty range), name the attribute.
/// Predicates mentioning `$params` are exempt — their constants vary per
/// execution.
fn statically_empty_reason(p: &Expr, ctx: &Ctx<'_>) -> Option<String> {
    if mentions_param(p) {
        return None;
    }
    let mut constraints: HashMap<(Symbol, Symbol), AttrConstraint> = HashMap::new();
    let mut constrained = false;
    for c in conjuncts(p) {
        let (path, rhs, op) = match c {
            Expr::BinOp(op, a, b)
                if op.is_comparison() && ctx.attr_path(a).is_some() && numeric_or_lit(b) =>
            {
                (a, b.as_ref(), *op)
            }
            Expr::BinOp(op, a, b)
                if op.is_comparison() && ctx.attr_path(b).is_some() && numeric_or_lit(a) =>
            {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    other => *other,
                };
                (b, a.as_ref(), flipped)
            }
            _ => continue,
        };
        let (v, attr) = ctx.attr_path(path).expect("checked above");
        let Expr::Lit(lit) = rhs else { continue };
        let entry = constraints.entry((v, attr)).or_insert_with(|| {
            AttrConstraint::seeded(
                ctx.collection_of(v)
                    .and_then(|coll| ctx.catalog.attr(coll, attr)),
            )
        });
        match op {
            BinOp::Eq => entry.add_eq(lit),
            BinOp::Lt => {
                if let Some(x) = lit_num(lit) {
                    entry.add_upper(x, true);
                }
            }
            BinOp::Le => {
                if let Some(x) = lit_num(lit) {
                    entry.add_upper(x, false);
                }
            }
            BinOp::Gt => {
                if let Some(x) = lit_num(lit) {
                    entry.add_lower(x, true);
                }
            }
            BinOp::Ge => {
                if let Some(x) = lit_num(lit) {
                    entry.add_lower(x, false);
                }
            }
            _ => continue,
        }
        constrained = true;
    }
    if !constrained {
        return None;
    }
    constraints.iter().find(|(_, c)| c.contradictory).map(|((v, attr), _)| {
        format!(
            "no value of `{}.{}` satisfies these conjuncts under the gathered domain",
            v.as_str(),
            attr.as_str()
        )
    })
}

fn numeric_or_lit(e: &Expr) -> bool {
    matches!(e, Expr::Lit(_))
}

/// Run the abstract interpreter over `e`.
pub fn infer(e: &Expr, catalog: &Catalog) -> QueryFacts {
    let Expr::Comp { monoid, head: _, quals } = e else {
        return QueryFacts {
            rows: Interval::UNBOUNDED,
            selectivity: Interval::ONE,
            gens: Vec::new(),
            keys: Vec::new(),
            deps: Vec::new(),
        };
    };

    let mut ctx = Ctx {
        catalog,
        gens: Vec::new(),
        gen_vars: HashSet::new(),
        local: HashSet::new(),
        aliases: HashMap::new(),
        bind_deps: HashMap::new(),
    };
    let mut keys: Vec<KeyCert> = Vec::new();
    let mut deps: Vec<FunDep> = Vec::new();
    let mut dets: Vec<Det> = Vec::new();
    let mut sel = Interval::ONE;
    let mut pred_lo = 1.0f64;
    let mut empty = false;

    for q in quals {
        match q {
            Qual::Gen(v, src) => {
                let (rows, collection, cert) = source_facts(src, *v, &ctx);
                if let Some(c) = cert {
                    keys.push(c);
                }
                ctx.gens.push(GenFacts { var: *v, rows, collection, capped_at: None });
                ctx.gen_vars.insert(*v);
                ctx.local.insert(*v);
            }
            Qual::Bind(v, be) => {
                let needs = ctx.gen_needs(be);
                let mut determinants: Vec<Symbol> = needs.iter().copied().collect();
                determinants.sort_by(|a, b| a.as_str().cmp(b.as_str()));
                deps.push(FunDep { var: *v, determinants });
                if let Some(path) = ctx.attr_path(be) {
                    ctx.aliases.insert(*v, path);
                }
                ctx.bind_deps.insert(*v, needs);
                ctx.local.insert(*v);
            }
            Qual::Pred(p) => {
                let mut s = selectivity(p, &ctx);
                if statically_empty_reason(p, &ctx).is_some() {
                    s = Interval::ZERO;
                }
                if s.is_empty() {
                    empty = true;
                }
                sel = sel.and_sel(s);
                pred_lo *= s.lo.min(1.0);

                // Key-based caps: each top-level conjunct `v.attr = rhs`
                // with `attr` unique (or bounded-frequency) pins `v`.
                for c in conjuncts(p) {
                    for (path, rhs) in [
                        (c_lhs(c), c_rhs(c)),
                        (c_rhs(c), c_lhs(c)),
                    ] {
                        let (Some(path), Some(rhs)) = (path, rhs) else { continue };
                        let Some((v, attr)) = ctx.attr_path(path) else { continue };
                        if free_vars(rhs).contains(&v) {
                            continue;
                        }
                        let Some(gi) = ctx.gen_index(v) else { continue };
                        let Some(coll) = ctx.gens[gi].collection else { continue };
                        let Some(facts) = ctx.catalog.attr(coll, attr) else { continue };
                        if facts.count == 0 {
                            continue;
                        }
                        let factor = if facts.unique() {
                            keys.push(KeyCert {
                                var: v,
                                collection: coll,
                                attr: Some(attr),
                                reason: format!(
                                    "`{}.{}` is unique in `{}`; the equality pins at most \
                                     one element",
                                    v.as_str(),
                                    attr.as_str(),
                                    coll.as_str()
                                ),
                            });
                            1.0
                        } else {
                            facts.max_freq as f64
                        };
                        dets.push(Det { gen: gi, factor, needs: ctx.gen_needs(rhs) });
                    }
                }
            }
            Qual::VecGen { .. } => {
                return QueryFacts {
                    rows: Interval::UNBOUNDED,
                    selectivity: Interval::ONE,
                    gens: ctx.gens,
                    keys,
                    deps,
                };
            }
        }
    }

    // Cap elimination: repeatedly retire the generator with the smallest
    // qualifying factor. A determination qualifies only while none of its
    // determinant variables has itself been eliminated — that ordering is
    // what keeps mutually-referential equalities (v₁.a = v₂.id ∧ v₂.b =
    // v₁.id) from unsoundly capping both sides.
    let mut eliminated_vars: HashSet<Symbol> = HashSet::new();
    let mut caps: HashMap<usize, f64> = HashMap::new();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for d in &dets {
            if caps.contains_key(&d.gen) || d.needs.iter().any(|v| eliminated_vars.contains(v)) {
                continue;
            }
            match best {
                Some((_, f)) if f <= d.factor => {}
                _ => best = Some((d.gen, d.factor)),
            }
        }
        let Some((gi, factor)) = best else { break };
        caps.insert(gi, factor);
        eliminated_vars.insert(ctx.gens[gi].var);
    }
    for (gi, factor) in &caps {
        ctx.gens[*gi].capped_at = Some(*factor);
    }

    let mut hi = 1.0f64;
    let mut lo = 1.0f64;
    for (i, g) in ctx.gens.iter().enumerate() {
        let gh = match caps.get(&i) {
            Some(f) => f.min(g.rows.hi),
            None => g.rows.hi,
        };
        hi = if gh == 0.0 || hi == 0.0 { 0.0 } else { hi * gh };
        lo *= g.rows.lo;
    }
    lo *= pred_lo;
    if empty {
        hi = 0.0;
        lo = 0.0;
    }
    if monoid_short_circuits(monoid) {
        // The fold may absorb after any element; only the upper bound
        // survives.
        lo = 0.0;
    }
    if ctx.gens.is_empty() {
        // No generators: the head is evaluated exactly once.
        return QueryFacts {
            rows: Interval::ONE,
            selectivity: sel,
            gens: ctx.gens,
            keys,
            deps,
        };
    }

    QueryFacts {
        rows: Interval::new(lo, hi),
        selectivity: sel,
        gens: ctx.gens,
        keys,
        deps,
    }
}

fn c_lhs(c: &Expr) -> Option<&Expr> {
    match c {
        Expr::BinOp(BinOp::Eq, a, _) => Some(a),
        _ => None,
    }
}

fn c_rhs(c: &Expr) -> Option<&Expr> {
    match c {
        Expr::BinOp(BinOp::Eq, _, b) => Some(b),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Inference-backed lints: MC007 / MC008
// ---------------------------------------------------------------------------

/// The full lint pass: the span-aware structural lints (MC001–MC006) plus
/// the inference-backed lints (MC007–MC008), sharing one catalog. The
/// umbrella `analyze()` runs this (and adds MC009 from the prepared
/// plan); callers without statistics pass an empty catalog (all
/// inference lookups miss soundly).
pub fn lint_full(e: &Expr, spans: &SpanMap, catalog: &Catalog) -> Vec<Diagnostic> {
    let mut diags = lint_with_spans(e, spans);
    let extra = infer_lints(e, spans, catalog);
    super::lint::record_metrics(&extra);
    diags.extend(extra);
    diags
}

/// MC007/MC008 on every comprehension subterm.
fn infer_lints(e: &Expr, spans: &SpanMap, catalog: &Catalog) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    e.visit(&mut |node| {
        if let Expr::Comp { monoid, head, quals } = node {
            comp_lints(monoid, head, quals, catalog, spans, &mut diags);
        }
    });
    diags
}

/// MC007 (cross product) and MC008 (statically empty) for one
/// comprehension.
fn comp_lints(
    monoid: &Monoid,
    head: &Expr,
    quals: &[Qual],
    catalog: &Catalog,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    // Rebuild the inference context for this comprehension.
    let comp = Expr::Comp {
        monoid: monoid.clone(),
        head: Box::new(head.clone()),
        quals: quals.to_vec(),
    };
    let facts = infer(&comp, catalog);

    // MC007: an independent generator (a join) with no predicate linking
    // it to anything bound earlier — a cross product. Suppressed when the
    // variable is unused (MC001/MC004 already cover that) and for
    // synthesized binders.
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut gen_seen = 0usize;
    for (i, q) in quals.iter().enumerate() {
        match q {
            Qual::Gen(v, src) => {
                let independent =
                    gen_seen > 0 && !free_vars(src).iter().any(|x| bound.contains(x));
                if independent && !super::lint::synthesized(*v) {
                    let before: HashSet<Symbol> = bound.clone();
                    let linked = quals.iter().any(|other| match other {
                        Qual::Pred(p) => {
                            let fv = free_vars(p);
                            fv.contains(v) && fv.iter().any(|x| before.contains(x))
                        }
                        _ => false,
                    });
                    let rest = Expr::Comp {
                        monoid: monoid.clone(),
                        head: Box::new(head.clone()),
                        quals: quals[i + 1..].to_vec(),
                    };
                    let used = free_vars(&rest).contains(v);
                    if !linked && used {
                        diags.push(Diagnostic {
                            code: Code::CrossProduct,
                            severity: Code::CrossProduct.default_severity(),
                            span: spans.var_span(*v),
                            message: format!(
                                "cross product: no join predicate links generator `{}` to \
                                 the earlier generators",
                                v.as_str()
                            ),
                            note: Some(
                                "add a predicate relating it to an earlier variable, or \
                                 derive it from one (a dependent path)"
                                    .into(),
                            ),
                        });
                    }
                }
                bound.insert(*v);
                gen_seen += 1;
            }
            Qual::Bind(v, _) => {
                bound.insert(*v);
            }
            _ => {}
        }
    }

    // MC008: a predicate that is statically empty under the gathered
    // domains (or plainly contradictory conjuncts). Runs per predicate so
    // the span lands on the offending term.
    let ctx = facts_ctx(&facts, catalog);
    for q in quals {
        let Qual::Pred(p) = q else { continue };
        if let Some(reason) = statically_empty_reason(p, &ctx) {
            diags.push(Diagnostic {
                code: Code::StaticallyEmpty,
                severity: Code::StaticallyEmpty.default_severity(),
                span: spans.expr_span(p),
                message: format!("predicate selectivity is 0: {reason}"),
                note: Some("the comprehension is statically empty and always yields zero".into()),
            });
        }
    }
}

/// Rebuild a minimal `Ctx` from already-computed facts (for the per-pred
/// MC008 pass).
fn facts_ctx<'a>(facts: &QueryFacts, catalog: &'a Catalog) -> Ctx<'a> {
    let mut ctx = Ctx {
        catalog,
        gens: facts.gens.clone(),
        gen_vars: facts.gens.iter().map(|g| g.var).collect(),
        local: facts.gens.iter().map(|g| g.var).collect(),
        aliases: HashMap::new(),
        bind_deps: HashMap::new(),
    };
    for d in &facts.deps {
        ctx.local.insert(d.var);
    }
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::monoid::Monoid;
    use crate::analysis::constraints::{AttrFacts, ExtentFacts, FieldFacts};

    fn travel_catalog() -> Catalog {
        let mut cat = Catalog::default();
        let mut cities = ExtentFacts { size: 3, distinct_elements: true, ..Default::default() };
        cities.attrs.insert(
            Symbol::new("name"),
            AttrFacts { count: 3, distinct: 3, max_freq: 1, min: None, max: None },
        );
        cat.extents.insert(Symbol::new("Cities"), cities);
        let mut hotels = ExtentFacts { size: 6, distinct_elements: true, ..Default::default() };
        hotels.attrs.insert(
            Symbol::new("stars"),
            AttrFacts { count: 6, distinct: 3, max_freq: 2, min: Some(1.0), max: Some(5.0) },
        );
        cat.extents.insert(Symbol::new("Hotels"), hotels);
        cat.fields.insert(
            Symbol::new("rooms"),
            FieldFacts { occurrences: 6, min_fanout: 2, max_fanout: 4, total: 18,
                         attrs: Default::default() },
        );
        cat
    }

    fn portland() -> Expr {
        Expr::comp(
            Monoid::Bag,
            Expr::var("c").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
            ],
        )
    }

    #[test]
    fn unique_attribute_equality_caps_the_generator() {
        let facts = infer(&portland(), &travel_catalog());
        assert!(facts.rows.contains(1.0));
        assert!(facts.rows.hi <= 1.0, "rows {:?}", facts.rows);
        // Two certificates: the extent's OID key and the pinned unique
        // attribute.
        assert_eq!(facts.keys.len(), 2);
        assert!(facts.keys.iter().any(|k| k.attr == Some(Symbol::new("name"))));
    }

    #[test]
    fn max_frequency_bounds_non_unique_equalities() {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("h"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(Expr::var("h").proj("stars").eq(Expr::int(3))),
            ],
        );
        let facts = infer(&e, &travel_catalog());
        assert_eq!(facts.rows.hi, 2.0, "max_freq caps the scan: {:?}", facts.rows);
    }

    #[test]
    fn fanout_intervals_bound_dependent_generators() {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("r"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        );
        let facts = infer(&e, &travel_catalog());
        assert_eq!(facts.rows, Interval::new(12.0, 24.0));
    }

    #[test]
    fn short_circuiting_monoids_zero_the_lower_bound() {
        let e = Expr::comp(
            Monoid::Some,
            Expr::bool(true),
            vec![Expr::gen("h", Expr::var("Hotels"))],
        );
        let facts = infer(&e, &travel_catalog());
        assert_eq!(facts.rows, Interval::new(0.0, 6.0));
    }

    #[test]
    fn out_of_domain_constants_are_statically_empty() {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("h"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(Expr::var("h").proj("stars").eq(Expr::int(9))),
            ],
        );
        let facts = infer(&e, &travel_catalog());
        assert_eq!(facts.rows, Interval::ZERO);
        let diags = lint_full(&e, &SpanMap::default(), &travel_catalog());
        assert!(diags.iter().any(|d| d.code == Code::StaticallyEmpty), "{diags:?}");
    }

    #[test]
    fn contradictory_conjuncts_are_statically_empty_without_a_catalog() {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("h"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(
                    Expr::var("h")
                        .proj("stars")
                        .gt(Expr::int(4))
                        .and(Expr::var("h").proj("stars").lt(Expr::int(2))),
                ),
            ],
        );
        let diags = lint_full(&e, &SpanMap::default(), &Catalog::default());
        assert!(diags.iter().any(|d| d.code == Code::StaticallyEmpty), "{diags:?}");
    }

    #[test]
    fn mutually_referential_keys_do_not_double_eliminate() {
        // v1.name = v2.name ∧ v2.name = v1.name over two unique columns:
        // only one side may be eliminated; the other still contributes its
        // extent size.
        let mut cat = travel_catalog();
        cat.extents.get_mut(&Symbol::new("Hotels")).unwrap().attrs.insert(
            Symbol::new("name"),
            AttrFacts { count: 6, distinct: 6, max_freq: 1, min: None, max: None },
        );
        let e = Expr::comp(
            Monoid::Bag,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Cities")),
                Expr::gen("b", Expr::var("Hotels")),
                Expr::pred(
                    Expr::var("a")
                        .proj("name")
                        .eq(Expr::var("b").proj("name"))
                        .and(Expr::var("b").proj("name").eq(Expr::var("a").proj("name"))),
                ),
            ],
        );
        let facts = infer(&e, &cat);
        // One generator survives (3 or 6), the other is capped at 1.
        assert!(facts.rows.hi >= 3.0, "{:?}", facts.rows);
        assert!(facts.rows.hi <= 6.0, "{:?}", facts.rows);
    }

    #[test]
    fn cross_products_are_flagged_only_when_used_and_unlinked() {
        let used_unlinked = Expr::comp(
            Monoid::Bag,
            Expr::var("a").proj("name").eq(Expr::var("b").proj("name")),
            vec![
                Expr::gen("a", Expr::var("Cities")),
                Expr::gen("b", Expr::var("Hotels")),
            ],
        );
        let diags = lint_full(&used_unlinked, &SpanMap::default(), &Catalog::default());
        assert!(diags.iter().any(|d| d.code == Code::CrossProduct), "{diags:?}");

        // A join predicate linking the sides suppresses MC007.
        let linked = Expr::comp(
            Monoid::Bag,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Cities")),
                Expr::gen("b", Expr::var("Hotels")),
                Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("city"))),
            ],
        );
        let diags = lint_full(&linked, &SpanMap::default(), &Catalog::default());
        assert!(!diags.iter().any(|d| d.code == Code::CrossProduct), "{diags:?}");

        // Unused independent generators are MC001's business, not MC007's.
        let unused = Expr::comp(
            Monoid::Bag,
            Expr::var("a").proj("name"),
            vec![
                Expr::gen("a", Expr::var("Cities")),
                Expr::gen("b", Expr::var("Hotels")),
            ],
        );
        let diags = lint_full(&unused, &SpanMap::default(), &Catalog::default());
        assert!(!diags.iter().any(|d| d.code == Code::CrossProduct), "{diags:?}");
    }

    #[test]
    fn fun_deps_record_bind_determinants() {
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("n"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::bind("n", Expr::var("c").proj("name")),
            ],
        );
        let facts = infer(&e, &Catalog::default());
        assert_eq!(
            facts.deps,
            vec![FunDep { var: Symbol::new("n"), determinants: vec![Symbol::new("c")] }]
        );
    }
}
