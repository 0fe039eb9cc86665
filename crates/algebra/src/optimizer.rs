//! Cost-based qualifier reordering — join ordering at the *calculus*
//! level.
//!
//! Because a commutative output monoid makes generator order semantically
//! irrelevant (the interchange law), a canonical comprehension can be
//! reordered freely as long as variable dependencies are respected. That
//! is the manipulability dividend the paper advertises: join ordering is a
//! permutation of qualifiers, not a tree rewrite.
//!
//! The optimizer greedily picks, at each step, the *available* generator
//! (all source variables bound) with the lowest estimated cost:
//!
//! * extents: their actual size, as [`Stats::gather`] counted it;
//! * dependent paths (`h ← c.hotels`): the measured average fan-out of
//!   that field, falling back to a default;
//! * each predicate that becomes applicable right after a generator
//!   multiplies its estimated selectivity into the running cardinality:
//!   `1/distinct` for an equality on a gathered attribute (counted by
//!   sorting one 8-byte key per value, not the values), min/max
//!   interpolation for a comparison with a constant, and the flat
//!   defaults (equality ⇒ 0.1, comparison ⇒ 0.5) where nothing is known.
//!
//! An existential's head is a predicate like any other
//! (`some{ p | q̄ } ≡ some{ true | q̄, p }`), so it is placed with them.
//!
//! Non-commutative monoids (list, oset, …) are left untouched — their
//! order is meaning.

use monoid_calculus::analysis::effects::monoid_short_circuits;
use monoid_calculus::expr::{BinOp, Expr, Literal, Qual, UnOp};
use monoid_calculus::heap::Heap;
use monoid_calculus::monoid::Monoid;
use monoid_calculus::subst::free_vars;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::value::Value;
use monoid_store::Snapshot;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Cardinality statistics gathered from a database, read only by the
/// cost model here: extent sizes, per-field fan-outs, and per-attribute
/// distinct counts and numeric min/max. Estimates choose generator order
/// and print as `est≈`; no query result depends on them. The empty
/// default knows nothing, so every estimate takes the flat defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Extent name → its size and its members' attribute facts: the
    /// parts [`Stats::from_parts`] assembled.
    extents: BTreeMap<Symbol, Arc<ExtentFacts>>,
    /// Field name → fan-out and element attribute facts of every
    /// collection stored under that name, whichever class holds it.
    fields: BTreeMap<Symbol, FieldFacts>,
}

/// Facts about one named extent (a database root that is a collection),
/// as a walk of that root alone found them: one part of a [`Stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtentFacts {
    size: u64,
    attrs: BTreeMap<Symbol, AttrFacts>,
    /// The collection-valued fields reachable from this extent's members.
    fields: BTreeMap<Symbol, FieldFacts>,
}

/// Facts about one scalar attribute of a collection's element records.
#[derive(Debug, Clone, Default, PartialEq)]
struct AttrFacts {
    /// Distinct values observed — an equality keeps `1/distinct`.
    distinct: u64,
    /// Numeric domain, when every observed value was a number.
    min: Option<f64>,
    max: Option<f64>,
}

/// Facts about one named record field whose values are collections.
#[derive(Debug, Clone, Default, PartialEq)]
struct FieldFacts {
    /// Occurrences of the field with a collection value.
    occurrences: u64,
    /// Total elements across occurrences.
    total: u64,
    /// Attribute facts of the element records of these collections.
    attrs: BTreeMap<Symbol, AttrFacts>,
}

impl FieldFacts {
    fn avg_fanout(&self) -> f64 {
        self.total as f64 / (self.occurrences.max(1)) as f64
    }
}

const DEFAULT_EXTENT: f64 = 1_000.0;
const DEFAULT_FANOUT: f64 = 10.0;
const EQ_SELECTIVITY: f64 = 0.1;
const CMP_SELECTIVITY: f64 = 0.5;
/// How deep [`Stats::gather`] follows collection-valued fields.
const CATALOG_DEPTH: usize = 3;

/// `var → collection name` — which extent or field each plan/generator
/// variable ranges over, resolved structurally. This is the context the
/// refined selectivity model needs to look up attribute facts.
type SourceMap = HashMap<Symbol, Symbol>;

impl Stats {
    /// Walk the store once, from its roots (and the collections
    /// reachable from their element records, up to `CATALOG_DEPTH`):
    /// extent sizes, per-field fan-outs, and per-attribute distinct
    /// counts and numeric domains. The walk borrows every element in
    /// place: a bag's run of count `n` counts `n` times, and a distinct
    /// count sorts an 8-byte key per value, not the values, under
    /// `Value::cmp`'s equality (`1` = `1.0`, `-0.0` ≠ `0.0`). Each root
    /// is walked on its own ([`ExtentFacts::gather`]) and the parts
    /// assembled ([`Stats::from_parts`]). A gather describes what it read;
    /// the serving layer keeps one in that snapshot's memo, and keeps
    /// each root's part there too.
    pub fn gather(snap: &Snapshot) -> Stats {
        Stats::from_parts(snap.roots().filter_map(|(name, root)| {
            let (part, _) = ExtentFacts::gather(snap.heap(), root)?;
            Some((name, Arc::new(part)))
        }))
    }

    /// The statistics of a store whose roots walked to `parts`, in root
    /// order: each extent is its part, and each field's fan-out sums over
    /// the parts. A field's attribute facts are not merged: for each
    /// attribute, the last part that recorded it wins.
    pub fn from_parts(parts: impl IntoIterator<Item = (Symbol, Arc<ExtentFacts>)>) -> Stats {
        let mut stats = Stats::default();
        for (name, part) in parts {
            for (fname, facts) in &part.fields {
                let field = stats.fields.entry(*fname).or_default();
                field.occurrences += facts.occurrences;
                field.total += facts.total;
                field.attrs.extend(facts.attrs.iter().map(|(a, f)| (*a, f.clone())));
            }
            stats.extents.insert(name, part);
        }
        stats
    }

    /// [`Stats::gather`] under the name the frozen `benchmark/` crate
    /// imports; exists only until the benchmark is re-pinned.
    pub fn gather_snapshot(snap: &Snapshot) -> Stats {
        Stats::gather(snap)
    }

    /// Estimated output cardinality of every operator in `plan`, indexed
    /// by pre-order position (root = 0, a unary operator's input at
    /// `op + 1`, a join's right child after the whole left subtree) — the
    /// same numbering `explain` and the executor's probes use. These are
    /// the estimates `explain_analyze` prints next to observed rows.
    pub fn plan_estimates(&self, plan: &crate::logical::Plan) -> Vec<f64> {
        let mut ctx = SourceMap::new();
        plan_sources(plan, &mut ctx);
        let mut out = vec![0.0; plan.node_count()];
        self.estimate_into(plan, 0, &mut out, &ctx);
        out
    }

    /// Per-operator estimates for a whole [`Query`](crate::logical::Query):
    /// [`Stats::plan_estimates`] refined by the reduction monoid. A `some`
    /// reduction absorbs on its *first witness* — exists-style queries are
    /// selective by design, so the true row count lands anywhere in
    /// `[1, est]` and the geometric midpoint `√est` minimizes the
    /// worst-case q-error over that interval. `all` also short-circuits,
    /// but only on a counterexample; invariant-style queries typically
    /// scan to completion, so damping them would trade a rare improvement
    /// for a routine misestimate (the corpus audit confirms: `forall`
    /// queries sit at q-error 1.0 undamped).
    pub fn query_estimates(&self, query: &crate::logical::Query) -> Vec<f64> {
        let mut out = self.plan_estimates(query.plan());
        if monoid_short_circuits(query.monoid())
            && *query.monoid() == monoid_calculus::monoid::Monoid::Some
        {
            for e in &mut out {
                if *e > 1.0 {
                    *e = e.sqrt();
                }
            }
        }
        out
    }

    /// Fill `out[op]` with the estimate for `plan` and return it.
    fn estimate_into(
        &self,
        plan: &crate::logical::Plan,
        op: usize,
        out: &mut [f64],
        ctx: &SourceMap,
    ) -> f64 {
        use crate::logical::Plan;
        let est = match plan {
            Plan::Scan { source, .. } => self.source_cardinality(source),
            Plan::Unnest { input, path, .. } => {
                // `source_cardinality` of a projection is its per-object
                // fan-out, which is exactly the unnest multiplier.
                self.estimate_into(input, op + 1, out, ctx) * self.source_cardinality(path)
            }
            Plan::Filter { input, pred } => {
                self.estimate_into(input, op + 1, out, ctx) * self.selectivity(pred, ctx)
            }
            Plan::Bind { input, .. } => self.estimate_into(input, op + 1, out, ctx),
            Plan::Join { left, right, on, .. } => {
                let l = self.estimate_into(left, op + 1, out, ctx);
                let r = self.estimate_into(right, op + 1 + left.node_count(), out, ctx);
                // Each equi-key pair filters the cross product like an
                // equality predicate; no keys means a cross product.
                let mut est = l * r;
                for (lk, rk) in on {
                    est *= self.equality_selectivity(lk, rk, ctx);
                }
                est
            }
        };
        out[op] = est;
        est
    }

    /// Estimated cardinality of a generator source.
    fn source_cardinality(&self, src: &Expr) -> f64 {
        match src {
            Expr::Var(name) => self.extents.get(name).map_or(DEFAULT_EXTENT, |e| e.size as f64),
            Expr::Proj(_, field) => {
                self.fields.get(field).map_or(DEFAULT_FANOUT, FieldFacts::avg_fanout)
            }
            Expr::CollLit(_, items) => items.len() as f64,
            Expr::UnOp(_, inner) => self.source_cardinality(inner),
            _ => DEFAULT_EXTENT,
        }
    }

    /// Attribute facts for `e` when it is a `v.attr` path over a variable
    /// whose collection (an extent or a field) is known.
    fn path_facts(&self, e: &Expr, ctx: &SourceMap) -> Option<&AttrFacts> {
        let Expr::Proj(inner, attr) = e else { return None };
        let Expr::Var(v) = inner.as_ref() else { return None };
        let coll = ctx.get(v)?;
        self.extents
            .get(coll)
            .and_then(|e| e.attrs.get(attr))
            .or_else(|| self.fields.get(coll).and_then(|f| f.attrs.get(attr)))
    }

    /// Selectivity of an equality between `a` and `b`.
    /// With gathered facts, equality on an attribute keeps `1/distinct`
    /// of the rows on average; a two-sided equi-key takes the larger
    /// distinct count (the classic join estimate). Falls back to the flat
    /// default when nothing is known.
    fn equality_selectivity(&self, a: &Expr, b: &Expr, ctx: &SourceMap) -> f64 {
        let da = self.path_facts(a, ctx).map(|f| f.distinct.max(1));
        let db = self.path_facts(b, ctx).map(|f| f.distinct.max(1));
        match (da, db) {
            (Some(x), Some(y)) => 1.0 / x.max(y) as f64,
            (Some(x), None) | (None, Some(x)) => 1.0 / x as f64,
            (None, None) => EQ_SELECTIVITY,
        }
    }

    /// Refined predicate selectivity: attribute facts where known, the
    /// classic independence combinators elsewhere.
    fn selectivity(&self, p: &Expr, ctx: &SourceMap) -> f64 {
        match p {
            Expr::BinOp(BinOp::And, a, b) => self.selectivity(a, ctx) * self.selectivity(b, ctx),
            Expr::BinOp(BinOp::Or, a, b) => {
                let (sa, sb) = (self.selectivity(a, ctx), self.selectivity(b, ctx));
                sa + sb - sa * sb
            }
            Expr::UnOp(UnOp::Not, inner) => 1.0 - self.selectivity(inner, ctx),
            Expr::Lit(Literal::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Expr::BinOp(BinOp::Eq, a, b) => self.equality_selectivity(a, b, ctx),
            Expr::BinOp(op, a, b) if op.is_comparison() => self
                .range_selectivity(*op, a, b, ctx)
                .unwrap_or(CMP_SELECTIVITY),
            _ => CMP_SELECTIVITY,
        }
    }

    /// Interpolated selectivity of `path <op> constant` against the
    /// attribute's gathered numeric domain, assuming a uniform spread.
    fn range_selectivity(&self, op: BinOp, a: &Expr, b: &Expr, ctx: &SourceMap) -> Option<f64> {
        let (path, lit, op) = if let Some(x) = numeric_literal(b) {
            (a, x, op)
        } else if let Some(x) = numeric_literal(a) {
            (b, x, op.flipped())
        } else {
            return None;
        };
        let facts = self.path_facts(path, ctx)?;
        let (mn, mx) = (facts.min?, facts.max?);
        let width = (mx - mn).max(f64::EPSILON);
        let below = ((lit - mn) / width).clamp(0.0, 1.0);
        Some(match op {
            BinOp::Lt | BinOp::Le => below,
            BinOp::Gt | BinOp::Ge => 1.0 - below,
            _ => return None,
        })
    }
}

impl ExtentFacts {
    /// Walk one root as [`Stats::gather`] walks each: `None` when it is
    /// not a collection. Also whether every object the walk met was live:
    /// a dangling one may be allocated later and change these facts.
    pub fn gather(heap: &Heap, root: &Value) -> Option<(ExtentFacts, bool)> {
        let size = root.len().ok()?;
        let mut elems = Vec::new();
        push_elements(root, 1, &mut elems);
        let mut part = ExtentFacts { size: size as u64, ..Default::default() };
        let mut live = true;
        collect_collection(heap, &elems, 0, &mut part.attrs, &mut part.fields, &mut live);
        Some((part, live))
    }
}

fn numeric_literal(e: &Expr) -> Option<f64> {
    match e {
        Expr::Lit(Literal::Int(i)) => Some(*i as f64),
        Expr::Lit(Literal::Float(x)) => Some(*x),
        _ => None,
    }
}

/// Resolve which collection each plan variable ranges over (extents by
/// root name, dependent paths by field name).
fn plan_sources(plan: &crate::logical::Plan, ctx: &mut SourceMap) {
    use crate::logical::Plan;
    match plan {
        Plan::Scan { var, source } => {
            if let Some(key) = source_key(source) {
                ctx.insert(*var, key);
            }
        }
        Plan::Unnest { input, var, path } => {
            plan_sources(input, ctx);
            if let Some(key) = source_key(path) {
                ctx.insert(*var, key);
            }
        }
        Plan::Filter { input, .. } | Plan::Bind { input, .. } => plan_sources(input, ctx),
        Plan::Join { left, right, .. } => {
            plan_sources(left, ctx);
            plan_sources(right, ctx);
        }
    }
}

/// The [`Stats`] key a generator source resolves to: extents by name,
/// dependent paths by field name.
fn source_key(src: &Expr) -> Option<Symbol> {
    match src {
        Expr::Var(name) => Some(*name),
        Expr::Proj(_, field) => Some(*field),
        Expr::UnOp(_, inner) => source_key(inner),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Gathering
// ---------------------------------------------------------------------------

/// Borrowed `(element, multiplicity)` pairs.
type Elems<'a> = Vec<(&'a Value, u64)>;

/// What one collection's elements hold under one field name: each scalar's
/// key, the numbers' domain, and its collections' count, size and elements.
#[derive(Default)]
struct Bin<'a> {
    /// Numbers by [`Value::number_key`]: equal keys are equal values.
    numbers: Vec<u64>,
    /// Every other scalar and its [`other_key`]; `Value::cmp` settles ties.
    others: Vec<(u64, &'a Value)>,
    min: Option<f64>,
    max: Option<f64>,
    kids: Option<(u64, u64, Elems<'a>)>,
}

impl<'a> Bin<'a> {
    fn push_scalar(&mut self, v: &'a Value) {
        let x = match v {
            Value::Int(i) => *i as f64,
            Value::Float(x) => *x,
            _ => return self.others.push((other_key(v), v)),
        };
        self.min = Some(self.min.map_or(x, |lo| lo.min(x)));
        self.max = Some(self.max.map_or(x, |hi| hi.max(x)));
        match v.number_key() {
            Some(key) => self.numbers.push(key),
            None => self.others.push((other_key(v), v)),
        }
    }

    /// The set monoid's count, `count(set{ x.a | x ← E })`: distinct under
    /// `Value::cmp`, so `1` and `1.0` are one value and `-0.0` and `0.0`
    /// two. A number's key is exact, so its distinct keys are its distinct
    /// values; no other scalar equals a number with one. The rest sort by
    /// key, and equal keys by value.
    fn distinct(&mut self) -> u64 {
        self.numbers.sort_unstable();
        self.numbers.dedup();
        self.others.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        self.others.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        (self.numbers.len() + self.others.len()) as u64
    }
}

/// The key of a scalar [`Value::number_key`] does not cover, kept apart
/// by kind where it can be: a bool's `0` or `1`, an int beyond ±2^53 its
/// own bits, a string its bytes hashed by wyhash's folded multiply.
fn other_key(v: &Value) -> u64 {
    match v {
        Value::Bool(b) => u64::from(*b),
        Value::Int(i) => *i as u64,
        Value::Str(s) => s.as_bytes().chunks(8).fold(s.len() as u64, |h, word| {
            let mut bytes = [0; 8];
            bytes[..word.len()].copy_from_slice(word);
            let r = u128::from(h ^ u64::from_le_bytes(bytes)) * 0x9e37_79b9_7f4a_7c15;
            r as u64 ^ (r >> 64) as u64
        }),
        _ => 0,
    }
}

/// Append `coll`'s records and objects (no other element has fields) to
/// `out`, each count scaled by `times`: a bag's runs as stored, others once.
fn push_elements<'a>(coll: &'a Value, times: u64, out: &mut Elems<'a>) {
    let fielded = |e: &Value| matches!(e, Value::Record(_) | Value::Obj(_));
    match coll {
        Value::List(v) | Value::Set(v) | Value::Vector(v) => {
            out.extend(v.iter().filter(|e| fielded(e)).map(|e| (e, times)));
        }
        Value::Bag(runs) => {
            out.extend(runs.iter().filter(|(e, _)| fielded(e)).map(|(e, n)| (e, n * times)));
        }
        _ => {}
    }
}

/// Gather attribute facts for the element records of one collection, and
/// fan-out facts (plus nested attribute facts) for their collection-valued
/// fields. An element of multiplicity `m` counts `m` times in fan-outs,
/// and its nested elements are visited `m` times. A dangling object is
/// skipped and clears `live`. Fields bin by position while layouts repeat.
fn collect_collection<'a>(
    heap: &'a Heap,
    elems: &[(&'a Value, u64)],
    depth: usize,
    attrs_out: &mut BTreeMap<Symbol, AttrFacts>,
    fields_out: &mut BTreeMap<Symbol, FieldFacts>,
    live: &mut bool,
) {
    let mut bins: Vec<(Symbol, Bin<'a>)> = Vec::new();
    let (mut layout, mut slots): (Vec<Symbol>, Vec<usize>) = (Vec::new(), Vec::new());
    for &(elem, m) in elems {
        let fields: &'a [(Symbol, Value)] = match elem {
            Value::Record(fields) => fields,
            Value::Obj(oid) => match heap.get(*oid) {
                Ok(Value::Record(fields)) => fields,
                Ok(_) => continue,
                Err(_) => {
                    *live = false;
                    continue;
                }
            },
            _ => continue,
        };
        if !fields.iter().map(|(name, _)| name).eq(&layout) {
            layout = fields.iter().map(|(name, _)| *name).collect();
            slots = layout
                .iter()
                .map(|name| {
                    bins.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
                        bins.push((*name, Bin::default()));
                        bins.len() - 1
                    })
                })
                .collect();
        }
        for ((_, fv), &slot) in fields.iter().zip(&slots) {
            let bin = &mut bins[slot].1;
            match fv {
                Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_) => {
                    bin.push_scalar(fv);
                }
                _ => {
                    if let Ok(n) = fv.len() {
                        let (count, total, kids) = bin.kids.get_or_insert_with(Default::default);
                        *count += m;
                        *total += n as u64 * m;
                        if depth < CATALOG_DEPTH {
                            push_elements(fv, m, kids);
                        }
                    }
                }
            }
        }
    }
    bins.sort_unstable_by_key(|(name, _)| *name);
    for (name, bin) in &mut bins {
        if !bin.numbers.is_empty() || !bin.others.is_empty() {
            let numeric = bin.others.iter().all(|(_, v)| matches!(v, Value::Int(_)));
            let (min, max) = if numeric { (bin.min, bin.max) } else { (None, None) };
            attrs_out.insert(*name, AttrFacts { distinct: bin.distinct(), min, max });
        }
        if let Some((count, total, _)) = bin.kids {
            let f = fields_out.entry(*name).or_default();
            f.occurrences += count;
            f.total += total;
        }
    }
    let nested = bins.into_iter().filter_map(|(name, bin)| Some((name, bin.kids?)));
    for (fname, (_, _, kids)) in nested {
        // Recurse into the nested elements (none below `CATALOG_DEPTH`),
        // into the field's own attribute table (taken out to appease borrows).
        let mut sub_attrs =
            std::mem::take(&mut fields_out.get_mut(&fname).expect("field recorded").attrs);
        collect_collection(heap, &kids, depth + 1, &mut sub_attrs, fields_out, live);
        fields_out.get_mut(&fname).expect("field recorded").attrs = sub_attrs;
    }
}

/// Reorder the qualifiers of a canonical comprehension by estimated cost.
/// Returns the (possibly) reordered expression; non-comprehensions,
/// non-commutative monoids, and impure terms come back unchanged.
pub fn reorder_generators(e: &Expr, stats: &Stats) -> Expr {
    let Expr::Comp { monoid, head, quals } = e else { return e.clone() };
    // Reordering permutes evaluation order, so it is licensed only for
    // commutative monoids over effect-free terms, judged by
    // `analysis::effects_of` as every other stage judges them.
    if !monoid.props().commutative || !monoid_calculus::analysis::effects_of(e).is_pure() {
        return e.clone();
    }
    // Split into generators / binds / preds, remembering dependencies.
    let mut gens: Vec<(Symbol, Expr)> = Vec::new();
    let mut binds: Vec<(Symbol, Expr)> = Vec::new();
    let mut preds: Vec<Expr> = Vec::new();
    for q in quals {
        match q {
            Qual::Gen(v, s) => gens.push((*v, s.clone())),
            Qual::Bind(v, s) => binds.push((*v, s.clone())),
            Qual::Pred(p) => preds.push(p.clone()),
            Qual::VecGen { .. } => return e.clone(),
        }
    }
    // `some{ p | q̄ } ≡ some{ true | q̄, p }`: an existential's head is one
    // more predicate, placed like the others — directly over its generator,
    // where the fused compiler can turn an equality into a probe. A filter
    // and a `some` head both read `p` through `as_bool`, so a non-boolean
    // `p` fails with the same error either way.
    let mut head = head.clone();
    if *monoid == Monoid::Some && !gens.is_empty() && !matches!(*head, Expr::Lit(_)) {
        preds.push(std::mem::replace(&mut *head, Expr::bool(true)));
    }

    // Variables bound by this comprehension's own binders; anything else
    // free in a source (extent roots, outer variables) is always
    // available.
    let all_binders: HashSet<Symbol> = gens
        .iter()
        .map(|(v, _)| *v)
        .chain(binds.iter().map(|(v, _)| *v))
        .collect();
    let ready = |e: &Expr, bound: &HashSet<Symbol>| {
        free_vars(e)
            .iter()
            .all(|x| !all_binders.contains(x) || bound.contains(x))
    };

    // Resolve each generator variable's collection up front so predicate
    // costing can consult gathered attribute facts regardless of order.
    let mut src_ctx = SourceMap::new();
    for (v, src) in &gens {
        if let Some(key) = source_key(src) {
            src_ctx.insert(*v, key);
        }
    }

    let mut ordered: Vec<Qual> = Vec::with_capacity(quals.len());
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut remaining_gens = gens;
    let mut remaining_binds = binds;
    let mut remaining_preds = preds;

    while !remaining_gens.is_empty() || !remaining_binds.is_empty() {
        // Place binds and predicates that are ready (cheap first).
        loop {
            let mut progressed = false;
            remaining_binds.retain(|(v, s)| {
                if ready(s, &bound) {
                    ordered.push(Qual::Bind(*v, s.clone()));
                    bound.insert(*v);
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            remaining_preds.retain(|p| {
                if ready(p, &bound) {
                    ordered.push(Qual::Pred(p.clone()));
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if !progressed {
                break;
            }
        }
        if remaining_gens.is_empty() {
            if remaining_binds.is_empty() {
                break;
            }
            // A bind whose variables can never be bound — malformed input;
            // give up and return the original.
            return e.clone();
        }
        // Pick the cheapest available generator.
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, src)) in remaining_gens.iter().enumerate() {
            if !ready(src, &bound) {
                continue;
            }
            let mut cost = stats.source_cardinality(src);
            // Predicates that become applicable once this generator binds
            // shrink the effective cardinality.
            let (var, _) = &remaining_gens[i];
            for p in &remaining_preds {
                let fv = free_vars(p);
                let applicable = fv.contains(var)
                    && fv.iter().all(|x| {
                        *x == *var || !all_binders.contains(x) || bound.contains(x)
                    });
                if applicable {
                    cost *= stats.selectivity(p, &src_ctx);
                }
            }
            match best {
                Some((_, c)) if c <= cost => {}
                _ => best = Some((i, cost)),
            }
        }
        let Some((i, _)) = best else {
            // No generator is available: dependency cycle (impossible for
            // well-formed input) — bail out.
            return e.clone();
        };
        let (var, src) = remaining_gens.remove(i);
        ordered.push(Qual::Gen(var, src));
        bound.insert(var);
    }
    // Any stragglers (shouldn't happen on well-formed input).
    for p in remaining_preds {
        ordered.push(Qual::Pred(p));
    }

    Expr::Comp { monoid: monoid.clone(), head, quals: ordered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monoid_store::travel::{self, TravelScale};
    use proptest::prelude::*;

    #[test]
    fn stats_measure_extents_and_fanouts() {
        let scale = TravelScale::tiny();
        let db = travel::generate(scale, 3);
        let stats = Stats::gather(&db);
        assert_eq!(stats.extents[&Symbol::new("Cities")].size, scale.cities as u64);
        let rooms_fanout = stats.fields[&Symbol::new("rooms")].avg_fanout();
        assert!((rooms_fanout - scale.rooms_per_hotel as f64).abs() < 1e-9);
    }

    #[test]
    fn plan_estimates_follow_preorder() {
        let scale = TravelScale::tiny();
        let db = travel::generate(scale, 3);
        let stats = Stats::gather(&db);
        let q = Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
            ],
        );
        let plan = crate::logical::plan_comprehension(&q).unwrap().plan().clone();
        let est = stats.plan_estimates(&plan);
        assert_eq!(est.len(), plan.node_count());
        // The plan is Unnest(Filter(Scan)), so pre-order is [unnest,
        // filter, scan]: the scan sees the whole extent, the equality on
        // `name` keeps 1/distinct of the rows (city names are unique, so
        // 1/|Cities|), the unnest multiplies by the fan-out.
        assert_eq!(est[2], scale.cities as f64);
        assert!((est[1] - est[2] / scale.cities as f64).abs() < 1e-9, "{est:?}");
        let fanout = stats.fields[&Symbol::new("hotels")].avg_fanout();
        assert!((est[0] - est[1] * fanout).abs() < 1e-9, "{est:?}");
    }

    #[test]
    fn smaller_extent_scans_first() {
        let mut db = travel::generate(TravelScale::tiny(), 3);
        let stats = Stats::gather(&db);
        // Clients (5) × Employees (12): employees should not lead.
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("e", Expr::var("Employees")),
                Expr::gen("cl", Expr::var("Clients")),
            ],
        );
        let r = reorder_generators(&q, &stats);
        let Expr::Comp { quals, .. } = &r else { panic!() };
        let Qual::Gen(first, _) = &quals[0] else { panic!() };
        assert_eq!(*first, Symbol::new("cl"), "smaller extent first");
        // Same result either way.
        assert_eq!(db.query(&q).unwrap(), db.query(&r).unwrap());
    }

    #[test]
    fn selective_predicates_pull_their_generator_forward() {
        let db = travel::generate(TravelScale::tiny(), 3);
        let stats = Stats::gather(&db);
        // Clients (5) vs Cities (3) with an equality filter on cities:
        // cities effective cost 3·0.1 < 5 — cities lead despite... they
        // already lead by size; use Hotels (6) vs Clients (5): hotels with
        // an equality shrink to 0.6 and overtake clients.
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("cl", Expr::var("Clients")),
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(Expr::var("h").proj("name").eq(Expr::str("hotel_0_0"))),
            ],
        );
        let r = reorder_generators(&q, &stats);
        let Expr::Comp { quals, .. } = &r else { panic!() };
        let Qual::Gen(first, _) = &quals[0] else { panic!() };
        assert_eq!(*first, Symbol::new("h"));
        // The equality predicate lands immediately after its generator.
        assert!(matches!(&quals[1], Qual::Pred(_)));
    }

    #[test]
    fn an_existential_head_becomes_a_filter_over_its_generator() {
        let mut db = travel::generate(TravelScale::tiny(), 3);
        let stats = Stats::gather(&db);
        let name_is = |n: &str| Expr::var("h").proj("name").eq(Expr::str(n));
        let exists = |head: Expr| {
            Expr::comp(Monoid::Some, head, vec![Expr::gen("h", Expr::var("Hotels"))])
        };
        for (head, found) in [(name_is("hotel_0_0"), true), (name_is("nowhere"), false)] {
            let q = exists(head.clone());
            let r = reorder_generators(&q, &stats);
            let Expr::Comp { head: new_head, quals, .. } = &r else { panic!() };
            assert_eq!(**new_head, Expr::bool(true));
            assert_eq!(quals[1], Qual::Pred(head));
            let plan = crate::logical::plan_comprehension(&r).unwrap();
            let crate::logical::Plan::Filter { input, .. } = plan.plan() else { panic!() };
            assert!(matches!(**input, crate::logical::Plan::Scan { .. }));
            assert_eq!(crate::exec::execute(&plan, &db).unwrap(), Value::Bool(found));
            assert_eq!(db.query(&q).unwrap(), Value::Bool(found));
        }
        // A literal head, another monoid, or no generator: left alone.
        let literal = exists(Expr::bool(true));
        let Expr::Comp { quals, .. } = reorder_generators(&literal, &stats) else { panic!() };
        assert_eq!(quals.len(), 1);
        let all = Expr::comp(Monoid::All, name_is("x"), vec![Expr::gen("h", Expr::var("Hotels"))]);
        assert_eq!(reorder_generators(&all, &stats), all);
        let bare = Expr::comp(Monoid::Some, Expr::var("p"), vec![]);
        assert_eq!(reorder_generators(&bare, &stats), bare);
    }

    #[test]
    fn dependencies_are_respected() {
        let mut db = travel::generate(TravelScale::tiny(), 3);
        let stats = Stats::gather(&db);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::gen("h", Expr::var("c").proj("hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        );
        let r = reorder_generators(&q, &stats);
        // h must still come after c, r after h.
        let Expr::Comp { quals, .. } = &r else { panic!() };
        let order: Vec<Symbol> = quals
            .iter()
            .filter_map(|q| match q {
                Qual::Gen(v, _) => Some(*v),
                _ => None,
            })
            .collect();
        let pos = |s: &str| order.iter().position(|v| *v == Symbol::new(s)).unwrap();
        assert!(pos("c") < pos("h"));
        assert!(pos("h") < pos("r"));
        assert_eq!(db.query(&q).unwrap(), db.query(&r).unwrap());
    }

    #[test]
    fn non_commutative_monoids_untouched() {
        let stats = Stats::default();
        let q = Expr::comp(
            Monoid::List,
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::list_of(vec![Expr::int(2), Expr::int(1)])),
                Expr::gen("y", Expr::list_of(vec![Expr::int(3)])),
            ],
        );
        assert_eq!(reorder_generators(&q, &stats), q);
    }

    #[test]
    fn impure_comprehensions_untouched() {
        let stats = Stats::default();
        let q = Expr::comp(
            Monoid::Sum,
            Expr::var("x").deref(),
            vec![Expr::gen("x", Expr::new_obj(Expr::int(1)))],
        );
        assert_eq!(reorder_generators(&q, &stats), q);
    }

    #[test]
    fn reordering_plus_planning_agree_with_baseline() {
        let mut db = travel::generate(TravelScale::small(), 3);
        let stats = Stats::gather(&db);
        let q = Expr::comp(
            Monoid::Set,
            Expr::var("cl").proj("name"),
            vec![
                Expr::gen("e", Expr::var("Employees")),
                Expr::gen("cl", Expr::var("Clients")),
                Expr::pred(
                    Expr::var("e").proj("salary").gt(Expr::int(50_000)),
                ),
                Expr::pred(Expr::var("cl").proj("age").gt(Expr::int(30))),
            ],
        );
        let base = db.query(&q).unwrap();
        let r = reorder_generators(&q, &stats);
        let plan = crate::logical::plan_comprehension(&r).unwrap();
        let piped = crate::exec::execute(&plan, &db).unwrap();
        assert_eq!(base, piped);
    }

    /// The walk `Stats::gather` replaced, kept as the reference it must
    /// agree with: every element cloned out of its collection (a bag's
    /// runs expanded), every scalar cloned into a `BTreeSet`, and one
    /// field map shared by every root. Each extent's own fields are the
    /// same walk of that root into a map of its own.
    fn reference_gather(snap: &Snapshot) -> Stats {
        let mut stats = Stats::default();
        for (name, value) in snap.roots() {
            let Ok(elems) = value.elements() else { continue };
            let mut ext = ExtentFacts { size: elems.len() as u64, ..Default::default() };
            reference_collect(snap.heap(), &elems, 0, &mut ext.attrs, &mut stats.fields);
            reference_collect(snap.heap(), &elems, 0, &mut BTreeMap::new(), &mut ext.fields);
            stats.extents.insert(name, Arc::new(ext));
        }
        stats
    }

    fn reference_collect(
        heap: &Heap,
        elems: &[Value],
        depth: usize,
        attrs_out: &mut BTreeMap<Symbol, AttrFacts>,
        fields_out: &mut BTreeMap<Symbol, FieldFacts>,
    ) {
        use std::collections::BTreeSet;
        let mut values: BTreeMap<Symbol, BTreeSet<Value>> = BTreeMap::new();
        let mut domains: BTreeMap<Symbol, (Option<f64>, Option<f64>, bool)> = BTreeMap::new();
        let mut children: BTreeMap<Symbol, Vec<Value>> = BTreeMap::new();
        for elem in elems {
            let fields: &[(Symbol, Value)] = match elem {
                Value::Record(fields) => fields,
                Value::Obj(oid) => match heap.get(*oid) {
                    Ok(Value::Record(fields)) => fields,
                    _ => continue,
                },
                _ => continue,
            };
            for (fname, fv) in fields {
                match fv {
                    Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_) => {
                        values.entry(*fname).or_default().insert(fv.clone());
                        let dom = domains.entry(*fname).or_insert((None, None, true));
                        match fv {
                            Value::Int(i) => {
                                let x = *i as f64;
                                dom.0 = Some(dom.0.map_or(x, |m: f64| m.min(x)));
                                dom.1 = Some(dom.1.map_or(x, |m: f64| m.max(x)));
                            }
                            Value::Float(x) => {
                                dom.0 = Some(dom.0.map_or(*x, |m: f64| m.min(*x)));
                                dom.1 = Some(dom.1.map_or(*x, |m: f64| m.max(*x)));
                            }
                            _ => dom.2 = false,
                        }
                    }
                    _ => {
                        if let Ok(n) = fv.len() {
                            let f = fields_out.entry(*fname).or_default();
                            f.occurrences += 1;
                            f.total += n as u64;
                            if depth < CATALOG_DEPTH {
                                if let Ok(kids) = fv.elements() {
                                    children.entry(*fname).or_default().extend(kids);
                                }
                            }
                        }
                    }
                }
            }
        }
        for (fname, seen) in values {
            let (min, max) = match domains.get(&fname) {
                Some((mn, mx, true)) => (*mn, *mx),
                _ => (None, None),
            };
            attrs_out.insert(fname, AttrFacts { distinct: seen.len() as u64, min, max });
        }
        for (fname, kids) in children {
            let mut sub_attrs =
                std::mem::take(&mut fields_out.get_mut(&fname).expect("field recorded").attrs);
            reference_collect(heap, &kids, depth + 1, &mut sub_attrs, fields_out);
            fields_out.get_mut(&fname).expect("field recorded").attrs = sub_attrs;
        }
    }

    /// `gather` equals the reference, and prints the same: `Debug` also
    /// tells `-0.0` from `0.0` in a domain, which `==` does not.
    fn assert_gather_matches_reference(snap: &Snapshot) {
        let (got, want) = (Stats::gather(snap), reference_gather(snap));
        assert_eq!(got, want);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn gather_matches_reference_on_hand_stores() {
        let rec = Value::record_from;
        let nan = |bits: u64| Value::Float(f64::from_bits(bits));
        let mut db = monoid_store::Database::new(monoid_calculus::types::Schema::new());

        // A bag extent with runs of count > 1, whose members hold a
        // nested bag field with runs of count > 1: the nested elements
        // count once per copy of their parent.
        let kids = Value::bag_from(vec![
            rec(vec![("k", Value::Int(1))]),
            rec(vec![("k", Value::Int(1))]),
            rec(vec![("k", Value::Int(2))]),
        ]);
        let member = rec(vec![("a", Value::Int(1)), ("kids", kids.clone())]);
        let other = rec(vec![("a", Value::Int(2)), ("kids", Value::bag_from(Vec::new()))]);
        db.set_root("Bagged", Value::bag_from(vec![member.clone(), member.clone(), member, other]));

        // `1` and `1.0` in one attribute are one value; `-0.0` and `0.0`
        // are two, and NaNs of both signs and payloads are their own.
        let numbers = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            nan(0x7ff8_0000_0000_0000),
            nan(0xfff8_0000_0000_0000),
            nan(0x7ff0_0000_0000_0001),
            nan(0xfff0_0000_dead_beef),
        ];
        let rows = numbers.iter().map(|x| rec(vec![("x", x.clone())])).collect();
        db.set_root("Numbers", Value::list(rows));
        let zeros = [0.0, -0.0, -0.0, 0.0, f64::NAN, -f64::NAN];
        let rows = zeros.iter().map(|z| rec(vec![("z", Value::Float(*z))])).collect();
        db.set_root("Zeros", Value::vector(rows));

        // `Int` and `Str` in one attribute: no numeric domain.
        let rows = vec![
            rec(vec![("m", Value::Int(3)), ("b", Value::Bool(true))]),
            rec(vec![("m", Value::str("3")), ("b", Value::Bool(false))]),
        ];
        db.set_root("Mixed", Value::set_from(rows));

        // Inline records beside objects, an object whose state is not a
        // record, a dangling object and a scalar element, which are all
        // skipped.
        let obj = db.heap_mut().alloc(rec(vec![("name", Value::str("o")), ("n", Value::Int(5))]));
        let not_record = db.heap_mut().alloc(Value::Int(9));
        let dangling = monoid_calculus::value::Oid(u64::from(u32::MAX));
        let inline = rec(vec![("name", Value::str("i")), ("n", Value::Float(5.0))]);
        let items = vec![
            Value::Obj(obj),
            inline,
            Value::Obj(not_record),
            Value::Obj(dangling),
            Value::Int(4),
        ];
        db.set_root("Objects", Value::list(items));

        // Empty collections, at the root and under a field.
        db.set_root("EmptyBag", Value::bag_from(Vec::new()));
        db.set_root("EmptySet", Value::set_from(Vec::new()));
        db.set_root("Hollow", Value::list(vec![rec(vec![("kids", Value::list(Vec::new()))])]));

        // Nesting deeper than `CATALOG_DEPTH`: the walk stops counting
        // fan-outs below it.
        let mut nested = rec(vec![("level", Value::Int(0))]);
        for level in 1..=(CATALOG_DEPTH as i64 + 3) {
            let inner = Value::bag_from(vec![nested.clone(), nested]);
            nested = rec(vec![("level", Value::Int(level)), ("inner", inner)]);
        }
        db.set_root("Deep", Value::list(vec![nested]));

        // Roots that are not collections of records: a string (a list of
        // characters) and a scalar.
        db.set_root("Word", Value::str("abc"));
        db.set_root("Scalar", Value::Int(7));

        assert_gather_matches_reference(&db);
        let stats = Stats::gather(&db);
        let bagged = &stats.extents[&Symbol::new("Bagged")];
        assert_eq!(bagged.size, 4);
        assert_eq!(bagged.attrs[&Symbol::new("a")].distinct, 2);
        let kids = &stats.fields[&Symbol::new("kids")];
        assert_eq!((kids.occurrences, kids.total), (5, 9));
        assert_eq!(kids.attrs[&Symbol::new("k")].distinct, 2);
        let numbers = &stats.extents[&Symbol::new("Numbers")].attrs[&Symbol::new("x")];
        assert_eq!(numbers.distinct, 7);
        let zeros = &stats.extents[&Symbol::new("Zeros")].attrs[&Symbol::new("z")];
        assert_eq!(zeros.distinct, 4);
        let mixed = &stats.extents[&Symbol::new("Mixed")].attrs[&Symbol::new("m")];
        assert_eq!((mixed.distinct, mixed.min, mixed.max), (2, None, None));
        let objects = &stats.extents[&Symbol::new("Objects")];
        assert_eq!(objects.size, 5);
        assert_eq!(objects.attrs[&Symbol::new("n")].distinct, 1);
        assert_eq!(stats.extents[&Symbol::new("Word")].size, 3);
        assert!(!stats.extents.contains_key(&Symbol::new("Scalar")));
    }

    /// Two extents whose members hold a same-named collection field with
    /// different elements: the field's fan-out sums over both, but each
    /// of its attributes keeps the facts of the last extent (in root
    /// order) that recorded it. A known limitation, pinned as it stands.
    #[test]
    fn a_field_shared_by_two_extents_keeps_the_last_walked_attrs() {
        let rec = Value::record_from;
        let kid = |k: i64| rec(vec![("k", Value::Int(k))]);
        let mut db = monoid_store::Database::new(monoid_calculus::types::Schema::new());
        let first = vec![kid(1), kid(2), kid(3), rec(vec![("j", Value::Int(7))])];
        db.set_root("First", Value::list(vec![rec(vec![("kids", Value::list(first))])]));
        let second = vec![kid(10), kid(20)];
        let holders = vec![rec(vec![("kids", Value::list(second))]); 2];
        db.set_root("Second", Value::list(holders));

        assert_gather_matches_reference(&db);
        let stats = Stats::gather(&db);
        let kids = &stats.fields[&Symbol::new("kids")];
        assert_eq!((kids.occurrences, kids.total), (3, 8));
        let k = &kids.attrs[&Symbol::new("k")];
        assert_eq!((k.distinct, k.min, k.max), (2, Some(10.0), Some(20.0)));
        assert_eq!(kids.attrs[&Symbol::new("j")].distinct, 1, "only `First` recorded `j`");
        // Each part keeps its own extent's facts.
        let own = &stats.extents[&Symbol::new("First")].fields[&Symbol::new("kids")];
        assert_eq!((own.occurrences, own.total, own.attrs[&Symbol::new("k")].distinct), (1, 4, 3));
    }

    #[test]
    fn a_walk_that_meets_a_dangling_object_is_not_live() {
        let mut heap = Heap::new();
        let obj = heap.alloc(Value::record_from(vec![("n", Value::Int(1))]));
        let dangling = monoid_calculus::value::Oid(obj.0 + 1);
        let walk = |items: Vec<Value>| ExtentFacts::gather(&heap, &Value::list(items)).unwrap();
        assert!(walk(vec![Value::Obj(obj)]).1);
        let (part, live) = walk(vec![Value::Obj(obj), Value::Obj(dangling)]);
        assert!(!live);
        assert_eq!((part.size, part.attrs[&Symbol::new("n")].distinct), (2, 1));
        // A dangling object below a field counts too.
        let nested = Value::record_from(vec![("kids", Value::list(vec![Value::Obj(dangling)]))]);
        assert!(!walk(vec![nested]).1);
        assert!(ExtentFacts::gather(&heap, &Value::Int(3)).is_none());
    }

    #[test]
    fn gather_matches_reference_on_generated_stores() {
        for scale in [TravelScale::tiny(), TravelScale::small(), TravelScale::with_hotels(200)] {
            assert_gather_matches_reference(&travel::generate(scale, 1995));
        }
        // The shape of the served read-write workload's store.
        let mixed_rw = TravelScale {
            cities: 10,
            hotels_per_city: 100,
            rooms_per_hotel: 4,
            employees_per_hotel: 1,
            clients: 6500,
        };
        assert_gather_matches_reference(&travel::generate(mixed_rw, 1995));
        assert_gather_matches_reference(&monoid_store::company::generate(42, 48, 6500, 1995));
    }

    /// Scalars that test the keys: ints beside the floats they equal or
    /// round to (`0`, `±0.0`, `2^53 − 1 … 2^53 + 2`, `i64::MIN`/`MAX`),
    /// NaNs of both signs and payloads, bools beside `0` and `1`, and
    /// strings that share their first 8 bytes.
    fn key_pool() -> Vec<Value> {
        let mut pool = vec![Value::Bool(false), Value::Bool(true), Value::Float(-0.0)];
        let big = 1i64 << 53;
        for i in [0, 1, -1, 3, big - 1, big, big + 1, big + 2, -big - 1, i64::MIN, i64::MAX] {
            pool.extend([Value::Int(i), Value::Float(i as f64)]);
        }
        let nans: [u64; 4] = [
            0x7ff8_0000_0000_0000,
            0xfff8_0000_0000_0000,
            0x7ff0_0000_0000_0001,
            0xfff0_0000_dead_beef,
        ];
        pool.extend(nans.map(|bits| Value::Float(f64::from_bits(bits))));
        let strings = ["", "a", "hotel_0_", "hotel_0_0", "hotel_0_1", "hotel_0_10", "hotel_0_0\0"];
        pool.extend(strings.map(Value::str));
        pool
    }

    /// `Bin::distinct` over `values`, with every string keyed by
    /// `str_key` when given: a constant sends all strings down the
    /// tie-break.
    fn keyed_distinct(values: &[Value], str_key: Option<u64>) -> u64 {
        let mut bin = Bin::default();
        values.iter().for_each(|v| bin.push_scalar(v));
        for (key, v) in &mut bin.others {
            if let (Some(k), Value::Str(_)) = (str_key, v) {
                *key = k;
            }
        }
        bin.distinct()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// The keyed count is the set monoid's count under `Value::cmp`,
        /// with hashed string keys and with one key for every string.
        #[test]
        fn keyed_distinct_matches_the_value_sort(
            picks in prop::collection::vec(
                prop_oneof![
                    prop::sample::select(key_pool()),
                    (-3i64..3).prop_map(Value::Int),
                    (-6i64..6).prop_map(|i| Value::Float(i as f64 * 0.5)),
                ],
                0..48,
            ),
        ) {
            let want = picks.iter().collect::<std::collections::BTreeSet<_>>().len() as u64;
            prop_assert_eq!(keyed_distinct(&picks, None), want);
            prop_assert_eq!(keyed_distinct(&picks, Some(7)), want);
        }
    }
}
