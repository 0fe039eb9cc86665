//! The lint pass: structured diagnostics with stable codes.
//!
//! | code  | meaning |
//! |-------|---------|
//! | MC001 | unused generator variable |
//! | MC002 | constant / unsatisfiable predicate |
//! | MC003 | shadowed binding |
//! | MC004 | duplicate generator under an idempotent merge |
//! | MC006 | hom/generator legality near-miss, with a fix hint |
//! | MC007 | cross product: a used generator no predicate joins |
//! | MC008 | contradictory literal conjuncts on one attribute |
//! | MC009 | the prepared statement falls back from the fused engine |
//!
//! MC005 ("cannot parallelize") was retired with the parallel engine;
//! codes are never renumbered. MC009 is attached by the umbrella
//! `analyze` from the prepared plan; every other code is a structural
//! check of the term alone, made in one walk.
//!
//! Lints run over the *translated, pre-normalization* calculus term — that
//! is the shape closest to what the user wrote, and the shape the OQL
//! span map ([`SpanMap`]) keys on. Binders synthesized by the translator
//! or normalizer carry a `%` in their name ([`Symbol::fresh`]) and are
//! never linted.
//!
//! Every emitted diagnostic increments
//! `analysis_diagnostics_total{code}` in the process-wide registry.

use super::effects_of;
use super::verify::source_monoid;
use super::Span;
use crate::expr::{BinOp, Expr, Literal, Qual};
use crate::monoid::Monoid;
use crate::subst::free_vars;
use crate::symbol::Symbol;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Diagnostic severity, ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The stable diagnostic codes. Codes are append-only across releases;
/// tools may match on [`Code::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// MC001: a generator binds a variable never used afterwards.
    UnusedGenerator,
    /// MC002: a predicate is constant or unsatisfiable.
    ConstantPredicate,
    /// MC003: a binder shadows an enclosing binding of the same name.
    ShadowedBinding,
    /// MC004: duplicate generator source under an idempotent merge.
    DuplicateGenerator,
    /// MC006: a hom/generator violates the C/I restriction; a coercion
    /// would fix it.
    IllegalHom,
    /// MC007: an independent generator with no join predicate linking it
    /// to the earlier generators — a cross product.
    CrossProduct,
    /// MC008: a predicate's literal conjuncts on one attribute contradict
    /// each other, so the comprehension is statically empty.
    StaticallyEmpty,
    /// MC009: the prepared statement does not run on the fused engine,
    /// with the compiler's own reason. Defined here, emitted by the
    /// umbrella `analyze` (this crate cannot see the engine).
    FusedFallback,
}

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnusedGenerator => "MC001",
            Code::ConstantPredicate => "MC002",
            Code::ShadowedBinding => "MC003",
            Code::DuplicateGenerator => "MC004",
            Code::IllegalHom => "MC006",
            Code::CrossProduct => "MC007",
            Code::StaticallyEmpty => "MC008",
            Code::FusedFallback => "MC009",
        }
    }

    pub fn default_severity(self) -> Severity {
        match self {
            Code::UnusedGenerator | Code::ConstantPredicate | Code::ShadowedBinding
            | Code::DuplicateGenerator | Code::CrossProduct | Code::StaticallyEmpty => {
                Severity::Warning
            }
            Code::FusedFallback => Severity::Info,
            Code::IllegalHom => Severity::Error,
        }
    }

    /// Every code, in declaration order (indexable by `code as usize`).
    pub const fn all() -> &'static [Code] {
        &[
            Code::UnusedGenerator,
            Code::ConstantPredicate,
            Code::ShadowedBinding,
            Code::DuplicateGenerator,
            Code::IllegalHom,
            Code::CrossProduct,
            Code::StaticallyEmpty,
            Code::FusedFallback,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Best-effort source position; `None` for synthesized terms or when
    /// no span map was supplied.
    pub span: Option<Span>,
    pub message: String,
    pub note: Option<String>,
}

impl Diagnostic {
    fn new(code: Code, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            span: None,
            message,
            note: None,
        }
    }

    fn at(mut self, span: Option<Span>) -> Diagnostic {
        self.span = span;
        self
    }

    fn note(mut self, note: String) -> Diagnostic {
        self.note = Some(note);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code.as_str())?;
        if let Some(span) = self.span {
            write!(f, " {span}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(note) = &self.note {
            write!(f, " (note: {note})")?;
        }
        Ok(())
    }
}

/// Best-effort map from calculus subterms (and binder symbols) back to
/// OQL source positions. Lookup is structural (`Expr: PartialEq`) over a
/// small vector — span maps hold one entry per surface construct, so
/// linear scan is fine.
#[derive(Debug, Clone, Default)]
pub struct SpanMap {
    exprs: Vec<(Expr, Span)>,
    vars: Vec<(Symbol, Span)>,
}

impl SpanMap {
    pub fn new() -> SpanMap {
        SpanMap::default()
    }

    pub fn record_expr(&mut self, e: &Expr, span: Span) {
        self.exprs.push((e.clone(), span));
    }

    pub fn record_var(&mut self, v: Symbol, span: Span) {
        self.vars.push((v, span));
    }

    /// The position of the first recorded subterm structurally equal to
    /// `e`, if any.
    pub fn expr_span(&self, e: &Expr) -> Option<Span> {
        self.exprs.iter().find(|(k, _)| k == e).map(|(_, s)| *s)
    }

    pub fn var_span(&self, v: Symbol) -> Option<Span> {
        self.vars.iter().find(|(k, _)| *k == v).map(|(_, s)| *s)
    }

    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty() && self.vars.is_empty()
    }
}

/// Lint `e` with no source spans.
pub fn lint(e: &Expr) -> Vec<Diagnostic> {
    lint_with_spans(e, &SpanMap::default())
}

/// Lint `e`, attaching source positions from `spans` where available.
pub fn lint_with_spans(e: &Expr, spans: &SpanMap) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut scope: Vec<Symbol> = Vec::new();
    walk(e, &mut scope, spans, &mut diags);
    for d in &diags {
        crate::metrics::global().analysis_diagnostics_total[d.code as usize].inc();
    }
    diags
}

/// Was this name invented by `Symbol::fresh` (or deliberately
/// underscore-silenced)? Fresh names carry `%`, which cannot appear in a
/// parsed identifier.
fn synthesized(v: Symbol) -> bool {
    v.as_str().contains('%') || v.as_str().starts_with('_')
}

fn shadow_check(v: Symbol, scope: &[Symbol], spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    if !synthesized(v) && scope.contains(&v) {
        diags.push(
            Diagnostic::new(
                Code::ShadowedBinding,
                format!("binding `{}` shadows an enclosing binding of the same name", v.as_str()),
            )
            .at(spans.var_span(v)),
        );
    }
}

fn walk(e: &Expr, scope: &mut Vec<Symbol>, spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    match e {
        Expr::Lambda(param, body) => walk_under(*param, body, scope, spans, diags),
        Expr::Let(v, def, body) => {
            walk(def, scope, spans, diags);
            walk_under(*v, body, scope, spans, diags);
        }
        Expr::Hom { monoid, var, body, source } => {
            walk(source, scope, spans, diags);
            hom_legality(monoid, source, spans, diags);
            walk_under(*var, body, scope, spans, diags);
        }
        Expr::Comp { monoid, head, quals } => lint_comp(monoid, head, quals, scope, spans, diags),
        Expr::VecComp { size, value, index, quals, .. } => {
            walk(size, scope, spans, diags);
            // Vector comprehensions share the qualifier checks but have no
            // single output monoid to test generator legality against.
            lint_quals_and_heads(quals, &[value, index], scope, spans, diags, None);
        }
        _ => e.for_each_child(|child| walk(child, scope, spans, diags)),
    }
}

/// Walk `body` with `v` in scope, checking first that `v` shadows nothing.
fn walk_under(
    v: Symbol,
    body: &Expr,
    scope: &mut Vec<Symbol>,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    shadow_check(v, scope, spans, diags);
    scope.push(v);
    walk(body, scope, spans, diags);
    scope.pop();
}

/// All the per-comprehension lints: MC001–MC004 and MC006–MC008.
fn lint_comp(
    monoid: &Monoid,
    head: &Expr,
    quals: &[Qual],
    scope: &mut Vec<Symbol>,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    lint_quals_and_heads(quals, &[head], scope, spans, diags, Some(monoid));

    // MC001 / MC004: a generator variable unused by everything after it.
    // MC007: a used one that joins nothing, reported after those.
    let mut cross_products = Vec::new();
    for (i, q) in quals.iter().enumerate() {
        let Qual::Gen(v, src) = q else { continue };
        if synthesized(*v) {
            continue;
        }
        // Scoping-correct usage test: is `v` free in the residual
        // comprehension made of the remaining qualifiers and the head?
        let rest = Expr::Comp {
            monoid: monoid.clone(),
            head: Box::new(head.clone()),
            quals: quals[i + 1..].to_vec(),
        };
        if free_vars(&rest).contains(v) {
            if is_cross_product(*v, src, &quals[..i], quals) {
                cross_products.push(
                    Diagnostic::new(
                        Code::CrossProduct,
                        format!(
                            "cross product: no join predicate links generator `{}` to the \
                             earlier generators",
                            v.as_str()
                        ),
                    )
                    .at(spans.var_span(*v))
                    .note(
                        "add a predicate relating it to an earlier variable, or derive it \
                         from one (a dependent path)"
                            .into(),
                    ),
                );
            }
            continue;
        }
        let duplicate_of = monoid.props().idempotent.then(|| {
            quals[..i].iter().find_map(|prev| match prev {
                Qual::Gen(pv, psrc) if psrc == src && effects_of(src).is_pure() => Some(*pv),
                _ => None,
            })
        });
        match duplicate_of.flatten() {
            Some(pv) => diags.push(
                Diagnostic::new(
                    Code::DuplicateGenerator,
                    format!(
                        "generator `{}` duplicates the source of `{}`; under the idempotent \
                         `{monoid}` merge it contributes nothing",
                        v.as_str(),
                        pv.as_str()
                    ),
                )
                .at(spans.var_span(*v))
                .note("remove the duplicate generator".into()),
            ),
            None => diags.push(
                Diagnostic::new(
                    Code::UnusedGenerator,
                    format!("generator variable `{}` is never used", v.as_str()),
                )
                .at(spans.var_span(*v))
                .note(format!(
                    "it still drives iteration (multiplicity); rename to `_{}` to silence",
                    v.as_str()
                )),
            ),
        }
    }
    diags.append(&mut cross_products);

    // MC008, per predicate so the span lands on the offending term.
    let gens: Vec<Symbol> = quals
        .iter()
        .filter_map(|q| match q {
            Qual::Gen(v, _) => Some(*v),
            _ => None,
        })
        .collect();
    for q in quals {
        let Qual::Pred(p) = q else { continue };
        let Some((v, attr)) = contradicted_attr(p, &gens) else { continue };
        diags.push(
            Diagnostic::new(
                Code::StaticallyEmpty,
                format!(
                    "predicate selectivity is 0: no value of `{}.{}` satisfies these conjuncts",
                    v.as_str(),
                    attr.as_str()
                ),
            )
            .at(spans.expr_span(p))
            .note("the comprehension is statically empty and always yields zero".into()),
        );
    }
}

/// MC007: generator `v ← src` follows another generator, its source
/// reads nothing bound `earlier`, and no predicate in `quals` relates `v`
/// to an earlier variable — every pairing of rows survives.
fn is_cross_product(v: Symbol, src: &Expr, earlier: &[Qual], quals: &[Qual]) -> bool {
    let bound: HashSet<Symbol> = earlier
        .iter()
        .filter_map(|q| match q {
            Qual::Gen(b, _) | Qual::Bind(b, _) => Some(*b),
            _ => None,
        })
        .collect();
    let reads_earlier = |fv: &HashSet<Symbol>| fv.iter().any(|x| bound.contains(x));
    earlier.iter().any(|q| matches!(q, Qual::Gen(..)))
        && !reads_earlier(&free_vars(src))
        && !quals.iter().any(|q| match q {
            Qual::Pred(p) => {
                let fv = free_vars(p);
                fv.contains(&v) && reads_earlier(&fv)
            }
            _ => false,
        })
}

/// MC008: the `v.attr` path (`v` one of the comprehension's `gens`) that
/// no value satisfies under `p`'s top-level conjuncts comparing it with a
/// literal — two different pinned constants, a constant outside a range,
/// or an empty range. Predicates mentioning a `$param` are exempt: their
/// constants vary per execution.
fn contradicted_attr(p: &Expr, gens: &[Symbol]) -> Option<(Symbol, Symbol)> {
    if mentions_param(p) {
        return None;
    }
    let path = |e: &Expr| match e {
        Expr::Proj(inner, attr) => match inner.as_ref() {
            Expr::Var(v) if gens.contains(v) => Some((*v, *attr)),
            _ => None,
        },
        _ => None,
    };
    let mut constraints: HashMap<(Symbol, Symbol), AttrConstraint> = HashMap::new();
    for c in conjuncts(p) {
        let Expr::BinOp(op, a, b) = c else { continue };
        if !op.is_comparison() {
            continue;
        }
        let (key, lit, op) = match (path(a), b.as_ref(), path(b), a.as_ref()) {
            (Some(key), Expr::Lit(lit), _, _) => (key, lit, *op),
            (_, _, Some(key), Expr::Lit(lit)) => (key, lit, op.flipped()),
            _ => continue,
        };
        let constraint = constraints.entry(key).or_default();
        match (op, lit_num(lit)) {
            (BinOp::Eq, _) => constraint.add_eq(lit),
            (BinOp::Lt, Some(x)) => constraint.add_upper(x, true),
            (BinOp::Le, Some(x)) => constraint.add_upper(x, false),
            (BinOp::Gt, Some(x)) => constraint.add_lower(x, true),
            (BinOp::Ge, Some(x)) => constraint.add_lower(x, false),
            _ => {}
        }
        if constraint.contradictory {
            return Some(key);
        }
    }
    None
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

fn lit_num(l: &Literal) -> Option<f64> {
    match l {
        Literal::Int(i) => Some(*i as f64),
        Literal::Float(x) => Some(*x),
        _ => None,
    }
}

/// What one conjunction says about one attribute: the pinned literal and
/// the tightest bounds so far (`strict` for `<`/`>`), and whether they
/// already exclude every value.
#[derive(Default)]
struct AttrConstraint {
    eq: Option<Literal>,
    lo: Option<(f64, bool)>, // (bound, strict)
    hi: Option<(f64, bool)>,
    contradictory: bool,
}

impl AttrConstraint {
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
        if let Some(x) = self.eq.as_ref().and_then(lit_num) {
            self.check_num(x);
        }
    }
}

/// Shared qualifier walk: recurse into sources/predicates with the right
/// scope, check MC002/MC003/MC006 per qualifier, then walk the head(s).
fn lint_quals_and_heads(
    quals: &[Qual],
    heads: &[&Expr],
    scope: &mut Vec<Symbol>,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
    monoid: Option<&Monoid>,
) {
    let depth = scope.len();
    for q in quals {
        match q {
            Qual::Gen(v, src) => {
                walk(src, scope, spans, diags);
                if let Some(m) = monoid {
                    gen_legality(*v, m, src, spans, diags);
                }
                shadow_check(*v, scope, spans, diags);
                scope.push(*v);
            }
            Qual::Bind(v, src) => {
                walk(src, scope, spans, diags);
                shadow_check(*v, scope, spans, diags);
                scope.push(*v);
            }
            Qual::VecGen { elem, index, source } => {
                walk(source, scope, spans, diags);
                shadow_check(*elem, scope, spans, diags);
                shadow_check(*index, scope, spans, diags);
                scope.push(*elem);
                scope.push(*index);
            }
            Qual::Pred(p) => {
                walk(p, scope, spans, diags);
                constant_predicate(p, spans, diags);
            }
        }
    }
    for h in heads {
        walk(h, scope, spans, diags);
    }
    scope.truncate(depth);
}

/// Does the term mention a late-bound `$param`? Parameterized predicates
/// are never constant — their truth depends on the per-call binding.
fn mentions_param(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |n| found |= matches!(n, Expr::Param(_)));
    found
}

/// MC002: predicates that are constant (literal booleans, trivially
/// true/false comparisons of a pure expression with itself). Predicates
/// that compare against a `$param` are exempt: the binding varies per
/// execution, so nothing about them is constant.
fn constant_predicate(p: &Expr, spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    if mentions_param(p) {
        return;
    }
    let verdict = match p {
        Expr::Lit(Literal::Bool(b)) => Some(*b),
        Expr::BinOp(op, a, b) if a == b && effects_of(a).is_pure() => match op {
            BinOp::Eq | BinOp::Le | BinOp::Ge => Some(true),
            BinOp::Ne | BinOp::Lt | BinOp::Gt => Some(false),
            _ => None,
        },
        _ => None,
    };
    let Some(truth) = verdict else { return };
    let mut d = Diagnostic::new(
        Code::ConstantPredicate,
        format!(
            "predicate is always {}",
            if truth { "true" } else { "false" }
        ),
    )
    .at(spans.expr_span(p));
    if !truth {
        d = d.note("the comprehension is unsatisfiable and always yields zero".into());
    }
    diags.push(d);
}

/// MC006 for `hom[N→M]` with a statically-evident illegal `N`.
fn hom_legality(target: &Monoid, source: &Expr, spans: &SpanMap, diags: &mut Vec<Diagnostic>) {
    let Some(sm) = source_monoid(source) else { return };
    if sm.hom_legal_to(target) {
        return;
    }
    diags.push(
        Diagnostic::new(
            Code::IllegalHom,
            format!(
                "hom[{sm}→{target}] violates the C/I restriction ({} ⋠ {})",
                sm.props(),
                target.props()
            ),
        )
        .at(spans.expr_span(source))
        .note(legality_hint(&sm, target)),
    );
}

/// MC006 for a generator whose statically-evident source monoid is not
/// `≤` the output monoid.
fn gen_legality(
    v: Symbol,
    target: &Monoid,
    source: &Expr,
    spans: &SpanMap,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(sm) = source_monoid(source) else { return };
    if sm.hom_legal_to(target) {
        return;
    }
    diags.push(
        Diagnostic::new(
            Code::IllegalHom,
            format!(
                "generator `{} ← …` iterates a {sm} source inside a {target} comprehension \
                 ({} ⋠ {})",
                v.as_str(),
                sm.props(),
                target.props()
            ),
        )
        .at(spans.expr_span(source).or_else(|| spans.var_span(v)))
        .note(legality_hint(&sm, target)),
    );
}

/// The fix hint for a C/I near-miss, mirroring the translator's
/// documented coercions.
fn legality_hint(source: &Monoid, target: &Monoid) -> String {
    let sp = source.props();
    let tp = target.props();
    if sp.idempotent && !tp.idempotent {
        format!(
            "wrap the source in the deterministic coercion `to_bag(…)`, or choose an \
             idempotent target (e.g. `set`, `sorted`) instead of `{target}`"
        )
    } else {
        format!(
            "choose a commutative target (e.g. `bag`, `sorted`) instead of `{target}`, or \
             impose an explicit order on the source with `to_list(…)`"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_query_lints_clean() {
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(Expr::var("h").proj("city").eq(Expr::str("Portland"))),
            ],
        );
        assert!(lint(&e).is_empty(), "got {:?}", lint(&e));
    }

    #[test]
    fn mc001_unused_generator() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("x", Expr::var("xs"))],
        );
        let diags = lint(&e);
        assert_eq!(codes(&diags), vec!["MC001"]);
        assert!(diags[0].message.contains('x'));
    }

    #[test]
    fn mc001_skips_synthesized_and_silenced_names() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen(Symbol::fresh("x"), Expr::var("xs")),
                Expr::gen("_y", Expr::var("ys")),
            ],
        );
        assert!(lint(&e).is_empty());
    }

    #[test]
    fn mc002_constant_and_unsatisfiable_predicates() {
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::pred(Expr::bool(true)),
                Expr::pred(Expr::var("x").ne(Expr::var("x"))),
            ],
        );
        let diags = lint(&e);
        assert_eq!(codes(&diags), vec!["MC002", "MC002"]);
        assert!(diags[0].message.contains("always true"));
        assert!(diags[1].message.contains("always false"));
        assert!(diags[1].note.as_deref().unwrap_or("").contains("unsatisfiable"));
    }

    #[test]
    fn mc003_shadowed_binding() {
        // set{ set{ x | x ← ys } | x ← xs } — inner x shadows outer.
        let inner = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::var("ys"))],
        );
        let e = Expr::comp(Monoid::Set, inner, vec![Expr::gen("x", Expr::var("xs"))]);
        let diags = lint(&e);
        // The inner binder shadows the outer one — which also makes the
        // outer generator variable unused everywhere.
        assert_eq!(codes(&diags), vec!["MC003", "MC001"]);
    }

    #[test]
    fn mc004_duplicate_generator_under_idempotent_merge() {
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::gen("y", Expr::var("xs")),
            ],
        );
        let diags = lint(&e);
        assert_eq!(codes(&diags), vec!["MC004"]);
        // Same shape under a non-idempotent monoid: multiplicity matters,
        // so it is merely unused (MC001).
        let e2 = Expr::comp(
            Monoid::Bag,
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::gen("y", Expr::var("xs")),
            ],
        );
        assert_eq!(codes(&lint(&e2)), vec!["MC001"]);
    }

    #[test]
    fn mc006_illegal_generator_gets_fix_hint() {
        // list{ x | x ← {1} } — set into list, the canonical violation.
        let e = Expr::comp(
            Monoid::List,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::set_of(vec![Expr::int(1)]))],
        );
        let diags = lint(&e);
        assert_eq!(codes(&diags), vec!["MC006"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].note.as_deref().unwrap().contains("to_bag"));
    }

    #[test]
    fn contradictory_conjuncts_are_statically_empty_without_a_catalog() {
        let hotels_where = |p: Expr| {
            Expr::comp(
                Monoid::Bag,
                Expr::var("h"),
                vec![Expr::gen("h", Expr::var("Hotels")), Expr::pred(p)],
            )
        };
        let stars = || Expr::var("h").proj("stars");
        let e = hotels_where(stars().gt(Expr::int(4)).and(stars().lt(Expr::int(2))));
        assert_eq!(codes(&lint(&e)), vec!["MC008"]);
        // A `$param` bound varies per execution: nothing is contradictory.
        let e = hotels_where(stars().gt(Expr::param("lo")).and(stars().lt(Expr::int(2))));
        assert!(lint(&e).is_empty(), "{:?}", lint(&e));
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
        assert_eq!(codes(&lint(&used_unlinked)), vec!["MC007"]);

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
        assert!(!codes(&lint(&linked)).contains(&"MC007"), "{:?}", lint(&linked));

        // Unused independent generators are MC001's business, not MC007's.
        let unused = Expr::comp(
            Monoid::Bag,
            Expr::var("a").proj("name"),
            vec![
                Expr::gen("a", Expr::var("Cities")),
                Expr::gen("b", Expr::var("Hotels")),
            ],
        );
        assert_eq!(codes(&lint(&unused)), vec!["MC001"]);
    }

    #[test]
    fn spans_attach_when_available() {
        let src = Expr::var("xs");
        let e = Expr::comp(Monoid::Sum, Expr::int(1), vec![Expr::gen("x", src)]);
        let mut spans = SpanMap::new();
        spans.record_var(Symbol::new("x"), Span::new(12, 1, 13));
        let diags = lint_with_spans(&e, &spans);
        assert_eq!(diags[0].code, Code::UnusedGenerator);
        assert_eq!(diags[0].span, Some(Span::new(12, 1, 13)));
        assert!(diags[0].to_string().contains("1:13"));
    }
}
