//! The normalization algorithm — Table 3 of the paper (§3.1).
//!
//! The paper's manipulability claim rests on a small pattern-based rewrite
//! system that puts any composition of monoid comprehensions into a
//! *canonical form*: a comprehension whose generators range over simple
//! paths (variables, field projections of variables, named extents, or
//! literal collections) with all nesting in generator position flattened
//! away. Canonical forms maximize opportunities for pipelining — they map
//! directly onto scan/unnest/join pipelines in the algebra crate.
//!
//! ## The rules
//!
//! Numbered as in our Table 3 reading (the paper's §3.1 derivation of the
//! Portland-hotels query cites "rules 4 and 5", which are exactly our N4
//! and N5):
//!
//! | rule | scheme |
//! |------|--------|
//! | N1 `Beta`          | `(λv. e) u ⇒ e[u/v]` |
//! | N2 `Proj`          | `⟨…, A=e, …⟩.A ⇒ e` (and tuple projection) |
//! | N3 `ZeroGen`       | `M{ e \| q, v ← zero_N, s } ⇒ zero_M` |
//! | N4 `SingletonGen`  | `M{ e \| q, v ← unit_N(u), s } ⇒ M{ e \| q, v ≡ u, s }` |
//! | N5 `FlattenGen`    | `M{ e \| q, v ← N{ e' \| r }, s } ⇒ M{ e \| q, r, v ≡ e', s }` |
//! | N6 `ExistsFilter`  | `M{ e \| q, some{ p \| r }, s } ⇒ M{ e \| q, r, p, s }` — idempotent `M` only |
//! | N7 `BindInline`    | `M{ e \| q, v ≡ u, s } ⇒ M{ e[u/v] \| q, s[u/v] }` |
//! | N8 `MergeGen`      | `M{ e \| q, v ← e₁ ⊕ e₂, s } ⇒ M{e\|q,v←e₁,s} ⊕_M M{e\|q,v←e₂,s}` |
//! | N9 `AndSplit`      | `M{ e \| q, p₁ ∧ p₂, s } ⇒ M{ e \| q, p₁, p₂, s }` |
//! | N10 `TruePred`     | `M{ e \| q, true, s } ⇒ M{ e \| q, s }` |
//! | N11 `FalsePred`    | `M{ e \| q, false, s } ⇒ zero_M` |
//! | N12 `LetInline`    | `let v = u in e ⇒ e[u/v]` |
//! | N13 `HomToComp`    | `hom[→M](λv. b)(u) ⇒ M{ w \| v ← u, w ← b }` (collection `M`) / `M{ b \| v ← u }` (primitive `M`) |
//! | N14 `IfPredSplit`  | `M{ e \| q, if c then p₁ else p₂, s } ⇒ M{e\|q,c,p₁,s} ⊕_M M{e\|q,¬c,p₂,s}` |
//!
//! Every rule is meaning-preserving on well-typed terms; this is verified
//! by property tests (`eval(normalize(e)) == eval(e)` over random
//! well-typed terms — see `tests/` and the proptest suite in this module).
//!
//! Side conditions (beyond the paper's statement, which leaves them
//! implicit):
//! * N5/N8 require the *inner* monoid to be freely generated (list, bag,
//!   set) — `sorted`/`oset` comprehensions reorder or deduplicate, so
//!   iterating one is not iterating its qualifiers;
//! * N6 requires a CI output monoid (idempotence absorbs duplicate
//!   witnesses; commutativity keeps every spliced generator type-legal);
//! * N8/N14 additionally require a commutative output monoid when any
//!   generator precedes the rewritten qualifier, because the split groups
//!   results by branch: `⊕_q (A_q ⊕ B_q) = (⊕_q A_q) ⊕ (⊕_q B_q)` is the
//!   binary interchange law, which needs commutativity.
//!
//! ## Side effects
//!
//! The paper's §4.2 extension adds `new`/`!`/`:=`, which make some rewrites
//! observably different (e.g. N7 would duplicate a `new(1)` bound once).
//! Rules that *duplicate*, *delete*, or *reorder* subterms are therefore
//! gated on purity of the affected parts
//! ([`Effects::is_pure`](crate::analysis::Effects::is_pure): no `new`, `:=`
//! or `!`); impure terms simply normalize less aggressively. This is
//! strictly more careful than the paper, which treats the update
//! sublanguage separately from normalization.

use crate::analysis::effects_of;
use crate::expr::{BinOp, Expr, Qual};
use crate::monoid::Monoid;
use crate::subst::{free_vars, rename_tail, subst};
use crate::symbol::Symbol;
use std::collections::HashSet;
use std::fmt;

/// The rewrite rules of the normalizer. See the module docs for schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    Beta,
    Proj,
    ZeroGen,
    SingletonGen,
    FlattenGen,
    ExistsFilter,
    BindInline,
    MergeGen,
    AndSplit,
    TruePred,
    FalsePred,
    LetInline,
    HomToComp,
    IfPredSplit,
}

impl Rule {
    /// How many rules there are (N1…N14) — sizes per-rule count arrays.
    pub const COUNT: usize = 14;

    /// Our Table-3 numbering (N1…N14).
    pub fn number(self) -> u8 {
        match self {
            Rule::Beta => 1,
            Rule::Proj => 2,
            Rule::ZeroGen => 3,
            Rule::SingletonGen => 4,
            Rule::FlattenGen => 5,
            Rule::ExistsFilter => 6,
            Rule::BindInline => 7,
            Rule::MergeGen => 8,
            Rule::AndSplit => 9,
            Rule::TruePred => 10,
            Rule::FalsePred => 11,
            Rule::LetInline => 12,
            Rule::HomToComp => 13,
            Rule::IfPredSplit => 14,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::Beta => "beta",
            Rule::Proj => "record-projection",
            Rule::ZeroGen => "zero-generator",
            Rule::SingletonGen => "singleton-generator",
            Rule::FlattenGen => "flatten-generator",
            Rule::ExistsFilter => "exists-filter",
            Rule::BindInline => "bind-inline",
            Rule::MergeGen => "merge-generator",
            Rule::AndSplit => "and-split",
            Rule::TruePred => "true-predicate",
            Rule::FalsePred => "false-predicate",
            Rule::LetInline => "let-inline",
            Rule::HomToComp => "hom-to-comprehension",
            Rule::IfPredSplit => "if-predicate-split",
        }
    }

    pub fn all() -> &'static [Rule] {
        &[
            Rule::Beta,
            Rule::Proj,
            Rule::ZeroGen,
            Rule::SingletonGen,
            Rule::FlattenGen,
            Rule::ExistsFilter,
            Rule::BindInline,
            Rule::MergeGen,
            Rule::AndSplit,
            Rule::TruePred,
            Rule::FalsePred,
            Rule::LetInline,
            Rule::HomToComp,
            Rule::IfPredSplit,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{} ({})", self.number(), self.name())
    }
}

/// One step of a normalization derivation: the rule applied and the whole
/// term after the step. A caller that shows a derivation prints `after`
/// itself ([`crate::pretty::Pretty`]); normalizing prints nothing.
#[derive(Debug, Clone)]
pub struct TraceStep {
    pub rule: Rule,
    pub after: Expr,
}

/// Statistics of a normalization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NormalizeStats {
    pub steps: usize,
    /// How many times each rule fired, keyed by [`Rule::number`]
    /// (slot `number − 1`; use [`NormalizeStats::fired`] / `rule_counts`
    /// for keyed access).
    pub per_rule: [u64; Rule::COUNT],
    /// AST sizes before and after.
    pub size_before: usize,
    pub size_after: usize,
}

impl NormalizeStats {
    /// How many times `rule` fired.
    pub fn fired(&self, rule: Rule) -> u64 {
        self.per_rule[rule.number() as usize - 1]
    }

    /// `(rule, count)` pairs in `Rule::all()` order (the shape the old
    /// `rule_counts` field held).
    pub fn rule_counts(&self) -> impl Iterator<Item = (Rule, u64)> + '_ {
        Rule::all().iter().map(|r| (*r, self.fired(*r)))
    }

    /// One line per fired rule, e.g. `N9 and-split ×2` — the rendering
    /// E7 and `QueryProfile::render` embed.
    pub fn render_rules(&self) -> String {
        self.rule_counts()
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("N{} {} ×{n}", r.number(), r.name()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Hard bound on rewrite steps; normalization of any reasonable query takes
/// a handful, so hitting this indicates an adversarial or diverging input.
const MAX_STEPS: usize = 100_000;

/// Is `m` a *freely generated* collection monoid — one whose value is
/// literally the merge-tree of its units (list, bag, set)? Rules N5 and N8
/// are valid only for these: `sorted`/`sortedbag` comprehensions *reorder*
/// their elements and `oset` drops non-adjacent duplicates, so iterating
/// such a comprehension is not the same as iterating its qualifiers.
/// (Table 1 notes `M[n]` is "not freely generated" for the same reason.)
fn freely_generated(m: &Monoid) -> bool {
    matches!(m, Monoid::List | Monoid::Bag | Monoid::Set)
}

fn quals_pure(quals: &[Qual]) -> bool {
    quals.iter().all(|q| effects_of(q.expr()).is_pure())
}

/// Normalize to canonical form. Returns the normalized expression.
pub fn normalize(e: &Expr) -> Expr {
    normalize_traced(e).0
}

/// Normalize, returning the derivation trace and statistics alongside.
/// Per-rule firing counts are also accumulated into the process-wide
/// metrics registry (`normalize_rule_fired_total{rule=…}`), so a fleet
/// of queries leaves an aggregate account of which rewrites carry the
/// normalization load.
pub fn normalize_traced(e: &Expr) -> (Expr, Vec<TraceStep>, NormalizeStats) {
    let mut trace: Vec<TraceStep> = Vec::new();
    let mut per_rule = [0u64; Rule::COUNT];
    let verifying = crate::analysis::verify::verify_enabled();
    // Each rewritten term moves into the derivation; the next step
    // rewrites the last one kept.
    loop {
        let current = trace.last().map_or(e, |step| &step.after);
        let Some((rule, next)) = rewrite_once(current) else { break };
        if trace.len() == MAX_STEPS {
            // Give up gracefully: the term is still meaning-equivalent.
            break;
        }
        if verifying {
            // Stage invariant verifier: every rule firing must preserve
            // scoping, C/I legality, well-formedness, and typing. On in
            // debug builds; MONOID_VERIFY=1 forces it (docs/analysis.md).
            if let Err(err) = crate::analysis::verify::check_rewrite(rule.name(), current, &next) {
                panic!("normalization invariant violated at step {}: {err}", trace.len() + 1);
            }
        }
        per_rule[rule.number() as usize - 1] += 1;
        trace.push(TraceStep { rule, after: next });
    }
    let canonical = trace.last().map_or(e, |step| &step.after).clone();
    let steps = trace.len();
    let m = crate::metrics::global();
    m.normalize_runs_total.inc();
    m.normalize_steps_total.add(steps as u64);
    for (counter, n) in m.normalize_rule_fired_total.iter().zip(per_rule) {
        if n > 0 {
            counter.add(n);
        }
    }
    let stats =
        NormalizeStats { steps, per_rule, size_before: e.size(), size_after: canonical.size() };
    (canonical, trace, stats)
}

/// Is `e` in canonical form (no rule applies anywhere)?
pub fn is_canonical(e: &Expr) -> bool {
    rewrite_once(e).is_none()
}

/// Try to rewrite: first at the root, then leftmost-innermost in children.
fn rewrite_once(e: &Expr) -> Option<(Rule, Expr)> {
    if let Some(hit) = try_rules_at_root(e) {
        return Some(hit);
    }
    rewrite_in_children(e)
}

// ---------------------------------------------------------------------------
// Root-level rule dispatch.
// ---------------------------------------------------------------------------

fn try_rules_at_root(e: &Expr) -> Option<(Rule, Expr)> {
    match e {
        // N1: (λv. e) u ⇒ e[u/v] — gated on purity of u.
        Expr::Apply(f, arg) => {
            if let Expr::Lambda(param, body) = f.as_ref() {
                if effects_of(arg).is_pure() {
                    return Some((Rule::Beta, subst(body, *param, arg)));
                }
            }
            None
        }
        // N2: ⟨…,A=u,…⟩.A ⇒ u   /   (u₁,…,uₙ).i ⇒ uᵢ
        Expr::Proj(inner, field) => {
            if let Expr::Record(fields) = inner.as_ref() {
                let target = fields.iter().find(|(n, _)| n == field)?;
                let others_pure = fields
                    .iter()
                    .filter(|(n, _)| n != field)
                    .all(|(_, fe)| effects_of(fe).is_pure());
                if others_pure {
                    return Some((Rule::Proj, target.1.clone()));
                }
            }
            None
        }
        Expr::TupleProj(inner, idx) => {
            if let Expr::Tuple(items) = inner.as_ref() {
                let target = items.get(*idx)?;
                let others_pure = items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i != idx)
                    .all(|(_, ie)| effects_of(ie).is_pure());
                if others_pure {
                    return Some((Rule::Proj, target.clone()));
                }
            }
            None
        }
        // N12: let v = u in e ⇒ e[u/v] — gated on purity of u.
        Expr::Let(v, def, body) => {
            if effects_of(def).is_pure() {
                return Some((Rule::LetInline, subst(body, *v, def)));
            }
            None
        }
        // N13: hom ⇒ comprehension, so homs join the normalization game.
        Expr::Hom { monoid, var, body, source } => {
            let comp = if monoid.is_collection() {
                let w = Symbol::fresh("w");
                Expr::Comp {
                    monoid: monoid.clone(),
                    head: Box::new(Expr::Var(w)),
                    quals: vec![
                        Qual::Gen(*var, source.as_ref().clone()),
                        Qual::Gen(w, body.as_ref().clone()),
                    ],
                }
            } else {
                Expr::Comp {
                    monoid: monoid.clone(),
                    head: body.clone(),
                    quals: vec![Qual::Gen(*var, source.as_ref().clone())],
                }
            };
            Some((Rule::HomToComp, comp))
        }
        Expr::Comp { monoid, head, quals } => try_comp_rules(monoid, head, quals),
        Expr::VecComp { elem_monoid, size, value, index, quals } => {
            // Vector comprehensions share the qualifier rules; the head is
            // (value, index).
            let vec_monoid = Monoid::VecOf(Box::new(elem_monoid.clone()));
            let heads = Expr::Tuple(vec![value.as_ref().clone(), index.as_ref().clone()]);
            let (rule, new_quals, new_heads) = try_qual_rules(&vec_monoid, &heads, quals)?;
            let Expr::Tuple(mut hs) = new_heads else { unreachable!() };
            let idx = hs.pop().expect("two heads");
            let val = hs.pop().expect("two heads");
            Some((
                rule,
                Expr::VecComp {
                    elem_monoid: elem_monoid.clone(),
                    size: size.clone(),
                    value: Box::new(val),
                    index: Box::new(idx),
                    quals: new_quals,
                },
            ))
        }
        _ => None,
    }
}

fn try_comp_rules(monoid: &Monoid, head: &Expr, quals: &[Qual]) -> Option<(Rule, Expr)> {
    let (rule, new_quals, new_head) = try_qual_rules(monoid, head, quals)?;
    Some((
        rule,
        Expr::Comp { monoid: monoid.clone(), head: Box::new(new_head), quals: new_quals },
    ))
}

/// The qualifier-list rules (N3–N11), shared by `Comp` and `VecComp`.
/// Returns the rule plus the rewritten qualifier list and head — except for
/// rules that replace the whole comprehension (N3, N8, N11, N14), which are
/// handled inline and returned through a sentinel: see `try_comp_rules`
/// callers. To keep one code path, those rules are implemented here for
/// `Comp` only via `try_whole_comp_rules`.
#[allow(clippy::collapsible_match)] // nested guards read clearer than merged patterns
fn try_qual_rules(
    monoid: &Monoid,
    head: &Expr,
    quals: &[Qual],
) -> Option<(Rule, Vec<Qual>, Expr)> {
    for (i, q) in quals.iter().enumerate() {
        match q {
            // N4: v ← unit_N(u)  /  v ← [u] etc. ⇒ v ≡ u
            Qual::Gen(v, src) => {
                if let Some(u) = singleton_source(src) {
                    let mut new_quals = quals.to_vec();
                    new_quals[i] = Qual::Bind(*v, u);
                    return Some((Rule::SingletonGen, new_quals, head.clone()));
                }
                // N5: v ← N{ e' | r } ⇒ r, v ≡ e'
                if let Expr::Comp { monoid: inner_m, head: inner_head, quals: inner_quals } =
                    src
                {
                    if freely_generated(inner_m) && flatten_safe(quals, i, inner_quals) {
                        let (mut spliced, spliced_head) = rename_for_splice(
                            inner_quals,
                            inner_head,
                            &quals[i + 1..],
                            head,
                        );
                        let mut new_quals: Vec<Qual> = quals[..i].to_vec();
                        new_quals.append(&mut spliced);
                        new_quals.push(Qual::Bind(*v, spliced_head));
                        new_quals.extend_from_slice(&quals[i + 1..]);
                        return Some((Rule::FlattenGen, new_quals, head.clone()));
                    }
                }
            }
            // N7: v ≡ u ⇒ inline u (pure u only).
            Qual::Bind(v, u) => {
                if effects_of(u).is_pure() {
                    let (mut tail, new_head) =
                        subst_through_tail(&quals[i + 1..], head, *v, u);
                    let mut new_quals: Vec<Qual> = quals[..i].to_vec();
                    new_quals.append(&mut tail);
                    return Some((Rule::BindInline, new_quals, new_head));
                }
            }
            Qual::Pred(p) => match p {
                // N9: p₁ ∧ p₂ ⇒ p₁, p₂
                Expr::BinOp(BinOp::And, a, b) => {
                    let mut new_quals: Vec<Qual> = quals[..i].to_vec();
                    new_quals.push(Qual::Pred(a.as_ref().clone()));
                    new_quals.push(Qual::Pred(b.as_ref().clone()));
                    new_quals.extend_from_slice(&quals[i + 1..]);
                    return Some((Rule::AndSplit, new_quals, head.clone()));
                }
                // N10: true ⇒ (drop)
                Expr::Lit(crate::expr::Literal::Bool(true)) => {
                    let mut new_quals: Vec<Qual> = quals[..i].to_vec();
                    new_quals.extend_from_slice(&quals[i + 1..]);
                    return Some((Rule::TruePred, new_quals, head.clone()));
                }
                // N6: some{ p | r } as a filter ⇒ r, p — idempotent M only.
                Expr::Comp { monoid: Monoid::Some, head: inner_p, quals: inner_quals } => {
                    // Requires a CI output monoid: idempotence absorbs the
                    // duplicate contributions of multiple witnesses, and
                    // commutativity guarantees every spliced generator
                    // source stays type-legal (anything ≤ CI).
                    if monoid.props() == crate::monoid::Props::CI
                        && flatten_safe(quals, i, inner_quals)
                    {
                        let (mut spliced, spliced_pred) = rename_for_splice(
                            inner_quals,
                            inner_p,
                            &quals[i + 1..],
                            head,
                        );
                        let mut new_quals: Vec<Qual> = quals[..i].to_vec();
                        new_quals.append(&mut spliced);
                        new_quals.push(Qual::Pred(spliced_pred));
                        new_quals.extend_from_slice(&quals[i + 1..]);
                        return Some((Rule::ExistsFilter, new_quals, head.clone()));
                    }
                }
                _ => {}
            },
            Qual::VecGen { .. } => {}
        }
    }
    None
}

/// N3/N8/N11/N14 replace the whole comprehension; they only make sense for
/// `Comp` (a `VecComp`'s zero is a zero-filled vector, which `ZeroGen`
/// cannot express without the size — we leave those to evaluation).
#[allow(clippy::collapsible_match)] // nested guards read clearer than merged patterns
fn try_whole_comp_rules(monoid: &Monoid, head: &Expr, quals: &[Qual]) -> Option<(Rule, Expr)> {
    // Each qualifier's purity, judged once. A comprehension node adds no
    // effect of its own that purity counts (only `short_circuits`), so the
    // whole comprehension is pure exactly when its head and every
    // qualifier are.
    let pure: Vec<bool> = quals.iter().map(|q| effects_of(q.expr()).is_pure()).collect();
    let whole_pure = || pure.iter().all(|p| *p) && effects_of(head).is_pure();
    for (i, q) in quals.iter().enumerate() {
        let before_pure = pure[..i].iter().all(|p| *p);
        match q {
            Qual::Gen(_, src) => {
                // N3: v ← zero ⇒ zero_M (requires the prefix be pure — it
                // would otherwise have run for effect).
                if is_zero_source(src) && before_pure && pure[i] {
                    return Some((Rule::ZeroGen, Expr::Zero(monoid.clone())));
                }
                // N8: v ← e₁ ⊕ e₂ ⇒ split. Three side conditions:
                // the whole comprehension must be pure (everything else is
                // duplicated); the merge must be of a freely generated
                // monoid (an `oset`/`sorted` merge reorders or drops
                // elements); and the split must not reorder results —
                // `⊕_q (A_q ⊕ B_q) = (⊕_q A_q) ⊕ (⊕_q B_q)` needs either a
                // commutative output monoid or no generator before `v`.
                if let Expr::Merge(merge_m, a, b) = src {
                    if !freely_generated(merge_m) {
                        continue;
                    }
                    let prefix_has_generator = quals[..i]
                        .iter()
                        .any(|q| matches!(q, Qual::Gen(..) | Qual::VecGen { .. }));
                    if prefix_has_generator && !monoid.props().commutative {
                        continue;
                    }
                    if whole_pure() {
                        let mk = |source: &Expr| {
                            let mut qs = quals.to_vec();
                            if let Qual::Gen(v, _) = &quals[i] {
                                qs[i] = Qual::Gen(*v, source.clone());
                            }
                            Expr::Comp {
                                monoid: monoid.clone(),
                                head: Box::new(head.clone()),
                                quals: qs,
                            }
                        };
                        return Some((
                            Rule::MergeGen,
                            Expr::Merge(
                                monoid.clone(),
                                Box::new(mk(a)),
                                Box::new(mk(b)),
                            ),
                        ));
                    }
                }
            }
            Qual::Pred(Expr::Lit(crate::expr::Literal::Bool(false))) => {
                // N11: false ⇒ zero_M (prefix must be pure).
                if before_pure {
                    return Some((Rule::FalsePred, Expr::Zero(monoid.clone())));
                }
            }
            // N14: if c then p₁ else p₂ as predicate ⇒ two comprehensions.
            // Like N8, the split groups branch-1 rows before branch-2 rows,
            // so a non-commutative output monoid forbids it when any
            // generator precedes the predicate.
            Qual::Pred(Expr::If(c, p1, p2)) => {
                let prefix_has_generator = quals[..i]
                    .iter()
                    .any(|q| matches!(q, Qual::Gen(..) | Qual::VecGen { .. }));
                if prefix_has_generator && !monoid.props().commutative {
                    continue;
                }
                if whole_pure() {
                    let mk = |cond: Expr, branch: &Expr| {
                        let mut qs: Vec<Qual> = quals[..i].to_vec();
                        qs.push(Qual::Pred(cond));
                        qs.push(Qual::Pred(branch.clone()));
                        qs.extend_from_slice(&quals[i + 1..]);
                        Expr::Comp {
                            monoid: monoid.clone(),
                            head: Box::new(head.clone()),
                            quals: qs,
                        }
                    };
                    let pos = mk(c.as_ref().clone(), p1);
                    let neg = mk(c.as_ref().clone().not(), p2);
                    return Some((
                        Rule::IfPredSplit,
                        Expr::Merge(monoid.clone(), Box::new(pos), Box::new(neg)),
                    ));
                }
            }
            _ => {}
        }
    }
    None
}

/// A source that is syntactically a singleton: `unit_N(u)` or a
/// one-element collection literal.
fn singleton_source(src: &Expr) -> Option<Expr> {
    match src {
        Expr::Unit(m, u) if m.is_collection() => Some(u.as_ref().clone()),
        Expr::CollLit(m, items) if m.is_collection() && items.len() == 1 => {
            Some(items[0].clone())
        }
        Expr::New(_) => {
            // A generator over `new(s)` binds exactly one object; §4.2
            // examples rely on this. Rewriting it to a Bind keeps the
            // single allocation.
            Some(src.clone())
        }
        _ => None,
    }
}

/// A source that is syntactically empty: `zero_N` or an empty literal.
fn is_zero_source(src: &Expr) -> bool {
    matches!(src, Expr::Zero(m) if m.is_collection())
        || matches!(src, Expr::CollLit(m, items) if m.is_collection() && items.is_empty())
}

/// Flattening interleaves the inner qualifiers `r` with the outer tail;
/// with heap effects anywhere in sight the interleaving is observable, so
/// require purity of the inner qualifiers and the outer tail.
fn flatten_safe(outer: &[Qual], at: usize, inner: &[Qual]) -> bool {
    quals_pure(inner) && quals_pure(&outer[at + 1..])
}

/// α-rename the binders of `inner_quals` that would capture free variables
/// of the outer tail/head when spliced; returns the renamed qualifiers and
/// corresponding head.
fn rename_for_splice(
    inner_quals: &[Qual],
    inner_head: &Expr,
    outer_tail: &[Qual],
    outer_head: &Expr,
) -> (Vec<Qual>, Expr) {
    // Free variables of the outer tail + head, which must not be captured.
    let mut protect: HashSet<Symbol> = free_vars(outer_head);
    for q in outer_tail {
        protect.extend(free_vars(q.expr()));
    }
    let mut quals = inner_quals.to_vec();
    let mut head = inner_head.clone();
    for i in 0..quals.len() {
        let (done, tail) = quals.split_at_mut(i + 1);
        done[i].binders_mut(|b| {
            if protect.contains(b) {
                // Rename the binder and its occurrences in the tail and head.
                let fresh = Symbol::fresh(b.as_str());
                rename_tail(tail, &mut head, None, *b, fresh);
                *b = fresh;
            }
        });
    }
    (quals, head)
}

/// Substitute `u` for `v` through a qualifier tail and head, respecting
/// shadowing (a re-binding of `v` stops the substitution).
fn subst_through_tail(
    tail: &[Qual],
    head: &Expr,
    v: Symbol,
    u: &Expr,
) -> (Vec<Qual>, Expr) {
    // Delegate to the comprehension substitution machinery by building a
    // temporary comprehension body.
    let tmp = Expr::Comp {
        monoid: Monoid::Set,
        head: Box::new(head.clone()),
        quals: tail.to_vec(),
    };
    match subst(&tmp, v, u) {
        Expr::Comp { head, quals, .. } => (quals, *head),
        _ => unreachable!("substitution preserves the constructor"),
    }
}

// ---------------------------------------------------------------------------
// Child traversal.
//
// One step rewrites the first redex found by: the root rules, then a
// comprehension's whole-replacement rules, then the same search in each
// child in scope order (`Expr::for_each_child`: qualifiers before the
// head, a `let`'s definition before its body, a `hom`'s body before its
// source). No variant is named here beyond `Comp`: the term's shape is
// `expr.rs`'s.
// ---------------------------------------------------------------------------

/// Try to rewrite inside the first child, in scope order, that admits a
/// rewrite, rebuilding this node around it with `Expr::map_children`;
/// nothing is cloned on a miss.
fn rewrite_in_children(e: &Expr) -> Option<(Rule, Expr)> {
    // `Comp` whole-replacement rules (N3/N8/N11/N14) are tried here so root
    // qualifier rules get priority — they keep derivations shorter.
    if let Expr::Comp { monoid, head, quals } = e {
        if let Some(hit) = try_whole_comp_rules(monoid, head, quals) {
            return Some(hit);
        }
    }
    let (mut at, mut hit) = (0, None);
    e.for_each_child(|child| {
        if hit.is_none() {
            hit = rewrite_once(child);
            at += 1;
        }
    });
    let (rule, new) = hit?;
    let (mut new, mut seen) = (Some(new), 0);
    let rebuilt = e.map_children(|child| {
        seen += 1;
        if seen == at {
            new.take().expect("one child rewrites")
        } else {
            child.clone()
        }
    });
    Some((rule, rebuilt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_closed;

    fn set_comp(head: Expr, quals: Vec<Qual>) -> Expr {
        Expr::comp(Monoid::Set, head, quals)
    }

    #[test]
    fn beta_reduces() {
        let e = Expr::lambda("x", Expr::var("x").add(Expr::int(1))).apply(Expr::int(41));
        let (n, trace, _) = normalize_traced(&e);
        assert_eq!(n, Expr::int(41).add(Expr::int(1)));
        assert_eq!(trace[0].rule, Rule::Beta);
    }

    #[test]
    fn record_projection_reduces() {
        let e = Expr::record(vec![("a", Expr::int(1)), ("b", Expr::int(2))]).proj("b");
        assert_eq!(normalize(&e), Expr::int(2));
    }

    #[test]
    fn impure_record_projection_does_not_drop_effects() {
        // ⟨a=new(1), b=2⟩.b must not discard the allocation silently.
        let e = Expr::record(vec![("a", Expr::new_obj(Expr::int(1))), ("b", Expr::int(2))])
            .proj("b");
        assert_eq!(normalize(&e), e);
    }

    #[test]
    fn zero_generator_collapses() {
        let e = set_comp(
            Expr::var("x"),
            vec![Expr::gen("x", Expr::Zero(Monoid::Set))],
        );
        assert_eq!(normalize(&e), Expr::Zero(Monoid::Set));
    }

    #[test]
    fn empty_literal_generator_collapses() {
        let e = set_comp(Expr::var("x"), vec![Expr::gen("x", Expr::list_of(vec![]))]);
        assert_eq!(normalize(&e), Expr::Zero(Monoid::Set));
    }

    #[test]
    fn singleton_generator_becomes_binding_then_inlines() {
        // set{ x + 1 | x ← [5] }  ⇒  set{ 5 + 1 }  (N4 then N7)
        let e = set_comp(
            Expr::var("x").add(Expr::int(1)),
            vec![Expr::gen("x", Expr::list_of(vec![Expr::int(5)]))],
        );
        let (n, trace, _) = normalize_traced(&e);
        assert_eq!(n, set_comp(Expr::int(5).add(Expr::int(1)), vec![]));
        let rules: Vec<Rule> = trace.iter().map(|t| t.rule).collect();
        assert_eq!(rules, vec![Rule::SingletonGen, Rule::BindInline]);
    }

    #[test]
    fn flatten_generator_unnests() {
        // set{ x | x ← set{ y*2 | y ← ys } }  ⇒  set{ y*2 | y ← ys }
        let inner = set_comp(
            Expr::var("y").mul(Expr::int(2)),
            vec![Expr::gen("y", Expr::var("ys"))],
        );
        let e = set_comp(Expr::var("x"), vec![Expr::gen("x", inner)]);
        let n = normalize(&e);
        let expected = set_comp(
            Expr::var("y").mul(Expr::int(2)),
            vec![Expr::gen("y", Expr::var("ys"))],
        );
        assert_eq!(n, expected);
    }

    #[test]
    fn flatten_renames_on_conflict() {
        // set{ (x, y) | x ← set{ y | y ← ys }, y ← zs }: the inner binder y
        // collides with the outer generator's *use*?? — here with the outer
        // head's y, which refers to the second generator. The inner y must
        // be renamed.
        let inner = set_comp(Expr::var("y"), vec![Expr::gen("y", Expr::var("ys"))]);
        let e = Expr::comp(
            Monoid::Set,
            Expr::Tuple(vec![Expr::var("x"), Expr::var("y")]),
            vec![Expr::gen("x", inner), Expr::gen("y", Expr::var("zs"))],
        );
        let n = normalize(&e);
        // Meaning check by evaluation.
        let env_e = |e: &Expr| {
            let bound = subst(
                &subst(e, Symbol::new("ys"), &Expr::list_of(vec![Expr::int(1), Expr::int(2)])),
                Symbol::new("zs"),
                &Expr::list_of(vec![Expr::int(10)]),
            );
            eval_closed(&bound).unwrap()
        };
        assert_eq!(env_e(&e), env_e(&n));
    }

    #[test]
    fn exists_filter_unnests_for_idempotent_monoid() {
        // set{ x | x ← xs, some{ x = y | y ← ys } }
        //   ⇒ set{ x | x ← xs, y ← ys, x = y }
        let e = set_comp(
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::pred(Expr::comp(
                    Monoid::Some,
                    Expr::var("x").eq(Expr::var("y")),
                    vec![Expr::gen("y", Expr::var("ys"))],
                )),
            ],
        );
        let n = normalize(&e);
        let expected = set_comp(
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::gen("y", Expr::var("ys")),
                Expr::pred(Expr::var("x").eq(Expr::var("y"))),
            ],
        );
        assert_eq!(n, expected);
    }

    #[test]
    fn exists_filter_not_unnested_for_bag() {
        // bag{ x | x ← xs, some{…} } must NOT unnest (bag is not
        // idempotent: multiple witnesses would duplicate x).
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::pred(Expr::comp(
                    Monoid::Some,
                    Expr::var("x").eq(Expr::var("y")),
                    vec![Expr::gen("y", Expr::var("ys"))],
                )),
            ],
        );
        let n = normalize(&e);
        // The exists stays as a filter.
        match &n {
            Expr::Comp { quals, .. } => {
                assert!(matches!(&quals[1], Qual::Pred(Expr::Comp { .. })));
            }
            other => panic!("expected comp, got {other:?}"),
        }
    }

    #[test]
    fn merge_generator_splits() {
        // sum{ x | x ← xs ⊎ ys } ⇒ sum{x|x←xs} + sum{x|x←ys}
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("x"),
            vec![Expr::gen(
                "x",
                Expr::merge(Monoid::Bag, Expr::var("xs"), Expr::var("ys")),
            )],
        );
        let n = normalize(&e);
        assert!(matches!(n, Expr::Merge(Monoid::Sum, _, _)));
    }

    /// N8 and N14 copy the whole comprehension into both halves: an effect
    /// in its head, or in a qualifier after the split one, keeps it whole.
    #[test]
    fn an_impure_head_or_later_qualifier_keeps_a_split_whole() {
        let merged = Expr::gen("x", Expr::merge(Monoid::Bag, Expr::var("xs"), Expr::var("ys")));
        let cond = Expr::var("x").gt(Expr::int(0));
        let branch = Expr::pred(Expr::if_(cond, Expr::var("p"), Expr::var("q")));
        let reads = Expr::pred(Expr::var("r").deref().gt(Expr::int(0)));
        for quals in [vec![merged], vec![Expr::gen("x", Expr::var("xs")), branch]] {
            let bag = |head: Expr, quals: Vec<Qual>| normalize(&Expr::comp(Monoid::Bag, head, quals));
            let split = bag(Expr::var("x"), quals.clone());
            assert!(matches!(split, Expr::Merge(..)), "{split:?}");
            let allocating = bag(Expr::new_obj(Expr::var("x")), quals.clone());
            assert!(!matches!(allocating, Expr::Merge(..)), "{allocating:?}");
            let reading = bag(Expr::var("x"), [quals, vec![reads.clone()]].concat());
            assert!(!matches!(reading, Expr::Merge(..)), "{reading:?}");
        }
    }

    #[test]
    fn and_split_and_true_removal() {
        let e = set_comp(
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::pred(Expr::bool(true).and(Expr::var("x").gt(Expr::int(0)))),
            ],
        );
        let n = normalize(&e);
        let expected = set_comp(
            Expr::var("x"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::pred(Expr::var("x").gt(Expr::int(0))),
            ],
        );
        assert_eq!(n, expected);
    }

    #[test]
    fn false_predicate_collapses() {
        let e = set_comp(
            Expr::var("x"),
            vec![Expr::gen("x", Expr::var("xs")), Expr::pred(Expr::bool(false))],
        );
        assert_eq!(normalize(&e), Expr::Zero(Monoid::Set));
    }

    #[test]
    fn hom_becomes_comprehension() {
        let e = Expr::hom(
            Monoid::Sum,
            "x",
            Expr::var("x").mul(Expr::int(2)),
            Expr::list_of(vec![Expr::int(1), Expr::int(2)]),
        );
        let n = normalize(&e);
        assert!(matches!(n, Expr::Comp { monoid: Monoid::Sum, .. }));
        assert_eq!(eval_closed(&n).unwrap(), eval_closed(&e).unwrap());
    }

    #[test]
    fn nested_query_normalizes_to_single_flat_comprehension() {
        // The shape of the paper's §3.1 derivation:
        // bag{ h | h ← bag{ h' | c ← Cities, c.name = "P", h' ← c.hotels } }
        //   ⇒ bag{ h' | c ← Cities, c.name = "P", h' ← c.hotels }
        let inner = Expr::comp(
            Monoid::Bag,
            Expr::var("hp"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("P"))),
                Expr::gen("hp", Expr::var("c").proj("hotels")),
            ],
        );
        let e = Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![Expr::gen("h", inner)],
        );
        let (n, _, stats) = normalize_traced(&e);
        match &n {
            Expr::Comp { monoid: Monoid::Bag, quals, .. } => {
                assert_eq!(quals.len(), 3, "flat: two generators + one predicate");
                assert!(is_canonical(&n));
            }
            other => panic!("expected flat comp, got {other:?}"),
        }
        assert!(stats.steps >= 2);
    }

    #[test]
    fn impure_generators_are_not_duplicated() {
        // sum{ !x | x ← new(0) ⊎ … } — never split a merge when effects
        // exist; and a new() generator becomes a Bind, not an inline.
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("x").deref(),
            vec![Expr::gen("x", Expr::new_obj(Expr::int(0)))],
        );
        let n = normalize(&e);
        // new() bound via Bind (kept, since impure).
        match &n {
            Expr::Comp { quals, .. } => {
                assert!(matches!(&quals[0], Qual::Bind(_, Expr::New(_))));
            }
            other => panic!("expected comp, got {other:?}"),
        }
        // Evaluation still allocates exactly once and yields 0.
        assert_eq!(eval_closed(&n).unwrap(), eval_closed(&e).unwrap());
    }

    #[test]
    fn normalization_is_idempotent() {
        let inner = set_comp(
            Expr::var("y").mul(Expr::int(2)),
            vec![Expr::gen("y", Expr::var("ys"))],
        );
        let e = set_comp(
            Expr::var("x"),
            vec![
                Expr::gen("x", inner),
                Expr::pred(Expr::bool(true).and(Expr::var("x").gt(Expr::int(0)))),
            ],
        );
        let n1 = normalize(&e);
        let n2 = normalize(&n1);
        assert_eq!(n1, n2);
        assert!(is_canonical(&n1));
    }

    #[test]
    fn stats_count_rules() {
        let e = set_comp(
            Expr::var("x").add(Expr::int(1)),
            vec![Expr::gen("x", Expr::list_of(vec![Expr::int(5)]))],
        );
        let (_, _, stats) = normalize_traced(&e);
        assert_eq!(stats.steps, 2);
        let fired: u64 = stats.per_rule.iter().sum();
        assert_eq!(fired, 2);
        // The keyed accessors agree with the raw array.
        assert_eq!(stats.rule_counts().map(|(_, n)| n).sum::<u64>(), 2);
        assert_eq!(stats.fired(Rule::SingletonGen), 1, "{}", stats.render_rules());
        assert_eq!(stats.fired(Rule::MergeGen), 0);
        assert!(stats.render_rules().contains("singleton-generator ×1"), "{}", stats.render_rules());
    }
}
