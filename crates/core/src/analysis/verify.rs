//! The stage invariant verifier (normalization stage).
//!
//! Every Table-3 rule is *supposed* to preserve typing, scoping, and the
//! C/I legality restriction — the paper's manipulability claim depends on
//! it. [`check_rewrite`] machine-checks those invariants after each rule
//! firing, so a buggy rewrite is caught at the step that introduced the
//! violation (with the rule name attached) instead of surfacing as a wrong
//! answer three stages later.
//!
//! All checks are **differential**: a violation only fails the check if it
//! is present in the term *after* the rewrite but not *before*. This keeps
//! the verifier sound on inputs that were already questionable (hand-built
//! test terms, deliberately-illegal probes): the normalizer is only
//! responsible for not making things worse.
//!
//! Verification is on by default in debug builds and off in release;
//! `MONOID_VERIFY=1` forces it on (and `MONOID_VERIFY=0` off) in either.
//! Failures increment `analysis_verify_failures_total{stage}`.

use crate::expr::{Expr, Qual};
use crate::monoid::Monoid;
use crate::subst::free_vars;
use crate::symbol::Symbol;
use crate::typecheck::infer;
use crate::types::Type;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// The verifier stages: what a [`VerifyError`] is tagged with, and the
/// labels of `analysis_verify_failures_total{stage}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `normalize/scoping`: a rewrite introduced a free variable.
    Scoping,
    /// `normalize/legality`: a rewrite introduced a C/I violation.
    Legality,
    /// `normalize/well-formed`: a duplicate record label or binder.
    WellFormed,
    /// `normalize/typing`: a rewrite broke or changed the type.
    Typing,
    /// `plan/binders`: a plan operator rebinds an upstream variable.
    PlanBinders,
}

impl Stage {
    /// Every stage, in declaration order (indexable by `stage as usize`).
    pub const ALL: [Stage; 5] =
        [Stage::Scoping, Stage::Legality, Stage::WellFormed, Stage::Typing, Stage::PlanBinders];

    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Scoping => "normalize/scoping",
            Stage::Legality => "normalize/legality",
            Stage::WellFormed => "normalize/well-formed",
            Stage::Typing => "normalize/typing",
            Stage::PlanBinders => "plan/binders",
        }
    }

    /// Count a failure of this stage into the process-wide registry, for
    /// this crate's verifier and the plan verifier in `monoid-algebra`.
    pub fn record_failure(self) {
        crate::metrics::global().analysis_verify_failures_total[self as usize].inc();
    }
}

/// A stage-tagged invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Which verifier stage tripped.
    pub stage: Stage,
    /// The normalize rule that fired, when the stage is per-rewrite.
    pub rule: Option<&'static str>,
    pub message: String,
}

impl VerifyError {
    pub fn new(stage: Stage, message: impl Into<String>) -> VerifyError {
        VerifyError { stage, rule: None, message: message.into() }
    }

    fn with_rule(mut self, rule: &'static str) -> VerifyError {
        self.rule = Some(rule);
        self
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.stage.as_str())?;
        if let Some(rule) = self.rule {
            write!(f, "after rule `{rule}`: ")?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Is stage verification enabled? Defaults to `cfg(debug_assertions)`;
/// `MONOID_VERIFY=1`/`true` forces it on, `MONOID_VERIFY=0`/`false` off.
/// Resolved once per process.
pub fn verify_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("MONOID_VERIFY") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => true,
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("false") => false,
        _ => cfg!(debug_assertions),
    })
}

/// Check that the rewrite `before ⇒ after` (attributed to `rule`)
/// preserved the stage invariants. Differential: see the module docs.
pub fn check_rewrite(
    rule: &'static str,
    before: &Expr,
    after: &Expr,
) -> Result<(), VerifyError> {
    let result = check_rewrite_inner(before, after).map_err(|e| e.with_rule(rule));
    if let Err(e) = &result {
        e.stage.record_failure();
    }
    result
}

fn check_rewrite_inner(before: &Expr, after: &Expr) -> Result<(), VerifyError> {
    // 1. Scoping: a rewrite may drop free variables (e.g. N11 collapses a
    //    comprehension to zero) but must never introduce one.
    let fv_before = free_vars(before);
    for v in free_vars(after) {
        if !fv_before.contains(&v) {
            return Err(VerifyError::new(
                Stage::Scoping,
                format!("rewrite introduced free variable `{}`", v.as_str()),
            ));
        }
    }

    // 2. C/I legality: no new illegal generator/hom may appear.
    let illegal_before = legality_violations(before);
    for v in legality_violations(after) {
        if !illegal_before.contains(&v) {
            return Err(VerifyError::new(Stage::Legality, v));
        }
    }

    // 3. Well-formedness: no new duplicate record labels or duplicate
    //    binders within one qualifier list.
    let wf_before = well_formedness_violations(before);
    for v in well_formedness_violations(after) {
        if !wf_before.contains(&v) {
            return Err(VerifyError::new(Stage::WellFormed, v));
        }
    }

    // 4. Type preservation: if the input inferred, the output must too,
    //    and ground result types must agree. (Inference variables get
    //    fresh ids per run, so only ground types are comparable.)
    if let Ok(t_before) = infer(before) {
        match infer(after) {
            Err(e) => {
                return Err(VerifyError::new(
                    Stage::Typing,
                    format!("rewrite broke typing: {e}"),
                ));
            }
            Ok(t_after) => {
                if is_ground(&t_before)
                    && is_ground(&t_after)
                    && !types_compatible(&t_before, &t_after)
                {
                    return Err(VerifyError::new(
                        Stage::Typing,
                        format!("rewrite changed type: `{t_before}` → `{t_after}`"),
                    ));
                }
            }
        }
    }

    Ok(())
}

/// Are two ground types interchangeable for the purposes of rewrite
/// verification? Strict equality is too strong: `Null` unifies with
/// anything (it is the zero of `max`/`min`), and `zero_sum` infers `Int`
/// even when the surrounding aggregation is over floats.
fn types_compatible(a: &Type, b: &Type) -> bool {
    match (a, b) {
        (Type::Null, _) | (_, Type::Null) => true,
        (Type::Int | Type::Float, Type::Int | Type::Float) => true,
        (Type::Record(x), Type::Record(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((na, ta), (nb, tb))| na == nb && types_compatible(ta, tb))
        }
        (Type::Tuple(x), Type::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(ta, tb)| types_compatible(ta, tb))
        }
        (Type::Coll(ka, ea), Type::Coll(kb, eb)) => ka == kb && types_compatible(ea, eb),
        (Type::Vector(x), Type::Vector(y)) | (Type::Obj(x), Type::Obj(y)) => {
            types_compatible(x, y)
        }
        (Type::Fn(a1, r1), Type::Fn(a2, r2)) => {
            types_compatible(a1, a2) && types_compatible(r1, r2)
        }
        _ => a == b,
    }
}

/// Does `t` contain no unsolved inference variables?
fn is_ground(t: &Type) -> bool {
    match t {
        Type::Bool | Type::Int | Type::Float | Type::Str | Type::Null | Type::Class(_) => true,
        Type::Var(_) => false,
        Type::Record(fields) => fields.iter().all(|(_, ft)| is_ground(ft)),
        Type::Tuple(items) => items.iter().all(is_ground),
        Type::Coll(_, inner) | Type::Vector(inner) | Type::Obj(inner) => is_ground(inner),
        Type::Fn(a, b) => is_ground(a) && is_ground(b),
    }
}

/// The monoid of `e`'s value, when statically evident from its shape.
/// `None` for variables, projections, and anything else whose collection
/// kind only the type checker knows.
pub fn source_monoid(e: &Expr) -> Option<Monoid> {
    use crate::expr::UnOp;
    match e {
        Expr::Zero(m) | Expr::Unit(m, _) | Expr::Merge(m, _, _) | Expr::CollLit(m, _) => {
            Some(m.clone())
        }
        Expr::Comp { monoid, .. } | Expr::Hom { monoid, .. } => Some(monoid.clone()),
        Expr::UnOp(UnOp::ToBag, _) => Some(Monoid::Bag),
        Expr::UnOp(UnOp::ToList, _) => Some(Monoid::List),
        Expr::UnOp(UnOp::ToSet, _) => Some(Monoid::Set),
        Expr::If(_, t, f) => {
            let mt = source_monoid(t)?;
            let mf = source_monoid(f)?;
            (mt == mf).then_some(mt)
        }
        _ => None,
    }
}

/// Every C/I legality violation in `e` whose source monoid is statically
/// evident, as stable description strings (a `BTreeSet` so the
/// differential comparison is order-independent; descriptions deliberately
/// omit binder names, which α-renaming may change mid-derivation).
pub fn legality_violations(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    e.visit(&mut |node| match node {
        Expr::Comp { monoid, quals, .. } => {
            for q in quals {
                if let Qual::Gen(_, src) = q {
                    if let Some(sm) = source_monoid(src) {
                        if !sm.hom_legal_to(monoid) {
                            out.insert(format!(
                                "generator iterates a {sm} source inside a {monoid} \
                                 comprehension ({} ⋠ {})",
                                sm.props(),
                                monoid.props(),
                            ));
                        }
                    }
                }
            }
        }
        Expr::Hom { monoid, source, .. } => {
            if let Some(sm) = source_monoid(source) {
                if !sm.hom_legal_to(monoid) {
                    out.insert(format!(
                        "hom[{sm}→{monoid}] is illegal ({} ⋠ {})",
                        sm.props(),
                        monoid.props(),
                    ));
                }
            }
        }
        _ => {}
    });
    out
}

/// Structural well-formedness violations: duplicate record labels and
/// duplicate binders within a single qualifier list.
pub fn well_formedness_violations(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    e.visit(&mut |node| match node {
        Expr::Record(fields) => {
            let mut seen: BTreeSet<Symbol> = BTreeSet::new();
            for (name, _) in fields {
                if !seen.insert(*name) {
                    out.insert(format!("record has duplicate label `{}`", name.as_str()));
                }
            }
        }
        Expr::Comp { quals, .. } | Expr::VecComp { quals, .. } => {
            // Re-binding the same name later in the list is legal shadowing
            // (and linted as MC003); what is malformed is one VecGen
            // binding elem and index to the same symbol.
            for q in quals {
                if let Qual::VecGen { elem, index, .. } = q {
                    if elem == index {
                        out.insert(format!(
                            "vector generator binds `{}` as both element and index",
                            elem.as_str()
                        ));
                    }
                }
            }
        }
        _ => {}
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_rewrite_passes() {
        // N10: drop a `true` predicate — no invariant is disturbed.
        let before = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::var("xs")), Expr::pred(Expr::bool(true))],
        );
        let after = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::var("xs"))],
        );
        assert!(check_rewrite("true-predicate", &before, &after).is_ok());
    }

    #[test]
    fn introduced_free_variable_is_caught() {
        let before = Expr::int(1).add(Expr::int(2));
        let after = Expr::int(1).add(Expr::var("oops"));
        let err = check_rewrite("beta", &before, &after).unwrap_err();
        assert_eq!(err.stage, Stage::Scoping);
        assert_eq!(err.rule, Some("beta"));
        assert!(err.message.contains("oops"));
    }

    #[test]
    fn deliberately_illegal_rewrite_is_caught_with_stage_tag() {
        // A bogus "rewrite" that turns a legal bag-over-list comprehension
        // into one that iterates a *set* literal inside a *list*
        // comprehension — set ⋠ list, the paper's central restriction.
        let before = Expr::comp(
            Monoid::List,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::list_of(vec![Expr::int(1)]))],
        );
        let after = Expr::comp(
            Monoid::List,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::set_of(vec![Expr::int(1)]))],
        );
        let err = check_rewrite("merge-generator", &before, &after).unwrap_err();
        assert_eq!(err.stage, Stage::Legality);
        assert_eq!(err.rule, Some("merge-generator"));
        assert!(err.message.contains("set"), "message names the source monoid: {err}");
    }

    #[test]
    fn differential_check_tolerates_preexisting_violations() {
        // The illegal generator exists before AND after: the rewrite (which
        // only touched the head) did not make things worse, so it passes.
        let mk = |head: Expr| {
            Expr::comp(
                Monoid::List,
                head,
                vec![Expr::gen("x", Expr::set_of(vec![Expr::int(1)]))],
            )
        };
        let before = mk(Expr::var("x").add(Expr::int(0)));
        let after = mk(Expr::var("x"));
        assert!(check_rewrite("beta", &before, &after).is_ok());
    }

    #[test]
    fn type_breaking_rewrite_is_caught() {
        let before = Expr::int(1).add(Expr::int(2));
        let after = Expr::int(1).add(Expr::bool(true));
        let err = check_rewrite("proj", &before, &after).unwrap_err();
        assert_eq!(err.stage, Stage::Typing);
    }

    #[test]
    fn type_changing_rewrite_is_caught() {
        let before = Expr::int(1).add(Expr::int(2));
        let after = Expr::str("three");
        let err = check_rewrite("proj", &before, &after).unwrap_err();
        assert_eq!(err.stage, Stage::Typing);
        assert!(err.message.contains("changed type"));
    }

    #[test]
    fn duplicate_record_label_is_caught() {
        let before = Expr::record(vec![("a", Expr::int(1)), ("b", Expr::int(2))]);
        let after = Expr::record(vec![("a", Expr::int(1)), ("a", Expr::int(2))]);
        let err = check_rewrite("proj", &before, &after).unwrap_err();
        assert_eq!(err.stage, Stage::WellFormed);
    }

    #[test]
    fn source_monoid_sees_through_shapes() {
        assert_eq!(source_monoid(&Expr::set_of(vec![])), Some(Monoid::Set));
        assert_eq!(
            source_monoid(&Expr::merge(Monoid::Bag, Expr::var("a"), Expr::var("b"))),
            Some(Monoid::Bag)
        );
        assert_eq!(source_monoid(&Expr::var("xs")), None);
    }
}
