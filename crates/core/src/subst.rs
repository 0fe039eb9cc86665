//! Free variables and capture-avoiding substitution.
//!
//! The paper's variable-binding convention is
//! `M{ e | q, x ← u, s } = M{ e[u/x] | q, s[u/x] }` — substitution is how
//! both the semantics and the normalization rules (Table 3) are stated, so
//! it must be exactly right. Binders are: `λv.e`, `let v = e1 in e2`,
//! `hom[→M](λv.e)(u)`, and comprehension qualifiers `v ← e` / `v ≡ e` /
//! `a[i] ← e` (each scopes over the *following* qualifiers and the head).
//!
//! Rules 5 and 6 of Table 3 "may require some variable renaming to avoid
//! name conflicts" — [`subst`] renames bound variables to fresh symbols
//! whenever they would capture a free variable of the replacement.
//!
//! Only the binders are spelled out here (`λ`, `let`, `hom` and the two
//! comprehensions, plus `Var` itself); every other node goes through the
//! term's shape in `expr.rs` (`Expr::for_each_child` /
//! `Expr::map_children`), which visits children left to right — the
//! order in which α-renaming draws fresh names.

use crate::expr::{Expr, Qual};
use crate::symbol::Symbol;
use std::collections::HashSet;

/// The free variables of `e`.
pub fn free_vars(e: &Expr) -> HashSet<Symbol> {
    let mut out = HashSet::new();
    collect_free(e, &mut HashSet::new(), &mut out);
    out
}

fn collect_free(e: &Expr, bound: &mut HashSet<Symbol>, out: &mut HashSet<Symbol>) {
    match e {
        Expr::Var(v) => {
            if !bound.contains(v) {
                out.insert(*v);
            }
        }
        Expr::Lambda(v, body) => collect_free_under(*v, body, bound, out),
        Expr::Let(v, def, body) | Expr::Hom { var: v, source: def, body, .. } => {
            collect_free(def, bound, out);
            collect_free_under(*v, body, bound, out);
        }
        Expr::Comp { head, quals, .. } => {
            collect_free_quals(quals, head, None, bound, out);
        }
        Expr::VecComp { size, value, index, quals, .. } => {
            collect_free(size, bound, out);
            collect_free_quals(quals, value, Some(index), bound, out);
        }
        _ => e.for_each_child(|child| collect_free(child, bound, out)),
    }
}

/// The free variables of `body` under the binder `v`.
fn collect_free_under(
    v: Symbol,
    body: &Expr,
    bound: &mut HashSet<Symbol>,
    out: &mut HashSet<Symbol>,
) {
    let fresh = bound.insert(v);
    collect_free(body, bound, out);
    if fresh {
        bound.remove(&v);
    }
}

/// Qualifiers scope left-to-right over the rest and the head(s).
fn collect_free_quals(
    quals: &[Qual],
    head: &Expr,
    extra_head: Option<&Expr>,
    bound: &mut HashSet<Symbol>,
    out: &mut HashSet<Symbol>,
) {
    let mut newly_bound: Vec<Symbol> = Vec::new();
    for q in quals {
        match q {
            Qual::Gen(v, src) | Qual::Bind(v, src) => {
                collect_free(src, bound, out);
                if bound.insert(*v) {
                    newly_bound.push(*v);
                }
            }
            Qual::VecGen { elem, index, source } => {
                collect_free(source, bound, out);
                if bound.insert(*elem) {
                    newly_bound.push(*elem);
                }
                if bound.insert(*index) {
                    newly_bound.push(*index);
                }
            }
            Qual::Pred(p) => collect_free(p, bound, out),
        }
    }
    collect_free(head, bound, out);
    if let Some(extra) = extra_head {
        collect_free(extra, bound, out);
    }
    for v in newly_bound {
        bound.remove(&v);
    }
}

/// Capture-avoiding substitution `e[replacement / var]`.
pub fn subst(e: &Expr, var: Symbol, replacement: &Expr) -> Expr {
    // Fast path: nothing to do if `var` is not free in `e`.
    if !free_vars(e).contains(&var) {
        return e.clone();
    }
    let repl_fv = free_vars(replacement);
    subst_inner(e, var, replacement, &repl_fv)
}

fn subst_inner(e: &Expr, var: Symbol, repl: &Expr, repl_fv: &HashSet<Symbol>) -> Expr {
    let go = |x: &Expr| subst_inner(x, var, repl, repl_fv);
    match e {
        Expr::Var(v) if *v == var => repl.clone(),
        Expr::Lambda(v, body) => {
            let (v, body) = subst_under(*v, body, var, repl, repl_fv);
            Expr::Lambda(v, Box::new(body))
        }
        Expr::Let(v, def, body) => {
            let def = go(def);
            let (v, body) = subst_under(*v, body, var, repl, repl_fv);
            Expr::Let(v, Box::new(def), Box::new(body))
        }
        Expr::Hom { monoid, var: v, body, source } => {
            let source = Box::new(go(source));
            let (v, body) = subst_under(*v, body, var, repl, repl_fv);
            Expr::Hom { monoid: monoid.clone(), var: v, body: Box::new(body), source }
        }
        Expr::Comp { monoid, head, quals } => {
            let (quals2, head2, _) =
                subst_quals(quals, head, None, var, repl, repl_fv);
            Expr::Comp { monoid: monoid.clone(), head: Box::new(head2), quals: quals2 }
        }
        Expr::VecComp { elem_monoid, size, value, index, quals } => {
            let size2 = go(size);
            let (quals2, value2, index2) =
                subst_quals(quals, value, Some(index), var, repl, repl_fv);
            Expr::VecComp {
                elem_monoid: elem_monoid.clone(),
                size: Box::new(size2),
                value: Box::new(value2),
                index: Box::new(index2.expect("extra head present")),
                quals: quals2,
            }
        }
        _ => e.map_children(go),
    }
}

/// `body[repl/var]` under the binder `v`, returning the binder to keep:
/// `body` is untouched when `v` shadows `var`, and `v` is α-renamed to a
/// fresh symbol when it would capture a free variable of `repl`.
fn subst_under(
    v: Symbol,
    body: &Expr,
    var: Symbol,
    repl: &Expr,
    repl_fv: &HashSet<Symbol>,
) -> (Symbol, Expr) {
    if v == var {
        (v, body.clone())
    } else if repl_fv.contains(&v) {
        let fresh = Symbol::fresh(v.as_str());
        let renamed = subst(body, v, &Expr::Var(fresh));
        (fresh, subst_inner(&renamed, var, repl, repl_fv))
    } else {
        (v, subst_inner(body, var, repl, repl_fv))
    }
}

/// Substitute through a qualifier list: sources are substituted until a
/// qualifier (re)binds `var`; binders whose names collide with the
/// replacement's free variables are α-renamed in the remainder.
fn subst_quals(
    quals: &[Qual],
    head: &Expr,
    extra_head: Option<&Expr>,
    var: Symbol,
    repl: &Expr,
    repl_fv: &HashSet<Symbol>,
) -> (Vec<Qual>, Expr, Option<Expr>) {
    let mut out: Vec<Qual> = Vec::with_capacity(quals.len());
    // Work on owned copies so α-renaming can rewrite the tail.
    let mut rest: Vec<Qual> = quals.to_vec();
    let mut head = head.clone();
    let mut extra = extra_head.cloned();
    for i in 0..rest.len() {
        let mut q = rest[i].map_expr(|src| subst_inner(src, var, repl, repl_fv));
        if q.binds(var) {
            // Shadowed: stop substituting in the tail.
            out.push(q);
            out.extend_from_slice(&rest[i + 1..]);
            return (out, head, extra);
        }
        q.binders_mut(|v| {
            if repl_fv.contains(v) {
                let fresh = Symbol::fresh(v.as_str());
                rename_tail(&mut rest[i + 1..], &mut head, extra.as_mut(), *v, fresh);
                *v = fresh;
            }
        });
        out.push(q);
    }
    let head2 = subst_inner(&head, var, repl, repl_fv);
    let extra2 = extra.map(|e| subst_inner(&e, var, repl, repl_fv));
    (out, head2, extra2)
}

/// Rename every free occurrence of `old` to `new` in a qualifier tail and
/// head(s). Exposed to the normalizer, which must rename the binders of an
/// inner comprehension when splicing its qualifiers into an outer one
/// (Table 3 rules 5 and 6 "may require some variable renaming").
pub(crate) fn rename_tail(
    tail: &mut [Qual],
    head: &mut Expr,
    extra: Option<&mut Expr>,
    old: Symbol,
    new: Symbol,
) {
    let new_var = Expr::Var(new);
    for q in tail.iter_mut() {
        *q = q.map_expr(|e| subst(e, old, &new_var));
        if q.binds(old) {
            return;
        }
    }
    *head = subst(head, old, &new_var);
    if let Some(extra) = extra {
        *extra = subst(extra, old, &new_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::Monoid;

    fn s(name: &str) -> Symbol {
        Symbol::new(name)
    }

    #[test]
    fn free_vars_respects_lambda_binding() {
        let e = Expr::lambda("x", Expr::var("x").add(Expr::var("y")));
        let fv = free_vars(&e);
        assert!(fv.contains(&s("y")));
        assert!(!fv.contains(&s("x")));
    }

    #[test]
    fn free_vars_respects_qualifier_scoping() {
        // set{ x + z | x ← xs, y ← f(x), y > 0 }
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("x").add(Expr::var("z")),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::gen("y", Expr::var("f").apply(Expr::var("x"))),
                Expr::pred(Expr::var("y").gt(Expr::int(0))),
            ],
        );
        let fv = free_vars(&e);
        assert_eq!(
            fv,
            [s("z"), s("xs"), s("f")].into_iter().collect::<HashSet<_>>()
        );
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        // (λx. x + y)[x := 5] leaves the bound x alone;
        // (λx. x + y)[y := 5] substitutes.
        let e = Expr::lambda("x", Expr::var("x").add(Expr::var("y")));
        assert_eq!(subst(&e, s("x"), &Expr::int(5)), e);
        let e2 = subst(&e, s("y"), &Expr::int(5));
        assert_eq!(e2, Expr::lambda("x", Expr::var("x").add(Expr::int(5))));
    }

    #[test]
    fn subst_avoids_capture_in_lambda() {
        // (λx. x + y)[y := x]  must NOT become λx. x + x.
        let e = Expr::lambda("x", Expr::var("x").add(Expr::var("y")));
        let r = subst(&e, s("y"), &Expr::var("x"));
        match r {
            Expr::Lambda(p, body) => {
                assert_ne!(p, s("x"), "binder must be renamed");
                assert_eq!(*body, Expr::var(p.as_str()).add(Expr::var("x")));
            }
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn subst_stops_at_shadowing_generator() {
        // set{ x | x ← x }[x := ys]: only the source is free.
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::var("x"))],
        );
        let r = subst(&e, s("x"), &Expr::var("ys"));
        let expected = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::var("ys"))],
        );
        assert_eq!(r, expected);
    }

    #[test]
    fn subst_avoids_capture_in_generator() {
        // set{ (v, w) | v ← xs }[w := v]  must rename the generator's v.
        let e = Expr::comp(
            Monoid::Set,
            Expr::Tuple(vec![Expr::var("v"), Expr::var("w")]),
            vec![Expr::gen("v", Expr::var("xs"))],
        );
        let r = subst(&e, s("w"), &Expr::var("v"));
        match &r {
            Expr::Comp { quals, head, .. } => {
                let Qual::Gen(fresh, _) = &quals[0] else { panic!() };
                assert_ne!(*fresh, s("v"));
                assert_eq!(
                    **head,
                    Expr::Tuple(vec![Expr::var(fresh.as_str()), Expr::var("v")])
                );
            }
            other => panic!("expected comp, got {other:?}"),
        }
    }

    #[test]
    fn subst_into_let_body_respects_shadow() {
        // (let x = y in x)[x := 1] → unchanged body; def substituted for y.
        let e = Expr::let_("x", Expr::var("y"), Expr::var("x"));
        assert_eq!(subst(&e, s("x"), &Expr::int(1)), e);
        let r = subst(&e, s("y"), &Expr::int(7));
        assert_eq!(r, Expr::let_("x", Expr::int(7), Expr::var("x")));
    }

    #[test]
    fn rename_tail_stops_at_shadowing() {
        // set{ v | v ← a, v ← b, p(v) }[a := v-free? ] — renaming the first
        // binder must not touch occurrences bound by the second.
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("v"),
            vec![
                Expr::gen("v", Expr::var("src")),
                Expr::gen("v", Expr::var("other")),
            ],
        );
        // substitute src := v ⇒ the first generator's binder is renamed so
        // the replacement `v` is not captured; the result must be
        // α-equivalent: head refers to the *second* generator's binder.
        let r = subst(&e, s("src"), &Expr::var("v"));
        match &r {
            Expr::Comp { quals, head, .. } => {
                let Qual::Gen(v1, s1) = &quals[0] else { panic!() };
                assert_ne!(*v1, s("v"), "first binder renamed");
                assert_eq!(*s1, Expr::var("v"), "replacement inserted un-captured");
                let Qual::Gen(v2, s2) = &quals[1] else { panic!() };
                assert_eq!(*s2, Expr::var("other"));
                assert_ne!(*v2, *v1, "binders stay distinct");
                // The head must refer to the second binder (possibly
                // α-renamed alongside it).
                assert_eq!(**head, Expr::Var(*v2));
            }
            other => panic!("expected comp, got {other:?}"),
        }
    }
}
