//! The evaluator: an operational semantics for the calculus.
//!
//! Comprehensions are evaluated by their reduction to homomorphisms
//! (paper §2.4): generators fold their source collection, predicates guard,
//! bindings extend the environment, and the head is injected with `unit`
//! and accumulated with `merge`. Qualifiers evaluate strictly left-to-right
//! and depth-first, which is what gives `new`/`!`/`:=` (§4.2) their
//! state-transformer semantics: each qualifier sees the heap effects of the
//! qualifiers before it.
//!
//! The evaluator *dynamically* enforces the paper's C/I legality restriction
//! on generators (drawing from a set inside a `sum` comprehension is a
//! runtime error here and a static error in `typecheck`), so evaluation
//! never silently invents multiplicities.
//!
//! `some`/`all` comprehensions short-circuit: evaluation of an existential
//! stops at the first witness. This is semantically transparent (the monoid
//! is idempotent and the remaining merges cannot change the result) but
//! matters for the complexity of un-normalized nested queries.

use crate::error::{EvalError, EvalResult};
use crate::expr::{BinOp, Expr, Literal, Qual, UnOp};
use crate::heap::Heap;
use crate::monoid::Monoid;
use crate::symbol::Symbol;
use crate::value::{self, Closure, Env, Value};
use std::sync::Arc;

/// Evaluator state: the object heap plus a step budget that guards against
/// runaway evaluation (useful under property testing and for adversarial
/// input).
#[derive(Debug)]
pub struct Evaluator {
    pub heap: Heap,
    steps_left: u64,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::new()
    }
}

impl Evaluator {
    pub fn new() -> Evaluator {
        Evaluator { heap: Heap::new(), steps_left: u64::MAX }
    }

    /// An evaluator whose total work is bounded by `steps` AST-node visits.
    pub fn with_budget(steps: u64) -> Evaluator {
        Evaluator { heap: Heap::new(), steps_left: steps }
    }

    /// Evaluate with a pre-populated heap (e.g. a database).
    pub fn with_heap(heap: Heap) -> Evaluator {
        Evaluator { heap, steps_left: u64::MAX }
    }

    /// Evaluate a closed expression.
    pub fn eval_expr(&mut self, e: &Expr) -> EvalResult<Value> {
        self.eval(&Env::empty(), e)
    }

    fn tick(&mut self) -> EvalResult<()> {
        if self.steps_left == 0 {
            return Err(EvalError::BudgetExhausted);
        }
        self.steps_left -= 1;
        Ok(())
    }

    /// Evaluate `e` under `env`.
    pub fn eval(&mut self, env: &Env, e: &Expr) -> EvalResult<Value> {
        self.tick()?;
        match e {
            Expr::Lit(lit) => Ok(match lit {
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(x) => Value::Float(*x),
                Literal::Str(s) => Value::Str(s.clone()),
                Literal::Null => Value::Null,
            }),
            Expr::Var(v) => env
                .lookup(*v)
                .cloned()
                .ok_or(EvalError::UnboundVariable(*v)),
            // Parameters are bound into the root environment by the
            // prepared-statement layer under their `$`-prefixed name,
            // which no parsed identifier can collide with.
            Expr::Param(p) => env
                .lookup(*p)
                .cloned()
                .ok_or(EvalError::UnboundParameter(*p)),
            Expr::Record(fields) => {
                let mut vals = Vec::with_capacity(fields.len());
                for (name, fe) in fields {
                    vals.push((*name, self.eval(env, fe)?));
                }
                Ok(Value::record(vals))
            }
            Expr::Tuple(items) => {
                let vals = items
                    .iter()
                    .map(|i| self.eval(env, i))
                    .collect::<EvalResult<Vec<_>>>()?;
                Ok(Value::tuple(vals))
            }
            Expr::Proj(inner, field) => {
                let v = self.eval(env, inner)?;
                self.project(&v, *field)
            }
            Expr::TupleProj(inner, idx) => {
                let v = self.eval(env, inner)?;
                project_tuple(&v, *idx)
            }
            Expr::BinOp(op, lhs, rhs) => self.eval_binop(env, *op, lhs, rhs),
            Expr::UnOp(op, inner) => self.eval_unop(env, *op, inner),
            Expr::If(cond, then, els) => {
                if self.eval(env, cond)?.as_bool()? {
                    self.eval(env, then)
                } else {
                    self.eval(env, els)
                }
            }
            Expr::Lambda(param, body) => Ok(Value::Closure(Arc::new(Closure::new(
                *param,
                body.as_ref().clone(),
                env.clone(),
            )))),
            Expr::Apply(f, arg) => {
                let fv = self.eval(env, f)?;
                let av = self.eval(env, arg)?;
                self.apply(&fv, av)
            }
            Expr::Let(v, def, body) => {
                let dv = self.eval(env, def)?;
                self.eval(&env.bind(*v, dv), body)
            }
            Expr::Zero(m) => value::zero(m),
            Expr::Unit(m, inner) => {
                let v = self.eval(env, inner)?;
                value::unit(m, v)
            }
            Expr::Merge(m, a, b) => {
                let av = self.eval(env, a)?;
                let bv = self.eval(env, b)?;
                value::merge(m, &av, &bv)
            }
            Expr::CollLit(m, items) => {
                let vals = items
                    .iter()
                    .map(|i| self.eval(env, i))
                    .collect::<EvalResult<Vec<_>>>()?;
                match m {
                    Monoid::List => Ok(Value::list(vals)),
                    Monoid::Set => Ok(Value::set_from(vals)),
                    Monoid::Bag => Ok(Value::bag_from(vals)),
                    // build by folding merges of units, exactly the sugar.
                    other => {
                        let mut acc = value::zero(other)?;
                        for v in vals {
                            let u = value::unit(other, v)?;
                            acc = value::merge(other, &acc, &u)?;
                        }
                        Ok(acc)
                    }
                }
            }
            Expr::VecLit(items) => {
                let vals = items
                    .iter()
                    .map(|i| self.eval(env, i))
                    .collect::<EvalResult<Vec<_>>>()?;
                Ok(Value::vector(vals))
            }
            Expr::Hom { monoid, var, body, source } => {
                let src = self.eval(env, source)?;
                self.check_generator_legality(&src, monoid)?;
                let mut acc = value::Accumulator::new(monoid)?;
                for elem in src.elements()? {
                    let benv = env.bind(*var, elem);
                    let bv = self.eval(&benv, body)?;
                    acc.merge_value(bv)?;
                    if acc.absorbed() {
                        break;
                    }
                }
                acc.finish()
            }
            Expr::Comp { monoid, head, quals } => {
                if matches!(monoid, Monoid::VecOf(_)) {
                    return Err(EvalError::Other(
                        "vector-monoid comprehensions use the VecComp form".into(),
                    ));
                }
                let mut acc = value::Accumulator::new(monoid)?;
                self.run_quals(env.clone(), quals, monoid, &mut |ev, qenv| {
                    let h = ev.eval(qenv, head)?;
                    acc.push_unit(h)?;
                    Ok(!acc.absorbed())
                })?;
                acc.finish()
            }
            Expr::VecComp { elem_monoid, size, value: val_e, index: idx_e, quals } => {
                let n = usize::try_from(self.eval(env, size)?.as_int()?).map_err(|_| {
                    EvalError::Other("vector comprehension size must be non-negative".into())
                })?;
                let out_monoid = Monoid::VecOf(Box::new(elem_monoid.clone()));
                // Slots fill lazily: a `zero` for nested vector monoids has
                // no intrinsic size, so untouched slots materialize their
                // zero only at the end (and error for `M[n][m]` elements,
                // which must be written at every index).
                let mut slots: Vec<Option<Value>> = vec![None; n];
                self.run_quals(env.clone(), quals, &out_monoid, &mut |ev, qenv| {
                    let v = ev.eval(qenv, val_e)?;
                    let i = ev.eval(qenv, idx_e)?.as_int()?;
                    let iu = usize::try_from(i)
                        .ok()
                        .filter(|iu| *iu < n)
                        .ok_or(EvalError::IndexOutOfBounds { index: i, len: n })?;
                    // A vector-element head is already an `M[n]` value;
                    // scalar/collection heads inject via `unit`.
                    let u = match elem_monoid {
                        Monoid::VecOf(_) => v,
                        _ => value::unit(elem_monoid, v)?,
                    };
                    slots[iu] = Some(match slots[iu].take() {
                        None => u,
                        Some(prev) => value::merge(elem_monoid, &prev, &u)?,
                    });
                    Ok(true)
                })?;
                let items = slots
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| match s {
                        Some(v) => Ok(v),
                        None => value::zero(elem_monoid).map_err(|_| {
                            EvalError::Other(format!(
                                "vector comprehension left index {i} unwritten and \
                                 {elem_monoid} has no sized zero"
                            ))
                        }),
                    })
                    .collect::<EvalResult<Vec<_>>>()?;
                Ok(Value::vector(items))
            }
            Expr::VecIndex(vec_e, idx_e) => {
                let vv = self.eval(env, vec_e)?;
                let i = self.eval(env, idx_e)?.as_int()?;
                let items = match &vv {
                    Value::Vector(items) | Value::List(items) => items,
                    other => {
                        return Err(EvalError::TypeMismatch {
                            op: "index",
                            detail: format!("expected vector, got {}", other.kind()),
                        })
                    }
                };
                usize::try_from(i)
                    .ok()
                    .and_then(|iu| items.get(iu))
                    .cloned()
                    .ok_or(EvalError::IndexOutOfBounds { index: i, len: items.len() })
            }
            Expr::New(state) => {
                let sv = self.eval(env, state)?;
                Ok(Value::Obj(self.heap.alloc(sv)))
            }
            Expr::Deref(inner) => {
                let v = self.eval(env, inner)?;
                deref_value(&self.heap, &v)
            }
            Expr::Assign(target, val) => {
                let tv = self.eval(env, target)?;
                let vv = self.eval(env, val)?;
                match tv {
                    Value::Obj(oid) => {
                        self.heap.set(oid, vv)?;
                        // `:=` evaluates to true so it can stand as a
                        // qualifier (paper §4.2).
                        Ok(Value::Bool(true))
                    }
                    other => Err(EvalError::TypeMismatch {
                        op: "assign",
                        detail: format!("expected object, got {}", other.kind()),
                    }),
                }
            }
        }
    }

    /// Projection with auto-deref: `e.A` on an object follows the identity
    /// to its record state first, so OQL path expressions work.
    fn project(&self, v: &Value, field: Symbol) -> EvalResult<Value> {
        project_value(&self.heap, v, field)
    }

    fn apply(&mut self, f: &Value, arg: Value) -> EvalResult<Value> {
        match f {
            Value::Closure(c) => {
                let env = c.env.bind(c.param, arg);
                self.eval(&env, &c.body)
            }
            other => Err(EvalError::TypeMismatch {
                op: "apply",
                detail: format!("expected function, got {}", other.kind()),
            }),
        }
    }

    /// The paper's legality restriction, enforced dynamically: the source
    /// collection's monoid properties must be a subset of the output
    /// monoid's.
    fn check_generator_legality(&self, source: &Value, target: &Monoid) -> EvalResult<()> {
        match source.source_monoid() {
            Some(m) if m.hom_legal_to(target) => Ok(()),
            Some(m) => Err(EvalError::Other(format!(
                "illegal homomorphism {m} → {target}: properties of {m} ({}) \
                 are not a subset of those of {target} ({})",
                m.props(),
                target.props()
            ))),
            None => Err(EvalError::TypeMismatch {
                op: "generator",
                detail: format!("not a collection: {}", source.kind()),
            }),
        }
    }

    /// Walk qualifiers left-to-right; call `sink` once per satisfying
    /// binding. `sink` returns `false` to short-circuit the whole
    /// comprehension. Returns `false` if short-circuited.
    fn run_quals(
        &mut self,
        env: Env,
        quals: &[Qual],
        out_monoid: &Monoid,
        sink: &mut dyn FnMut(&mut Evaluator, &Env) -> EvalResult<bool>,
    ) -> EvalResult<bool> {
        let Some((first, rest)) = quals.split_first() else {
            return sink(self, &env);
        };
        match first {
            Qual::Gen(v, src) => {
                let sv = self.eval(&env, src)?;
                // §4.2 idiom: a generator over an object (`x ← new(1)`)
                // binds exactly once.
                if matches!(sv, Value::Obj(_)) {
                    self.tick()?;
                    return self.run_quals(env.bind(*v, sv), rest, out_monoid, sink);
                }
                self.check_generator_legality(&sv, out_monoid)?;
                for elem in sv.elements()? {
                    self.tick()?;
                    let benv = env.bind(*v, elem);
                    if !self.run_quals(benv, rest, out_monoid, sink)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Qual::VecGen { elem, index, source } => {
                let sv = self.eval(&env, source)?;
                let items = match sv {
                    Value::Vector(items) | Value::List(items) => items,
                    other => {
                        return Err(EvalError::TypeMismatch {
                            op: "vector generator",
                            detail: format!("expected vector, got {}", other.kind()),
                        })
                    }
                };
                for (i, item) in items.iter().enumerate() {
                    self.tick()?;
                    let benv = env
                        .bind(*elem, item.clone())
                        .bind(*index, Value::Int(i as i64));
                    if !self.run_quals(benv, rest, out_monoid, sink)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Qual::Bind(v, e) => {
                let bv = self.eval(&env, e)?;
                self.run_quals(env.bind(*v, bv), rest, out_monoid, sink)
            }
            Qual::Pred(p) => {
                if self.eval(&env, p)?.as_bool()? {
                    self.run_quals(env, rest, out_monoid, sink)
                } else {
                    Ok(true)
                }
            }
        }
    }

    fn eval_binop(&mut self, env: &Env, op: BinOp, lhs: &Expr, rhs: &Expr) -> EvalResult<Value> {
        // and/or short-circuit.
        match op {
            BinOp::And => {
                return Ok(Value::Bool(
                    self.eval(env, lhs)?.as_bool()? && self.eval(env, rhs)?.as_bool()?,
                ))
            }
            BinOp::Or => {
                return Ok(Value::Bool(
                    self.eval(env, lhs)?.as_bool()? || self.eval(env, rhs)?.as_bool()?,
                ))
            }
            _ => {}
        }
        let a = self.eval(env, lhs)?;
        let b = self.eval(env, rhs)?;
        binop_values(op, &a, &b)
    }

    fn eval_unop(&mut self, env: &Env, op: UnOp, inner: &Expr) -> EvalResult<Value> {
        let v = self.eval(env, inner)?;
        unop_value(op, v)
    }
}

/// Projection with auto-deref (the value-level half of `Expr::Proj`): `e.A`
/// on an object follows the identity to its record state first, so OQL path
/// expressions work. Shared by the evaluator and the fused batch engine so
/// the two agree to the byte on both results and error messages.
pub fn project_value(heap: &Heap, v: &Value, field: Symbol) -> EvalResult<Value> {
    project_ref(heap, v, field).cloned()
}

/// [`project_value`] without the clone: the field, borrowed from the
/// record or from the object's heap state.
pub fn project_ref<'a>(heap: &'a Heap, v: &'a Value, field: Symbol) -> EvalResult<&'a Value> {
    match v {
        Value::Record(_) => v.field(field).ok_or_else(|| EvalError::TypeMismatch {
            op: "projection",
            detail: format!("record has no field `{field}`"),
        }),
        Value::Obj(oid) => project_ref(heap, heap.get(*oid)?, field),
        other => Err(EvalError::TypeMismatch {
            op: "projection",
            detail: format!("cannot project `.{field}` from {}", other.kind()),
        }),
    }
}

/// `e.idx` on an evaluated tuple — the value-level half of
/// `Expr::TupleProj`, shared with the fused batch engine.
pub fn project_tuple(v: &Value, idx: usize) -> EvalResult<Value> {
    match v {
        Value::Tuple(items) => items.get(idx).cloned().ok_or_else(|| EvalError::TypeMismatch {
            op: "tuple projection",
            detail: format!("index {idx} on {}-tuple", items.len()),
        }),
        other => Err(EvalError::TypeMismatch {
            op: "tuple projection",
            detail: format!("expected tuple, got {}", other.kind()),
        }),
    }
}

/// `!e` on an evaluated object: its state in `heap` — the value-level half
/// of `Expr::Deref`, shared with the fused batch engine.
pub fn deref_value(heap: &Heap, v: &Value) -> EvalResult<Value> {
    match v {
        Value::Obj(oid) => Ok(heap.get(*oid)?.clone()),
        other => Err(EvalError::TypeMismatch {
            op: "deref",
            detail: format!("expected object, got {}", other.kind()),
        }),
    }
}

/// The strict (already-evaluated-operands) half of binary-operator
/// semantics. `And`/`Or` never reach here — they short-circuit on the
/// left operand before the right is evaluated. Shared by the evaluator
/// and the fused batch engine.
pub fn binop_values(op: BinOp, a: &Value, b: &Value) -> EvalResult<Value> {
    match op {
        BinOp::Eq => Ok(Value::Bool(a == b)),
        BinOp::Ne => Ok(Value::Bool(a != b)),
        BinOp::Lt => Ok(Value::Bool(a < b)),
        BinOp::Le => Ok(Value::Bool(a <= b)),
        BinOp::Gt => Ok(Value::Bool(a > b)),
        BinOp::Ge => Ok(Value::Bool(a >= b)),
        BinOp::Add => match (a, b) {
            // `+` doubles as string concatenation, as in OQL `||`.
            (Value::Str(x), Value::Str(y)) => {
                Ok(Value::Str(Arc::from(format!("{x}{y}").as_str())))
            }
            _ => value::merge(&Monoid::Sum, a, b),
        },
        BinOp::Sub => num_op("-", a, b, i64::checked_sub, |x, y| x - y),
        BinOp::Mul => value::merge(&Monoid::Prod, a, b),
        BinOp::Div => match (a, b) {
            (_, Value::Int(0)) => Err(EvalError::Arithmetic("division by zero".into())),
            _ => num_op("/", a, b, i64::checked_div, |x, y| x / y),
        },
        BinOp::Mod => match (a, b) {
            (_, Value::Int(0)) => Err(EvalError::Arithmetic("modulo by zero".into())),
            _ => num_op("%", a, b, i64::checked_rem, |x, y| x % y),
        },
        BinOp::Like => match (a, b) {
            (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(like_match(s, p)?)),
            _ => Err(EvalError::TypeMismatch {
                op: "like",
                detail: format!("expected strings, got {} and {}", a.kind(), b.kind()),
            }),
        },
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops are handled by the caller"),
    }
}

/// The value-level half of unary-operator semantics, shared by the
/// evaluator and the fused batch engine.
pub fn unop_value(op: UnOp, v: Value) -> EvalResult<Value> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
        UnOp::Neg => match v {
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| EvalError::Arithmetic("negation overflow".into())),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(EvalError::TypeMismatch {
                op: "negate",
                detail: format!("expected number, got {}", other.kind()),
            }),
        },
        UnOp::Element => {
            let elems = v.elements()?;
            if elems.len() == 1 {
                Ok(elems.into_iter().next().expect("len checked"))
            } else {
                Err(EvalError::ElementCardinality(elems.len()))
            }
        }
        UnOp::ToBag => value::coerce_to_bag(&v),
        UnOp::ToList => value::coerce_to_list(&v),
        UnOp::ToSet => value::coerce_to_set(&v),
        UnOp::VecLen => match v {
            Value::Vector(items) | Value::List(items) => Ok(Value::Int(items.len() as i64)),
            other => Err(EvalError::TypeMismatch {
                op: "veclen",
                detail: format!("expected vector, got {}", other.kind()),
            }),
        },
        UnOp::Reverse => match v {
            Value::List(items) => {
                let mut out = items.as_ref().clone();
                out.reverse();
                Ok(Value::list(out))
            }
            Value::Vector(items) => {
                let mut out = items.as_ref().clone();
                out.reverse();
                Ok(Value::vector(out))
            }
            other => Err(EvalError::TypeMismatch {
                op: "reverse",
                detail: format!("expected list or vector, got {}", other.kind()),
            }),
        },
        UnOp::IsNull => Ok(Value::Bool(matches!(v, Value::Null))),
    }
}

fn num_op(
    op: &'static str,
    a: &Value,
    b: &Value,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> EvalResult<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| EvalError::Arithmetic(format!("{op} overflow"))),
        (Value::Int(x), Value::Float(y)) => Ok(Value::Float(float_op(*x as f64, *y))),
        (Value::Float(x), Value::Int(y)) => Ok(Value::Float(float_op(*x, *y as f64))),
        (Value::Float(x), Value::Float(y)) => Ok(Value::Float(float_op(*x, *y))),
        _ => Err(EvalError::TypeMismatch {
            op,
            detail: format!("expected numbers, got {} and {}", a.kind(), b.kind()),
        }),
    }
}

/// One token of a parsed `like` pattern.
enum LikeTok {
    /// Match exactly this character.
    Lit(char),
    /// `_`: match any single character.
    One,
    /// `%`: match any (possibly empty) run of characters.
    Many,
}

/// Tokenize a `like` pattern. `\` escapes the next character (so `\%`,
/// `\_`, and `\\` are literals); a pattern ending in a bare `\` is an
/// error rather than a silent literal.
fn parse_like(pattern: &str) -> EvalResult<Vec<LikeTok>> {
    let mut toks = Vec::new();
    let mut chars = pattern.chars();
    while let Some(c) = chars.next() {
        match c {
            '%' => toks.push(LikeTok::Many),
            '_' => toks.push(LikeTok::One),
            '\\' => match chars.next() {
                Some(lit) => toks.push(LikeTok::Lit(lit)),
                None => {
                    return Err(EvalError::Other(
                        "`like` pattern ends with a dangling `\\` escape".into(),
                    ))
                }
            },
            lit => toks.push(LikeTok::Lit(lit)),
        }
    }
    Ok(toks)
}

/// OQL `like` matching: `%` matches any (possibly empty) substring, `_`
/// matches exactly one character, and `\c` matches `c` literally. Errors
/// on a pattern ending in a bare `\`.
pub fn like_match(s: &str, pattern: &str) -> EvalResult<bool> {
    let toks = parse_like(pattern)?;
    let chars: Vec<char> = s.chars().collect();
    let n = chars.len();
    // dp[i] ⇔ chars[i..] matches the token suffix processed so far;
    // tokens are folded in from the end of the pattern.
    let mut dp = vec![false; n + 1];
    dp[n] = true;
    for tok in toks.iter().rev() {
        let mut next = vec![false; n + 1];
        match tok {
            LikeTok::Many => {
                // `%` then rest: rest may start at any position ≥ i.
                let mut any = false;
                for i in (0..=n).rev() {
                    any = any || dp[i];
                    next[i] = any;
                }
            }
            LikeTok::One => next[..n].copy_from_slice(&dp[1..]),
            LikeTok::Lit(c) => {
                for i in 0..n {
                    next[i] = chars[i] == *c && dp[i + 1];
                }
            }
        }
        dp = next;
    }
    Ok(dp[0])
}

/// Convenience: evaluate a closed expression with a fresh evaluator.
pub fn eval_closed(e: &Expr) -> EvalResult<Value> {
    Evaluator::new().eval_expr(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::Int(i)).collect()
    }

    /// Paper §2.4: set{ (a,b) | a ← [1,2,3], b ← {{4,5}} } joins a list
    /// with a bag and returns a set.
    #[test]
    fn paper_mixed_collection_join() {
        let e = Expr::comp(
            Monoid::Set,
            Expr::Tuple(vec![Expr::var("a"), Expr::var("b")]),
            vec![
                Expr::gen("a", Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)])),
                Expr::gen("b", Expr::bag_of(vec![Expr::int(4), Expr::int(5)])),
            ],
        );
        let v = eval_closed(&e).unwrap();
        let expected = Value::set_from(vec![
            Value::tuple(ints(&[1, 4])),
            Value::tuple(ints(&[1, 5])),
            Value::tuple(ints(&[2, 4])),
            Value::tuple(ints(&[2, 5])),
            Value::tuple(ints(&[3, 4])),
            Value::tuple(ints(&[3, 5])),
        ]);
        assert_eq!(v, expected);
    }

    #[test]
    fn like_supports_percent_underscore_and_escapes() {
        // `%`: any run.
        assert!(like_match("hotel", "h%l").unwrap());
        assert!(like_match("hotel", "%").unwrap());
        assert!(!like_match("hotel", "h%x").unwrap());
        // `_`: exactly one character.
        assert!(like_match("hotel", "h_tel").unwrap());
        assert!(like_match("hotel", "_____").unwrap());
        assert!(!like_match("hotel", "______").unwrap());
        assert!(!like_match("hotel", "h_el").unwrap());
        // `\%` and `\_` are literals; `\\` is a literal backslash.
        assert!(like_match("a%b", r"a\%b").unwrap());
        assert!(!like_match("axb", r"a\%b").unwrap());
        assert!(like_match("a_b", r"a\_b").unwrap());
        assert!(!like_match("axb", r"a\_b").unwrap());
        assert!(like_match(r"a\b", r"a\\b").unwrap());
        // Wildcards combine.
        assert!(like_match("hotel_3_2", r"hotel\__\_%").unwrap());
        // Exact match still works with no wildcards at all.
        assert!(like_match("abc", "abc").unwrap());
        assert!(!like_match("abc", "abd").unwrap());
    }

    #[test]
    fn like_trailing_escape_is_an_error() {
        assert!(like_match("anything", r"abc\").is_err());
        // …including through the evaluator's `like` operator.
        let e = Expr::str("abc").like(Expr::str("abc\\"));
        assert!(eval_closed(&e).is_err());
    }

    /// Paper §2.4: sum{ a | a ← [1,2,3], a ≤ 2 } = 3.
    #[test]
    fn paper_sum_with_predicate() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("a"),
            vec![
                Expr::gen("a", Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)])),
                Expr::pred(Expr::var("a").le(Expr::int(2))),
            ],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(3));
    }

    /// Paper §2.4: set{ (x,y) | x ← [1,2], y ← {{3,4,3}} } de-duplicates.
    #[test]
    fn paper_set_comprehension_dedups() {
        let e = Expr::comp(
            Monoid::Set,
            Expr::Tuple(vec![Expr::var("x"), Expr::var("y")]),
            vec![
                Expr::gen("x", Expr::list_of(vec![Expr::int(1), Expr::int(2)])),
                Expr::gen(
                    "y",
                    Expr::bag_of(vec![Expr::int(3), Expr::int(4), Expr::int(3)]),
                ),
            ],
        );
        let v = eval_closed(&e).unwrap();
        assert_eq!(v.len().unwrap(), 4);
    }

    #[test]
    fn sum_over_set_is_illegal_at_runtime() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("a"),
            vec![Expr::gen("a", Expr::set_of(vec![Expr::int(1), Expr::int(2)]))],
        );
        assert!(eval_closed(&e).is_err());
    }

    #[test]
    fn sum_over_bag_is_legal() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("a", Expr::bag_of(vec![Expr::int(7), Expr::int(7)]))],
        );
        // bag cardinality, the paper's canonical legal example.
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(2));
    }

    #[test]
    fn set_to_sorted_list_is_legal() {
        // The conversion the paper explicitly allows: set → sorted.
        let e = Expr::comp(
            Monoid::Sorted,
            Expr::var("a"),
            vec![Expr::gen("a", Expr::set_of(vec![Expr::int(3), Expr::int(1), Expr::int(2)]))],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::list(ints(&[1, 2, 3])));
    }

    #[test]
    fn set_to_plain_list_is_illegal() {
        let e = Expr::comp(
            Monoid::List,
            Expr::var("a"),
            vec![Expr::gen("a", Expr::set_of(vec![Expr::int(1)]))],
        );
        assert!(eval_closed(&e).is_err());
    }

    #[test]
    fn some_short_circuits() {
        // some{ x = 1 | x ← [1, boom…] } must not touch the rest once true…
        // observable through the step budget: a tight budget suffices.
        let big: Vec<Expr> = (0..10_000).map(Expr::int).collect();
        let mut items = vec![Expr::int(-1)];
        items.extend(big);
        let e = Expr::comp(
            Monoid::Some,
            Expr::var("x").eq(Expr::int(-1)),
            vec![Expr::gen("x", Expr::list_of(items))],
        );
        // Budget generous enough to build the literal but not to scan it
        // 10k times over: evaluation must stop at the first witness.
        let mut ev = Evaluator::with_budget(50_000);
        assert_eq!(ev.eval_expr(&e).unwrap(), Value::Bool(true));
    }

    #[test]
    fn bind_qualifier_names_intermediate() {
        // sum{ y | x ← [1,2], y ≡ x * 10 } = 30
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("y"),
            vec![
                Expr::gen("x", Expr::list_of(vec![Expr::int(1), Expr::int(2)])),
                Expr::bind("y", Expr::var("x").mul(Expr::int(10))),
            ],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(30));
    }

    #[test]
    fn empty_quals_primitive_is_identity() {
        let e = Expr::comp(Monoid::Sum, Expr::int(42), vec![]);
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(42));
    }

    #[test]
    fn empty_quals_collection_is_unit() {
        let e = Expr::comp(Monoid::Set, Expr::int(42), vec![]);
        assert_eq!(eval_closed(&e).unwrap(), Value::set_from(ints(&[42])));
    }

    #[test]
    fn hom_is_the_primitive_fold() {
        // hom[→sum](λx. x*2)([1,2,3]) = 12
        let e = Expr::hom(
            Monoid::Sum,
            "x",
            Expr::var("x").mul(Expr::int(2)),
            Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)]),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(12));
    }

    #[test]
    fn lambda_application_and_let() {
        let e = Expr::let_(
            "f",
            Expr::lambda("x", Expr::var("x").add(Expr::int(1))),
            Expr::var("f").apply(Expr::int(41)),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(42));
    }

    #[test]
    fn closures_capture_lexically() {
        // let a = 10 in let f = λx. x + a in let a = 0 in f 1  = 11
        let e = Expr::let_(
            "a",
            Expr::int(10),
            Expr::let_(
                "f",
                Expr::lambda("x", Expr::var("x").add(Expr::var("a"))),
                Expr::let_("a", Expr::int(0), Expr::var("f").apply(Expr::int(1))),
            ),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(11));
    }

    // ---- §4.2 identity & updates: the paper's four examples ----

    #[test]
    fn paper_new_objects_are_distinct_but_states_equal() {
        // some{ !x = !y | x ← new(1), y ← new(1) } → true
        let e = Expr::comp(
            Monoid::Some,
            Expr::var("x").deref().eq(Expr::var("y").deref()),
            vec![
                Expr::gen("x", Expr::new_obj(Expr::int(1))),
                Expr::gen("y", Expr::new_obj(Expr::int(1))),
            ],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Bool(true));
        // … but x = y (identity) over distinct news → false
        let e2 = Expr::comp(
            Monoid::Some,
            Expr::var("x").eq(Expr::var("y")),
            vec![
                Expr::gen("x", Expr::new_obj(Expr::int(1))),
                Expr::gen("y", Expr::new_obj(Expr::int(1))),
            ],
        );
        assert_eq!(eval_closed(&e2).unwrap(), Value::Bool(false));
    }

    #[test]
    fn paper_aliasing_and_assignment() {
        // some{ x = y | x ← new(1), y ≡ x, y := 2 } → true
        let e = Expr::comp(
            Monoid::Some,
            Expr::var("x").eq(Expr::var("y")),
            vec![
                Expr::gen("x", Expr::new_obj(Expr::int(1))),
                Expr::bind("y", Expr::var("x")),
                Expr::pred(Expr::var("y").assign(Expr::int(2))),
            ],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Bool(true));
        // sum{ !x | x ← new(1), y ≡ x, y := 2 } → 2 (update through alias)
        let e2 = Expr::comp(
            Monoid::Sum,
            Expr::var("x").deref(),
            vec![
                Expr::gen("x", Expr::new_obj(Expr::int(1))),
                Expr::bind("y", Expr::var("x")),
                Expr::pred(Expr::var("y").assign(Expr::int(2))),
            ],
        );
        assert_eq!(eval_closed(&e2).unwrap(), Value::Int(2));
    }

    #[test]
    fn paper_assign_then_iterate_state() {
        // set{ e | x ← new([]), x := [1,2], e ← !x } → {1,2}
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("e"),
            vec![
                Expr::gen("x", Expr::new_obj(Expr::list_of(vec![]))),
                Expr::pred(
                    Expr::var("x").assign(Expr::list_of(vec![Expr::int(1), Expr::int(2)])),
                ),
                Expr::gen("e", Expr::var("x").deref()),
            ],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::set_from(ints(&[1, 2])));
    }

    #[test]
    fn paper_running_sums() {
        // list{ !x | x ← new(0), e ← [1,2,3,4], x := !x + e } → [1,3,6,10]
        let e = Expr::comp(
            Monoid::List,
            Expr::var("x").deref(),
            vec![
                Expr::gen("x", Expr::new_obj(Expr::int(0))),
                Expr::gen(
                    "e",
                    Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3), Expr::int(4)]),
                ),
                Expr::pred(
                    Expr::var("x").assign(Expr::var("x").deref().add(Expr::var("e"))),
                ),
            ],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::list(ints(&[1, 3, 6, 10])));
    }

    #[test]
    fn vector_comprehension_reverse() {
        // §4.1: vec[n]{ a [n−i−1] | a[i] ← x } reverses x.
        let x = Expr::VecLit(vec![Expr::int(10), Expr::int(20), Expr::int(30)]);
        let n = Expr::int(3);
        let e = Expr::vec_comp(
            Monoid::Sum,
            n,
            Expr::var("a"),
            Expr::int(3).sub(Expr::var("i")).sub(Expr::int(1)),
            vec![Expr::vec_gen("a", "i", x)],
        );
        assert_eq!(
            eval_closed(&e).unwrap(),
            Value::vector(ints(&[30, 20, 10]))
        );
    }

    #[test]
    fn vector_comprehension_merges_collisions() {
        // histogram-style: two hits on index 0 merge with sum.
        let e = Expr::vec_comp(
            Monoid::Sum,
            Expr::int(2),
            Expr::int(1),
            Expr::var("a").div(Expr::int(10)),
            vec![Expr::gen(
                "a",
                Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(15)]),
            )],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::vector(ints(&[2, 1])));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = Expr::int(1).div(Expr::int(0));
        assert!(matches!(eval_closed(&e), Err(EvalError::Arithmetic(_))));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let e = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("x", Expr::list_of((0..100).map(Expr::int).collect()))],
        );
        let mut ev = Evaluator::with_budget(10);
        assert!(matches!(ev.eval_expr(&e), Err(EvalError::BudgetExhausted)));
    }

    #[test]
    fn string_iteration_as_list_of_chars() {
        // string is list(char): sum{1 | c ← "abc"} = 3.
        let e = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("c", Expr::str("abc"))],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(3));
    }

    #[test]
    fn element_of_singleton() {
        let e = Expr::UnOp(
            UnOp::Element,
            Box::new(Expr::set_of(vec![Expr::int(9)])),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Int(9));
        let e2 = Expr::UnOp(
            UnOp::Element,
            Box::new(Expr::set_of(vec![Expr::int(9), Expr::int(10)])),
        );
        assert!(matches!(eval_closed(&e2), Err(EvalError::ElementCardinality(2))));
    }
}
