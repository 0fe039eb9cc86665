//! The abstract syntax of the monoid comprehension calculus.
//!
//! The term language (paper §2.4) is:
//!
//! ```text
//! e ::= c | v | e.A | ⟨A1=e1,…⟩ | (e1,…,en) | e1 op e2 | if e1 then e2 else e3
//!     | λv. e | e1 e2 | let v = e1 in e2
//!     | zero_M | unit_M(e) | e1 ⊕_M e2
//!     | hom[→M](λv. e)(u)                    -- monoid homomorphism
//!     | M{ e | q1, …, qn }                   -- monoid comprehension
//!     | M[e_n]{ e_v [ e_i ] | q1, …, qn }    -- vector comprehension (§4.1)
//!     | x[i]                                 -- vector indexing
//!     | new(e) | !e | e1 := e2               -- identity & updates (§4.2)
//! q ::= v ← e                                -- generator
//!     | a[i] ← e                             -- vector generator (§4.1)
//!     | v ≡ e                                -- binding
//!     | e                                    -- filter predicate
//! ```
//!
//! The comprehension `M{ e | q̄ }` reduces to nested homomorphisms
//! (paper §2.4):
//!
//! ```text
//! M{ e | }          =  unit_M(e)          (collection M)    /   e   (primitive M)
//! M{ e | v ← u, q̄ } =  hom[N→M](λv. M{ e | q̄ })(u)    where N is inferred from u
//! M{ e | p, q̄ }     =  if p then M{ e | q̄ } else zero_M
//! M{ e | v ≡ u, q̄ } =  M{ e | q̄ }[u/v]
//! ```
//!
//! A term's shape — which direct sub-expressions each node has, and in
//! what order — is spelled once, here: `Expr::for_each_child` and
//! `Expr::map_children` take the children in scope order (a
//! comprehension's qualifiers before its head, a `let`'s definition
//! before its body), and `Qual::expr` / `Qual::map_expr` reach a
//! qualifier's expression. Substitution, normalization and the linter
//! spell out only the nodes that bind variables and hand every other node
//! to these, so a new non-binding form is added here and in the modules
//! that give it a meaning (evaluation, typing, printing, parsing).

use crate::monoid::Monoid;
use crate::symbol::Symbol;
use std::fmt;
use std::sync::Arc;

/// Scalar literals.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// OQL `nil`; also the zero of `max`/`min`.
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "{s:?}"),
            Literal::Null => write!(f, "null"),
        }
    }
}

/// Binary operators over scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    /// OQL `like`: string pattern matching with `%` wildcards. The right
    /// operand is the pattern.
    Like,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
    /// The operator that reads the same with its operands swapped:
    /// `c < x` is `x > c`. Every other operator is returned unchanged.
    pub fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "≠",
            BinOp::Lt => "<",
            BinOp::Le => "≤",
            BinOp::Gt => ">",
            BinOp::Ge => "≥",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Like => "like",
        }
    }
}

/// Unary operators, including the documented escape-hatch coercions (which
/// are *not* homomorphisms; they are well-defined only because our sets and
/// bags are canonically ordered — see `value.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
    /// `element(e)`: the sole element of a singleton collection (OQL).
    Element,
    /// Deterministic coercion set/list/vector → bag.
    ToBag,
    /// Deterministic coercion set/bag/vector → list (canonical order).
    ToList,
    /// Deterministic coercion list/bag → set.
    ToSet,
    /// Length of a vector (`§4.1`).
    VecLen,
    /// Reverse a list or vector (used by `order by … desc` translation).
    Reverse,
    /// Is the value `null`?
    IsNull,
}

impl UnOp {
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Not => "not",
            UnOp::Neg => "-",
            UnOp::Element => "element",
            UnOp::ToBag => "to_bag",
            UnOp::ToList => "to_list",
            UnOp::ToSet => "to_set",
            UnOp::VecLen => "veclen",
            UnOp::Reverse => "reverse",
            UnOp::IsNull => "is_null",
        }
    }
}

/// A comprehension qualifier.
#[derive(Debug, Clone, PartialEq)]
pub enum Qual {
    /// Generator `v ← e`: `v` ranges over the collection `e`.
    Gen(Symbol, Expr),
    /// Vector generator `a[i] ← e` (§4.1): `a` ranges over the elements of
    /// the vector `e` with `i` bound to each element's index.
    VecGen { elem: Symbol, index: Symbol, source: Expr },
    /// Binding `v ≡ e` (the paper's variable-binding convention): `v` names
    /// the value of `e` in the rest of the comprehension.
    Bind(Symbol, Expr),
    /// Filter predicate.
    Pred(Expr),
}

/// A calculus expression. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Lit(Literal),
    Var(Symbol),
    /// A late-bound query parameter `$name` (or `$1`): a leaf whose value
    /// is supplied at execution time by a prepared statement's bindings.
    /// It has no free variables, never rewrites, and type-checks as a
    /// fresh type variable resolved per call site.
    Param(Symbol),
    /// Record construction `⟨A1=e1, …⟩`. Field order is preserved for
    /// display but semantically irrelevant.
    Record(Vec<(Symbol, Expr)>),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Field projection `e.A`; auto-dereferences objects/class instances,
    /// so path expressions like `c.hotels` work as in OQL.
    Proj(Box<Expr>, Symbol),
    /// Positional projection `e.i` on tuples.
    TupleProj(Box<Expr>, usize),
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    UnOp(UnOp, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Lambda(Symbol, Box<Expr>),
    Apply(Box<Expr>, Box<Expr>),
    Let(Symbol, Box<Expr>, Box<Expr>),
    /// `zero_M`.
    Zero(Monoid),
    /// `unit_M(e)`; for the vector monoid `M[n]` the operand is the pair
    /// `(value, index)` as in the paper's `unit sum[4](8, 2)`.
    Unit(Monoid, Box<Expr>),
    /// `e1 ⊕_M e2`.
    Merge(Monoid, Box<Expr>, Box<Expr>),
    /// Collection literal `[e1,…]` / `{e1,…}` / `{{e1,…}}` — sugar for
    /// `unit(e1) ⊕ … ⊕ unit(en)` kept as a node for readability.
    CollLit(Monoid, Vec<Expr>),
    /// Vector literal (a dense `M[n]` value).
    VecLit(Vec<Expr>),
    /// The monoid homomorphism `hom[→M](λ var. body)(source)`. The source
    /// monoid `N` is inferred from `source`'s type; legality requires
    /// `props(N) ⊆ props(M)`.
    Hom { monoid: Monoid, var: Symbol, body: Box<Expr>, source: Box<Expr> },
    /// The monoid comprehension `M{ head | quals }`.
    Comp { monoid: Monoid, head: Box<Expr>, quals: Vec<Qual> },
    /// The vector comprehension `M[size]{ value [ index ] | quals }` (§4.1):
    /// builds an `M[n]` value by merging `unit(value, index)` contributions
    /// pointwise with `M`.
    VecComp {
        elem_monoid: Monoid,
        size: Box<Expr>,
        value: Box<Expr>,
        index: Box<Expr>,
        quals: Vec<Qual>,
    },
    /// Vector indexing `x[i]`.
    VecIndex(Box<Expr>, Box<Expr>),
    /// `new(e)`: allocate an object with state `e`, returning its identity.
    New(Box<Expr>),
    /// `!e`: dereference an object.
    Deref(Box<Expr>),
    /// `e1 := e2`: update an object's state; evaluates to `true` so it can
    /// be used as a qualifier (paper §4.2).
    Assign(Box<Expr>, Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // DSL builders mirror operator names
impl Expr {
    // ---- constructors (the embedded DSL used throughout tests/benches) ----

    pub fn int(i: i64) -> Expr {
        Expr::Lit(Literal::Int(i))
    }
    pub fn float(x: f64) -> Expr {
        Expr::Lit(Literal::Float(x))
    }
    pub fn bool(b: bool) -> Expr {
        Expr::Lit(Literal::Bool(b))
    }
    pub fn str(s: &str) -> Expr {
        Expr::Lit(Literal::Str(Arc::from(s)))
    }
    pub fn null() -> Expr {
        Expr::Lit(Literal::Null)
    }
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }
    /// A late-bound parameter `$name`.
    pub fn param(name: impl Into<Symbol>) -> Expr {
        Expr::Param(name.into())
    }
    pub fn proj(self, field: impl Into<Symbol>) -> Expr {
        Expr::Proj(Box::new(self), field.into())
    }
    pub fn tproj(self, index: usize) -> Expr {
        Expr::TupleProj(Box::new(self), index)
    }
    pub fn record(fields: Vec<(&str, Expr)>) -> Expr {
        Expr::Record(fields.into_iter().map(|(n, e)| (Symbol::new(n), e)).collect())
    }
    pub fn binop(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::BinOp(op, Box::new(lhs), Box::new(rhs))
    }
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Eq, self, rhs)
    }
    pub fn like(self, pattern: Expr) -> Expr {
        Expr::binop(BinOp::Like, self, pattern)
    }
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Ne, self, rhs)
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Lt, self, rhs)
    }
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Le, self, rhs)
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Gt, self, rhs)
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Ge, self, rhs)
    }
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Add, self, rhs)
    }
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Sub, self, rhs)
    }
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Mul, self, rhs)
    }
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Div, self, rhs)
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::And, self, rhs)
    }
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::binop(BinOp::Or, self, rhs)
    }
    pub fn not(self) -> Expr {
        Expr::UnOp(UnOp::Not, Box::new(self))
    }
    pub fn if_(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then), Box::new(els))
    }
    pub fn lambda(param: impl Into<Symbol>, body: Expr) -> Expr {
        Expr::Lambda(param.into(), Box::new(body))
    }
    pub fn apply(self, arg: Expr) -> Expr {
        Expr::Apply(Box::new(self), Box::new(arg))
    }
    pub fn let_(v: impl Into<Symbol>, def: Expr, body: Expr) -> Expr {
        Expr::Let(v.into(), Box::new(def), Box::new(body))
    }
    pub fn unit(monoid: Monoid, e: Expr) -> Expr {
        Expr::Unit(monoid, Box::new(e))
    }
    pub fn merge(monoid: Monoid, a: Expr, b: Expr) -> Expr {
        Expr::Merge(monoid, Box::new(a), Box::new(b))
    }
    pub fn list_of(items: Vec<Expr>) -> Expr {
        Expr::CollLit(Monoid::List, items)
    }
    pub fn set_of(items: Vec<Expr>) -> Expr {
        Expr::CollLit(Monoid::Set, items)
    }
    pub fn bag_of(items: Vec<Expr>) -> Expr {
        Expr::CollLit(Monoid::Bag, items)
    }
    pub fn comp(monoid: Monoid, head: Expr, quals: Vec<Qual>) -> Expr {
        Expr::Comp { monoid, head: Box::new(head), quals }
    }
    pub fn hom(monoid: Monoid, var: impl Into<Symbol>, body: Expr, source: Expr) -> Expr {
        Expr::Hom { monoid, var: var.into(), body: Box::new(body), source: Box::new(source) }
    }
    pub fn vec_comp(
        elem_monoid: Monoid,
        size: Expr,
        value: Expr,
        index: Expr,
        quals: Vec<Qual>,
    ) -> Expr {
        Expr::VecComp {
            elem_monoid,
            size: Box::new(size),
            value: Box::new(value),
            index: Box::new(index),
            quals,
        }
    }
    pub fn vec_index(self, i: Expr) -> Expr {
        Expr::VecIndex(Box::new(self), Box::new(i))
    }
    pub fn new_obj(state: Expr) -> Expr {
        Expr::New(Box::new(state))
    }
    pub fn deref(self) -> Expr {
        Expr::Deref(Box::new(self))
    }
    pub fn assign(self, value: Expr) -> Expr {
        Expr::Assign(Box::new(self), Box::new(value))
    }

    /// Generator qualifier `v ← e`.
    pub fn gen(v: impl Into<Symbol>, e: Expr) -> Qual {
        Qual::Gen(v.into(), e)
    }
    /// Binding qualifier `v ≡ e`.
    pub fn bind(v: impl Into<Symbol>, e: Expr) -> Qual {
        Qual::Bind(v.into(), e)
    }
    /// Filter qualifier.
    pub fn pred(e: Expr) -> Qual {
        Qual::Pred(e)
    }
    /// Vector generator qualifier `a[i] ← e`.
    pub fn vec_gen(a: impl Into<Symbol>, i: impl Into<Symbol>, e: Expr) -> Qual {
        Qual::VecGen { elem: a.into(), index: i.into(), source: e }
    }

    /// Number of AST nodes (used to bound property tests and report
    /// normalization statistics).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Visit every sub-expression (including `self`), pre-order. A
    /// comprehension's head comes before its qualifiers (a vector
    /// comprehension's size, value and index before its qualifiers):
    /// `Prepared::params` lists parameters in this order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Comp { head, quals, .. } => {
                head.visit(f);
                quals.iter().for_each(|q| q.expr().visit(f));
            }
            Expr::VecComp { size, value, index, quals, .. } => {
                size.visit(f);
                value.visit(f);
                index.visit(f);
                quals.iter().for_each(|q| q.expr().visit(f));
            }
            _ => self.for_each_child(|child| child.visit(f)),
        }
    }

    /// Call `f` on each direct sub-expression, in scope order: a
    /// comprehension's qualifier expressions before its head; a vector
    /// comprehension's size, then its qualifiers, then its value and
    /// index; a `let`'s definition before its body; a `hom`'s body before
    /// its source; every other node's children left to right.
    pub(crate) fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Param(_) | Expr::Zero(_) => {}
            Expr::Record(fields) => fields.iter().for_each(|(_, e)| f(e)),
            Expr::Tuple(items) | Expr::CollLit(_, items) | Expr::VecLit(items) => {
                items.iter().for_each(f);
            }
            Expr::Proj(e, _)
            | Expr::TupleProj(e, _)
            | Expr::UnOp(_, e)
            | Expr::Lambda(_, e)
            | Expr::Unit(_, e)
            | Expr::New(e)
            | Expr::Deref(e) => f(e),
            Expr::BinOp(_, a, b)
            | Expr::Apply(a, b)
            | Expr::Merge(_, a, b)
            | Expr::VecIndex(a, b)
            | Expr::Assign(a, b)
            | Expr::Let(_, a, b)
            | Expr::Hom { body: a, source: b, .. } => {
                f(a);
                f(b);
            }
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Comp { head, quals, .. } => {
                quals.iter().for_each(|q| f(q.expr()));
                f(head);
            }
            Expr::VecComp { size, value, index, quals, .. } => {
                f(size);
                quals.iter().for_each(|q| f(q.expr()));
                f(value);
                f(index);
            }
        }
    }

    /// This node with each direct sub-expression replaced by `f` of it,
    /// called in [`for_each_child`](Expr::for_each_child)'s order; binders,
    /// monoids and labels are kept.
    pub(crate) fn map_children(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut g = |e: &Expr| Box::new(f(e));
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Param(_) | Expr::Zero(_) => self.clone(),
            Expr::Record(fields) => Expr::Record(fields.iter().map(|(n, e)| (*n, f(e))).collect()),
            Expr::Tuple(items) => Expr::Tuple(items.iter().map(f).collect()),
            Expr::CollLit(m, items) => Expr::CollLit(m.clone(), items.iter().map(f).collect()),
            Expr::VecLit(items) => Expr::VecLit(items.iter().map(f).collect()),
            Expr::Proj(e, field) => Expr::Proj(g(e), *field),
            Expr::TupleProj(e, i) => Expr::TupleProj(g(e), *i),
            Expr::UnOp(op, e) => Expr::UnOp(*op, g(e)),
            Expr::Lambda(v, e) => Expr::Lambda(*v, g(e)),
            Expr::Unit(m, e) => Expr::Unit(m.clone(), g(e)),
            Expr::New(e) => Expr::New(g(e)),
            Expr::Deref(e) => Expr::Deref(g(e)),
            Expr::BinOp(op, a, b) => Expr::BinOp(*op, g(a), g(b)),
            Expr::Apply(a, b) => Expr::Apply(g(a), g(b)),
            Expr::Merge(m, a, b) => Expr::Merge(m.clone(), g(a), g(b)),
            Expr::VecIndex(a, b) => Expr::VecIndex(g(a), g(b)),
            Expr::Assign(a, b) => Expr::Assign(g(a), g(b)),
            Expr::Let(v, a, b) => Expr::Let(*v, g(a), g(b)),
            Expr::If(c, t, e) => Expr::If(g(c), g(t), g(e)),
            Expr::Hom { monoid, var, body, source } => {
                let body = g(body);
                Expr::Hom { monoid: monoid.clone(), var: *var, body, source: g(source) }
            }
            Expr::Comp { monoid, head, quals } => {
                let quals = quals.iter().map(|q| q.map_expr(&mut f)).collect();
                Expr::Comp { monoid: monoid.clone(), head: Box::new(f(head)), quals }
            }
            Expr::VecComp { elem_monoid, size, value, index, quals } => {
                let size = Box::new(f(size));
                let quals = quals.iter().map(|q| q.map_expr(&mut f)).collect();
                let value = Box::new(f(value));
                let index = Box::new(f(index));
                Expr::VecComp { elem_monoid: elem_monoid.clone(), size, value, index, quals }
            }
        }
    }
}

impl Qual {
    /// The qualifier's expression: a generator's or binding's source, or a
    /// filter's predicate.
    pub(crate) fn expr(&self) -> &Expr {
        match self {
            Qual::Gen(_, e) | Qual::Bind(_, e) | Qual::Pred(e) => e,
            Qual::VecGen { source, .. } => source,
        }
    }

    /// The qualifier with its expression replaced by `f` of it and its
    /// binders kept.
    pub(crate) fn map_expr(&self, f: impl FnOnce(&Expr) -> Expr) -> Qual {
        match self {
            Qual::Gen(v, e) => Qual::Gen(*v, f(e)),
            Qual::Bind(v, e) => Qual::Bind(*v, f(e)),
            Qual::Pred(e) => Qual::Pred(f(e)),
            Qual::VecGen { elem, index, source } => {
                Qual::VecGen { elem: *elem, index: *index, source: f(source) }
            }
        }
    }

    /// Does the qualifier bind `v` (scoping it over the rest and the head)?
    pub(crate) fn binds(&self, v: Symbol) -> bool {
        match self {
            Qual::Gen(b, _) | Qual::Bind(b, _) => *b == v,
            Qual::VecGen { elem, index, .. } => *elem == v || *index == v,
            Qual::Pred(_) => false,
        }
    }

    /// Call `f` on each variable the qualifier binds, a vector generator's
    /// element before its index.
    pub(crate) fn binders_mut(&mut self, mut f: impl FnMut(&mut Symbol)) {
        match self {
            Qual::Gen(v, _) | Qual::Bind(v, _) => f(v),
            Qual::VecGen { elem, index, .. } => {
                f(elem);
                f(index);
            }
            Qual::Pred(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        // sum{ a | a ← [1,2,3], a ≤ 2 }
        let e = Expr::comp(
            Monoid::Sum,
            Expr::var("a"),
            vec![
                Expr::gen("a", Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)])),
                Expr::pred(Expr::var("a").le(Expr::int(2))),
            ],
        );
        assert!(matches!(e, Expr::Comp { monoid: Monoid::Sum, .. }));
        assert!(e.size() > 5);
    }

    #[test]
    fn visit_reaches_all_nodes() {
        let e = Expr::if_(
            Expr::bool(true),
            Expr::var("x").add(Expr::int(1)),
            Expr::int(0),
        );
        let mut count = 0;
        e.visit(&mut |_| count += 1);
        assert_eq!(count, 6); // if, true, +, x, 1, 0
    }

    #[test]
    fn size_counts_comprehension_parts() {
        let e = Expr::comp(
            Monoid::Set,
            Expr::var("x"),
            vec![Expr::gen("x", Expr::var("xs")), Expr::pred(Expr::bool(true))],
        );
        assert_eq!(e.size(), 4); // comp, head var, gen source var, pred bool
    }
}
