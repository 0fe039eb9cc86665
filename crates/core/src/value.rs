//! Runtime values, with canonical collection representations and the
//! value-level monoid operations (`zero`, `unit`, `merge`).
//!
//! Design decisions (see DESIGN.md §3):
//! * **Sets** are sorted, duplicate-free vectors; **bags** are sorted runs of
//!   `(value, count)`. This makes set/bag equality exact, iteration
//!   deterministic, and gives every value a total order ([`Value::cmp`],
//!   floats via `total_cmp`) — which in turn makes `sorted`-monoid merges,
//!   hash-free join keys, and the escape-hatch coercions well-defined.
//! * **oset / sorted / sortedbag** values are plain lists (Table 1 gives
//!   them type `list(α)`); the monoid only governs how they merge.
//! * Structure sharing via `Arc` keeps cloning cheap — environments and
//!   comprehension evaluation clone values freely. A bag goes further: its
//!   [`Runs`] are a window of a shared run vector, so a sub-bag cut from a
//!   contiguous block of another bag's runs (a range filter over a sorted
//!   lane) shares that bag's storage instead of copying it.

use crate::error::{EvalError, EvalResult};
use crate::monoid::Monoid;
use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// An object identifier: an index into the evaluator's heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A lexical environment: an immutable linked list of bindings, cheap to
/// extend and to capture in closures.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Arc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: Symbol,
    value: Value,
    rest: Env,
}

impl Env {
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extend with a binding, returning the new environment.
    pub fn bind(&self, name: Symbol, value: Value) -> Env {
        Env(Some(Arc::new(EnvNode { name, value, rest: self.clone() })))
    }

    /// Look up the innermost binding of `name`.
    pub fn lookup(&self, name: Symbol) -> Option<&Value> {
        let mut node = self.0.as_deref();
        while let Some(n) = node {
            if n.name == name {
                return Some(&n.value);
            }
            node = n.rest.0.as_deref();
        }
        None
    }

    /// Build an environment from a list of bindings.
    pub fn from_bindings(bindings: impl IntoIterator<Item = (Symbol, Value)>) -> Env {
        let mut env = Env::empty();
        for (name, value) in bindings {
            env = env.bind(name, value);
        }
        env
    }
}

/// A user-level function value.
#[derive(Debug)]
pub struct Closure {
    pub param: Symbol,
    pub body: crate::expr::Expr,
    pub env: Env,
    /// Unique id giving closures a stable place in the value total order.
    pub id: u64,
}

fn next_closure_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, AtomicOrdering::Relaxed)
}

impl Closure {
    pub fn new(param: Symbol, body: crate::expr::Expr, env: Env) -> Closure {
        Closure { param, body, env, id: next_closure_id() }
    }
}

/// A runtime value.
#[derive(Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Record; fields sorted by label name for canonical comparison. A
    /// record and a tuple are built once and never grow, so each is one
    /// allocation: the count and the fields together, one hop to a field.
    Record(Arc<[(Symbol, Value)]>),
    Tuple(Arc<[Value]>),
    List(Arc<Vec<Value>>),
    /// Sorted, duplicate-free.
    Set(Arc<Vec<Value>>),
    /// Sorted runs of `(value, count)` with `count ≥ 1`.
    Bag(Runs),
    /// Fixed-size vector (§4.1).
    Vector(Arc<Vec<Value>>),
    /// Object identity (§4.2).
    Obj(Oid),
    Closure(Arc<Closure>),
}

/// A bag's runs: the window `lo..hi` of a shared vector of `(value,
/// count)` runs. Sorted and counted, runs are a finite map from values to
/// multiplicities, and a contiguous block of them is a sub-map — so a
/// bag restricted to one block is a window of the same vector, not a
/// copy. Two `u32` bounds keep `size_of::<Value>()` at 24 bytes.
///
/// A window reads as the slice it covers ([`Deref`]); equality, order
/// and every encoding see only that slice, so a window and its copy are
/// indistinguishable. It keeps the whole vector alive for as long as it
/// lives. The one way to write is [`Runs::make_mut`], which copies the
/// window first unless it is the vector's only owner.
#[derive(Clone)]
pub struct Runs {
    all: Arc<Vec<(Value, u64)>>,
    /// The window's first run.
    lo: u32,
    /// The window's end; `u32::MAX` runs to the end of `all`, which is
    /// what a whole bag is — so [`Runs::make_mut`] may grow it.
    hi: u32,
}

const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Runs {
    /// A whole bag over `runs`, which must be sorted and counted.
    pub fn new(runs: Vec<(Value, u64)>) -> Runs {
        Runs { all: Arc::new(runs), lo: 0, hi: u32::MAX }
    }

    /// The runs `range` of this window, sharing its storage. Panics, as
    /// slicing does, when `range` is not within the window.
    pub fn window(&self, range: Range<usize>) -> Runs {
        let _ = &self[range.clone()];
        let lo = self.lo as usize + range.start;
        let end = self.lo as usize + range.end;
        let bound = |at: usize| u32::try_from(at).expect("a window lies within 2^32 runs");
        let hi = if end == self.all.len() { u32::MAX } else { bound(end) };
        Runs { all: Arc::clone(&self.all), lo: bound(lo), hi }
    }

    /// Whether `self` and `other` are windows of one vector.
    pub fn shares_storage_with(&self, other: &Runs) -> bool {
        Arc::ptr_eq(&self.all, &other.all)
    }

    /// The runs, writable: in place when this window is its vector's only
    /// owner (trimmed to the window first), a copy of the window
    /// otherwise. Nothing another window or clone sees ever changes.
    /// The whole vector is the window from here on.
    pub fn make_mut(&mut self) -> &mut Vec<(Value, u64)> {
        let (lo, end) = (self.lo as usize, self.lo as usize + self.len());
        if (lo, end) != (0, self.all.len()) {
            match Arc::get_mut(&mut self.all) {
                Some(all) => {
                    all.truncate(end);
                    all.drain(..lo);
                }
                None => self.all = Arc::new(self.iter().map(|(v, n)| (v.clone(), *n)).collect()),
            }
            (self.lo, self.hi) = (0, u32::MAX);
        }
        // A whole bag — a database's extent, on every insert — takes one
        // uniqueness check, and is copied whole if another owner holds it.
        Arc::make_mut(&mut self.all)
    }
}

impl Deref for Runs {
    type Target = [(Value, u64)];

    #[inline]
    fn deref(&self) -> &[(Value, u64)] {
        let end = self.all.len().min(self.hi as usize);
        &self.all[self.lo as usize..end]
    }
}

impl Default for Runs {
    fn default() -> Runs {
        Runs::new(Vec::new())
    }
}

impl From<Vec<(Value, u64)>> for Runs {
    fn from(runs: Vec<(Value, u64)>) -> Runs {
        Runs::new(runs)
    }
}

impl FromIterator<(Value, u64)> for Runs {
    fn from_iter<I: IntoIterator<Item = (Value, u64)>>(runs: I) -> Runs {
        Runs::new(runs.into_iter().collect())
    }
}

/// As the slice it covers: a window prints as its copy does.
impl fmt::Debug for Runs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Each scalar is copied as its own kind, inline; the rest bump a
/// reference count out of line. The derived clone dispatched over every
/// kind and measured about twice as slow copying 300 float runs.
impl Clone for Value {
    #[inline]
    fn clone(&self) -> Value {
        #[cold]
        #[inline(never)]
        fn shared(v: &Value) -> Value {
            match v {
                Value::Record(r) => Value::Record(r.clone()),
                Value::Tuple(t) => Value::Tuple(t.clone()),
                Value::List(l) => Value::List(l.clone()),
                Value::Set(s) => Value::Set(s.clone()),
                Value::Bag(b) => Value::Bag(b.clone()),
                Value::Vector(v) => Value::Vector(v.clone()),
                Value::Closure(c) => Value::Closure(c.clone()),
                Value::Null
                | Value::Bool(_)
                | Value::Int(_)
                | Value::Float(_)
                | Value::Str(_)
                | Value::Obj(_) => unreachable!("scalars are copied inline"),
            }
        }
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Int(*i),
            Value::Float(x) => Value::Float(*x),
            Value::Str(s) => Value::Str(s.clone()),
            Value::Obj(o) => Value::Obj(*o),
            other => shared(other),
        }
    }
}

impl Value {
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Build a record value; fields are sorted by label name.
    pub fn record(mut fields: Vec<(Symbol, Value)>) -> Value {
        fields.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        Value::Record(fields.into())
    }

    pub fn record_from(fields: Vec<(&str, Value)>) -> Value {
        Value::record(fields.into_iter().map(|(n, v)| (Symbol::new(n), v)).collect())
    }

    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(items.into())
    }

    pub fn list(items: Vec<Value>) -> Value {
        Value::List(shared_vec(items))
    }

    pub fn vector(items: Vec<Value>) -> Value {
        Value::Vector(Arc::new(items))
    }

    /// Build a set: sorts and deduplicates.
    pub fn set_from(mut items: Vec<Value>) -> Value {
        items.sort();
        items.dedup();
        Value::Set(shared_vec(items))
    }

    /// Build a bag from individual elements.
    pub fn bag_from(mut items: Vec<Value>) -> Value {
        items.sort();
        let mut runs: Vec<(Value, u64)> = Vec::new();
        for item in items {
            match runs.last_mut() {
                Some((v, n)) if *v == item => *n += 1,
                _ => runs.push((item, 1)),
            }
        }
        Value::Bag(Runs::new(runs))
    }

    /// Field access on records (used by projection after auto-deref).
    pub fn field(&self, name: Symbol) -> Option<&Value> {
        match self {
            Value::Record(fields) => {
                fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> EvalResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::TypeMismatch {
                op: "boolean",
                detail: format!("expected bool, got {}", other.kind()),
            }),
        }
    }

    pub fn as_int(&self) -> EvalResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(EvalError::TypeMismatch {
                op: "integer",
                detail: format!("expected int, got {}", other.kind()),
            }),
        }
    }

    /// A short human-readable name for the value's shape, for errors.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Record(_) => "record",
            Value::Tuple(_) => "tuple",
            Value::List(_) => "list",
            Value::Set(_) => "set",
            Value::Bag(_) => "bag",
            Value::Vector(_) => "vector",
            Value::Obj(_) => "object",
            Value::Closure(_) => "function",
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Tuple(_) => 5,
            Value::Record(_) => 6,
            Value::List(_) => 7,
            Value::Set(_) => 8,
            Value::Bag(_) => 9,
            Value::Vector(_) => 10,
            Value::Obj(_) => 11,
            Value::Closure(_) => 12,
        }
    }

    /// Number of elements for collections.
    pub fn len(&self) -> EvalResult<usize> {
        match self {
            Value::List(v) | Value::Set(v) | Value::Vector(v) => Ok(v.len()),
            Value::Bag(runs) => Ok(runs.iter().map(|(_, n)| *n as usize).sum()),
            Value::Str(s) => Ok(s.chars().count()),
            other => Err(EvalError::TypeMismatch {
                op: "len",
                detail: format!("not a collection: {}", other.kind()),
            }),
        }
    }

    pub fn is_empty(&self) -> EvalResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Enumerate the elements of a collection value, in canonical order.
    /// Strings iterate as single-character strings (string = list(char)).
    pub fn elements(&self) -> EvalResult<Vec<Value>> {
        match self {
            Value::List(v) | Value::Set(v) | Value::Vector(v) => Ok(v.as_ref().clone()),
            Value::Bag(runs) => {
                let mut out = Vec::new();
                for (v, n) in runs.iter() {
                    for _ in 0..*n {
                        out.push(v.clone());
                    }
                }
                Ok(out)
            }
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(&c.to_string())).collect()),
            other => Err(EvalError::TypeMismatch {
                op: "iterate",
                detail: format!("not a collection: {}", other.kind()),
            }),
        }
    }

    /// The monoid naturally associated with this collection value's shape,
    /// used by the evaluator to check generator legality dynamically (the
    /// type checker does it statically).
    pub fn source_monoid(&self) -> Option<Monoid> {
        match self {
            Value::List(_) | Value::Vector(_) | Value::Str(_) => Some(Monoid::List),
            Value::Set(_) => Some(Monoid::Set),
            Value::Bag(_) => Some(Monoid::Bag),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// A total order over all values: by shape rank, then contents. Floats
    /// use `total_cmp`; ints and floats comparing across shapes fall back to
    /// numeric comparison so `1 = 1.0` inside mixed collections behaves
    /// sensibly.
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            // The cast orders every pair it keeps apart (`-0.0 < 0 = 0.0`;
            // a NaN sorts at its end of the order). A pair it ties — the
            // int rounded onto a finite whole float — is compared exactly:
            // beyond 2^53 the cast rounds distinct ints onto one float, and
            // `2^53 < 2^53 + 1` must not both equal `2^53` as a float.
            (Int(a), Float(b)) => {
                (*a as f64).total_cmp(b).then_with(|| i128::from(*a).cmp(&(*b as i128)))
            }
            (Float(a), Int(b)) => {
                a.total_cmp(&(*b as f64)).then_with(|| (*a as i128).cmp(&i128::from(*b)))
            }
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => a[..].cmp(&b[..]),
            (Record(a), Record(b)) => {
                // Records are sorted by field name; compare field-wise with
                // names compared as strings (stable across interner runs).
                let mut ia = a.iter();
                let mut ib = b.iter();
                loop {
                    match (ia.next(), ib.next()) {
                        (None, None) => return Ordering::Equal,
                        (None, Some(_)) => return Ordering::Less,
                        (Some(_), None) => return Ordering::Greater,
                        (Some((na, va)), Some((nb, vb))) => {
                            let c = na.as_str().cmp(nb.as_str()).then_with(|| va.cmp(vb));
                            if c != Ordering::Equal {
                                return c;
                            }
                        }
                    }
                }
            }
            (List(a), List(b)) | (Set(a), Set(b)) | (Vector(a), Vector(b)) => {
                a.as_slice().cmp(b.as_slice())
            }
            (Bag(a), Bag(b)) => a[..].cmp(&b[..]),
            (Obj(a), Obj(b)) => a.cmp(b),
            (Closure(a), Closure(b)) => a.id.cmp(&b.id),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

/// `x`'s bits turned so that their unsigned order is `f64::total_cmp`'s:
/// a positive float (NaN too) gains the sign bit, a negative one has every
/// bit flipped. Each float has its own key, so `-0.0` and `0.0` differ and
/// each NaN payload is its own, as under [`Value::cmp`].
pub fn float_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

impl Value {
    /// A number's exact key: [`float_key`] of a float, or of an int that
    /// converts to `f64` exactly, so two numbers share a key exactly when
    /// [`Value::cmp`] calls them equal (`1` = `1.0`, `0` = `0.0` ≠ `-0.0`).
    /// `None` for any other value, and for an int that no float holds
    /// (beyond ±2^53), which no float equals.
    pub fn number_key(&self) -> Option<u64> {
        match self {
            Value::Float(x) => Some(float_key(*x)),
            // `as` saturates, so `i64::MAX` would round-trip through 2^63.
            Value::Int(i) => {
                let x = *i as f64;
                (x < 9_223_372_036_854_775_808.0 && x as i64 == *i).then(|| float_key(x))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list_like(
            f: &mut fmt::Formatter<'_>,
            open: &str,
            close: &str,
            items: &[Value],
        ) -> fmt::Result {
            write!(f, "{open}")?;
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "{close}")
        }
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Record(fields) => {
                write!(f, "⟨")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}={v}")?;
                }
                write!(f, "⟩")
            }
            Value::Tuple(items) => list_like(f, "(", ")", items),
            Value::List(items) => list_like(f, "[", "]", items),
            Value::Set(items) => list_like(f, "{", "}", items),
            Value::Bag(runs) => {
                write!(f, "{{{{")?;
                let mut first = true;
                for (v, n) in runs.iter() {
                    for _ in 0..*n {
                        if !first {
                            write!(f, ", ")?;
                        }
                        first = false;
                        write!(f, "{v}")?;
                    }
                }
                write!(f, "}}}}")
            }
            Value::Vector(items) => list_like(f, "⟦", "⟧", items),
            Value::Obj(oid) => write!(f, "{oid}"),
            Value::Closure(c) => write!(f, "λ{}.…", c.param),
        }
    }
}

// ---------------------------------------------------------------------------
// Value-level monoid operations.
// ---------------------------------------------------------------------------

/// `items` as a list's or a set's storage. Every empty one shares one
/// process-wide allocation: a stored object's empty collections (a new
/// hotel's `facilities` and `employees`) then cost nothing but their
/// 24-byte slot, and a monoid's zero allocates nothing.
fn shared_vec(items: Vec<Value>) -> Arc<Vec<Value>> {
    static EMPTY: OnceLock<Arc<Vec<Value>>> = OnceLock::new();
    if items.is_empty() {
        return Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())));
    }
    Arc::new(items)
}

/// `zero_M` as a value. The vector monoid needs a size and is handled by
/// [`zero_vector`].
pub fn zero(monoid: &Monoid) -> EvalResult<Value> {
    Ok(match monoid {
        Monoid::List | Monoid::OSet | Monoid::Sorted | Monoid::SortedBag => {
            Value::List(shared_vec(Vec::new()))
        }
        Monoid::Set => Value::Set(shared_vec(Vec::new())),
        Monoid::Bag => Value::Bag(Runs::default()),
        Monoid::Str => Value::str(""),
        Monoid::Sum => Value::Int(0),
        Monoid::Prod => Value::Int(1),
        // −∞ / +∞: represented as Null, absorbed by merge.
        Monoid::Max | Monoid::Min => Value::Null,
        Monoid::Some => Value::Bool(false),
        Monoid::All => Value::Bool(true),
        Monoid::VecOf(_) => {
            return Err(EvalError::Other(
                "zero of a vector monoid requires a size; use zero_vector".into(),
            ))
        }
    })
}

/// `zero_{M[n]}`: a vector of `n` copies of `zero_M`.
pub fn zero_vector(elem: &Monoid, n: usize) -> EvalResult<Value> {
    let z = zero(elem)?;
    Ok(Value::Vector(Arc::new(vec![z; n])))
}

/// `unit_M(v)`. For primitive monoids the unit is the identity injection
/// (the paper's `unit_sum(a) = a`); for collection monoids it builds a
/// singleton. Vector units are built by [`unit_vector`].
pub fn unit(monoid: &Monoid, v: Value) -> EvalResult<Value> {
    Ok(match monoid {
        Monoid::List | Monoid::OSet | Monoid::Sorted | Monoid::SortedBag => {
            Value::List(Arc::new(vec![v]))
        }
        Monoid::Set => Value::Set(Arc::new(vec![v])),
        Monoid::Bag => Value::Bag(Runs::new(vec![(v, 1)])),
        Monoid::Str => match v {
            s @ Value::Str(_) => s,
            other => {
                return Err(EvalError::TypeMismatch {
                    op: "unit_string",
                    detail: format!("expected string, got {}", other.kind()),
                })
            }
        },
        Monoid::Sum | Monoid::Prod | Monoid::Max | Monoid::Min => v,
        Monoid::Some | Monoid::All => Value::Bool(v.as_bool()?),
        Monoid::VecOf(_) => {
            return Err(EvalError::Other(
                "unit of a vector monoid takes (value, index, size); use unit_vector".into(),
            ))
        }
    })
}

/// `unit_{M[n]}(a, i)`: the paper's sparse unit vector — `zero_M` everywhere
/// except `a` at index `i` (e.g. `unit sum[4](8, 2) = (|0,0,8,0|)`).
pub fn unit_vector(elem: &Monoid, n: usize, a: Value, i: usize) -> EvalResult<Value> {
    if i >= n {
        return Err(EvalError::IndexOutOfBounds { index: i as i64, len: n });
    }
    let mut items = match zero_vector(elem, n)? {
        Value::Vector(v) => v.as_ref().clone(),
        _ => unreachable!(),
    };
    items[i] = unit(elem, a)?;
    Ok(Value::Vector(Arc::new(items)))
}

fn numeric_binop(
    op: &'static str,
    a: &Value,
    b: &Value,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> EvalResult<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| EvalError::Arithmetic(format!("{op} overflow on {x}, {y}"))),
        (Value::Int(x), Value::Float(y)) => Ok(Value::Float(float_op(*x as f64, *y))),
        (Value::Float(x), Value::Int(y)) => Ok(Value::Float(float_op(*x, *y as f64))),
        (Value::Float(x), Value::Float(y)) => Ok(Value::Float(float_op(*x, *y))),
        _ => Err(EvalError::TypeMismatch {
            op,
            detail: format!("expected numbers, got {} and {}", a.kind(), b.kind()),
        }),
    }
}

/// In-place fold for the common primitive acc/head shapes, skipping the
/// `unit` + `merge` round-trip (which rebuilds the accumulator `Value` per
/// element). Returns `false` for shapes it does not cover — mixed int/float
/// promotion, non-bool `some`/`all` heads — so those keep the exact
/// behaviour (including error text) of the generic path.
fn prim_fold_fast(monoid: &Monoid, acc: &mut Value, head: &Value) -> EvalResult<bool> {
    match (monoid, &mut *acc, head) {
        (Monoid::Sum, Value::Int(x), Value::Int(y)) => {
            let folded = x
                .checked_add(*y)
                .ok_or_else(|| EvalError::Arithmetic(format!("sum overflow on {x}, {y}")))?;
            *x = folded;
        }
        (Monoid::Sum, Value::Float(x), Value::Float(y)) => *x += y,
        (Monoid::Prod, Value::Int(x), Value::Int(y)) => {
            let folded = x
                .checked_mul(*y)
                .ok_or_else(|| EvalError::Arithmetic(format!("prod overflow on {x}, {y}")))?;
            *x = folded;
        }
        (Monoid::Prod, Value::Float(x), Value::Float(y)) => *x *= y,
        // max/min: `Null` is absorbing on either side; otherwise keep the
        // left value on ties, exactly as `merge` does.
        (Monoid::Max | Monoid::Min, _, Value::Null) => {}
        (Monoid::Max | Monoid::Min, a @ Value::Null, v) => *a = v.clone(),
        (Monoid::Max, a, v) => {
            if v > &*a {
                *a = v.clone();
            }
        }
        (Monoid::Min, a, v) => {
            if v < &*a {
                *a = v.clone();
            }
        }
        (Monoid::Some, Value::Bool(x), Value::Bool(y)) => *x = *x || *y,
        (Monoid::All, Value::Bool(x), Value::Bool(y)) => *x = *x && *y,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Merge two sorted vectors, optionally dropping duplicates.
fn sorted_merge(a: &[Value], b: &[Value], dedup: bool) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i].clone());
                if !dedup {
                    out.push(b[j].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    if dedup {
        out.dedup();
    }
    out
}

/// `a ⊕_M b`.
pub fn merge(monoid: &Monoid, a: &Value, b: &Value) -> EvalResult<Value> {
    let shape_err = |m: &Monoid| EvalError::TypeMismatch {
        op: "merge",
        detail: format!("cannot merge {} and {} with {}", a.kind(), b.kind(), m),
    };
    match monoid {
        // list ++: concatenation.
        Monoid::List => match (a, b) {
            (Value::List(x), Value::List(y)) => {
                let mut out = x.as_ref().clone();
                out.extend_from_slice(y);
                Ok(Value::List(Arc::new(out)))
            }
            _ => Err(shape_err(monoid)),
        },
        // set ∪.
        Monoid::Set => match (a, b) {
            (Value::Set(x), Value::Set(y)) => {
                Ok(Value::Set(Arc::new(sorted_merge(x, y, true))))
            }
            _ => Err(shape_err(monoid)),
        },
        // bag ⊎: additive union.
        Monoid::Bag => match (a, b) {
            (Value::Bag(x), Value::Bag(y)) => {
                let mut out: Vec<(Value, u64)> = Vec::with_capacity(x.len() + y.len());
                let (mut i, mut j) = (0, 0);
                while i < x.len() && j < y.len() {
                    match x[i].0.cmp(&y[j].0) {
                        Ordering::Less => {
                            out.push(x[i].clone());
                            i += 1;
                        }
                        Ordering::Greater => {
                            out.push(y[j].clone());
                            j += 1;
                        }
                        Ordering::Equal => {
                            out.push((x[i].0.clone(), x[i].1 + y[j].1));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&x[i..]);
                out.extend_from_slice(&y[j..]);
                Ok(Value::Bag(Runs::new(out)))
            }
            _ => Err(shape_err(monoid)),
        },
        // oset ∪̇: x ++ (y − x), the paper's duplicate-dropping append.
        Monoid::OSet => match (a, b) {
            (Value::List(x), Value::List(y)) => {
                let mut out = x.as_ref().clone();
                for item in y.iter() {
                    if !out.contains(item) {
                        out.push(item.clone());
                    }
                }
                Ok(Value::List(Arc::new(out)))
            }
            _ => Err(shape_err(monoid)),
        },
        // sorted: order-merge, duplicate-dropping (CI).
        Monoid::Sorted => match (a, b) {
            (Value::List(x), Value::List(y)) => {
                Ok(Value::List(Arc::new(sorted_merge(x, y, true))))
            }
            _ => Err(shape_err(monoid)),
        },
        // sortedbag: order-merge, duplicate-keeping (C).
        Monoid::SortedBag => match (a, b) {
            (Value::List(x), Value::List(y)) => {
                Ok(Value::List(Arc::new(sorted_merge(x, y, false))))
            }
            _ => Err(shape_err(monoid)),
        },
        Monoid::Str => match (a, b) {
            (Value::Str(x), Value::Str(y)) => {
                let mut s = String::with_capacity(x.len() + y.len());
                s.push_str(x);
                s.push_str(y);
                Ok(Value::Str(Arc::from(s.as_str())))
            }
            _ => Err(shape_err(monoid)),
        },
        Monoid::Sum => numeric_binop("sum", a, b, i64::checked_add, |x, y| x + y),
        Monoid::Prod => numeric_binop("prod", a, b, i64::checked_mul, |x, y| x * y),
        Monoid::Max => match (a, b) {
            (Value::Null, v) | (v, Value::Null) => Ok(v.clone()),
            (x, y) => Ok(if x >= y { x.clone() } else { y.clone() }),
        },
        Monoid::Min => match (a, b) {
            (Value::Null, v) | (v, Value::Null) => Ok(v.clone()),
            (x, y) => Ok(if x <= y { x.clone() } else { y.clone() }),
        },
        Monoid::Some => Ok(Value::Bool(a.as_bool()? || b.as_bool()?)),
        Monoid::All => Ok(Value::Bool(a.as_bool()? && b.as_bool()?)),
        // M[n]: pointwise merge; sizes must agree.
        Monoid::VecOf(elem) => match (a, b) {
            (Value::Vector(x), Value::Vector(y)) => {
                if x.len() != y.len() {
                    return Err(EvalError::TypeMismatch {
                        op: "merge",
                        detail: format!(
                            "vector size mismatch: {} vs {}",
                            x.len(),
                            y.len()
                        ),
                    });
                }
                let items = x
                    .iter()
                    .zip(y.iter())
                    .map(|(xa, yb)| merge(elem, xa, yb))
                    .collect::<EvalResult<Vec<_>>>()?;
                Ok(Value::Vector(Arc::new(items)))
            }
            _ => Err(shape_err(monoid)),
        },
    }
}

/// A sorting monoid's canonical form from sorted, distinct `(value,
/// count)` runs: the runs for a bag, each value once for set and sorted,
/// each value `count` times for sortedbag. Equal under [`Value::cmp`] must
/// mean identical within the runs' kind, so no representative shows.
pub fn canonical_runs(monoid: &Monoid, runs: impl Iterator<Item = (Value, u64)>) -> Value {
    match monoid {
        Monoid::Bag => Value::Bag(runs.collect()),
        Monoid::Set => Value::Set(shared_vec(runs.map(|(v, _)| v).collect())),
        Monoid::Sorted => Value::list(runs.map(|(v, _)| v).collect()),
        _ => Value::list(runs.flat_map(|(v, n)| std::iter::repeat_n(v, n as usize)).collect()),
    }
}

/// An incremental monoid accumulator.
///
/// Folding a comprehension as `acc = merge(acc, unit(x))` re-copies the
/// whole accumulator per element — `O(n²)` for collections. The
/// accumulator instead buffers elements and canonicalizes once in
/// [`Accumulator::finish`], which is observationally identical (the
/// buffered fold computes exactly `unit(x₁) ⊕ … ⊕ unit(xₙ)`) but linear
/// (up to the final sort). Primitive monoids fold directly.
#[derive(Debug)]
pub struct Accumulator(Fold);

#[derive(Debug)]
enum Fold {
    /// list: buffer in push order.
    List(Vec<Value>),
    /// bag/set/sorted/sortedbag: buffer, sort once at the end.
    Sorting { monoid: Monoid, items: Vec<Value> },
    /// oset: ordered insert-if-absent (the `∪̇` fold), with a search index.
    OSet { items: Vec<Value>, seen: std::collections::BTreeSet<Value> },
    Str(String),
    Prim { monoid: Monoid, acc: Value },
}

impl Accumulator {
    pub fn new(monoid: &Monoid) -> EvalResult<Accumulator> {
        Ok(Accumulator(match monoid {
            Monoid::List => Fold::List(Vec::new()),
            Monoid::Bag | Monoid::Set | Monoid::Sorted | Monoid::SortedBag => {
                Fold::Sorting { monoid: monoid.clone(), items: Vec::new() }
            }
            Monoid::OSet => {
                Fold::OSet { items: Vec::new(), seen: std::collections::BTreeSet::new() }
            }
            Monoid::Str => Fold::Str(String::new()),
            Monoid::Sum | Monoid::Prod | Monoid::Max | Monoid::Min | Monoid::Some
            | Monoid::All => Fold::Prim { monoid: monoid.clone(), acc: zero(monoid)? },
            Monoid::VecOf(_) => {
                return Err(EvalError::Other(
                    "vector comprehensions accumulate through indexed slots".into(),
                ))
            }
        }))
    }

    /// Fold in `unit(head)`.
    pub fn push_unit(&mut self, head: Value) -> EvalResult<()> {
        match &mut self.0 {
            Fold::List(items) | Fold::Sorting { items, .. } => items.push(head),
            Fold::OSet { items, seen } => {
                if seen.insert(head.clone()) {
                    items.push(head);
                }
            }
            Fold::Str(s) => match head {
                Value::Str(piece) => s.push_str(&piece),
                other => {
                    return Err(EvalError::TypeMismatch {
                        op: "unit_string",
                        detail: format!("expected string, got {}", other.kind()),
                    })
                }
            },
            Fold::Prim { monoid, acc } => {
                if prim_fold_fast(monoid, acc, &head)? {
                    return Ok(());
                }
                let u = unit(monoid, head)?;
                *acc = merge(monoid, acc, &u)?;
            }
        }
        Ok(())
    }

    /// Fold in `unit(head)` `n` times: the monoid's `n`-fold power of the
    /// head, equal to `n` calls to [`Accumulator::push_unit`], errors
    /// included. An idempotent monoid takes the head once; an `Int` sum
    /// adds one exact product, and when that leaves the range walks the
    /// pushes, so the overflow names the partial sum the walk names. The
    /// rest push `n` times: a float sum is not a product.
    pub fn push_units(&mut self, head: Value, n: usize) -> EvalResult<()> {
        if n == 0 {
            return Ok(());
        }
        match &mut self.0 {
            Fold::Sorting { monoid: Monoid::Set | Monoid::Sorted, .. }
            | Fold::OSet { .. }
            | Fold::Prim { monoid: Monoid::Max | Monoid::Min | Monoid::Some | Monoid::All, .. } => {
                return self.push_unit(head);
            }
            Fold::Prim { monoid: Monoid::Sum, acc: Value::Int(x) } => {
                if let Value::Int(y) = head {
                    let total = i128::from(y)
                        .checked_mul(n as i128)
                        .and_then(|p| p.checked_add(i128::from(*x)))
                        .and_then(|t| i64::try_from(t).ok());
                    if let Some(total) = total {
                        *x = total;
                        return Ok(());
                    }
                }
            }
            _ => {}
        }
        for _ in 1..n {
            self.push_unit(head.clone())?;
        }
        self.push_unit(head)
    }

    /// Fold in a whole monoid value (the homomorphism fold).
    pub fn merge_value(&mut self, v: Value) -> EvalResult<()> {
        match &mut self.0 {
            Fold::List(items) | Fold::Sorting { items, .. } => items.extend(v.elements()?),
            Fold::OSet { items, seen } => {
                for e in v.elements()? {
                    if seen.insert(e.clone()) {
                        items.push(e);
                    }
                }
            }
            Fold::Str(s) => match v {
                Value::Str(piece) => s.push_str(&piece),
                other => {
                    return Err(EvalError::TypeMismatch {
                        op: "merge_string",
                        detail: format!("expected string, got {}", other.kind()),
                    })
                }
            },
            Fold::Prim { monoid, acc } => {
                *acc = merge(monoid, acc, &v)?;
            }
        }
        Ok(())
    }

    /// `some`/`all` have reached their absorbing element.
    pub fn absorbed(&self) -> bool {
        matches!(
            self.0,
            Fold::Prim { monoid: Monoid::Some, acc: Value::Bool(true) }
                | Fold::Prim { monoid: Monoid::All, acc: Value::Bool(false) }
        )
    }

    /// Canonicalize into the final monoid value.
    pub fn finish(self) -> EvalResult<Value> {
        Ok(match self.0 {
            Fold::List(items) | Fold::OSet { items, .. } => Value::list(items),
            Fold::Sorting { monoid: Monoid::Bag, items } => Value::bag_from(items),
            Fold::Sorting { monoid: Monoid::Set, items } => Value::set_from(items),
            Fold::Sorting { monoid, mut items } => {
                items.sort();
                if monoid == Monoid::Sorted {
                    items.dedup();
                }
                Value::list(items)
            }
            Fold::Str(s) => Value::str(&s),
            Fold::Prim { acc, .. } => acc,
        })
    }
}

/// Deterministic coercions (documented escape hatches outside the calculus;
/// see `UnOp::{ToBag, ToList, ToSet}`).
pub fn coerce_to_list(v: &Value) -> EvalResult<Value> {
    Ok(Value::list(v.elements()?))
}
pub fn coerce_to_bag(v: &Value) -> EvalResult<Value> {
    Ok(Value::bag_from(v.elements()?))
}
pub fn coerce_to_set(v: &Value) -> EvalResult<Value> {
    Ok(Value::set_from(v.elements()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn set_is_canonical() {
        let a = Value::set_from(ints(&[3, 1, 2, 3, 1]));
        let b = Value::set_from(ints(&[1, 2, 3]));
        assert_eq!(a, b);
        assert_eq!(a.len().unwrap(), 3);
    }

    #[test]
    fn bag_counts_duplicates() {
        let b = Value::bag_from(ints(&[4, 5, 4]));
        assert_eq!(b.len().unwrap(), 3);
        assert_eq!(b.elements().unwrap(), ints(&[4, 4, 5]));
        // Bags with same multiset content are equal regardless of build order.
        assert_eq!(b, Value::bag_from(ints(&[5, 4, 4])));
        assert_ne!(b, Value::bag_from(ints(&[4, 5])));
    }

    /// Every window of a bag — windows of windows too — is the slice it
    /// covers: equal to its copy, ordered as its copy against other
    /// bags, of its copy's length and elements, printed alike, and of
    /// the same storage as the bag it was cut from.
    #[test]
    fn runs_window_is_its_copy() {
        let mut items = ints(&[5, 1, 5, 2, 9]);
        items.extend([Value::Float(-0.0), Value::Float(0.0), Value::Float(2.5), Value::Float(2.5)]);
        items.extend([Value::str("a"), Value::str("b"), Value::str("a"), Value::Null]);
        let bag = Value::bag_from(items);
        let Value::Bag(all) = &bag else { unreachable!() };
        let n = all.len();
        let others = [bag.clone(), Value::bag_from(Vec::new()), Value::bag_from(ints(&[1, 1]))];
        for lo in 0..=n {
            for hi in lo..=n {
                let window = Value::Bag(all.window(lo..hi));
                let copy = Value::Bag(all[lo..hi].to_vec().into());
                let at = format!("{lo}..{hi}");
                assert_eq!(window, copy, "{at}");
                for other in &others {
                    assert_eq!(window.cmp(other), copy.cmp(other), "{at} against {other}");
                    assert_eq!(other.cmp(&window), other.cmp(&copy), "{other} against {at}");
                }
                assert_eq!(window.len().unwrap(), copy.len().unwrap(), "{at}");
                assert_eq!(window.elements().unwrap(), copy.elements().unwrap(), "{at}");
                assert_eq!(format!("{window:?} {window}"), format!("{copy:?} {copy}"), "{at}");
                let Value::Bag(runs) = &window else { unreachable!() };
                assert!(runs.shares_storage_with(all), "{at}");
                for sub in 0..=runs.len() {
                    let inner = runs.window(sub..runs.len());
                    assert_eq!(&inner[..], &all[lo + sub..hi], "{at} from {sub}");
                    assert!(inner.shares_storage_with(all), "{at} from {sub}");
                }
            }
        }
    }

    /// `make_mut` writes to a copy of the window while anything else
    /// holds its vector — the vector and every other window keep their
    /// runs — and in place, trimmed to the window, once nothing does.
    #[test]
    fn runs_window_make_mut_copies_only_the_window() {
        let before: Vec<(Value, u64)> = (0..6).map(|i| (Value::Int(i), 1 + i as u64)).collect();
        let all = Runs::new(before.clone());
        let other = all.window(1..5);

        let mut shared = all.window(2..4);
        shared.make_mut().push((Value::Int(99), 1));
        assert!(!shared.shares_storage_with(&all));
        assert_eq!(&shared[..2], &before[2..4]);
        assert_eq!(shared[2], (Value::Int(99), 1));
        assert_eq!(&all[..], &before[..]);
        assert_eq!(&other[..], &before[1..5]);

        // Nothing else holds the vector: trimmed in place, and then whole,
        // so it grows with what is pushed.
        let mut only = Runs::new(before.clone()).window(1..3);
        let storage = only.all.as_ptr();
        only.make_mut().push((Value::Int(7), 1));
        assert_eq!(only.all.as_ptr(), storage, "copied though it was the only owner");
        assert_eq!(&only[..2], &before[1..3]);
        assert_eq!(only.len(), 3);

        // A whole bag shared with a clone: the clone keeps its runs.
        let mut whole = all.clone();
        whole.make_mut().clear();
        assert!(whole.is_empty());
        assert_eq!(&all[..], &before[..]);
    }

    /// The sorting monoids finish by `Value::cmp`'s sort: `-0.0` and `0.0`
    /// stay apart, NaN sorts last, and where `1` meets `1.0` the head
    /// folded in first is the one kept.
    #[test]
    fn accumulator_lanes_match_the_boxed_sort() {
        let fold = |m: Monoid, heads: &[Value], merged: Option<Value>| {
            let mut acc = Accumulator::new(&m).unwrap();
            for h in heads {
                acc.push_unit(h.clone()).unwrap();
            }
            if let Some(v) = merged {
                acc.merge_value(v).unwrap();
            }
            format!("{:?}", acc.finish().unwrap())
        };
        let floats = [2.5, -0.0, f64::NAN, 0.0, 2.5].map(Value::Float);
        assert_eq!(
            fold(Monoid::Bag, &floats, None),
            "Bag([(Float(-0.0), 1), (Float(0.0), 1), (Float(2.5), 2), (Float(NaN), 1)])"
        );
        assert_eq!(
            fold(Monoid::Sorted, &floats, None),
            "List([Float(-0.0), Float(0.0), Float(2.5), Float(NaN)])"
        );
        let threes = [3.0, 1.0, 3.0].map(Value::Float);
        assert_eq!(
            fold(Monoid::SortedBag, &threes, None),
            "List([Float(1.0), Float(3.0), Float(3.0)])"
        );
        // The int came first and stays.
        let mixed = [Value::Int(1), Value::Int(3), Value::Float(1.0)];
        assert_eq!(fold(Monoid::Set, &mixed, None), "Set([Int(1), Int(3)])");
        // The float came first and stays.
        assert_eq!(
            fold(Monoid::Set, &[Value::Float(1.0), Value::Int(1)], None),
            "Set([Float(1.0)])"
        );
        // A merged value's elements count with the pushed heads.
        let merged = Value::list(ints(&[3]));
        assert_eq!(fold(Monoid::Bag, &threes[..1], Some(merged)), "Bag([(Float(3.0), 2)])");
    }

    /// `push_units(h, n)` is `n` pushes of `h`, down to the representative
    /// kept and the error text: for every monoid, after a prefix that
    /// leaves a `1` for a `1.0` to meet (or a sum near either end of the
    /// `i64` range), over heads that are floats, NaN, `-0.0`, `Null`,
    /// strings and bools.
    #[test]
    fn accumulator_push_units_is_n_pushes_for_every_monoid() {
        let monoids = [
            Monoid::List,
            Monoid::Bag,
            Monoid::Set,
            Monoid::OSet,
            Monoid::Sorted,
            Monoid::SortedBag,
            Monoid::Str,
            Monoid::Sum,
            Monoid::Prod,
            Monoid::Max,
            Monoid::Min,
            Monoid::Some,
            Monoid::All,
        ];
        let (int, float) = (Value::Int, Value::Float);
        let prefixes = [
            vec![],
            vec![int(1)],
            vec![float(1.0)],
            vec![int(i64::MAX - 3)],
            vec![int(i64::MIN + 3)],
            vec![float(-0.0), float(0.0)],
            vec![Value::str("a")],
            vec![Value::Bool(true)],
            vec![Value::Bool(false)],
            vec![Value::Null],
        ];
        let heads = [
            int(1),
            float(1.0),
            int(2),
            int(-2),
            int(i64::MAX),
            int(i64::MIN),
            float(f64::NAN),
            float(-0.0),
            float(0.1),
            Value::Null,
            Value::str("b"),
            Value::Bool(true),
            Value::Bool(false),
        ];
        // The finished value (or the error) as text, so `1` and `1.0`,
        // `-0.0` and `0.0`, and NaN payloads all show.
        let show = |acc: Result<Accumulator, EvalError>| match acc.and_then(Accumulator::finish) {
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        };
        let mut checked = 0;
        for monoid in &monoids {
            for prefix in &prefixes {
                let start = || -> Result<Accumulator, EvalError> {
                    let mut acc = Accumulator::new(monoid)?;
                    for h in prefix {
                        acc.push_unit(h.clone())?;
                    }
                    Ok(acc)
                };
                if start().is_err() {
                    continue;
                }
                for head in &heads {
                    for n in [0, 1, 2, 7] {
                        let walked = start().and_then(|mut acc| {
                            (0..n).try_for_each(|_| acc.push_unit(head.clone()))?;
                            Ok(acc)
                        });
                        let powered = start().and_then(|mut acc| {
                            acc.push_units(head.clone(), n)?;
                            Ok(acc)
                        });
                        assert_eq!(
                            show(walked),
                            show(powered),
                            "{monoid}: {prefix:?} then {n} × {head:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 13 * 4 * heads.len(), "{checked}");
        // Not vacuous: the exact product lands at `i64::MAX`, and the
        // overflow names the walk's partial sum.
        let mut acc = Accumulator::new(&Monoid::Sum).unwrap();
        acc.push_units(int(i64::MAX - 6), 1).unwrap();
        acc.push_units(int(3), 2).unwrap();
        assert_eq!(acc.finish().unwrap(), int(i64::MAX));
        let mut acc = Accumulator::new(&Monoid::Sum).unwrap();
        acc.push_units(int(i64::MAX - 3), 1).unwrap();
        let err = acc.push_units(int(2), 7).unwrap_err().to_string();
        assert!(err.contains(&format!("{}, 2", i64::MAX - 1)), "{err}");
    }

    /// The paper's oset example: [2,5,3,1] ∪̇ [3,2,6] = [2,5,3,1,6].
    #[test]
    fn paper_oset_merge() {
        let x = Value::list(ints(&[2, 5, 3, 1]));
        let y = Value::list(ints(&[3, 2, 6]));
        let r = merge(&Monoid::OSet, &x, &y).unwrap();
        assert_eq!(r, Value::list(ints(&[2, 5, 3, 1, 6])));
    }

    /// The paper's sum[4] example: merging (|0,1,2,0|) and (|3,0,2,1|)
    /// pointwise gives (|3,1,4,1|); unit sum[4](8,2) = (|0,0,8,0|).
    #[test]
    fn paper_vector_monoid_examples() {
        let m = Monoid::VecOf(Box::new(Monoid::Sum));
        let a = Value::vector(ints(&[0, 1, 2, 0]));
        let b = Value::vector(ints(&[3, 0, 2, 1]));
        assert_eq!(merge(&m, &a, &b).unwrap(), Value::vector(ints(&[3, 1, 4, 1])));
        assert_eq!(
            unit_vector(&Monoid::Sum, 4, Value::Int(8), 2).unwrap(),
            Value::vector(ints(&[0, 0, 8, 0]))
        );
        assert_eq!(zero_vector(&Monoid::Sum, 4).unwrap(), Value::vector(ints(&[0, 0, 0, 0])));
    }

    #[test]
    fn max_min_absorb_null_zero() {
        assert_eq!(merge(&Monoid::Max, &Value::Null, &Value::Int(3)).unwrap(), Value::Int(3));
        assert_eq!(merge(&Monoid::Min, &Value::Int(3), &Value::Null).unwrap(), Value::Int(3));
        assert_eq!(
            merge(&Monoid::Max, &Value::Int(3), &Value::Int(7)).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn string_monoid_concatenates() {
        let r = merge(&Monoid::Str, &Value::str("ab"), &Value::str("cd")).unwrap();
        assert_eq!(r, Value::str("abcd"));
        assert_eq!(zero(&Monoid::Str).unwrap(), Value::str(""));
    }

    #[test]
    fn sorted_merge_is_ci() {
        let x = Value::list(ints(&[1, 3, 5]));
        let y = Value::list(ints(&[1, 2, 5, 9]));
        let r = merge(&Monoid::Sorted, &x, &y).unwrap();
        assert_eq!(r, Value::list(ints(&[1, 2, 3, 5, 9])));
        // idempotence
        assert_eq!(merge(&Monoid::Sorted, &x, &x).unwrap(), x);
        // commutativity
        assert_eq!(merge(&Monoid::Sorted, &y, &x).unwrap(), r);
    }

    #[test]
    fn sortedbag_keeps_duplicates() {
        let x = Value::list(ints(&[1, 3]));
        let y = Value::list(ints(&[1, 2]));
        let r = merge(&Monoid::SortedBag, &x, &y).unwrap();
        assert_eq!(r, Value::list(ints(&[1, 1, 2, 3])));
    }

    #[test]
    fn numeric_coercion_int_float() {
        let r = merge(&Monoid::Sum, &Value::Int(1), &Value::Float(2.5)).unwrap();
        assert_eq!(r, Value::Float(3.5));
    }

    /// Beyond 2^53 the cast rounds distinct ints onto one float; the order
    /// still puts each int on its own side of that float, and keeps every
    /// order the cast already got right.
    #[test]
    fn int_float_order_is_transitive_beyond_2_pow_53() {
        let p = 1_i64 << 53;
        let (lo, hi, f) = (Value::Int(p), Value::Int(p + 1), Value::Float(p as f64));
        assert!(lo < hi);
        assert_eq!(lo, f);
        // 2^53 + 1 rounds onto 2^53 but is above it, from either side.
        assert_eq!(f.cmp(&hi), Ordering::Less);
        assert_eq!(hi.cmp(&f), Ordering::Greater);
        assert!(Value::Int(p - 1) < f);
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64), "2^63 - 1 < 2^63");
        assert!(Value::Int(i64::MIN) == Value::Float(i64::MIN as f64));
        // What the cast decided stays decided.
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Float(-f64::NAN) < Value::Int(i64::MIN));
        assert!(Value::Int(3) < Value::Float(3.5) && Value::Float(3.5) < Value::Int(4));
    }

    /// A set built from that triple in any order is one canonical,
    /// ascending value.
    #[test]
    fn set_from_is_canonical_across_int_and_float_beyond_2_pow_53() {
        let p = 1_i64 << 53;
        let (lo, hi, f) = (Value::Int(p), Value::Int(p + 1), Value::Float(p as f64));
        let orders = [
            [hi.clone(), f.clone(), lo.clone()],
            [f.clone(), lo.clone(), hi.clone()],
            [lo.clone(), hi.clone(), f.clone()],
        ];
        let sets: Vec<Value> = orders.iter().map(|o| Value::set_from(o.to_vec())).collect();
        for set in &sets {
            let Value::Set(items) = set else { panic!("{set:?}") };
            assert_eq!(items.len(), 2, "{set:?}");
            assert!(items[0] < items[1], "{set:?}");
            assert_eq!(items[1], hi, "{set:?}");
        }
        assert!(sets.windows(2).all(|w| w[0] == w[1]), "{sets:?}");
        // The equal pair is one run, kept as the one that came first.
        let bag = Value::bag_from(orders[0].to_vec());
        assert_eq!(format!("{bag:?}"), format!("Bag([({f:?}, 2), ({hi:?}, 1)])"));
    }

    #[test]
    fn sum_overflow_is_an_error() {
        let r = merge(&Monoid::Sum, &Value::Int(i64::MAX), &Value::Int(1));
        assert!(matches!(r, Err(EvalError::Arithmetic(_))));
    }

    #[test]
    fn env_shadows_innermost() {
        let x = Symbol::new("x");
        let env = Env::empty().bind(x, Value::Int(1)).bind(x, Value::Int(2));
        assert_eq!(env.lookup(x), Some(&Value::Int(2)));
        assert_eq!(env.lookup(Symbol::new("nope")), None);
    }

    #[test]
    fn total_order_across_kinds_is_consistent() {
        let mut vals = vec![
            Value::str("a"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::list(ints(&[1])),
        ];
        vals.sort();
        // Sorting twice gives the same order (total, antisymmetric).
        let again = {
            let mut v = vals.clone();
            v.sort();
            v
        };
        assert_eq!(vals, again);
        // Int/Float compare numerically.
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(2.5) < Value::Int(3));
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn record_comparison_is_field_name_stable() {
        let a = Value::record_from(vec![("x", Value::Int(1)), ("y", Value::Int(2))]);
        let b = Value::record_from(vec![("y", Value::Int(2)), ("x", Value::Int(1))]);
        assert_eq!(a, b);
    }

    #[test]
    fn coercions_are_deterministic() {
        let s = Value::set_from(ints(&[3, 1, 2]));
        assert_eq!(coerce_to_list(&s).unwrap(), Value::list(ints(&[1, 2, 3])));
        let l = Value::list(ints(&[2, 1, 2]));
        assert_eq!(coerce_to_set(&l).unwrap(), Value::set_from(ints(&[1, 2])));
        assert_eq!(coerce_to_bag(&l).unwrap(), Value::bag_from(ints(&[1, 2, 2])));
    }

    /// `float_key` orders as `total_cmp`, and two numbers share a
    /// `number_key` exactly when `Value::cmp` calls them equal: `1` =
    /// `1.0`, `0` = `0.0` ≠ `-0.0`, each NaN its own, and an int that
    /// rounds (`2^53 + 1`, `i64::MAX`) keyed by no float.
    #[test]
    fn number_keys_are_value_cmp_equality() {
        let big = 1i64 << 53;
        let mut nums: Vec<Value> = [0, 1, -1, big, big + 1, big + 2, i64::MIN, i64::MAX]
            .into_iter()
            .flat_map(|i| [Value::Int(i), Value::Float(i as f64)])
            .collect();
        let bits = [0x7ff8_0000_0000_0000, 0xfff8_0000_0000_0000, 0x7ff0_0000_0000_0001];
        nums.extend(bits.map(|b| Value::Float(f64::from_bits(b))));
        nums.extend([-0.0, 0.5, f64::INFINITY, f64::NEG_INFINITY].map(Value::Float));
        for a in &nums {
            for b in &nums {
                if let (Value::Float(x), Value::Float(y)) = (a, b) {
                    assert_eq!(float_key(*x).cmp(&float_key(*y)), x.total_cmp(y), "{x} {y}");
                }
                if let (Some(ka), Some(kb)) = (a.number_key(), b.number_key()) {
                    assert_eq!(ka == kb, a == b, "{a:?} {b:?}");
                }
            }
        }
        let keyless = [big + 1, i64::MAX].map(|i| Value::Int(i).number_key());
        assert_eq!(keyless, [None, None]);
        assert_eq!(Value::Int(i64::MIN).number_key(), Value::Float(i64::MIN as f64).number_key());
        assert_eq!(Value::str("1").number_key(), None);
    }
}
