//! The type language of the calculus.
//!
//! The paper's type system composes constructors freely (unlike nested
//! relational models where combinations are indivisible): scalars, records,
//! tuples, collections (`set(α)`, `bag(α)`, `list(α)`), fixed-size vectors
//! (§4.1), mutable objects `obj(α)` (§4.2), named classes (objects with
//! identity whose state type comes from a [`Schema`]), and functions.
//!
//! Note that the *oset*, *sorted*, and *sortedbag* monoids construct values
//! of type `list(α)` (Table 1's "type" column) — the monoid governs how the
//! value was built and what may legally consume it, while the type describes
//! its shape. Generator legality over a `list(α)` value is always safe
//! because `list`'s properties are the bottom of the C/I order.

use crate::symbol::Symbol;
use std::fmt;

/// Collection kind at the type level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    List,
    Bag,
    Set,
}

impl CollKind {
    /// The monoid whose merges are legal over values of this shape, i.e.
    /// the monoid inferred for a generator drawing from such a collection.
    pub fn monoid(self) -> crate::monoid::Monoid {
        match self {
            CollKind::List => crate::monoid::Monoid::List,
            CollKind::Bag => crate::monoid::Monoid::Bag,
            CollKind::Set => crate::monoid::Monoid::Set,
        }
    }
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollKind::List => write!(f, "list"),
            CollKind::Bag => write!(f, "bag"),
            CollKind::Set => write!(f, "set"),
        }
    }
}

/// A type of the calculus.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Bool,
    Int,
    Float,
    Str,
    /// The type of `null` (OQL `nil`, and the zero of `max`/`min`).
    /// Unifies with anything.
    Null,
    /// An inference variable.
    Var(u32),
    /// Record type `⟨A1: T1, …, An: Tn⟩`. Fields are kept sorted by label so
    /// structural equality is label-order independent.
    Record(Vec<(Symbol, Type)>),
    /// Tuple type `(T1, …, Tn)`.
    Tuple(Vec<Type>),
    /// Collection type `list(T)`, `bag(T)`, `set(T)`.
    Coll(CollKind, Box<Type>),
    /// Fixed-size vector `vector(T)` (§4.1). Sizes are dynamic.
    Vector(Box<Type>),
    /// Mutable object `obj(T)` (§4.2).
    Obj(Box<Type>),
    /// A named class: an object with identity whose state type is defined by
    /// the schema.
    Class(Symbol),
    /// Function type.
    Fn(Box<Type>, Box<Type>),
}

impl Type {
    /// Build a record type, normalizing field order.
    pub fn record(mut fields: Vec<(Symbol, Type)>) -> Type {
        fields.sort_by_key(|(name, _)| *name);
        Type::Record(fields)
    }

    pub fn list(elem: Type) -> Type {
        Type::Coll(CollKind::List, Box::new(elem))
    }
    pub fn bag(elem: Type) -> Type {
        Type::Coll(CollKind::Bag, Box::new(elem))
    }
    pub fn set(elem: Type) -> Type {
        Type::Coll(CollKind::Set, Box::new(elem))
    }
    pub fn vector(elem: Type) -> Type {
        Type::Vector(Box::new(elem))
    }
    pub fn obj(state: Type) -> Type {
        Type::Obj(Box::new(state))
    }
    pub fn func(arg: Type, ret: Type) -> Type {
        Type::Fn(Box::new(arg), Box::new(ret))
    }

    /// Look up a field in a record type.
    pub fn field(&self, name: Symbol) -> Option<&Type> {
        match self {
            Type::Record(fields) => {
                fields.iter().find(|(n, _)| *n == name).map(|(_, t)| t)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Str => write!(f, "string"),
            Type::Null => write!(f, "null"),
            Type::Var(v) => write!(f, "τ{v}"),
            Type::Record(fields) => {
                write!(f, "⟨")?;
                for (i, (name, ty)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {ty}")?;
                }
                write!(f, "⟩")
            }
            Type::Tuple(items) => {
                write!(f, "(")?;
                for (i, ty) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{ty}")?;
                }
                write!(f, ")")
            }
            Type::Coll(kind, elem) => write!(f, "{kind}({elem})"),
            Type::Vector(elem) => write!(f, "vector({elem})"),
            Type::Obj(state) => write!(f, "obj({state})"),
            Type::Class(name) => write!(f, "{name}"),
            Type::Fn(a, r) => write!(f, "({a} → {r})"),
        }
    }
}

/// A class definition: a named object type with a record state and an
/// optional extent (the named collection of all its instances, e.g. the
/// paper's `Cities`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    pub name: Symbol,
    /// The state type; always a record in practice.
    pub state: Type,
    /// The name of the class extent, if declared (`extent Cities` in ODL).
    pub extent: Option<Symbol>,
    /// Superclass, for the subtype hierarchy OQL permits.
    pub superclass: Option<Symbol>,
}

/// A database schema: class definitions plus typed named values (extents
/// and any other persistent roots).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    classes: Vec<ClassDef>,
    /// Named persistent roots: `(name, type)`. Extents of classes are
    /// registered here as `set(ClassName)`.
    names: Vec<(Symbol, Type)>,
}

impl Schema {
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Register a class; its extent (if any) becomes a named root of type
    /// `bag(ClassName)`.
    ///
    /// ODMG-93 calls extents sets, but the paper's own queries iterate
    /// extents inside `bag` comprehensions (`bag{ h.name | c ← Cities, … }`,
    /// §3.1) — which the §2.3 C/I restriction would reject for a
    /// set-typed source. An extent never contains duplicate objects, so a
    /// duplicate-free bag is observably identical, and typing extents as
    /// bags keeps every query in the paper literally well-typed. (See
    /// DESIGN.md §3.)
    pub fn add_class(&mut self, def: ClassDef) {
        if let Some(extent) = def.extent {
            self.names.push((extent, Type::bag(Type::Class(def.name))));
        }
        self.classes.push(def);
    }

    /// Register a named root of the given type.
    pub fn add_name(&mut self, name: Symbol, ty: Type) {
        self.names.push((name, ty));
    }

    pub fn class(&self, name: Symbol) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    pub fn name_type(&self, name: Symbol) -> Option<&Type> {
        self.names.iter().find(|(n, _)| *n == name).map(|(_, t)| t)
    }

    pub fn names(&self) -> &[(Symbol, Type)] {
        &self.names
    }

    /// The *flattened* state type of a class: its own state record extended
    /// with every inherited field (walking the superclass chain).
    pub fn class_state(&self, name: Symbol) -> Option<Type> {
        let def = self.class(name)?;
        let mut fields: Vec<(Symbol, Type)> = match &def.state {
            Type::Record(fs) => fs.clone(),
            other => return Some(other.clone()),
        };
        let mut current = def.superclass;
        while let Some(parent) = current {
            let pdef = self.class(parent)?;
            if let Type::Record(pfs) = &pdef.state {
                for (n, t) in pfs {
                    if !fields.iter().any(|(fname, _)| fname == n) {
                        fields.push((*n, t.clone()));
                    }
                }
            }
            current = pdef.superclass;
        }
        Some(Type::record(fields))
    }

    /// Is `sub` the same class as, or a subclass of, `sup`?
    pub fn is_subclass(&self, sub: Symbol, sup: Symbol) -> bool {
        let mut current = Some(sub);
        while let Some(c) = current {
            if c == sup {
                return true;
            }
            current = self.class(c).and_then(|d| d.superclass);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn record_field_order_is_normalized() {
        let a = Type::record(vec![(sym("b"), Type::Int), (sym("a"), Type::Bool)]);
        let b = Type::record(vec![(sym("a"), Type::Bool), (sym("b"), Type::Int)]);
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_readable() {
        let t = Type::set(Type::record(vec![(sym("name"), Type::Str)]));
        assert_eq!(format!("{t}"), "set(⟨name: string⟩)");
    }

    #[test]
    fn schema_registers_extent() {
        let mut s = Schema::new();
        s.add_class(ClassDef {
            name: sym("City"),
            state: Type::record(vec![(sym("name"), Type::Str)]),
            extent: Some(sym("Cities")),
            superclass: None,
        });
        assert_eq!(
            s.name_type(sym("Cities")),
            Some(&Type::bag(Type::Class(sym("City"))))
        );
        assert!(s.class(sym("City")).is_some());
    }

    #[test]
    fn inherited_fields_are_flattened() {
        let mut s = Schema::new();
        s.add_class(ClassDef {
            name: sym("Person"),
            state: Type::record(vec![(sym("name"), Type::Str)]),
            extent: None,
            superclass: None,
        });
        s.add_class(ClassDef {
            name: sym("Employee"),
            state: Type::record(vec![(sym("salary"), Type::Int)]),
            extent: None,
            superclass: Some(sym("Person")),
        });
        let st = s.class_state(sym("Employee")).unwrap();
        assert!(st.field(sym("name")).is_some());
        assert!(st.field(sym("salary")).is_some());
        assert!(s.is_subclass(sym("Employee"), sym("Person")));
        assert!(!s.is_subclass(sym("Person"), sym("Employee")));
    }
}
