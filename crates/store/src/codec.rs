//! Binary snapshots of values and databases.
//!
//! A compact, self-contained tagged binary format (no external format
//! crates): every [`Value`] shape except closures round-trips, as does a
//! whole [`Database`] (schema types, heap, roots). Used to persist
//! generated databases so benchmark runs can reload identical data, and as
//! a stress surface for property tests (`decode(encode(v)) == v`).
//!
//! Format: one tag byte per node, little-endian fixed-width integers,
//! `u32` length prefixes for sequences and strings.
//!
//! Decoding costs what the input's bytes cost, not what it claims:
//! nesting deeper than 256 levels is refused before it can exhaust a
//! thread's stack, and a bag stays a list of runs, so a run's count is
//! never an allocation.

use crate::database::Database;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use monoid_calculus::symbol::Symbol;
use monoid_calculus::types::{ClassDef, CollKind, Schema, Type};
use monoid_calculus::value::{Oid, Value};
use std::fmt;

/// Errors from decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-value.
    Truncated,
    /// An unknown tag byte.
    BadTag(u8),
    /// Invalid UTF-8 in a string.
    BadUtf8,
    /// Closures have no serialized form.
    Unsupported(&'static str),
    /// Values nested deeper than the decoder's fixed bound (256 levels).
    TooDeep,
    /// A bag run list [`encode_value`] never emits: a zero count, or run
    /// values not strictly ascending under `Value::cmp`.
    BadBag(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in snapshot string"),
            CodecError::Unsupported(what) => write!(f, "cannot serialize {what}"),
            CodecError::TooDeep => write!(f, "value nested deeper than {MAX_DEPTH} levels"),
            CodecError::BadBag(why) => write!(f, "malformed bag: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

/// The tag bytes of the format. The wire's `RUNS` frames name a packed
/// float column's kind by its `FLOAT` tag.
pub mod tag {
    pub const NULL: u8 = 0;
    pub const BOOL_FALSE: u8 = 1;
    pub const BOOL_TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const STR: u8 = 5;
    pub const RECORD: u8 = 6;
    pub const TUPLE: u8 = 7;
    pub const LIST: u8 = 8;
    pub const SET: u8 = 9;
    pub const BAG: u8 = 10;
    pub const VECTOR: u8 = 11;
    pub const OBJ: u8 = 12;
    // types
    pub const T_BOOL: u8 = 32;
    pub const T_INT: u8 = 33;
    pub const T_FLOAT: u8 = 34;
    pub const T_STR: u8 = 35;
    pub const T_NULL: u8 = 36;
    pub const T_VAR: u8 = 37;
    pub const T_RECORD: u8 = 38;
    pub const T_TUPLE: u8 = 39;
    pub const T_LIST: u8 = 40;
    pub const T_BAG: u8 = 41;
    pub const T_SET: u8 = 42;
    pub const T_VECTOR: u8 = 43;
    pub const T_OBJ: u8 = 44;
    pub const T_CLASS: u8 = 45;
    pub const T_FN: u8 = 46;
}

/// Deepest nesting [`decode_value`] accepts. Decoding recurses once per
/// level, and wire parameters decode on a connection thread's default
/// stack, so the bound is fixed well below what that stack can hold.
const MAX_DEPTH: usize = 256;

/// Magic bytes + version for database snapshots.
const MAGIC: &[u8; 4] = b"MCDB";
const VERSION: u8 = 1;

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// A `u32le`-length-prefixed UTF-8 string, read in place and handed to
/// `make`: the one copy is whatever `make` keeps.
fn get_str_as<T>(buf: &mut Bytes, make: impl FnOnce(&str) -> T) -> Result<T> {
    let len = get_len(buf)?;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let made = make(std::str::from_utf8(&buf[..len]).map_err(|_| CodecError::BadUtf8)?);
    buf.advance(len);
    Ok(made)
}

fn get_len(buf: &mut Bytes) -> Result<usize> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32_le() as usize)
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// Encode a value into `buf`.
pub fn encode_value(v: &Value, buf: &mut impl BufMut) -> Result<()> {
    match v {
        Value::Null => buf.put_u8(tag::NULL),
        Value::Bool(false) => buf.put_u8(tag::BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(tag::BOOL_TRUE),
        Value::Int(i) => {
            buf.put_u8(tag::INT);
            buf.put_i64_le(*i);
        }
        Value::Float(x) => {
            buf.put_u8(tag::FLOAT);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(tag::STR);
            put_str(buf, s);
        }
        Value::Record(fields) => {
            buf.put_u8(tag::RECORD);
            buf.put_u32_le(fields.len() as u32);
            for (name, fv) in fields.iter() {
                put_str(buf, name.as_str());
                encode_value(fv, buf)?;
            }
        }
        Value::Tuple(items) => {
            buf.put_u8(tag::TUPLE);
            encode_seq(items, buf)?;
        }
        Value::List(items) => {
            buf.put_u8(tag::LIST);
            encode_seq(items, buf)?;
        }
        Value::Set(items) => {
            buf.put_u8(tag::SET);
            encode_seq(items, buf)?;
        }
        Value::Bag(runs) => {
            buf.put_u8(tag::BAG);
            buf.put_u32_le(runs.len() as u32);
            for (rv, count) in runs.iter() {
                buf.put_u64_le(*count);
                encode_value(rv, buf)?;
            }
        }
        Value::Vector(items) => {
            buf.put_u8(tag::VECTOR);
            encode_seq(items, buf)?;
        }
        Value::Obj(oid) => {
            buf.put_u8(tag::OBJ);
            buf.put_u64_le(oid.0);
        }
        Value::Closure(_) => return Err(CodecError::Unsupported("closures")),
    }
    Ok(())
}

fn encode_seq(items: &[Value], buf: &mut impl BufMut) -> Result<()> {
    buf.put_u32_le(items.len() as u32);
    for i in items {
        encode_value(i, buf)?;
    }
    Ok(())
}

/// Decode one value from `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    decode_at(buf, 0)
}

/// [`decode_value`] for a value nested `depth` levels down.
fn decode_at(buf: &mut Bytes, depth: usize) -> Result<Value> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let t = get_u8(buf)?;
    Ok(match t {
        tag::NULL => Value::Null,
        tag::BOOL_FALSE => Value::Bool(false),
        tag::BOOL_TRUE => Value::Bool(true),
        tag::INT => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Value::Int(buf.get_i64_le())
        }
        tag::FLOAT => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Value::Float(buf.get_f64_le())
        }
        tag::STR => get_str_as(buf, Value::str)?,
        tag::RECORD => {
            let n = get_len(buf)?;
            let mut fields = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_str_as(buf, Symbol::new)?;
                let v = decode_at(buf, depth + 1)?;
                fields.push((name, v));
            }
            Value::record(fields)
        }
        tag::TUPLE => Value::tuple(decode_seq(buf, depth)?),
        tag::LIST => Value::list(decode_seq(buf, depth)?),
        tag::SET => Value::set_from(decode_seq(buf, depth)?),
        tag::BAG => {
            // Runs arrive exactly as `Value::Bag` holds them: kept as runs,
            // and refused unless they are what `encode_value` emits.
            let n = get_len(buf)?;
            let mut runs: Vec<(Value, u64)> = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return Err(CodecError::Truncated);
                }
                let count = buf.get_u64_le();
                push_run(&mut runs, decode_at(buf, depth + 1)?, count)?;
            }
            Value::Bag(runs.into())
        }
        tag::VECTOR => Value::vector(decode_seq(buf, depth)?),
        tag::OBJ => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Value::Obj(Oid(buf.get_u64_le()))
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Append one decoded bag run to `runs`, refusing what [`encode_value`]
/// never emits: a zero count, or a value not strictly above the previous
/// run's under `Value::cmp` ([`check_run`]). Every reader of runs checks
/// through here — the `BAG` tag, and the wire's `RUNS` frames across a
/// whole result.
pub fn push_run(runs: &mut Vec<(Value, u64)>, value: Value, count: u64) -> Result<()> {
    check_run(runs.last().map(|(prev, _)| prev), &value, count)?;
    runs.push((value, count));
    Ok(())
}

/// [`push_run`]'s rule for a run of `value` counted `count` after a run
/// of `prev`, if any: the count is nonzero, then `value` is strictly
/// above `prev`.
pub fn check_run(prev: Option<&Value>, value: &Value, count: u64) -> Result<()> {
    if count == 0 {
        return Err(CodecError::BadBag("a run with count 0"));
    }
    if prev.is_some_and(|prev| prev >= value) {
        return Err(CodecError::BadBag("runs not strictly ascending"));
    }
    Ok(())
}

/// The elements of a sequence whose tag sits `depth` levels down.
fn decode_seq(buf: &mut Bytes, depth: usize) -> Result<Vec<Value>> {
    let n = get_len(buf)?;
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        items.push(decode_at(buf, depth + 1)?);
    }
    Ok(items)
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

fn encode_type(t: &Type, buf: &mut BytesMut) {
    match t {
        Type::Bool => buf.put_u8(tag::T_BOOL),
        Type::Int => buf.put_u8(tag::T_INT),
        Type::Float => buf.put_u8(tag::T_FLOAT),
        Type::Str => buf.put_u8(tag::T_STR),
        Type::Null => buf.put_u8(tag::T_NULL),
        Type::Var(v) => {
            buf.put_u8(tag::T_VAR);
            buf.put_u32_le(*v);
        }
        Type::Record(fields) => {
            buf.put_u8(tag::T_RECORD);
            buf.put_u32_le(fields.len() as u32);
            for (n, ft) in fields {
                put_str(buf, n.as_str());
                encode_type(ft, buf);
            }
        }
        Type::Tuple(items) => {
            buf.put_u8(tag::T_TUPLE);
            buf.put_u32_le(items.len() as u32);
            for i in items {
                encode_type(i, buf);
            }
        }
        Type::Coll(kind, elem) => {
            buf.put_u8(match kind {
                CollKind::List => tag::T_LIST,
                CollKind::Bag => tag::T_BAG,
                CollKind::Set => tag::T_SET,
            });
            encode_type(elem, buf);
        }
        Type::Vector(elem) => {
            buf.put_u8(tag::T_VECTOR);
            encode_type(elem, buf);
        }
        Type::Obj(state) => {
            buf.put_u8(tag::T_OBJ);
            encode_type(state, buf);
        }
        Type::Class(name) => {
            buf.put_u8(tag::T_CLASS);
            put_str(buf, name.as_str());
        }
        Type::Fn(a, r) => {
            buf.put_u8(tag::T_FN);
            encode_type(a, buf);
            encode_type(r, buf);
        }
    }
}

fn decode_type(buf: &mut Bytes) -> Result<Type> {
    let t = get_u8(buf)?;
    Ok(match t {
        tag::T_BOOL => Type::Bool,
        tag::T_INT => Type::Int,
        tag::T_FLOAT => Type::Float,
        tag::T_STR => Type::Str,
        tag::T_NULL => Type::Null,
        tag::T_VAR => {
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            Type::Var(buf.get_u32_le())
        }
        tag::T_RECORD => {
            let n = get_len(buf)?;
            let mut fields = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_str_as(buf, Symbol::new)?;
                fields.push((name, decode_type(buf)?));
            }
            Type::Record(fields)
        }
        tag::T_TUPLE => {
            let n = get_len(buf)?;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_type(buf)?);
            }
            Type::Tuple(items)
        }
        tag::T_LIST => Type::list(decode_type(buf)?),
        tag::T_BAG => Type::bag(decode_type(buf)?),
        tag::T_SET => Type::set(decode_type(buf)?),
        tag::T_VECTOR => Type::vector(decode_type(buf)?),
        tag::T_OBJ => Type::obj(decode_type(buf)?),
        tag::T_CLASS => Type::Class(get_str_as(buf, Symbol::new)?),
        tag::T_FN => {
            let a = decode_type(buf)?;
            let r = decode_type(buf)?;
            Type::func(a, r)
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

// ---------------------------------------------------------------------------
// Databases
// ---------------------------------------------------------------------------

/// Serialize a whole database (schema, heap, roots) into bytes.
pub fn encode_database(db: &Database) -> Result<Bytes> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    // Schema: classes then extra roots' types are re-derivable; we encode
    // class defs and named root values (values carry their own shapes).
    let classes = db.schema().classes();
    buf.put_u32_le(classes.len() as u32);
    for c in classes {
        put_str(&mut buf, c.name.as_str());
        encode_type(&c.state, &mut buf);
        match c.extent {
            Some(e) => {
                buf.put_u8(1);
                put_str(&mut buf, e.as_str());
            }
            None => buf.put_u8(0),
        }
        match c.superclass {
            Some(s) => {
                buf.put_u8(1);
                put_str(&mut buf, s.as_str());
            }
            None => buf.put_u8(0),
        }
    }
    // Heap.
    buf.put_u32_le(db.heap().len() as u32);
    for (_, state) in db.heap().iter() {
        encode_value(state, &mut buf)?;
    }
    // Roots.
    let roots: Vec<_> = db.roots().collect();
    buf.put_u32_le(roots.len() as u32);
    for (name, v) in roots {
        put_str(&mut buf, name.as_str());
        encode_value(v, &mut buf)?;
    }
    Ok(buf.freeze())
}

/// Reconstruct a database from bytes produced by [`encode_database`].
pub fn decode_database(bytes: &[u8]) -> Result<Database> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < 5 {
        return Err(CodecError::Truncated);
    }
    let magic = buf.copy_to_bytes(4);
    if magic.as_ref() != MAGIC {
        return Err(CodecError::BadTag(magic[0]));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CodecError::BadTag(version));
    }
    let n_classes = get_len(&mut buf)?;
    let mut schema = Schema::new();
    for _ in 0..n_classes {
        let name = get_str_as(&mut buf, Symbol::new)?;
        let state = decode_type(&mut buf)?;
        let extent = if get_u8(&mut buf)? == 1 {
            Some(get_str_as(&mut buf, Symbol::new)?)
        } else {
            None
        };
        let superclass = if get_u8(&mut buf)? == 1 {
            Some(get_str_as(&mut buf, Symbol::new)?)
        } else {
            None
        };
        schema.add_class(ClassDef { name, state, extent, superclass });
    }
    let mut db = Database::new(schema);
    let n_heap = get_len(&mut buf)?;
    for _ in 0..n_heap {
        let state = decode_value(&mut buf)?;
        db.heap_mut().alloc(state);
    }
    let n_roots = get_len(&mut buf)?;
    for _ in 0..n_roots {
        let name = get_str_as(&mut buf, Symbol::new)?;
        let v = decode_value(&mut buf)?;
        db.set_root(name, v);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::travel::{self, TravelScale};
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = BytesMut::new();
        encode_value(v, &mut buf).unwrap();
        let mut bytes = buf.freeze();
        let out = decode_value(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0, "no trailing bytes");
        out
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-7),
            Value::Float(2.5),
            Value::str("héllo"),
            Value::Obj(Oid(9)),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn nested_collections_roundtrip() {
        let v = Value::record_from(vec![
            ("xs", Value::list(vec![Value::Int(1), Value::Int(2)])),
            ("s", Value::set_from(vec![Value::Int(3), Value::Int(3), Value::Int(1)])),
            (
                "b",
                Value::bag_from(vec![Value::str("a"), Value::str("a"), Value::str("b")]),
            ),
            ("t", Value::tuple(vec![Value::Null, Value::Bool(true)])),
            ("v", Value::vector(vec![Value::Float(1.0)])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = BytesMut::new();
        encode_value(&Value::Int(5), &mut buf).unwrap();
        let full = buf.freeze();
        let mut cut = full.slice(0..full.len() - 1);
        assert_eq!(decode_value(&mut cut), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_errors() {
        let mut bytes = Bytes::from_static(&[0xee]);
        assert_eq!(decode_value(&mut bytes), Err(CodecError::BadTag(0xee)));
    }

    #[test]
    fn nesting_past_the_bound_is_refused() {
        // `levels` list tags of one element each, around a null.
        let nested = |levels: usize| {
            let mut buf = BytesMut::new();
            for _ in 0..levels {
                buf.put_u8(tag::LIST);
                buf.put_u32_le(1);
            }
            buf.put_u8(tag::NULL);
            decode_value(&mut buf.freeze())
        };
        let deepest = nested(MAX_DEPTH).expect("the bound itself decodes");
        assert_eq!(roundtrip(&deepest), deepest);
        assert_eq!(nested(MAX_DEPTH + 1), Err(CodecError::TooDeep));
        // Far past any thread's stack, refused just the same.
        assert_eq!(nested(100_000), Err(CodecError::TooDeep));
    }

    #[test]
    fn bags_decode_as_runs_and_refuse_what_encode_never_emits() {
        // A BAG tag and its `(count, Int)` runs, as raw bytes.
        let bag = |runs: &[(u64, i64)]| {
            let mut buf = BytesMut::new();
            buf.put_u8(tag::BAG);
            buf.put_u32_le(runs.len() as u32);
            for (count, v) in runs {
                buf.put_u64_le(*count);
                encode_value(&Value::Int(*v), &mut buf).unwrap();
            }
            decode_value(&mut buf.freeze())
        };
        // 22 bytes claiming u64::MAX copies: one run, nothing expanded.
        let huge = Value::Bag(vec![(Value::Int(7), u64::MAX)].into());
        assert_eq!(bag(&[(u64::MAX, 7)]), Ok(huge));
        let ints = |xs: &[i64]| Value::bag_from(xs.iter().copied().map(Value::Int).collect());
        assert_eq!(bag(&[(2, 1), (1, 3)]), Ok(ints(&[1, 3, 1])));
        for bad in [&[(1, 3), (1, 1)][..], &[(1, 2), (1, 2)], &[(1, 1), (0, 2)]] {
            assert!(matches!(bag(bad), Err(CodecError::BadBag(_))), "{bad:?}");
        }
    }

    /// A window of a bag's runs encodes byte for byte as its copy, and
    /// decodes to the copy.
    #[test]
    fn runs_window_round_trips_through_the_codec() {
        let mut items: Vec<Value> = (0..9).map(|i| Value::Int(i % 4)).collect();
        items.extend([Value::Float(0.5), Value::str("s"), Value::str("s")]);
        let Value::Bag(all) = Value::bag_from(items) else { unreachable!() };
        let bytes = |v: &Value| {
            let mut buf = BytesMut::new();
            encode_value(v, &mut buf).unwrap();
            buf.to_vec()
        };
        for (lo, hi) in [(0, all.len()), (1, 4), (3, all.len()), (2, 2)] {
            let window = Value::Bag(all.window(lo..hi));
            let copy = Value::Bag(all[lo..hi].to_vec().into());
            assert_eq!(bytes(&window), bytes(&copy), "{lo}..{hi}");
            assert_eq!(roundtrip(&window), copy, "{lo}..{hi}");
        }
    }

    #[test]
    fn database_snapshot_roundtrips_and_queries_agree() {
        let mut db = travel::generate(TravelScale::tiny(), 11);
        let bytes = encode_database(&db).unwrap();
        let mut db2 = decode_database(&bytes).unwrap();
        assert_eq!(db.object_count(), db2.object_count());
        let q = Expr::comp(
            Monoid::Sum,
            Expr::var("e").proj("salary"),
            vec![Expr::gen("e", Expr::var("Employees"))],
        );
        assert_eq!(db.query(&q).unwrap(), db2.query(&q).unwrap());
    }
}
