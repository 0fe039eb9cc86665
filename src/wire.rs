//! The wire protocol spoken by the `oqld` server and its clients.
//!
//! Dependency-free, length-prefixed binary framing over any byte stream
//! (TCP in practice, `Vec<u8>` in tests):
//!
//! ```text
//! frame     := len:u32le body
//! body      := opcode:u8 payload
//! ```
//!
//! `len` counts the body bytes only and is capped at [`MAX_FRAME`] — a
//! peer announcing a bigger frame is refused before any allocation, so a
//! garbage length prefix cannot balloon memory. Values travel in the
//! store's binary codec ([`monoid_store::codec`]); strings are
//! `u32le`-length-prefixed UTF-8, matching the codec's own convention.
//!
//! Collection results *stream* (`write_result`): the server sends any
//! number of batches followed by one [`Response::Done`] carrying the
//! collection's shape, the total element count, and the mutation epoch of
//! the snapshot the statement read (`0` for writer-path statements, whose
//! epoch is advancing). A bag travels as it is stored — [`Response::Runs`]
//! batches of `(value, count)` runs, never expanded — and everything else
//! as [`Response::Rows`] batches of elements (a scalar is one). Each
//! batch is encoded from a borrowed slice of the result and written as
//! it is encoded. Each side of a connection encodes and reads every frame
//! through one buffer of its own (`Frames`), kept for the connection's
//! life, so a warm round trip allocates no frame. The client rebuilds the
//! exact result value with
//! `Reassembly` — byte-identical to what an in-process execution returns
//! (golden tests in `tests/wire_protocol.rs`).
//!
//! A `RUNS` batch is two columns: its counts, then its values. When every
//! value of the batch is a float, the codec's `FLOAT` tag is written once
//! as the batch's *kind* and the values are packed as `f64le` — a bag of
//! prices crosses as two arrays of words; any other batch (ints, strings,
//! records, ints mixed with floats) is of kind *mixed* (`0xff`) and
//! carries its values in the codec. The encoder sizes a frame once and
//! writes both columns in one pass. One run decoder serves both readers
//! of `RUNS` and appends the runs to a caller's vector: a frame's first
//! run is checked by the codec's bag rule (`codec::check_run`) against
//! the run before it, whatever that run's kind, and the rest of a float
//! column by comparing its words with `f64::total_cmp` (`Value::cmp`'s
//! order between floats), so the order is checked in every frame and
//! across frames. A float column is checked whole, then appended in one
//! `extend`.
//! `Reassembly` decodes each frame body straight into the result's runs,
//! and [`Response::decode`] into the frame's own.
//!
//! Decoding is strict: unknown opcodes, truncated payloads, trailing
//! bytes, and a stream that does not rebuild a canonical value (bag runs
//! out of order or counted zero, set elements out of order, `ROWS` and
//! `RUNS` mixed, a count `DONE` disagrees with) are all errors, never
//! panics — the malformed-frame batteries in `tests/wire_protocol.rs`
//! feed this module garbage and expect clean [`WireError`]s back. See
//! `docs/serving.md` for the full spec.

use bytes::{Buf, BufMut, Bytes};
use monoid_calculus::value::{Runs, Value};
use monoid_store::codec::{self, CodecError};
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Protocol version announced in the HELLO exchange. Bump on any frame
/// layout change. Version 2 streams bags as `RUNS`; version 3 gives
/// `RUNS` its column layout (counts, then values, floats packed). Both
/// sides check it: a peer announcing another version is refused at
/// HELLO, before any result frame it could misread.
pub const PROTOCOL_VERSION: u8 = 3;

/// Hard cap on a frame body's announced length (16 MiB). Chosen to fit
/// any realistic row batch while bounding what a hostile length prefix
/// can make the peer allocate.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// The kind byte of a `RUNS` batch whose values are not all floats: its
/// values follow in the store codec. A packed batch's kind is the codec
/// tag of its values, `codec::tag::FLOAT`.
const RUNS_MIXED: u8 = 0xff;

/// Elements per [`Response::Rows`] batch, and runs per
/// [`Response::Runs`] batch, the server emits. Small enough to keep
/// first-row latency low, large enough to amortize framing.
pub const ROW_BATCH: usize = 256;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A frame that could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended mid-field.
    Truncated,
    /// A frame announced more than [`MAX_FRAME`] bytes.
    TooLarge(usize),
    /// An opcode byte this protocol version does not define.
    BadOpcode(u8),
    /// A [`ResultShape`] byte outside the defined range.
    BadShape(u8),
    /// Bytes left over after the payload decoded completely.
    TrailingBytes(usize),
    /// Invalid UTF-8 in a string field.
    BadUtf8,
    /// A value failed to decode — for `RUNS`, also a run the codec's bag
    /// rule refuses (count 0, or not strictly above the previous run,
    /// across frames).
    Codec(CodecError),
    /// A result stream that does not rebuild a canonical value: `ROWS`
    /// and `RUNS` mixed, batches of the wrong kind for `DONE`'s shape, or
    /// set elements not strictly ascending.
    BadStream(&'static str),
    /// `DONE.rows` is not the number of elements streamed before it.
    RowCount { done: u64, streamed: u64 },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::BadShape(s) => write!(f, "unknown result shape 0x{s:02x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after payload"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in frame string"),
            WireError::Codec(e) => write!(f, "bad value encoding: {e}"),
            WireError::BadStream(why) => write!(f, "malformed result stream: {why}"),
            WireError::RowCount { done, streamed } => {
                write!(f, "DONE announces {done} rows after {streamed} were streamed")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Codec(e)
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

type Result<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------

mod op {
    // Requests (client → server).
    pub const HELLO: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const PREPARE: u8 = 0x03;
    pub const EXECUTE: u8 = 0x04;
    pub const PING: u8 = 0x05;
    // Responses (server → client).
    pub const R_HELLO: u8 = 0x81;
    pub const R_ROWS: u8 = 0x82;
    pub const R_DONE: u8 = 0x83;
    pub const R_PREPARED: u8 = 0x84;
    pub const R_ERROR: u8 = 0x85;
    pub const R_PONG: u8 = 0x86;
    pub const R_RUNS: u8 = 0x87;
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session, announcing the client's protocol version. The
    /// server answers with [`Response::Hello`] if it speaks that version,
    /// and with one [`Response::Error`] and a close if it does not.
    Hello { protocol: u8, client: String },
    /// Execute `src` with the given `$name` parameter bindings. The
    /// server routes by effect: read-only statements run against a
    /// snapshot, writers against the database behind the write lock.
    Query { src: String, params: Vec<(String, Value)> },
    /// Prepare `src` without executing; answered by
    /// [`Response::Prepared`] with a statement id for [`Request::Execute`].
    Prepare { src: String },
    /// Execute a previously prepared statement by id.
    Execute { id: u64, params: Vec<(String, Value)> },
    /// Liveness probe; answered by [`Response::Pong`].
    Ping,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session accepted.
    Hello { server: String, protocol: u8, instance: u64, epoch: u64 },
    /// One batch of result elements (collections other than bags
    /// stream; scalars arrive as a single-element batch).
    Rows { values: Vec<Value> },
    /// One batch of a bag result's `(value, count)` runs, ascending
    /// across the whole stream.
    Runs { runs: Vec<(Value, u64)> },
    /// End of a result stream: the collection shape to reassemble, the
    /// total element count (for a bag, the sum of its run counts), and
    /// the mutation epoch the statement observed (the pinned snapshot's
    /// for reads, the post-commit epoch for writes).
    Done { shape: ResultShape, rows: u64, epoch: u64 },
    /// A statement was prepared; `params` are its `$`-prefixed
    /// placeholder names in first-appearance order.
    Prepared { id: u64, params: Vec<String> },
    /// The statement (or the frame carrying it) failed; the session
    /// stays open.
    Error { message: String },
    Pong,
}

/// The shape of a streamed result, carried in [`Response::Done`] so the
/// client can reassemble the exact [`Value`] the engine produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultShape {
    /// Not a collection: the single streamed value *is* the result.
    Scalar,
    List,
    Set,
    Bag,
    Vector,
}

impl ResultShape {
    /// `value`'s shape and its elements, in canonical order: borrowed
    /// where the value holds them as a slice, expanded from the runs for
    /// a bag.
    fn elements_of(value: &Value) -> (ResultShape, Cow<'_, [Value]>) {
        match value {
            Value::List(items) => (ResultShape::List, Cow::Borrowed(items)),
            Value::Set(items) => (ResultShape::Set, Cow::Borrowed(items)),
            Value::Vector(items) => (ResultShape::Vector, Cow::Borrowed(items)),
            Value::Bag(_) => {
                (ResultShape::Bag, Cow::Owned(value.elements().expect("bags enumerate")))
            }
            other => (ResultShape::Scalar, Cow::Borrowed(std::slice::from_ref(other))),
        }
    }

    /// `value`'s shape and element sequence — what `write_result`
    /// streams, with a bag's runs expanded into their elements.
    pub fn deconstruct(value: &Value) -> (ResultShape, Vec<Value>) {
        let (shape, elements) = ResultShape::elements_of(value);
        (shape, elements.into_owned())
    }

    /// Rebuild the result value from its element sequence. Exact inverse
    /// of [`ResultShape::deconstruct`], so `assemble(deconstruct(v)) == v`
    /// for every encodable value. A bag re-sorts; set elements must
    /// arrive canonical, strictly ascending, as the server sends them.
    pub fn assemble(self, elements: Vec<Value>) -> Result<Value> {
        Ok(match self {
            ResultShape::Scalar => {
                let mut elements = elements;
                match (elements.pop(), elements.is_empty()) {
                    (Some(v), true) => v,
                    _ => return Err(WireError::Truncated),
                }
            }
            ResultShape::List => Value::list(elements),
            ResultShape::Set => {
                if elements.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(WireError::BadStream("set elements not strictly ascending"));
                }
                Value::Set(Arc::new(elements))
            }
            ResultShape::Bag => Value::bag_from(elements),
            ResultShape::Vector => Value::vector(elements),
        })
    }

    fn to_byte(self) -> u8 {
        match self {
            ResultShape::Scalar => 0,
            ResultShape::List => 1,
            ResultShape::Set => 2,
            ResultShape::Bag => 3,
            ResultShape::Vector => 4,
        }
    }

    fn from_byte(b: u8) -> Result<ResultShape> {
        Ok(match b {
            0 => ResultShape::Scalar,
            1 => ResultShape::List,
            2 => ResultShape::Set,
            3 => ResultShape::Bag,
            4 => ResultShape::Vector,
            other => return Err(WireError::BadShape(other)),
        })
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_params(buf: &mut Vec<u8>, params: &[(String, Value)]) -> Result<()> {
    buf.put_u32_le(params.len() as u32);
    for (name, value) in params {
        put_str(buf, name);
        codec::encode_value(value, buf)?;
    }
    Ok(())
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    get_str_with(buf, str::to_owned)
}

/// A string, handed to `read` where it lies in the body.
fn get_str_with<T>(buf: &mut Bytes, read: impl FnOnce(&str) -> T) -> Result<T> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    let s = read(std::str::from_utf8(&buf[..len]).map_err(|_| WireError::BadUtf8)?);
    buf.advance(len);
    Ok(s)
}

fn get_params(buf: &mut Bytes) -> Result<Vec<(String, Value)>> {
    let mut out = Vec::new();
    get_params_with(buf, str::to_owned, |name, value| out.push((name, value)))?;
    Ok(out)
}

/// A parameter list, which ends its body: each name is handed to `name`
/// where it lies in the body, and what that returns to `bind`, with the
/// value that follows. Then the body must end. `oqld` binds a `QUERY`'s
/// or `EXECUTE`'s parameters this way, against the statement they name,
/// once [`decode_head`] has read what precedes them.
pub(crate) fn get_params_with<K>(
    buf: &mut Bytes,
    mut name: impl FnMut(&str) -> K,
    mut bind: impl FnMut(K, Value),
) -> Result<()> {
    let count = get_u32(buf)? as usize;
    // Each param is at least a 4-byte name length + 1 tag byte: refuse
    // counts the remaining bytes cannot possibly satisfy before
    // reserving anything.
    if count > buf.remaining() / 5 + 1 {
        return Err(WireError::Truncated);
    }
    for _ in 0..count {
        let key = get_str_with(buf, &mut name)?;
        bind(key, codec::decode_value(buf)?);
    }
    finish(buf)
}

/// A `QUERY` body, encoded from borrowed source and parameters.
pub(crate) fn encode_query(buf: &mut Vec<u8>, src: &str, params: &[(String, Value)]) -> Result<()> {
    buf.put_u8(op::QUERY);
    put_str(buf, src);
    put_params(buf, params)
}

/// An `EXECUTE` body, encoded from borrowed parameters.
pub(crate) fn encode_execute(buf: &mut Vec<u8>, id: u64, params: &[(String, Value)]) -> Result<()> {
    buf.put_u8(op::EXECUTE);
    buf.put_u64_le(id);
    put_params(buf, params)
}

/// A `ROWS` body: opcode, `u32le` count, then each element in the codec.
/// Encodes straight from a borrowed batch.
fn encode_rows(buf: &mut Vec<u8>, values: &[Value]) -> Result<()> {
    buf.put_u8(op::R_ROWS);
    buf.put_u32_le(values.len() as u32);
    for v in values {
        codec::encode_value(v, buf)?;
    }
    Ok(())
}

/// A `RUNS` body: opcode, `u32le` run count `n`, kind byte, the `n`
/// counts as `u64le`, then the `n` values — packed as `f64le` when the
/// batch is a float column, else each in the codec (and so an empty
/// batch). Encodes straight from a borrowed slice of a bag's runs: the
/// frame is sized once for a float column, and one pass writes each
/// run's count and value into the two halves of that slice; a batch with
/// a value that is not a float keeps the counts, which both layouts
/// share, and has its values written again in the codec.
fn encode_runs(buf: &mut Vec<u8>, runs: &[(Value, u64)]) -> Result<()> {
    let start = buf.len();
    buf.resize(start + 6 + 16 * runs.len(), 0);
    let (head, columns) = buf[start..].split_at_mut(6);
    let (counts, values) = columns.split_at_mut(8 * runs.len());
    head[0] = op::R_RUNS;
    head[1..5].copy_from_slice(&(runs.len() as u32).to_le_bytes());
    let mut floats = !runs.is_empty();
    let words = counts.chunks_exact_mut(8).zip(values.chunks_exact_mut(8));
    for ((value, count), (c, v)) in runs.iter().zip(words) {
        c.copy_from_slice(&count.to_le_bytes());
        match value {
            Value::Float(x) => v.copy_from_slice(&x.to_le_bytes()),
            _ => floats = false,
        }
    }
    if floats {
        head[5] = codec::tag::FLOAT;
        return Ok(());
    }
    head[5] = RUNS_MIXED;
    buf.truncate(start + 6 + 8 * runs.len());
    for (value, _) in runs {
        codec::encode_value(value, buf)?;
    }
    Ok(())
}

/// A `RUNS` payload (what follows the opcode), appended to `runs`. `n` is
/// checked against the body before anything is reserved, and each frame's
/// first run by the codec's bag rule against the run before it — already
/// in `runs`, from an earlier frame of any kind. A mixed batch reads its
/// counts where they lie: each is put in place with a `Null` for its
/// value, which the run's decoded value then replaces once it passes the
/// rule. On an error `runs` is left as it was.
fn get_runs(buf: &mut Bytes, runs: &mut Vec<(Value, u64)>) -> Result<()> {
    let n = get_u32(buf)? as usize;
    let kind = get_u8(buf)?;
    // A run is an 8-byte count and a value: 8 bytes packed, at least a
    // tag byte in the codec.
    let value_bytes = match kind {
        codec::tag::FLOAT => 8,
        RUNS_MIXED => 1,
        other => return Err(CodecError::BadTag(other).into()),
    };
    if n > buf.remaining() / (8 + value_bytes) {
        return Err(WireError::Truncated);
    }
    let counts_len = 8 * n;
    if kind == codec::tag::FLOAT {
        let (counts, values) = buf[..2 * counts_len].split_at(counts_len);
        get_float_column(runs, counts, values)?;
        buf.advance(2 * counts_len);
        return Ok(());
    }
    let base = runs.len();
    let counts = buf[..counts_len].chunks_exact(8).map(|c| u64::from_le_bytes(word(c)));
    runs.extend(counts.map(|count| (Value::Null, count)));
    buf.advance(counts_len);
    for at in base..runs.len() {
        let run = codec::decode_value(buf).and_then(|value| {
            let prev = at.checked_sub(1).map(|p| &runs[p].0);
            codec::check_run(prev, &value, runs[at].1).map(|()| value)
        });
        match run {
            Ok(value) => runs[at].0 = value,
            Err(e) => {
                runs.truncate(base);
                return Err(e.into());
            }
        }
    }
    Ok(())
}

/// Append a packed float column of `counts.len() / 8` runs to `runs`,
/// checked whole before any is appended: the first run by the codec's bag
/// rule against the last of `runs`, each later one refused unless its
/// count is nonzero and its word strictly above the one before by
/// `f64::total_cmp` — `Value::cmp`'s order between floats. The column is
/// then appended in one exact-size `extend`.
fn get_float_column(runs: &mut Vec<(Value, u64)>, counts: &[u8], values: &[u8]) -> Result<()> {
    let column = || {
        let words = counts.chunks_exact(8).zip(values.chunks_exact(8));
        words.map(|(c, v)| (u64::from_le_bytes(word(c)), f64::from_le_bytes(word(v))))
    };
    let mut rest = column();
    let Some((count, first)) = rest.next() else { return Ok(()) };
    codec::check_run(runs.last().map(|(prev, _)| prev), &Value::Float(first), count)?;
    let mut prev = first;
    for (count, value) in rest {
        if count == 0 {
            return Err(CodecError::BadBag("a run with count 0").into());
        }
        if !prev.total_cmp(&value).is_lt() {
            return Err(CodecError::BadBag("runs not strictly ascending").into());
        }
        prev = value;
    }
    runs.extend(column().map(|(count, value)| (Value::Float(value), count)));
    Ok(())
}

/// One 8-byte word of a column (`chunks_exact(8)` yields nothing shorter).
fn word(chunk: &[u8]) -> [u8; 8] {
    let mut word = [0; 8];
    word.copy_from_slice(chunk);
    word
}

fn finish(buf: &Bytes) -> Result<()> {
    if buf.remaining() > 0 {
        return Err(WireError::TrailingBytes(buf.remaining()));
    }
    Ok(())
}

impl Request {
    /// Encode as a frame *body* (no length prefix — [`write_frame`] adds
    /// it).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Append the frame body to `buf`.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            Request::Hello { protocol, client } => {
                buf.put_u8(op::HELLO);
                buf.put_u8(*protocol);
                put_str(buf, client);
            }
            Request::Query { src, params } => encode_query(buf, src, params)?,
            Request::Prepare { src } => {
                buf.put_u8(op::PREPARE);
                put_str(buf, src);
            }
            Request::Execute { id, params } => encode_execute(buf, *id, params)?,
            Request::Ping => buf.put_u8(op::PING),
        }
        Ok(())
    }

    /// Decode a frame body. Strict: every byte must be consumed.
    pub fn decode(body: &[u8]) -> Result<Request> {
        Request::decode_from(&mut Bytes::copy_from_slice(body))
    }

    /// Decode the frame body `buf` holds, all of it.
    pub(crate) fn decode_from(buf: &mut Bytes) -> Result<Request> {
        let opcode = get_u8(buf)?;
        let req = match opcode {
            op::HELLO => Request::Hello { protocol: get_u8(buf)?, client: get_str(buf)? },
            op::QUERY => Request::Query { src: get_str(buf)?, params: get_params(buf)? },
            op::PREPARE => Request::Prepare { src: get_str(buf)? },
            op::EXECUTE => Request::Execute { id: get_u64(buf)?, params: get_params(buf)? },
            op::PING => Request::Ping,
            other => return Err(WireError::BadOpcode(other)),
        };
        finish(buf)?;
        Ok(req)
    }
}

/// What `oqld` decodes of a request before the statement it runs is
/// known: a `QUERY`'s source or an `EXECUTE`'s statement id, whose
/// parameters are left in the body for [`get_params_with`], or any other
/// request, whole.
pub(crate) enum Head {
    Query { src: String },
    Execute { id: u64 },
    Other(Request),
}

/// Decode a request body up to a `QUERY`'s or `EXECUTE`'s parameters,
/// and any other request body whole.
pub(crate) fn decode_head(buf: &mut Bytes) -> Result<Head> {
    match buf.first() {
        Some(&op::QUERY) => {
            buf.advance(1);
            Ok(Head::Query { src: get_str(buf)? })
        }
        Some(&op::EXECUTE) => {
            buf.advance(1);
            Ok(Head::Execute { id: get_u64(buf)? })
        }
        _ => Request::decode_from(buf).map(Head::Other),
    }
}

impl Response {
    /// Encode as a frame *body* (no length prefix).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Append the frame body to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            Response::Hello { server, protocol, instance, epoch } => {
                buf.put_u8(op::R_HELLO);
                buf.put_u8(*protocol);
                put_str(buf, server);
                buf.put_u64_le(*instance);
                buf.put_u64_le(*epoch);
            }
            Response::Rows { values } => encode_rows(buf, values)?,
            Response::Runs { runs } => encode_runs(buf, runs)?,
            Response::Done { shape, rows, epoch } => {
                buf.put_u8(op::R_DONE);
                buf.put_u8(shape.to_byte());
                buf.put_u64_le(*rows);
                buf.put_u64_le(*epoch);
            }
            Response::Prepared { id, params } => {
                buf.put_u8(op::R_PREPARED);
                buf.put_u64_le(*id);
                buf.put_u32_le(params.len() as u32);
                for p in params {
                    put_str(buf, p);
                }
            }
            Response::Error { message } => {
                buf.put_u8(op::R_ERROR);
                put_str(buf, message);
            }
            Response::Pong => buf.put_u8(op::R_PONG),
        }
        Ok(())
    }

    /// Decode a frame body. Strict: every byte must be consumed, and a
    /// `RUNS` batch must be in the codec's bag order.
    pub fn decode(body: &[u8]) -> Result<Response> {
        Response::decode_from(&mut Bytes::copy_from_slice(body))
    }

    /// Decode the frame body `buf` holds, all of it.
    pub(crate) fn decode_from(buf: &mut Bytes) -> Result<Response> {
        let opcode = get_u8(buf)?;
        let resp = match opcode {
            op::R_HELLO => Response::Hello {
                protocol: get_u8(buf)?,
                server: get_str(buf)?,
                instance: get_u64(buf)?,
                epoch: get_u64(buf)?,
            },
            op::R_ROWS => {
                let count = get_u32(buf)? as usize;
                if count > buf.remaining() + 1 {
                    return Err(WireError::Truncated);
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(codec::decode_value(buf)?);
                }
                Response::Rows { values }
            }
            op::R_RUNS => {
                let mut runs = Vec::new();
                get_runs(buf, &mut runs)?;
                Response::Runs { runs }
            }
            op::R_DONE => Response::Done {
                shape: ResultShape::from_byte(get_u8(buf)?)?,
                rows: get_u64(buf)?,
                epoch: get_u64(buf)?,
            },
            op::R_PREPARED => {
                let id = get_u64(buf)?;
                let count = get_u32(buf)? as usize;
                if count > buf.remaining() / 4 + 1 {
                    return Err(WireError::Truncated);
                }
                let mut params = Vec::with_capacity(count);
                for _ in 0..count {
                    params.push(get_str(buf)?);
                }
                Response::Prepared { id, params }
            }
            op::R_ERROR => Response::Error { message: get_str(buf)? },
            op::R_PONG => Response::Pong,
            other => return Err(WireError::BadOpcode(other)),
        };
        finish(buf)?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Result streams
// ---------------------------------------------------------------------

/// Stream one statement's result through `frames`: a bag as `RUNS`
/// batches of up to [`ROW_BATCH`] runs, anything else as `ROWS` batches
/// of up to [`ROW_BATCH`] elements (a scalar is one element), then `DONE`
/// with the shape, the element count and `epoch`. Every batch is encoded
/// from a borrowed slice of `value`; nothing is expanded or copied first.
pub(crate) fn write_result(
    w: &mut impl Write,
    frames: &mut Frames,
    value: &Value,
    epoch: u64,
) -> io::Result<()> {
    let (shape, rows) = match value {
        Value::Bag(runs) => {
            for batch in runs.chunks(ROW_BATCH) {
                frames.write(w, |buf| encode_runs(buf, batch))?;
            }
            (ResultShape::Bag, runs.iter().fold(0u64, |n, (_, c)| n.saturating_add(*c)))
        }
        _ => {
            let (shape, elements) = ResultShape::elements_of(value);
            for batch in elements.chunks(ROW_BATCH) {
                frames.write(w, |buf| encode_rows(buf, batch))?;
            }
            (shape, elements.len() as u64)
        }
    };
    frames.send(w, &Response::Done { shape, rows, epoch })
}

/// The client's half of `write_result`: the batches of one result,
/// checked as they arrive and rebuilt into the value when `DONE` does.
#[derive(Debug, Default)]
pub(crate) enum Reassembly {
    #[default]
    Empty,
    Rows(Vec<Value>),
    Runs(Vec<(Value, u64)>),
}

impl Reassembly {
    /// Take one frame body of the stream: a `ROWS` or `RUNS` batch joins
    /// the result — a `RUNS` batch decoded straight into the runs so far,
    /// each run checked by the codec's bag rule — and any other frame is
    /// decoded and handed back.
    pub(crate) fn frame(&mut self, body: &mut Bytes) -> Result<Option<Response>> {
        if body.first() != Some(&op::R_RUNS) {
            return match Response::decode_from(body)? {
                Response::Rows { values } => self.rows(values).map(|()| None),
                other => Ok(Some(other)),
            };
        }
        get_u8(body)?;
        if let Reassembly::Empty = self {
            *self = Reassembly::Runs(Vec::new());
        }
        let Reassembly::Runs(runs) = self else {
            return Err(WireError::BadStream("RUNS after ROWS"));
        };
        get_runs(body, runs)?;
        finish(body).map(|()| None)
    }

    /// Take one `ROWS` batch.
    fn rows(&mut self, values: Vec<Value>) -> Result<()> {
        match self {
            Reassembly::Empty => *self = Reassembly::Rows(values),
            Reassembly::Rows(rows) => rows.extend(values),
            Reassembly::Runs(_) => return Err(WireError::BadStream("ROWS after RUNS")),
        }
        Ok(())
    }

    /// `DONE` arrived: rebuild the value of `shape`, checking `rows`
    /// against the number of elements streamed.
    pub(crate) fn done(self, shape: ResultShape, rows: u64) -> Result<Value> {
        let bag = shape == ResultShape::Bag;
        let (value, streamed) = match self {
            Reassembly::Empty if bag => (Value::Bag(Runs::default()), 0),
            Reassembly::Empty => (shape.assemble(Vec::new())?, 0),
            Reassembly::Runs(runs) if bag => {
                let n = runs
                    .iter()
                    .try_fold(0u64, |n, (_, c)| n.checked_add(*c))
                    .ok_or(WireError::BadStream("run counts overflow u64"))?;
                (Value::Bag(runs.into()), n)
            }
            Reassembly::Rows(elements) if !bag => {
                let n = elements.len() as u64;
                (shape.assemble(elements)?, n)
            }
            Reassembly::Runs(_) => {
                return Err(WireError::BadStream("RUNS under a DONE that is not a bag"))
            }
            Reassembly::Rows(_) => return Err(WireError::BadStream("ROWS under a bag DONE")),
        };
        if streamed != rows {
            return Err(WireError::RowCount { done: rows, streamed });
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// One side of a connection's frame buffer: every frame the side writes
/// is encoded into it, and every frame it reads is read into it and
/// decoded from there. It grows to the side's largest frame and is kept,
/// so a warm round trip allocates no frame — `oqld`'s connection loop
/// and [`crate::server::Client`] each hold one.
#[derive(Debug, Default)]
pub(crate) struct Frames(Vec<u8>);

impl Frames {
    /// Encode one frame body with `encode` and write it, length-prefixed.
    pub(crate) fn write(
        &mut self,
        w: &mut impl Write,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> io::Result<()> {
        self.0.clear();
        encode(&mut self.0)?;
        write_frame(w, &self.0)
    }

    /// Write one response.
    pub(crate) fn send(&mut self, w: &mut impl Write, resp: &Response) -> io::Result<()> {
        self.write(w, |buf| resp.encode_into(buf))
    }

    /// Read one frame and hand its body to `decode`; `Ok(None)` on a
    /// clean EOF at a frame boundary, as [`read_frame`].
    pub(crate) fn read<T>(
        &mut self,
        r: &mut impl Read,
        decode: impl FnOnce(&mut Bytes) -> Result<T>,
    ) -> io::Result<Option<T>> {
        if !read_body(r, &mut self.0)? {
            return Ok(None);
        }
        let mut body = Bytes::from(std::mem::take(&mut self.0));
        let decoded = decode(&mut body);
        self.0 = body.into();
        Ok(Some(decoded?))
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(WireError::TooLarge(body.len()).into());
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Read one length-prefixed frame body. `Ok(None)` on clean EOF at a
/// frame boundary; an EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`]
/// error. A length prefix over [`MAX_FRAME`] is refused *before* any
/// allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_body(r, &mut body)?.then_some(body))
}

/// [`read_frame`] into `body`, which is cleared first and grows only past
/// its capacity; `false` on a clean EOF at a frame boundary.
fn read_body(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len).into());
    }
    body.clear();
    body.reserve(len);
    if r.take(len as u64).read_to_end(body)? < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(true)
}

/// [`write_frame`] of an encoded [`Request`].
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, &req.encode().map_err(io::Error::from)?)
}

/// [`write_frame`] of an encoded [`Response`].
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_frame(w, &resp.encode().map_err(io::Error::from)?)
}

/// Read and decode one [`Request`]; `Ok(None)` on clean EOF.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Request>> {
    Frames::default().read(r, Request::decode_from)
}

/// Read and decode one [`Response`]; `Ok(None)` on clean EOF.
pub fn read_response(r: &mut impl Read) -> io::Result<Option<Response>> {
    Frames::default().read(r, Response::decode_from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip_request(req: Request) {
        let body = req.encode().unwrap();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let body = resp.encode().unwrap();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello { protocol: PROTOCOL_VERSION, client: "t".into() });
        round_trip_request(Request::Query {
            src: "count(Cities)".into(),
            params: vec![("$beds".into(), Value::Int(3))],
        });
        round_trip_request(Request::Prepare { src: "sum(e.salary)".into() });
        round_trip_request(Request::Execute {
            id: 7,
            params: vec![("$city".into(), Value::str("Portland"))],
        });
        round_trip_request(Request::Ping);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Hello {
            server: "oqld".into(),
            protocol: PROTOCOL_VERSION,
            instance: 3,
            epoch: 41,
        });
        round_trip_response(Response::Rows {
            values: vec![Value::Int(1), Value::str("x"), Value::Null],
        });
        round_trip_response(Response::Runs {
            runs: vec![(Value::Int(1), 2), (Value::str("x"), u64::MAX)],
        });
        round_trip_response(Response::Done {
            shape: ResultShape::Bag,
            rows: 9,
            epoch: 41,
        });
        round_trip_response(Response::Prepared {
            id: 1,
            params: vec!["$city".into(), "$beds".into()],
        });
        round_trip_response(Response::Error { message: "boom".into() });
        round_trip_response(Response::Pong);
    }

    #[test]
    fn truncated_and_trailing_bodies_are_errors() {
        let body = Request::Query { src: "count(Cities)".into(), params: vec![] }
            .encode()
            .unwrap();
        for cut in 1..body.len() {
            assert!(
                Request::decode(&body[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut padded = body.clone();
        padded.push(0);
        assert_eq!(Request::decode(&padded), Err(WireError::TrailingBytes(1)));
        assert_eq!(Request::decode(&[0x7f]), Err(WireError::BadOpcode(0x7f)));
    }

    #[test]
    fn shapes_reassemble_collections() {
        let bag = Value::bag_from(vec![Value::Int(1), Value::Int(1), Value::Int(2)]);
        let (shape, elems) = ResultShape::deconstruct(&bag);
        assert_eq!(shape, ResultShape::Bag);
        assert_eq!(shape.assemble(elems).unwrap(), bag);

        // A set arrives canonical; anything else is refused, not re-sorted.
        let set = Value::set_from(vec![Value::Int(2), Value::Int(1)]);
        let (shape, elems) = ResultShape::deconstruct(&set);
        assert_eq!(shape.assemble(elems.clone()).unwrap(), set);
        let reversed = elems.into_iter().rev().collect();
        assert!(matches!(shape.assemble(reversed), Err(WireError::BadStream(_))));

        let scalar = Value::Int(42);
        let (shape, elems) = ResultShape::deconstruct(&scalar);
        assert_eq!(shape, ResultShape::Scalar);
        assert_eq!(elems.len(), 1);
        assert_eq!(shape.assemble(elems).unwrap(), scalar);
    }

    /// A window of a bag streams the very frames its copy streams —
    /// windows across a batch boundary and across the float column's end
    /// too — and the client, reading every frame into one buffer,
    /// rebuilds the copy from them.
    #[test]
    fn runs_window_frames_as_its_copy() {
        let mut runs: Vec<(Value, u64)> =
            (0..500).map(|i| (Value::Float(f64::from(i)), 1 + i as u64 % 3)).collect();
        runs.extend((0..100).map(|i| (Value::str(&format!("s{i:03}")), 2)));
        let all = Runs::new(runs);
        let stream = |value: &Value| {
            let mut out = Vec::new();
            write_result(&mut out, &mut Frames::default(), value, 7).unwrap();
            out
        };
        for (lo, hi) in [(0, 600), (100, 400), (250, 600), (300, 301), (5, 5)] {
            let window = Value::Bag(all.window(lo..hi));
            let copy = Value::Bag(all[lo..hi].to_vec().into());
            let bytes = stream(&window);
            assert_eq!(bytes, stream(&copy), "{lo}..{hi}");
            let (mut frames, mut result, mut input) =
                (Frames::default(), Reassembly::default(), bytes.as_slice());
            loop {
                match frames.read(&mut input, |body| result.frame(body)).unwrap().unwrap() {
                    None => {}
                    Some(Response::Done { shape, rows, epoch: 7 }) => {
                        let value = std::mem::take(&mut result).done(shape, rows).unwrap();
                        assert_eq!(format!("{value:?}"), format!("{copy:?}"), "{lo}..{hi}");
                        break;
                    }
                    other => panic!("{lo}..{hi}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_frames_are_refused_without_allocating() {
        let mut out = Vec::new();
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        out.extend_from_slice(&huge);
        let err = read_frame(&mut out.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_at_boundary_is_clean_mid_frame_is_not() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        // A length prefix promising 8 bytes, then EOF.
        let partial = 8u32.to_le_bytes();
        let err = read_frame(&mut partial.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    // -----------------------------------------------------------------
    // The RUNS column codec against the per-word codec it replaced
    // -----------------------------------------------------------------

    /// The per-word `RUNS` encoder: one `BufMut` call per word, the float
    /// column packed until a value is not a float.
    fn encode_runs_per_word(buf: &mut Vec<u8>, runs: &[(Value, u64)]) -> Result<()> {
        buf.put_u8(op::R_RUNS);
        buf.put_u32_le(runs.len() as u32);
        let kind = buf.len();
        buf.put_u8(if runs.is_empty() { RUNS_MIXED } else { codec::tag::FLOAT });
        for (_, count) in runs {
            buf.put_u64_le(*count);
        }
        let values = buf.len();
        for (v, _) in runs {
            let Value::Float(x) = v else {
                buf.truncate(values);
                buf[kind] = RUNS_MIXED;
                for (v, _) in runs {
                    codec::encode_value(v, buf)?;
                }
                return Ok(());
            };
            buf.put_f64_le(*x);
        }
        Ok(())
    }

    /// A `RUNS` payload decoded run by run, every run — packed or not —
    /// appended by `codec::push_run`.
    fn get_runs_per_run(buf: &mut Bytes, runs: &mut Vec<(Value, u64)>) -> Result<()> {
        let n = get_u32(buf)? as usize;
        let kind = get_u8(buf)?;
        let value_bytes = match kind {
            codec::tag::FLOAT => 8,
            RUNS_MIXED => 1,
            other => return Err(CodecError::BadTag(other).into()),
        };
        if n > buf.remaining() / (8 + value_bytes) {
            return Err(WireError::Truncated);
        }
        let counts: Vec<u64> = (0..n).map(|_| buf.get_u64_le()).collect();
        for count in counts {
            let value = match kind {
                codec::tag::FLOAT => Value::Float(buf.get_f64_le()),
                _ => codec::decode_value(buf)?,
            };
            codec::push_run(runs, value, count)?;
        }
        Ok(())
    }

    /// Each run's value, a float by its bits, and its count.
    fn fingerprint(runs: &[(Value, u64)]) -> Vec<(String, u64)> {
        let print = |v: &Value| match v {
            Value::Float(x) => format!("f{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        runs.iter().map(|(v, c)| (print(v), *c)).collect()
    }

    /// Both encoders, on the same non-empty buffer, write the same bytes
    /// for `runs` whole and for each of its `ROW_BATCH` batches, and
    /// `write_result` streams what the per-word encoder's batches make.
    fn encoders_agree(runs: &[(Value, u64)]) {
        let batches = runs.chunks(ROW_BATCH).chain([runs]);
        for batch in batches.chain(runs.is_empty().then_some(runs)) {
            let (mut bulk, mut per_word) = (vec![9, 9], vec![9, 9]);
            encode_runs(&mut bulk, batch).unwrap();
            encode_runs_per_word(&mut per_word, batch).unwrap();
            assert_eq!(bulk, per_word, "a batch of {} runs", batch.len());
        }
        let value = Value::Bag(runs.to_vec().into());
        let mut streamed = Vec::new();
        write_result(&mut streamed, &mut Frames::default(), &value, 3).unwrap();
        let mut expected = Vec::new();
        for batch in runs.chunks(ROW_BATCH) {
            let mut body = Vec::new();
            encode_runs_per_word(&mut body, batch).unwrap();
            write_frame(&mut expected, &body).unwrap();
        }
        let rows = runs.iter().map(|(_, c)| c).sum();
        let done = Response::Done { shape: ResultShape::Bag, rows, epoch: 3 };
        write_frame(&mut expected, &done.encode().unwrap()).unwrap();
        assert_eq!(streamed, expected, "the stream of a bag of {} runs", runs.len());
    }

    /// A reader of one `RUNS` payload into a result's runs.
    type Decoder = fn(&mut Bytes, &mut Vec<(Value, u64)>) -> Result<()>;

    /// Both decoders read the `RUNS` payloads `bodies` (what follows the
    /// opcode), frame after frame, each into a result of its own, and
    /// agree: on the runs after every frame, or on the error's text at
    /// the frame that fails. Returns that text, if any.
    fn decoders_agree(bodies: &[Vec<u8>]) -> Option<String> {
        let (mut bulk, mut per_run) = (Vec::new(), Vec::new());
        for (i, body) in bodies.iter().enumerate() {
            let read = |get: Decoder, runs: &mut Vec<(Value, u64)>| {
                let mut buf = Bytes::copy_from_slice(body);
                get(&mut buf, runs).and_then(|()| finish(&buf)).map_err(|e| e.to_string())
            };
            let (a, b) = (read(get_runs, &mut bulk), read(get_runs_per_run, &mut per_run));
            assert_eq!(a, b, "frame {i} of {bodies:?}");
            if let Err(e) = a {
                return Some(e);
            }
            assert_eq!(fingerprint(&bulk), fingerprint(&per_run), "after frame {i}");
        }
        None
    }

    /// A packed float column, as a `RUNS` payload; nothing is checked.
    fn float_body(runs: &[(f64, u64)]) -> Vec<u8> {
        let mut body = (runs.len() as u32).to_le_bytes().to_vec();
        body.push(codec::tag::FLOAT);
        body.extend(runs.iter().flat_map(|(_, c)| c.to_le_bytes()));
        body.extend(runs.iter().flat_map(|(x, _)| x.to_le_bytes()));
        body
    }

    /// A mixed column, as a `RUNS` payload; nothing is checked.
    fn mixed_body(runs: &[(Value, u64)]) -> Vec<u8> {
        let mut body = (runs.len() as u32).to_le_bytes().to_vec();
        body.push(RUNS_MIXED);
        body.extend(runs.iter().flat_map(|(_, c)| c.to_le_bytes()));
        for (v, _) in runs {
            codec::encode_value(v, &mut body).unwrap();
        }
        body
    }

    fn floats(runs: &[(f64, u64)]) -> Vec<(Value, u64)> {
        runs.iter().map(|&(x, c)| (Value::Float(x), c)).collect()
    }

    /// Quiet NaNs of both signs, and another payload of each.
    const NANS: [u64; 4] = [
        0x7ff8_0000_0000_0000,
        0x7ff8_0000_0000_0001,
        0xfff8_0000_0000_0000,
        0xfff8_0000_0000_0001,
    ];

    /// Every float the battery orders, ascending by `f64::total_cmp`.
    fn ascending_specials() -> Vec<f64> {
        let [pos, pos1, neg, neg1] = NANS.map(f64::from_bits);
        vec![neg1, neg, f64::NEG_INFINITY, -1.5, -0.0, 0.0, 2.5, f64::INFINITY, pos, pos1]
    }

    #[test]
    fn runs_encoder_writes_the_per_word_encoders_bytes() {
        let column = |n: usize| (0..n).map(|i| (Value::Float(i as f64 * 0.5), 1 + i as u64 % 4));
        let specials = ascending_specials().into_iter().map(|x| (Value::Float(x), 2));
        let strings = |n: usize| (0..n).map(|i| (Value::str(&format!("s{i:04}")), 3));
        let cases: Vec<Vec<(Value, u64)>> = vec![
            Vec::new(),
            column(1).collect(),
            column(256).collect(),
            column(257).collect(),
            column(600).collect(),
            specials.collect(),
            (0..40).map(|i| (Value::Int(i), 1)).collect(),
            // Ints among floats, first, in the middle and last.
            [(Value::Int(-3), 1)].into_iter().chain(column(20)).collect(),
            column(10).chain([(Value::Int(99), 1)]).chain(column(30).skip(25)).collect(),
            column(300).chain(strings(1)).collect(),
            // A float frame, then a mixed one: the kind changes between
            // frames, and again inside the second batch's column.
            column(256).chain(strings(5)).collect(),
            column(512).chain(strings(300)).collect(),
        ];
        for runs in &cases {
            encoders_agree(runs);
        }
    }

    #[test]
    fn runs_decoder_refuses_what_push_run_refuses() {
        let col = |xs: &[f64]| xs.iter().map(|&x| (x, 1)).collect::<Vec<_>>();
        let with_count = |mut runs: Vec<(f64, u64)>, at: usize, count: u64| {
            runs[at].1 = count;
            runs
        };
        let five = col(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let zero = "bad value encoding: malformed bag: a run with count 0";
        let order = "bad value encoding: malformed bag: runs not strictly ascending";
        let [pos, pos1, neg, _] = NANS.map(f64::from_bits);
        // (frames as float columns, the error they meet)
        type Frames = Vec<Vec<(f64, u64)>>;
        let float_cases: Vec<(Frames, Option<&str>)> = vec![
            (vec![with_count(five.clone(), 0, 0)], Some(zero)),
            (vec![with_count(five.clone(), 2, 0)], Some(zero)),
            (vec![with_count(five.clone(), 4, 0)], Some(zero)),
            (vec![col(&[1.0, 2.0, 2.0, 3.0])], Some(order)),
            (vec![col(&[1.0, 3.0, 2.0])], Some(order)),
            // A zero count and a descending pair: the first run in order
            // decides the error.
            (vec![with_count(col(&[1.0, 3.0, 2.0, 4.0]), 3, 0)], Some(order)),
            (vec![with_count(col(&[1.0, 2.0, 4.0, 3.0]), 2, 0)], Some(zero)),
            (vec![col(&[1.0, 2.0]), col(&[2.0, 3.0])], Some(order)),
            (vec![col(&[1.0, 5.0]), col(&[3.0])], Some(order)),
            (vec![col(&[1.0, 2.0]), with_count(col(&[3.0]), 0, 0)], Some(zero)),
            (vec![col(&ascending_specials())], None),
            (vec![col(&ascending_specials()[..5]), col(&ascending_specials()[5..])], None),
            (vec![col(&[pos, pos])], Some(order)),
            (vec![col(&[pos1, pos])], Some(order)),
            (vec![col(&[neg, neg])], Some(order)),
            (vec![col(&[pos, neg])], Some(order)),
            (vec![col(&[0.0, -0.0])], Some(order)),
            (vec![col(&[-0.0, 0.0])], None),
            (vec![col(&[-0.0]), col(&[0.0])], None),
            (vec![col(&[0.0]), col(&[-0.0])], Some(order)),
            (vec![col(&[f64::INFINITY]), col(&[pos])], None),
            (vec![col(&[pos]), col(&[f64::INFINITY])], Some(order)),
            (vec![col(&[]), col(&[1.0]), col(&[])], None),
        ];
        for (frames, want) in float_cases {
            let bodies: Vec<_> = frames.iter().map(|f| float_body(f)).collect();
            assert_eq!(decoders_agree(&bodies).as_deref(), want, "{frames:?}");
            // The same runs in the codec, frame for frame.
            let bodies: Vec<_> = frames.iter().map(|f| mixed_body(&floats(f))).collect();
            assert_eq!(decoders_agree(&bodies).as_deref(), want, "mixed {frames:?}");
        }
        // Across kinds, by `Value::cmp`: ints and floats by number, a
        // string above every number.
        let ints = |xs: &[i64]| {
            mixed_body(&xs.iter().map(|&i| (Value::Int(i), 1)).collect::<Vec<_>>())
        };
        let text = mixed_body(&[(Value::str("a"), 1)]);
        let mixed_cases: Vec<(Vec<Vec<u8>>, Option<&str>)> = vec![
            (vec![ints(&[1, 2]), float_body(&col(&[2.5, 3.0]))], None),
            (vec![ints(&[1, 2]), float_body(&col(&[2.0]))], Some(order)),
            (vec![float_body(&col(&[1.5])), ints(&[1])], Some(order)),
            (vec![float_body(&col(&[1.5])), ints(&[2]), float_body(&col(&[2.5]))], None),
            (vec![text.clone(), float_body(&col(&[1.0]))], Some(order)),
            (vec![float_body(&col(&[pos])), text.clone()], None),
            (vec![float_body(&col(&[1.0])), mixed_body(&[(Value::Null, 1)])], Some(order)),
        ];
        for (bodies, want) in mixed_cases {
            assert_eq!(decoders_agree(&bodies).as_deref(), want, "{bodies:?}");
        }
    }

    #[test]
    fn runs_decoder_refuses_a_truncated_column_as_push_run_does() {
        let runs: Vec<_> = ascending_specials().into_iter().map(|x| (x, 7)).collect();
        for body in [float_body(&runs), mixed_body(&floats(&runs))] {
            for cut in 0..body.len() {
                let text = decoders_agree(&[body[..cut].to_vec()]);
                assert!(text.is_some(), "a body cut at {cut} of {} decodes", body.len());
            }
            // A truncated second frame, after a whole first one.
            let first = float_body(&[(f64::NEG_INFINITY, 1)]);
            for cut in [0, 4, 5, 6, 13, body.len() - 1] {
                assert!(decoders_agree(&[first.clone(), body[..cut].to_vec()]).is_some());
            }
        }
    }

    /// A float for the generated columns: one of the specials, or one of
    /// a thousand evenly spaced numbers.
    fn any_float() -> BoxedStrategy<f64> {
        prop_oneof![
            prop::sample::select(ascending_specials()),
            (-500i64..500).prop_map(|i| i as f64 * 0.25),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// A generated bag — floats, with ints and strings among them or
        /// not — streams as the per-word encoder streams it, and reads
        /// back as the run-by-run decoder reads it.
        #[test]
        fn runs_codec_matches_the_per_word_codec_on_generated_bags(
            xs in prop::collection::vec(any_float(), 0..700),
            others in prop::collection::vec((0u8..3, 0usize..700), 0..3),
        ) {
            let mut items: Vec<Value> = xs.into_iter().map(Value::Float).collect();
            for (kind, at) in others {
                let other = match kind {
                    0 => Value::Int(at as i64 - 350),
                    1 => Value::str(&format!("s{at}")),
                    _ => Value::Float(f64::from_bits(NANS[at % 4])),
                };
                items.insert(at.min(items.len()), other);
            }
            let Value::Bag(runs) = Value::bag_from(items) else { unreachable!() };
            encoders_agree(&runs);
            let bodies: Vec<Vec<u8>> = runs
                .chunks(ROW_BATCH)
                .map(|batch| {
                    let mut body = Vec::new();
                    encode_runs(&mut body, batch).unwrap();
                    body.split_off(1)
                })
                .collect();
            prop_assert_eq!(decoders_agree(&bodies), None);
        }

        /// A generated float column, spoiled or not — a count of 0, a run
        /// equal to or below the one before — and cut into frames of
        /// either kind, reads as the run-by-run decoder reads it.
        #[test]
        fn runs_decoder_matches_push_run_on_generated_columns(
            xs in prop::collection::vec((any_float(), 1u64..5), 0..400),
            spoil in (0u8..4, 0u8..3),
            cuts in prop::collection::vec((0usize..400, prop::bool::ANY), 0..3),
        ) {
            let mut runs = xs;
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            runs.dedup_by(|a, b| a.0.total_cmp(&b.0).is_eq());
            let (how, place) = spoil;
            if runs.len() > 1 {
                let at = [1, runs.len() / 2, runs.len() - 1][usize::from(place)];
                match how {
                    0 => runs[at].1 = 0,
                    1 => runs[at].0 = runs[at - 1].0,
                    2 => runs.swap(at - 1, at),
                    _ => {}
                }
            }
            let mut ends: Vec<usize> = cuts.iter().map(|(at, _)| at % (runs.len() + 1)).collect();
            ends.sort_unstable();
            let mut bodies = Vec::new();
            let mut from = 0;
            for (k, end) in ends.into_iter().chain([runs.len()]).enumerate() {
                let frame = &runs[from..end];
                let packed = cuts.get(k).is_none_or(|(_, packed)| *packed);
                bodies.push(if packed { float_body(frame) } else { mixed_body(&floats(frame)) });
                from = end;
            }
            decoders_agree(&bodies);
        }
    }
}
