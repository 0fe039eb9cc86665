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
//! carries its values in the codec. One run decoder serves both readers
//! of `RUNS` and appends each run to a caller's vector: a frame's first
//! run is checked by the codec's bag rule (`codec::push_run`) against the
//! run before it, whatever that run's kind, and the rest of a float
//! column by comparing its words with `f64::total_cmp` (`Value::cmp`'s
//! order between floats), so the order is checked in every frame and
//! across frames.
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
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated);
    }
    let s = std::str::from_utf8(&buf[..len]).map_err(|_| WireError::BadUtf8)?.to_owned();
    buf.advance(len);
    Ok(s)
}

fn get_params(buf: &mut Bytes) -> Result<Vec<(String, Value)>> {
    let count = get_u32(buf)? as usize;
    // Each param is at least a 4-byte name length + 1 tag byte: refuse
    // counts the remaining bytes cannot possibly satisfy before
    // reserving anything.
    if count > buf.remaining() / 5 + 1 {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name = get_str(buf)?;
        let value = codec::decode_value(buf)?;
        out.push((name, value));
    }
    Ok(out)
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
/// values are packed until one is not a float, and then written again in
/// the codec after the counts, which both layouts share.
fn encode_runs(buf: &mut Vec<u8>, runs: &[(Value, u64)]) -> Result<()> {
    buf.reserve(6 + 16 * runs.len());
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

/// A `RUNS` payload (what follows the opcode), appended to `runs`. `n` is
/// checked against the body before anything is reserved; each frame's
/// first run is checked by the codec's bag rule against the run before it
/// — already in `runs`, from an earlier frame of any kind — and the rest
/// of a float column word by word.
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
    runs.reserve(n);
    let counts_len = 8 * n;
    if kind == RUNS_MIXED {
        let counts: Vec<u64> =
            buf[..counts_len].chunks_exact(8).map(|c| u64::from_le_bytes(word(c))).collect();
        buf.advance(counts_len);
        for count in counts {
            let value = codec::decode_value(buf)?;
            codec::push_run(runs, value, count)?;
        }
        return Ok(());
    }
    let (counts, values) = buf[..2 * counts_len].split_at(counts_len);
    get_float_column(runs, counts, values)?;
    buf.advance(2 * counts_len);
    Ok(())
}

/// Append a packed float column of `counts.len() / 8` runs to `runs`: the
/// first by `codec::push_run`, each later one refused unless its count is
/// nonzero and its word strictly above the one before by `f64::total_cmp`.
fn get_float_column(runs: &mut Vec<(Value, u64)>, counts: &[u8], values: &[u8]) -> Result<()> {
    let mut column = counts
        .chunks_exact(8)
        .zip(values.chunks_exact(8))
        .map(|(c, v)| (u64::from_le_bytes(word(c)), f64::from_le_bytes(word(v))));
    let Some((count, first)) = column.next() else { return Ok(()) };
    codec::push_run(runs, Value::Float(first), count)?;
    let mut prev = first;
    for (count, value) in column {
        if count == 0 {
            return Err(CodecError::BadBag("a run with count 0").into());
        }
        if !prev.total_cmp(&value).is_lt() {
            return Err(CodecError::BadBag("runs not strictly ascending").into());
        }
        runs.push((Value::Float(value), count));
        prev = value;
    }
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
}
