//! The wire protocol, locked down from both sides:
//!
//! * **golden encodings** — exact byte sequences for representative
//!   frames, so any accidental change to the layout (opcodes, field
//!   order, endianness, the length prefix) fails loudly instead of
//!   silently breaking old clients;
//! * **round trips against a live server** — a real [`Server`] over the
//!   travel store, driven by the [`Client`], including statement errors
//!   that must leave the connection usable, and bag results that cross
//!   as `RUNS`;
//! * **malformed frames** — truncated, oversized, and garbage frames
//!   sent over a raw socket: the server answers with one `ERROR` frame
//!   (when the framing allows) and closes, never panics, never hangs,
//!   and keeps serving fresh connections afterwards;
//! * **malformed result streams** — a scripted server feeds the
//!   [`Client`] result frames no real server sends: the client returns
//!   an error, never panics, never hangs;
//! * **`RUNS` columns** — the `runs_column_*` battery: packed float
//!   columns and mixed batches round-trip bit for bit, and every
//!   malformed column is an error, as is (by property) any garbage body.

use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::types::{Schema, Type};
use monoid_db::calculus::value::Value;
use monoid_db::server::{Client, Server};
use monoid_db::store::Database;
use monoid_db::wire::{self, Request, Response, ResultShape};
use monoid_db::Params;
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

fn spawn_server() -> monoid_db::server::ServerHandle {
    let db = monoid_db::store::travel::generate(monoid_db::store::TravelScale::tiny(), 7);
    Server::bind("127.0.0.1:0", db).expect("bind loopback").spawn()
}

// ---------------------------------------------------------------------
// Golden encodings
// ---------------------------------------------------------------------

fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, body).unwrap();
    out
}

/// The exact bytes of representative frames. Every assertion here is a
/// compatibility promise: changing any of them requires a protocol
/// version bump, not a silent re-encode.
#[test]
fn golden_frame_encodings() {
    // PING: 1-byte body, little-endian length prefix.
    assert_eq!(framed(&Request::Ping.encode().unwrap()), [1, 0, 0, 0, 0x05]);
    assert_eq!(framed(&Response::Pong.encode().unwrap()), [1, 0, 0, 0, 0x86]);

    // HELLO: opcode, protocol version, u32le-length client name.
    assert_eq!(wire::PROTOCOL_VERSION, 3, "RUNS frames are two columns since version 3");
    let hello = Request::Hello { protocol: wire::PROTOCOL_VERSION, client: "cli".to_string() }
        .encode()
        .unwrap();
    assert_eq!(hello, [0x01, 3, 3, 0, 0, 0, b'c', b'l', b'i']);

    // PREPARE: opcode + u32le-length source.
    let prepare = Request::Prepare { src: "count(Cities)".to_string() }.encode().unwrap();
    let mut want = vec![0x03, 13, 0, 0, 0];
    want.extend_from_slice(b"count(Cities)");
    assert_eq!(prepare, want);

    // EXECUTE: opcode + u64le statement id + u32le param count.
    let execute = Request::Execute { id: 7, params: vec![] }.encode().unwrap();
    assert_eq!(execute, [0x04, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);

    // DONE: opcode + shape byte + u64le rows + u64le epoch.
    let done =
        Response::Done { shape: ResultShape::Set, rows: 3, epoch: 9 }.encode().unwrap();
    assert_eq!(
        done,
        [0x83, 2, 3, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]
    );

    // ROWS: opcode + u32le count, then each element in the store codec
    // (INT = tag 3 + i64le).
    let rows = Response::Rows { values: vec![Value::Int(7)] }.encode().unwrap();
    assert_eq!(rows, [0x82, 1, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0]);

    // RUNS: opcode + u32le run count + kind, then the u64le counts, then
    // the values. Only floats are packed: an all-int batch is mixed
    // (0xff), its values in the codec (INT = tag 3 + i64le).
    let runs = Response::Runs { runs: vec![(Value::Int(7), 3)] }.encode().unwrap();
    assert_eq!(
        runs,
        [0x87, 1, 0, 0, 0, 0xff, 3, 0, 0, 0, 0, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0]
    );

    // An all-float batch is of kind FLOAT (tag 4), its values packed as
    // f64le: 1.5 = 0x3ff8…, 4.0 = 0x4010….
    let floats = Response::Runs { runs: vec![(Value::Float(1.5), 2), (Value::Float(4.0), 1)] }
        .encode()
        .unwrap();
    assert_eq!(
        floats,
        [
            0x87, 2, 0, 0, 0, 4, //
            2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, //
            0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0, 0, 0, 0, 0, 0, 0x10, 0x40,
        ]
    );

    // Any other batch is mixed (0xff): the counts, then each value in the
    // codec — here INT 1, then FLOAT 2.5 = 0x4004….
    let mixed = Response::Runs { runs: vec![(Value::Int(1), 1), (Value::Float(2.5), 3)] }
        .encode()
        .unwrap();
    assert_eq!(
        mixed,
        [
            0x87, 2, 0, 0, 0, 0xff, //
            1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, //
            3, 1, 0, 0, 0, 0, 0, 0, 0, //
            4, 0, 0, 0, 0, 0, 0, 0x04, 0x40,
        ]
    );

    // ERROR: opcode + u32le-length message.
    let error = Response::Error { message: "no".to_string() }.encode().unwrap();
    assert_eq!(error, [0x85, 2, 0, 0, 0, b'n', b'o']);

    // R_HELLO: opcode + protocol byte + server string + instance + epoch.
    let rhello = Response::Hello {
        server: "s".to_string(),
        protocol: wire::PROTOCOL_VERSION,
        instance: 2,
        epoch: 1,
    }
    .encode()
    .unwrap();
    assert_eq!(
        rhello,
        [0x81, 3, 1, 0, 0, 0, b's', 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    );
}

/// A query frame with a parameter round-trips bit-exactly through the
/// store codec, and re-encoding the decoded frame reproduces the bytes.
#[test]
fn query_frames_are_stable_under_reencode() {
    let req = Request::Query {
        src: "exists h in Hotels: h.name = $name".to_string(),
        params: vec![("name".to_string(), Value::str("hotel_0_0"))],
    };
    let bytes = req.encode().unwrap();
    let decoded = Request::decode(&bytes).unwrap();
    assert_eq!(decoded, req);
    assert_eq!(decoded.encode().unwrap(), bytes, "encoding is canonical");
}

// ---------------------------------------------------------------------
// Round trips against a live server
// ---------------------------------------------------------------------

#[test]
fn live_server_round_trips_queries_and_prepared_statements() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(client.instance != 0, "hello announces the instance id");
    client.ping().expect("ping round trip");

    // Ad-hoc query.
    let count = client.query("count(Cities)", &[]).expect("count executes");
    assert_eq!(count.value, Value::Int(3), "tiny scale has 3 cities");
    assert_eq!(count.epoch, client.hello_epoch, "no writer: epoch is pinned");

    // A collection result streams as rows and reassembles.
    let names = client.query("select c.name from c in Cities", &[]).expect("select executes");
    assert_eq!(names.rows, 3);
    assert_eq!(names.value.len().unwrap(), 3);

    // Prepared statement with a parameter, executed twice.
    let (id, params) =
        client.prepare("exists h in Hotels: h.name = $name").expect("prepare succeeds");
    // Parameter names are reported in canonical `$name` form.
    assert_eq!(params, vec!["$name".to_string()]);
    let hit = client
        .execute(id, &[("name".to_string(), Value::str("hotel_0_0"))])
        .expect("execute succeeds");
    assert_eq!(hit.value, Value::Bool(true));
    let miss = client
        .execute(id, &[("name".to_string(), Value::str("no-such-hotel"))])
        .expect("execute succeeds");
    assert_eq!(miss.value, Value::Bool(false));

    // A statement error comes back as ERROR and the session stays open.
    let err = client.query("select from where", &[]).expect_err("syntax error surfaces");
    assert!(!err.to_string().is_empty());
    client.ping().expect("connection survives a statement error");
    let again = client.query("count(Cities)", &[]).expect("still serving");
    assert_eq!(again.value, Value::Int(3));

    // Unknown prepared id: error, connection stays open.
    let err = client.execute(9999, &[]).expect_err("unknown id is refused");
    assert!(err.to_string().contains("9999"), "{err}");
    client.ping().expect("connection survives an unknown id");

    handle.shutdown();
}

/// Wire parameters bind as `Params::set` binds them — `name` and `$name`
/// name one placeholder, a later binding replaces an earlier one — on
/// `EXECUTE` and ad-hoc `QUERY` alike, and a binding that names no
/// placeholder, or a placeholder left unbound, fails with the in-process
/// error, word for word.
#[test]
fn wire_parameters_bind_as_params_set_binds_them() {
    let db = monoid_db::store::travel::generate(monoid_db::store::TravelScale::tiny(), 7);
    let src = "exists h in Hotels: h.name = $name";
    let in_process = |params: Params| {
        let stmt = monoid_db::prepare_on(&db, src).expect("prepares");
        stmt.execute_snapshot(&db, &params).map_err(|e| e.to_string())
    };
    let hotel = || Value::str("hotel_0_0");
    let unknown = in_process(Params::new().bind("name", hotel()).bind("oops", Value::Int(1)));
    assert_eq!(unknown, Err("binding for `$oops` does not match any statement parameter".into()));
    let unbound = in_process(Params::new());

    let handle = Server::bind("127.0.0.1:0", db.clone()).expect("bind loopback").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (id, _) = client.prepare(src).expect("prepares");
    let pair = |name: &str, value: Value| (name.to_string(), value);
    let miss = || Value::str("no-such-hotel");
    for run in [
        |c: &mut Client, id, ps: &[(String, Value)]| c.execute(id, ps),
        |c: &mut Client, _, ps: &[(String, Value)]| {
            c.query("exists h in Hotels: h.name = $name", ps)
        },
    ] {
        let mut value = |params: &[(String, Value)]| {
            run(&mut client, id, params).map(|o| o.value).map_err(|e| e.to_string())
        };
        assert_eq!(value(&[pair("$name", hotel())]), Ok(Value::Bool(true)));
        assert_eq!(value(&[pair("$name", miss()), pair("name", hotel())]), Ok(Value::Bool(true)));
        assert_eq!(value(&[pair("name", hotel()), pair("$name", miss())]), Ok(Value::Bool(false)));
        assert_eq!(value(&[pair("name", hotel()), pair("oops", Value::Int(1))]), unknown);
        assert_eq!(value(&[]), unbound);
    }
    client.ping().expect("the session survives its statement errors");
    handle.shutdown();
}

/// A server over one root, `Xs`, holding `items` as a list of `elem`.
fn spawn_server_over(
    elem: Type,
    items: Vec<Value>,
) -> (monoid_db::server::ServerHandle, Database) {
    let mut schema = Schema::new();
    schema.add_name(Symbol::new("Xs"), Type::list(elem));
    let mut db = Database::new(schema);
    db.set_root("Xs", Value::list(items));
    let served = db.clone();
    (Server::bind("127.0.0.1:0", db).expect("bind loopback").spawn(), served)
}

/// `src` executed in process, for the wire result to match.
fn in_process(db: &Database, src: &str) -> Value {
    let stmt = monoid_db::prepare_on(db, src).expect("prepares");
    stmt.execute_snapshot(db, &Params::new()).expect("executes")
}

/// Every response frame the server sends for one `QUERY`, up to and
/// including `DONE`, read off a raw socket.
fn query_frames(addr: SocketAddr, src: &str) -> Vec<Response> {
    query_bodies(addr, src).iter().map(|b| Response::decode(b).expect("frames decode")).collect()
}

/// [`query_frames`], as the frame bodies the server wrote.
fn query_bodies(addr: SocketAddr, src: &str) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Request::Hello { protocol: wire::PROTOCOL_VERSION, client: "t".into() };
    wire::write_request(&mut stream, &hello).unwrap();
    assert!(matches!(wire::read_response(&mut stream).unwrap(), Some(Response::Hello { .. })));
    let query = Request::Query { src: src.to_string(), params: vec![] };
    wire::write_request(&mut stream, &query).unwrap();
    let mut bodies = Vec::new();
    loop {
        let body = wire::read_frame(&mut stream).unwrap().expect("a frame before DONE");
        let done = body.first() == Some(&0x83);
        bodies.push(body);
        if done {
            return bodies;
        }
    }
}

/// A bag crosses the wire as its runs: 300 distinct values take two
/// `RUNS` frames; one value 100 000 times takes one frame of one run, and
/// `DONE.rows` still counts elements. The client's value is the
/// in-process value, `Debug` string for `Debug` string.
#[test]
fn bags_cross_the_wire_as_runs() {
    let spread: Vec<Value> = (0..1_000).map(|i| Value::Int(i * 7 % 300)).collect();
    let copies = vec![Value::Float(2.5); 100_000];
    for (elem, items, run_frames, runs, rows) in
        [(Type::Int, spread, 2, 300, 1_000), (Type::Float, copies, 1, 1, 100_000)]
    {
        let (handle, db) = spawn_server_over(elem, items);
        let src = "select x from x in Xs";
        let want = in_process(&db, src);

        let frames = query_frames(handle.addr(), src);
        assert_eq!(frames.len(), run_frames + 1, "RUNS frames, then DONE");
        let streamed: usize = frames
            .iter()
            .map(|f| match f {
                Response::Runs { runs } => runs.len(),
                Response::Done { shape, rows: done, .. } => {
                    assert_eq!((*shape, *done), (ResultShape::Bag, rows));
                    0
                }
                other => panic!("a bag streams as RUNS, got {other:?}"),
            })
            .sum();
        assert_eq!(streamed, runs);

        let mut client = Client::connect(handle.addr()).expect("connect");
        let got = client.query(src, &[]).expect("the bag reassembles");
        assert_eq!(got.rows, rows);
        assert_eq!(format!("{:?}", got.value), format!("{want:?}"));
        handle.shutdown();
    }
}

// ---------------------------------------------------------------------
// Malformed result streams
// ---------------------------------------------------------------------

/// A scripted server: answers HELLO announcing `protocol`, answers the
/// first request with the frame `bodies` verbatim, then hangs up.
fn scripted_server(protocol: u8, bodies: Vec<Vec<u8>>) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the client connects");
        wire::read_request(&mut stream).unwrap();
        let hello = Response::Hello { server: "script".into(), protocol, instance: 1, epoch: 0 };
        wire::write_response(&mut stream, &hello).unwrap();
        // A client that refused the HELLO hangs up instead of asking.
        let Some(_) = wire::read_request(&mut stream).unwrap() else { return };
        for body in &bodies {
            // The client may hang up as soon as it sees the fault.
            if wire::write_frame(&mut stream, body).is_err() {
                break;
            }
        }
    });
    (addr, server)
}

/// The bodies of `frames`.
fn bodies(frames: &[Response]) -> Vec<Vec<u8>> {
    frames.iter().map(|f| f.encode().unwrap()).collect()
}

/// A query answered by a scripted server with `bodies` is an `InvalidData`
/// error from the client, and the scripted server does not panic.
fn client_refuses(label: &str, bodies: Vec<Vec<u8>>) {
    let (addr, server) = scripted_server(wire::PROTOCOL_VERSION, bodies);
    let mut client = Client::connect(addr).expect("connect");
    let err = client.query("q", &[]).expect_err(label);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{label}: {err}");
    drop(client);
    server.join().expect("the scripted server does not panic");
}

/// Every stream a real server never sends is an `InvalidData` error from
/// the client: bag runs counted zero or descending across frames, runs
/// under a scalar or list `DONE`, a run count `DONE` disagrees with,
/// `ROWS` and `RUNS` mixed either way, and a set out of order.
#[test]
fn malformed_result_streams_are_errors_not_panics_or_hangs() {
    let runs = |runs: &[(i64, u64)]| Response::Runs {
        runs: runs.iter().map(|&(v, n)| (Value::Int(v), n)).collect(),
    };
    let rows = |values: &[i64]| Response::Rows {
        values: values.iter().copied().map(Value::Int).collect(),
    };
    let done = |shape, rows| Response::Done { shape, rows, epoch: 0 };
    let cases = [
        ("zero count", vec![runs(&[(1, 0)]), done(ResultShape::Bag, 0)]),
        ("descending", vec![runs(&[(5, 1)]), runs(&[(3, 1)]), done(ResultShape::Bag, 2)]),
        ("RUNS, scalar DONE", vec![runs(&[(1, 1)]), done(ResultShape::Scalar, 1)]),
        ("RUNS, list DONE", vec![runs(&[(1, 1)]), done(ResultShape::List, 1)]),
        ("rows ≠ Σ counts", vec![runs(&[(1, 2), (4, 1)]), done(ResultShape::Bag, 4)]),
        ("ROWS then RUNS", vec![rows(&[1]), runs(&[(2, 1)]), done(ResultShape::Bag, 2)]),
        ("RUNS then ROWS", vec![runs(&[(1, 1)]), rows(&[2]), done(ResultShape::Bag, 2)]),
        ("ROWS, bag DONE", vec![rows(&[1, 1]), done(ResultShape::Bag, 2)]),
        ("unsorted set", vec![rows(&[2, 1]), done(ResultShape::Set, 2)]),
        ("duplicate in set", vec![rows(&[1, 1]), done(ResultShape::Set, 2)]),
    ];
    for (label, frames) in cases {
        client_refuses(label, bodies(&frames));
    }

    // The same frames, well formed, reassemble.
    let (addr, server) = scripted_server(
        wire::PROTOCOL_VERSION,
        bodies(&[runs(&[(1, 2)]), runs(&[(4, 1)]), done(ResultShape::Bag, 3)]),
    );
    let got = Client::connect(addr).expect("connect").query("q", &[]).expect("reassembles");
    server.join().expect("the scripted server does not panic");
    let want = Value::bag_from([1, 1, 4].map(Value::Int).to_vec());
    assert_eq!(format!("{:?}", got.value), format!("{want:?}"));
    assert_eq!(got.rows, 3);
}

/// The handshake checks the protocol version on both sides, so a peer of
/// another version fails at HELLO rather than at its first bag result:
/// the server answers a version-1 or version-2 HELLO with one `ERROR` and
/// a clean close, and the client refuses a server whose HELLO announces
/// either.
#[test]
fn hello_refuses_a_peer_of_another_protocol_version() {
    let handle = spawn_server();
    for old in [1, 2] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let hello = Request::Hello { protocol: old, client: format!("v{old}") };
        wire::write_request(&mut stream, &hello).unwrap();
        match wire::read_response(&mut stream).unwrap() {
            Some(Response::Error { message }) => {
                assert!(message.contains(&format!("protocol {old}")), "{message}");
            }
            other => panic!("a v{old} HELLO gets one ERROR, got {other:?}"),
        }
        assert!(wire::read_response(&mut stream).unwrap().is_none(), "then a clean close");
    }
    // The server still serves clients of its own version.
    Client::connect(handle.addr()).expect("connect").ping().expect("pong");
    handle.shutdown();

    for old in [1, 2] {
        let (addr, server) = scripted_server(old, vec![]);
        let Err(err) = Client::connect(addr) else { panic!("a v{old} server is refused") };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        server.join().expect("the scripted server does not panic");
    }
}

// ---------------------------------------------------------------------
// RUNS columns
// ---------------------------------------------------------------------

const FLOAT: u8 = 4;
const MIXED: u8 = 0xff;

/// `items`, served as the list `Xs` of `elem`, queried as a bag: every
/// `RUNS` frame is of the kind `kinds` names in turn, re-encodes to its
/// own bytes, and the client's value is the in-process value — by `Debug`
/// string and by `Value::eq`, which tells floats apart bit by bit.
fn runs_round_trip(elem: Type, items: Vec<Value>, kinds: &[u8]) {
    let (handle, db) = spawn_server_over(elem, items);
    let src = "select x from x in Xs";
    let want = in_process(&db, src);

    let bodies = query_bodies(handle.addr(), src);
    let runs: Vec<&Vec<u8>> = bodies.iter().filter(|b| b[0] == 0x87).collect();
    assert_eq!(runs.iter().map(|b| b[5]).collect::<Vec<_>>(), kinds, "{want:?}");
    for body in runs {
        let frame = Response::decode(body).expect("a RUNS frame decodes");
        assert_eq!(&frame.encode().unwrap(), body, "encoding is canonical");
    }

    let got = Client::connect(handle.addr()).expect("connect").query(src, &[]).expect("reassembles");
    assert_eq!(format!("{:?}", got.value), format!("{want:?}"));
    assert_eq!(got.value, want);
    handle.shutdown();
}

/// A quiet NaN with `payload` in its low bits.
fn nan(payload: u64) -> f64 {
    f64::from_bits(0x7ff8_0000_0000_0000 | payload)
}

#[test]
fn runs_column_round_trips_float_edges_bit_for_bit() {
    let edges = [0.0, -0.0, nan(1), nan(2), f64::INFINITY, f64::NEG_INFINITY, 5e-324, 1.5];
    let items = edges.iter().chain(&edges[1..4]).copied().map(Value::Float).collect();
    runs_round_trip(Type::Float, items, &[FLOAT]);
}

#[test]
fn runs_column_round_trips_int_edges() {
    let two53 = 1i64 << 53;
    let edges = [i64::MIN, i64::MAX, two53 - 1, two53, two53 + 1, -1, 0];
    let items = edges.iter().chain(&edges[..3]).copied().map(Value::Int).collect();
    runs_round_trip(Type::Int, items, &[MIXED]);
}

/// 300 runs take two frames: 256 ints (a mixed batch), then the floats
/// above them (a `FLOAT` column). The second frame's first run is checked
/// against the first frame's last across kinds.
#[test]
fn runs_column_kind_changes_between_frames() {
    let ints = (0..256).flat_map(|i| [Value::Int(i), Value::Int(i)]);
    let floats = (0..44).map(|i| Value::Float(f64::from(i) + 255.5));
    runs_round_trip(Type::Float, ints.chain(floats).collect(), &[MIXED, FLOAT]);
}

#[test]
fn runs_column_strings_records_and_number_mixes_are_mixed() {
    let strings = ["b", "a", "", "b", "zz"].map(Value::str).to_vec();
    runs_round_trip(Type::Str, strings, &[MIXED]);

    let record = |k: i64| Value::record_from(vec![("k", Value::Int(k))]);
    let record_type = Type::record(vec![(Symbol::new("k"), Type::Int)]);
    runs_round_trip(record_type, vec![record(2), record(1), record(2)], &[MIXED]);

    let numbers = vec![Value::Int(1), Value::Float(1.5), Value::Int(2), Value::Int(1)];
    runs_round_trip(Type::Float, numbers, &[MIXED]);
}

/// Every malformed column is an `InvalidData` from the client, and an
/// error from `Response::decode` for a frame on its own.
#[test]
fn runs_column_malformed_columns_are_refused() {
    let floats = |runs: &[(f64, u64)]| Response::Runs {
        runs: runs.iter().map(|&(v, n)| (Value::Float(v), n)).collect(),
    };
    let ints = |runs: &[(i64, u64)]| Response::Runs {
        runs: runs.iter().map(|&(v, n)| (Value::Int(v), n)).collect(),
    };
    let done = |rows| Response::Done { shape: ResultShape::Bag, rows, epoch: 0 };
    let encoded = [
        ("float zero count first", vec![floats(&[(1.0, 0)]), done(0)]),
        ("float zero count inside", vec![floats(&[(1.0, 1), (2.0, 0)]), done(1)]),
        ("int zero count inside", vec![ints(&[(1, 1), (2, 0), (3, 1)]), done(2)]),
        ("-0.0 twice", vec![floats(&[(-0.0, 1), (-0.0, 1)]), done(2)]),
        ("0.0 above -0.0 only", vec![floats(&[(0.0, 1), (-0.0, 1)]), done(2)]),
        ("NaN payloads out of order", vec![floats(&[(nan(2), 1), (nan(1), 1)]), done(2)]),
        ("equal ints", vec![ints(&[(4, 1), (4, 1)]), done(2)]),
        ("descending ints", vec![ints(&[(i64::MAX, 1), (i64::MIN, 1)]), done(2)]),
        ("float descent across frames", vec![floats(&[(5.0, 1)]), floats(&[(3.0, 1)]), done(2)]),
        ("int to FLOAT descent", vec![ints(&[(5, 1)]), floats(&[(4.5, 1)]), done(2)]),
        ("int to FLOAT equal", vec![ints(&[(2, 1)]), floats(&[(2.0, 1)]), done(2)]),
    ];
    for (label, frames) in encoded {
        let bodies = bodies(&frames);
        if let [only, _done] = &bodies[..] {
            assert!(Response::decode(only).is_err(), "{label}: one frame decodes");
        }
        client_refuses(label, bodies);
    }

    let column = |n: u32, kind: u8, rest: &[u8]| {
        let mut body = vec![0x87];
        body.extend_from_slice(&n.to_le_bytes());
        body.push(kind);
        body.extend_from_slice(rest);
        body
    };
    // One run of count 1 and value 1.5 (0x3ff8…) as a float column.
    let one_float = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f];
    let mut trailing = one_float.to_vec();
    trailing.push(0);
    let raw = [
        ("unknown kind", column(1, 0x42, &one_float)),
        ("the int tag is no column kind", column(1, 3, &one_float)),
        ("a string tag is no column kind", column(1, 5, &one_float)),
        ("n over the body", column(2, FLOAT, &one_float)),
        ("n of u32::MAX", column(u32::MAX, FLOAT, &one_float)),
        ("mixed n over the body", column(2, MIXED, &one_float[..9])),
        ("truncated counts", column(2, FLOAT, &one_float[..12])),
        ("truncated mixed value", column(1, MIXED, &[1, 0, 0, 0, 0, 0, 0, 0, 5, 9, 0, 0, 0, b'a'])),
        ("trailing bytes", column(1, FLOAT, &trailing)),
        ("mixed trailing bytes", column(1, MIXED, &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0])),
    ];
    for (label, body) in raw {
        assert!(Response::decode(&body).is_err(), "{label}: the frame decodes");
        client_refuses(label, vec![body, done(1).encode().unwrap()]);
    }
}

/// Arbitrary numbers for a bag: ints (with repeats), floats with NaN
/// payloads, ±0.0 and ±∞, strings, and ints among floats.
fn bag_element() -> impl Strategy<Value = Value> {
    let specials = vec![0.0, -0.0, nan(1), nan(7), f64::INFINITY, f64::NEG_INFINITY, 5e-324];
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-4i64..5).prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        prop::sample::select(specials).prop_map(Value::Float),
        (-8i64..9).prop_map(|i| Value::Float(i as f64 / 2.0)),
        "[a-c]{0,2}".prop_map(|s| Value::str(&s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any bytes after a `RUNS` opcode, count and kind decode to a value
    /// or an error — never a panic.
    #[test]
    fn runs_column_decode_never_panics(
        n in prop_oneof![0u32..40, Just(u32::MAX), any::<u32>()],
        kind in prop::sample::select(vec![FLOAT, MIXED, 0, 3, 5, 0x42]),
        rest in prop::collection::vec(0u8..=255, 0..400),
    ) {
        let mut body = vec![0x87];
        body.extend_from_slice(&n.to_le_bytes());
        body.push(kind);
        body.extend_from_slice(&rest);
        let _ = Response::decode(&body);
    }

    /// A bag's runs — all ints, all floats or anything mixed — encode and
    /// decode to themselves.
    #[test]
    fn runs_column_encode_decode_is_the_identity(
        elements in prop::collection::vec(bag_element(), 0..40),
        numeric in prop::sample::select(vec![0u8, 1, 2]),
    ) {
        let elements: Vec<Value> = match numeric {
            0 => elements.into_iter().filter(|v| matches!(v, Value::Int(_))).collect(),
            1 => elements.into_iter().filter(|v| matches!(v, Value::Float(_))).collect(),
            _ => elements,
        };
        let Value::Bag(runs) = Value::bag_from(elements) else { unreachable!() };
        let sent = Response::Runs { runs: runs.to_vec() };
        let body = sent.encode().unwrap();
        let got = Response::decode(&body).unwrap();
        prop_assert_eq!(format!("{got:?}"), format!("{sent:?}"));
        prop_assert_eq!(got, sent);
    }
}

// ---------------------------------------------------------------------
// Malformed frames
// ---------------------------------------------------------------------

/// Send raw bytes, then read whatever the server answers until it
/// closes. Returns the raw response bytes. A read timeout guards
/// against the one failure mode this battery exists to prevent: a hang.
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).expect("write");
    // Half-close so a server waiting for more body bytes sees EOF
    // instead of stalling the test.
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("server closes cleanly, not via timeout/reset");
    out
}

/// Decode the single response frame the server sent before closing.
fn sole_response(bytes: &[u8]) -> Option<Response> {
    let mut cursor = std::io::Cursor::new(bytes);
    let resp = wire::read_response(&mut cursor).expect("server bytes decode")?;
    assert_eq!(cursor.position() as usize, bytes.len(), "exactly one frame before close");
    Some(resp)
}

#[test]
fn malformed_frames_get_one_error_then_a_clean_close() {
    let handle = spawn_server();
    let addr = handle.addr();

    // Unknown opcode inside a well-formed frame.
    let garbage_op = send_raw(addr, &framed(&[0x7f, 1, 2, 3]));
    match sole_response(&garbage_op) {
        Some(Response::Error { message }) => {
            assert!(message.contains("opcode"), "{message}");
        }
        other => panic!("want ERROR for a bad opcode, got {other:?}"),
    }

    // Well-formed frame, truncated QUERY payload (length says 100, body
    // ends early).
    let mut body = vec![0x02];
    body.extend_from_slice(&100u32.to_le_bytes());
    body.extend_from_slice(b"short");
    let truncated_payload = send_raw(addr, &framed(&body));
    assert!(
        matches!(sole_response(&truncated_payload), Some(Response::Error { .. })),
        "truncated payload gets an ERROR"
    );

    // Trailing bytes after a valid PING body.
    let trailing = send_raw(addr, &framed(&[0x05, 0xde, 0xad]));
    assert!(
        matches!(sole_response(&trailing), Some(Response::Error { .. })),
        "trailing bytes get an ERROR"
    );

    // Frame truncated mid-body: prefix promises 16 bytes, the stream
    // ends after 3. No response frame is owed (the request never
    // arrived) — the server just closes.
    let mut cut = 16u32.to_le_bytes().to_vec();
    cut.extend_from_slice(&[1, 2, 3]);
    let mid_frame = send_raw(addr, &cut);
    assert!(sole_response(&mid_frame).is_none() || matches!(sole_response(&mid_frame), Some(Response::Error { .. })));

    // Oversized length prefix: refused before any allocation.
    let huge = ((wire::MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    let oversized = send_raw(addr, &huge);
    match sole_response(&oversized) {
        Some(Response::Error { message }) => {
            assert!(message.contains("frame"), "{message}");
        }
        None => {}
        other => panic!("want ERROR or close for an oversized frame, got {other:?}"),
    }

    // Pure garbage that parses as a small length prefix.
    let _ = send_raw(addr, &[0xff, 0x00, 0x00, 0x00]);

    // After all of that abuse, the server still serves real clients.
    let mut client = Client::connect(addr).expect("server survived the abuse");
    let count = client.query("count(Cities)", &[]).expect("still serving");
    assert_eq!(count.value, Value::Int(3));

    handle.shutdown();
}

/// A parameter nested far deeper than any real value is one malformed
/// frame: 10 000 `LIST` tags (50 KB, far under `MAX_FRAME`) used to
/// overflow the connection thread's stack and abort the whole server.
#[test]
fn deeply_nested_params_get_an_error_not_a_crash() {
    let handle = spawn_server();
    let str_field = |out: &mut Vec<u8>, s: &str| {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    };
    // QUERY: source, one param named `$deep`, then its value — lists of
    // one element each (tag 8, count 1) around a null (tag 0).
    let mut body = vec![0x02];
    str_field(&mut body, "count(Cities)");
    body.extend_from_slice(&1u32.to_le_bytes());
    str_field(&mut body, "$deep");
    for _ in 0..10_000 {
        body.push(8);
        body.extend_from_slice(&1u32.to_le_bytes());
    }
    body.push(0);
    match sole_response(&send_raw(handle.addr(), &framed(&body))) {
        Some(Response::Error { message }) => assert!(message.contains("nested"), "{message}"),
        other => panic!("want ERROR for a too-deep param, got {other:?}"),
    }
    let mut client = Client::connect(handle.addr()).expect("the server survived");
    client.ping().expect("a new connection gets PONG");
    handle.shutdown();
}

/// Response decoding never panics on arbitrary bodies — the client-side
/// mirror of the server-side battery above.
#[test]
fn response_decode_rejects_garbage_without_panicking() {
    for body in [
        &[][..],
        &[0x00],
        &[0xff, 0xff],
        &[0x82, 0xff, 0xff, 0xff, 0xff],
        &[0x87, 0xff, 0xff, 0xff, 0xff],
        &[0x87, 1, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0],
        &[0x83, 9, 0, 0, 0, 0, 0, 0, 0, 0],
        &[0x81, 1, 200, 0, 0, 0],
    ] {
        assert!(Response::decode(body).is_err(), "garbage body {body:?} must error");
    }
}
