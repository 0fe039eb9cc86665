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
//!   an error, never panics, never hangs.

use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::types::{Schema, Type};
use monoid_db::calculus::value::Value;
use monoid_db::server::{Client, Server};
use monoid_db::store::Database;
use monoid_db::wire::{self, Request, Response, ResultShape};
use monoid_db::Params;
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
    assert_eq!(wire::PROTOCOL_VERSION, 2, "bags stream as RUNS since version 2");
    let hello = Request::Hello { protocol: wire::PROTOCOL_VERSION, client: "cli".to_string() }
        .encode()
        .unwrap();
    assert_eq!(hello, [0x01, 2, 3, 0, 0, 0, b'c', b'l', b'i']);

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

    // RUNS: opcode + u32le run count, then each run as its codec value
    // followed by its u64le count.
    let runs = Response::Runs { runs: vec![(Value::Int(7), 3)] }.encode().unwrap();
    assert_eq!(
        runs,
        [0x87, 1, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]
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
        [0x81, 2, 1, 0, 0, 0, b's', 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
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
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Request::Hello { protocol: wire::PROTOCOL_VERSION, client: "t".into() };
    wire::write_request(&mut stream, &hello).unwrap();
    assert!(matches!(wire::read_response(&mut stream).unwrap(), Some(Response::Hello { .. })));
    let query = Request::Query { src: src.to_string(), params: vec![] };
    wire::write_request(&mut stream, &query).unwrap();
    let mut frames = Vec::new();
    loop {
        let frame = wire::read_response(&mut stream).unwrap().expect("a frame before DONE");
        let done = matches!(frame, Response::Done { .. });
        frames.push(frame);
        if done {
            return frames;
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
/// first request with `frames` verbatim, then hangs up.
fn scripted_server(protocol: u8, frames: Vec<Response>) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the client connects");
        wire::read_request(&mut stream).unwrap();
        let hello = Response::Hello { server: "script".into(), protocol, instance: 1, epoch: 0 };
        wire::write_response(&mut stream, &hello).unwrap();
        // A client that refused the HELLO hangs up instead of asking.
        let Some(_) = wire::read_request(&mut stream).unwrap() else { return };
        for frame in &frames {
            // The client may hang up as soon as it sees the fault.
            if wire::write_response(&mut stream, frame).is_err() {
                break;
            }
        }
    });
    (addr, server)
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
        let (addr, server) = scripted_server(wire::PROTOCOL_VERSION, frames);
        let mut client = Client::connect(addr).expect("connect");
        let err = client.query("q", &[]).expect_err(label);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{label}: {err}");
        drop(client);
        server.join().expect("the scripted server does not panic");
    }

    // The same frames, well formed, reassemble.
    let (addr, server) = scripted_server(
        wire::PROTOCOL_VERSION,
        vec![runs(&[(1, 2)]), runs(&[(4, 1)]), done(ResultShape::Bag, 3)],
    );
    let got = Client::connect(addr).expect("connect").query("q", &[]).expect("reassembles");
    server.join().expect("the scripted server does not panic");
    let want = Value::bag_from([1, 1, 4].map(Value::Int).to_vec());
    assert_eq!(format!("{:?}", got.value), format!("{want:?}"));
    assert_eq!(got.rows, 3);
}

/// The handshake checks the protocol version on both sides, so a peer of
/// another version fails at HELLO rather than at its first bag result:
/// the server answers a version-1 HELLO with one `ERROR` and a clean
/// close, and the client refuses a server whose HELLO announces version 1.
#[test]
fn hello_refuses_a_peer_of_another_protocol_version() {
    let handle = spawn_server();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    wire::write_request(&mut stream, &Request::Hello { protocol: 1, client: "v1".into() })
        .unwrap();
    match wire::read_response(&mut stream).unwrap() {
        Some(Response::Error { message }) => {
            assert!(message.contains("protocol 1"), "{message}");
        }
        other => panic!("a v1 HELLO gets one ERROR, got {other:?}"),
    }
    assert!(wire::read_response(&mut stream).unwrap().is_none(), "then a clean close");
    // The server still serves clients of its own version.
    Client::connect(handle.addr()).expect("connect").ping().expect("pong");
    handle.shutdown();

    let (addr, server) = scripted_server(1, vec![]);
    let Err(err) = Client::connect(addr) else { panic!("a v1 server is refused") };
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    server.join().expect("the scripted server does not panic");
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
