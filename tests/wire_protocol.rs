//! The wire protocol, locked down from both sides:
//!
//! * **golden encodings** — exact byte sequences for representative
//!   frames, so any accidental change to the layout (opcodes, field
//!   order, endianness, the length prefix) fails loudly instead of
//!   silently breaking old clients;
//! * **round trips against a live server** — a real [`Server`] over the
//!   travel store, driven by the [`Client`], including statement errors
//!   that must leave the connection usable;
//! * **malformed frames** — truncated, oversized, and garbage frames
//!   sent over a raw socket: the server answers with one `ERROR` frame
//!   (when the framing allows) and closes, never panics, never hangs,
//!   and keeps serving fresh connections afterwards.

use monoid_db::calculus::value::Value;
use monoid_db::server::{Client, Server};
use monoid_db::wire::{self, Request, Response, ResultShape};
use std::io::{Read, Write};
use std::net::TcpStream;
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

    // HELLO: opcode, advisory protocol version, u32le-length client name.
    let hello = Request::Hello { client: "cli".to_string() }.encode().unwrap();
    assert_eq!(hello, [0x01, 1, 3, 0, 0, 0, b'c', b'l', b'i']);

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
        [0x81, 1, 1, 0, 0, 0, b's', 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
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
        &[0x83, 9, 0, 0, 0, 0, 0, 0, 0, 0],
        &[0x81, 1, 200, 0, 0, 0],
    ] {
        assert!(Response::decode(body).is_err(), "garbage body {body:?} must error");
    }
}
