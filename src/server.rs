//! The `oqld` serving front end: a concurrent, snapshot-isolated wire
//! server over one [`Database`].
//!
//! Thread-per-connection over the length-prefixed protocol in
//! [`crate::wire`] — no async runtime, no dependencies, and the same
//! isolation story: every connection is a [`Session`]; every *statement*
//! binds its own [`Snapshot`] of the database, so any number of
//! connections read concurrently, each seeing one consistent epoch, while
//! write statements serialize behind the `RwLock`'s write half. The lock
//! is held only to *take* the O(1) snapshot (readers) or for the write
//! itself (writers) — never across result streaming, so a slow client
//! cannot stall the database.
//!
//! Statement routing is effect-driven and lives in one function,
//! `run_statement`: the prepared statement's
//! [`EffectSummary`](monoid_calculus::analysis::EffectSummary) — via
//! [`Prepared::writes`](crate::Prepared::writes) — decides whether it
//! runs on the snapshot read path
//! ([`Prepared::execute_snapshot`](crate::Prepared::execute_snapshot))
//! or the writer path ([`Prepared::execute`](crate::Prepared::execute)
//! behind the write lock). A read-only statement therefore *cannot*
//! block on a writer's commit, and a writer cannot see a half-applied
//! read. The epoch each statement observed travels back to the client in
//! the `DONE` frame.
//!
//! Malformed frames (truncated, oversized, unknown opcodes, garbage
//! payloads) produce one `ERROR` response and a clean connection close —
//! the framing may be out of sync, so continuing would misparse
//! subsequent bytes. So does a HELLO announcing a protocol version other
//! than [`wire::PROTOCOL_VERSION`], and [`Client::connect`] refuses a
//! server whose HELLO does the same. Statement-level failures (parse
//! errors, unbound parameters, write-on-snapshot) produce an `ERROR`
//! response and keep the session open. Battery in
//! `tests/wire_protocol.rs` and `tests/server_smoke.rs`.

use crate::serving::Origin;
use crate::wire::{self, Frames, Head, Reassembly, Request, Response, WireError};
use crate::{AnalyzeError, InFlightGuard, Params, Prepared, Session};
use bytes::Bytes;
use monoid_calculus::value::Value;
use monoid_store::{Database, Snapshot};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;

/// The serving front end: a TCP listener plus the shared database it
/// serves. Construct with [`Server::bind`], then either [`Server::run`]
/// (blocking accept loop) or [`Server::spawn`] (background thread,
/// returns a [`ServerHandle`] for shutdown).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    db: Arc<RwLock<Database>>,
    shutdown: Arc<AtomicBool>,
}

/// Control handle for a spawned server: the bound address and a
/// shutdown switch.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server actually bound (port 0 resolves here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to stop. In-flight connections drain on
    /// their own (each exits at its next clean EOF); no new connections
    /// are accepted.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over
    /// `db`.
    pub fn bind(addr: impl ToSocketAddrs, db: Database) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            db: Arc::new(RwLock::new(db)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared database — embedding tests use this to run writer
    /// statements in-process while wire clients read.
    pub fn database(&self) -> Arc<RwLock<Database>> {
        Arc::clone(&self.db)
    }

    /// A control handle (address + shutdown switch).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { addr: self.addr, shutdown: Arc::clone(&self.shutdown) }
    }

    /// Run the accept loop on this thread until [`ServerHandle::shutdown`]
    /// fires. Each connection gets its own thread and [`Session`].
    pub fn run(self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // A refused/reset handshake is the peer's problem, not
            // grounds to stop serving everyone else.
            let Ok(stream) = conn else { continue };
            let db = Arc::clone(&self.db);
            thread::spawn(move || {
                let _ = serve_connection(stream, &db);
            });
        }
        Ok(())
    }

    /// [`Server::run`] on a background thread; returns the control
    /// handle.
    pub fn spawn(self) -> ServerHandle {
        let handle = self.handle();
        thread::spawn(move || {
            let _ = self.run();
        });
        handle
    }
}

/// Statement ids handed out by `PREPARE`, per connection.
fn next_statement_id(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

/// Drive one connection: a [`Session`] over the process-wide plan cache,
/// a per-connection prepared-statement table, one frame buffer for
/// everything the connection reads and writes, and the request loop.
fn serve_connection(stream: TcpStream, db: &Arc<RwLock<Database>>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut frames = Frames::default();
    let session = Session::new();
    let mut prepared: HashMap<u64, Arc<Prepared>> = HashMap::new();
    let statement_ids = AtomicU64::new(1);

    loop {
        let decode = |body: &mut Bytes| decode_request(body, db, &session, &prepared);
        let request = match frames.read(&mut reader, decode) {
            Ok(Some(req)) => req,
            // Clean EOF at a frame boundary: the client hung up.
            Ok(None) => return Ok(()),
            // Malformed frame: answer once, then close — the framing may
            // be out of sync, so continuing would misparse the stream.
            Err(e) => {
                let message = format!("malformed frame: {e}");
                let _ = frames.send(&mut writer, &Response::Error { message });
                let _ = writer.flush();
                return Err(e);
            }
        };
        // A statement's result lives until its reply is flushed: the
        // client waits for the bytes, not for the value to be freed.
        let mut outcome = None;
        match request {
            Incoming::Request(Request::Hello { protocol, client: _ })
                if protocol != wire::PROTOCOL_VERSION =>
            {
                // The client would misread this version's result frames:
                // refuse it before any statement runs.
                let message = version_mismatch("client", protocol);
                frames.send(&mut writer, &Response::Error { message })?;
                writer.flush()?;
                return Ok(());
            }
            Incoming::Request(Request::Hello { .. }) => {
                let (instance, epoch) = {
                    let db = db.read().unwrap_or_else(std::sync::PoisonError::into_inner);
                    (db.instance_id(), db.mutation_epoch())
                };
                frames.send(
                    &mut writer,
                    &Response::Hello {
                        server: concat!("oqld/", env!("CARGO_PKG_VERSION")).to_string(),
                        protocol: wire::PROTOCOL_VERSION,
                        instance,
                        epoch,
                    },
                )?;
            }
            Incoming::Request(Request::Ping) => frames.send(&mut writer, &Response::Pong)?,
            Incoming::Request(Request::Prepare { src }) => {
                let snap = take_snapshot(db);
                match session.cache().get_or_prepare_snapshot_traced(&snap, &src) {
                    Ok((stmt, _)) => {
                        let id = next_statement_id(&statement_ids);
                        let params =
                            stmt.params().iter().map(|p| p.as_str().to_string()).collect();
                        prepared.insert(id, stmt);
                        frames.send(&mut writer, &Response::Prepared { id, params })?;
                    }
                    Err(e) => send_error(&mut writer, &mut frames, &e)?,
                }
            }
            // `decode_head` hands `QUERY` and `EXECUTE` on as statements.
            Incoming::Request(Request::Query { .. } | Request::Execute { .. }) => {
                unreachable!("QUERY and EXECUTE decode as statements")
            }
            Incoming::Unprepared(id) => {
                let message = format!("no prepared statement #{id}");
                frames.send(&mut writer, &Response::Error { message })?;
            }
            Incoming::Statement(bound) => {
                let run = bound.and_then(|bound| run_statement(db, bound));
                send_outcome(&mut writer, &mut frames, outcome.insert(run))?;
            }
        }
        writer.flush()?;
    }
}

/// What one request frame asks `oqld` to do.
enum Incoming {
    /// `HELLO`, `PREPARE` or `PING`.
    Request(Request),
    /// A `QUERY`, or an `EXECUTE` of a statement this connection
    /// prepared: bound and ready to run, or the error its source met in
    /// the plan cache.
    Statement(Result<Bound, AnalyzeError>),
    /// An `EXECUTE` of a statement id this connection never handed out.
    Unprepared(u64),
}

/// Decode one request body. A `QUERY`'s or `EXECUTE`'s parameters are
/// bound straight from the body against the statement they run
/// ([`bind`]); the frame is malformed — whatever else it meets — when
/// any part of it is.
fn decode_request(
    body: &mut Bytes,
    db: &RwLock<Database>,
    session: &Session,
    prepared: &HashMap<u64, Arc<Prepared>>,
) -> Result<Incoming, WireError> {
    Ok(match wire::decode_head(body)? {
        Head::Other(request) => Incoming::Request(request),
        Head::Query { src } => {
            Incoming::Statement(bind(db, session, Statement::AdHoc(&src), body)?)
        }
        Head::Execute { id } => match prepared.get(&id) {
            Some(stmt) => {
                let stmt = Statement::Prepared(Arc::clone(stmt));
                Incoming::Statement(bind(db, session, stmt, body)?)
            }
            None => {
                wire::get_params_with(body, |_| (), |(), _| ())?;
                Incoming::Unprepared(id)
            }
        },
    })
}

/// Take an O(1) snapshot, holding the read lock only for the `Arc`
/// clones.
fn take_snapshot(db: &RwLock<Database>) -> Snapshot {
    db.read().unwrap_or_else(std::sync::PoisonError::into_inner).snapshot()
}

/// What a client asked to run: source text (`QUERY`), resolved through
/// the plan cache, or a statement it prepared earlier (`EXECUTE`).
enum Statement<'a> {
    AdHoc(&'a str),
    Prepared(Arc<Prepared>),
}

/// A statement bound to its snapshot and its parameters, inside its
/// session accounting — the in-flight gauge, the statement counter, and
/// the origin (session id, cache disposition, start instant) it builds
/// its flight-recorder record from.
struct Bound {
    snap: Snapshot,
    _in_flight: InFlightGuard,
    origin: Option<Origin>,
    stmt: Arc<Prepared>,
    params: Params,
}

/// Bind a statement: take its snapshot, enter the session, resolve ad-hoc
/// source through the plan cache against the snapshot — once — and
/// decode the parameters that end `body` into [`Params`], each name
/// matched against the statement's own placeholders where it lies in the
/// frame ([`Prepared::wire_symbol`]). A source the plan cache refuses is
/// the statement's error; its parameters are still decoded, so a
/// malformed frame is one whatever its source.
fn bind(
    db: &RwLock<Database>,
    session: &Session,
    stmt: Statement<'_>,
    body: &mut Bytes,
) -> Result<Result<Bound, AnalyzeError>, WireError> {
    let snap = take_snapshot(db);
    let (in_flight, mut origin) = session.enter();
    let stmt = match stmt {
        Statement::AdHoc(src) => session.lookup(&mut origin, &snap, src),
        Statement::Prepared(stmt) => Ok(stmt),
    };
    let stmt = match stmt {
        Ok(stmt) => stmt,
        Err(e) => {
            wire::get_params_with(body, |_| (), |(), _| ())?;
            return Ok(Err(e));
        }
    };
    let mut params = Params::new();
    let name = |name: &str| stmt.wire_symbol(name);
    wire::get_params_with(body, name, |sym, value| params.set_symbol(sym, value))?;
    Ok(Ok(Bound { snap, _in_flight: in_flight, origin, stmt, params }))
}

/// The one routing function. The statement's effects decide: a statement
/// that [writes](Prepared::writes) takes the write lock and commits
/// through [`Prepared::execute`]'s path; everything else executes against
/// its snapshot with no lock held. Returns the value and the epoch the
/// statement observed.
fn run_statement(db: &RwLock<Database>, bound: Bound) -> Result<(Value, u64), AnalyzeError> {
    let Bound { snap, _in_flight, origin, stmt, params } = bound;
    if stmt.writes() {
        let mut db = db.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let value = stmt.execute_from(origin, &mut db, &params)?;
        Ok((value, db.mutation_epoch()))
    } else {
        Ok((stmt.execute_snapshot_from(origin, &snap, &params)?, snap.epoch()))
    }
}

/// Stream a result ([`wire::write_result`]: `ROWS` or, for a bag,
/// `RUNS` batches, then `DONE` with the shape, element count, and
/// observed epoch) — or one `ERROR` frame.
fn send_outcome(
    writer: &mut impl Write,
    frames: &mut Frames,
    outcome: &Result<(Value, u64), AnalyzeError>,
) -> io::Result<()> {
    match outcome {
        Ok((value, epoch)) => wire::write_result(writer, frames, value, *epoch),
        Err(e) => send_error(writer, frames, e),
    }
}

fn send_error(writer: &mut impl Write, frames: &mut Frames, e: &AnalyzeError) -> io::Result<()> {
    frames.send(writer, &Response::Error { message: e.to_string() })
}

/// Why a HELLO from a `peer` announcing `protocol` is refused.
fn version_mismatch(peer: &str, protocol: u8) -> String {
    format!("{peer} speaks protocol {protocol}, this side speaks {}", wire::PROTOCOL_VERSION)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A minimal blocking client for the wire protocol — what the
/// throughput benchmark and the smoke tests drive. One statement at a
/// time per connection (the protocol is strictly request/response).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Every frame this client writes or reads goes through here.
    frames: Frames,
    /// Instance/epoch announced in the HELLO exchange.
    pub instance: u64,
    pub hello_epoch: u64,
}

/// A completed statement: the reassembled value plus the epoch the
/// server pinned for it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub value: Value,
    pub rows: u64,
    pub epoch: u64,
}

impl Client {
    /// Connect and complete the HELLO exchange.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            frames: Frames::default(),
            instance: 0,
            hello_epoch: 0,
        };
        client.send(&Request::Hello {
            protocol: wire::PROTOCOL_VERSION,
            client: "monoid-db".to_string(),
        })?;
        match client.recv()? {
            Response::Hello { protocol, .. } if protocol != wire::PROTOCOL_VERSION => Err(
                io::Error::new(io::ErrorKind::InvalidData, version_mismatch("server", protocol)),
            ),
            Response::Hello { instance, epoch, .. } => {
                client.instance = instance;
                client.hello_epoch = epoch;
                Ok(client)
            }
            other => Err(unexpected(&other)),
        }
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        self.send_with(|buf| req.encode_into(buf))
    }

    /// Encode one request with `encode`, write it and flush.
    fn send_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), wire::WireError>,
    ) -> io::Result<()> {
        self.frames.write(&mut self.writer, encode)?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Response> {
        self.frames.read(&mut self.reader, Response::decode_from)?.ok_or_else(server_closed)
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Execute `src` with `params`, reassembling the streamed result.
    /// Statement-level failures come back as `Err` with the server's
    /// message; the connection stays usable.
    pub fn query(
        &mut self,
        src: &str,
        params: &[(String, Value)],
    ) -> io::Result<QueryOutcome> {
        self.send_with(|buf| wire::encode_query(buf, src, params))?;
        self.collect_result()
    }

    /// Prepare `src`; returns the statement id for [`Client::execute`].
    pub fn prepare(&mut self, src: &str) -> io::Result<(u64, Vec<String>)> {
        self.send(&Request::Prepare { src: src.to_string() })?;
        match self.recv()? {
            Response::Prepared { id, params } => Ok((id, params)),
            Response::Error { message } => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, message))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Execute a prepared statement by id.
    pub fn execute(
        &mut self,
        id: u64,
        params: &[(String, Value)],
    ) -> io::Result<QueryOutcome> {
        self.send_with(|buf| wire::encode_execute(buf, id, params))?;
        self.collect_result()
    }

    /// Read one result stream to `DONE` and rebuild its value; a stream
    /// that does not rebuild a canonical value is an
    /// [`io::ErrorKind::InvalidData`] error.
    fn collect_result(&mut self) -> io::Result<QueryOutcome> {
        let mut result = Reassembly::default();
        loop {
            let frame = self.frames.read(&mut self.reader, |body| result.frame(body))?;
            match frame.ok_or_else(server_closed)? {
                None => {}
                Some(Response::Done { shape, rows, epoch }) => {
                    let value = result.done(shape, rows)?;
                    return Ok(QueryOutcome { value, rows, epoch });
                }
                Some(Response::Error { message }) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
                }
                Some(other) => return Err(unexpected(&other)),
            }
        }
    }
}

fn server_closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")
}

fn unexpected(resp: &Response) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected response: {resp:?}"))
}
