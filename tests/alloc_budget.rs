//! Allocation budgets of the warm served read, counted by this binary's
//! own global allocator.
//!
//! The binary holds exactly one test, so no sibling test thread allocates
//! while a count runs: the only threads are this test's (the client) and
//! the server's. Allocations are counted per side — the test thread is
//! the client, every other thread the server — and `realloc` counts as an
//! allocation, since a growing buffer allocates.
//!
//! Pinned, per operation in the steady state after a warm-up on one
//! snapshot epoch (a one-off allocation over the counted repetitions
//! rounds away):
//! - a point-wire round trip (`PREPARE`d `exists h in Hotels: h.name =
//!   $name`, one `EXECUTE` and its scalar reply), client plus server;
//! - one in-process `Prepared::execute_snapshot` of the same statement;
//! - a bag reply's server-side count (`bulk-rows`' statement), which
//!   does not grow with the number of runs the reply carries.
//!
//! The budgets hold with the plan verifier on, as it is by default in a
//! debug build (`MONOID_VERIFY`): it makes one allocation per statement.
//! Before frames shared a buffer per side, the root environment was kept
//! per epoch and a bag reply became a window of its lane, a release build
//! made 35 allocations per round trip and 10 per `execute_snapshot`.

use monoid_db::calculus::value::Value;
use monoid_db::server::{Client, Server};
use monoid_db::store::travel::{self, TravelScale};
use monoid_db::{prepare_on, Params};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static CLIENT: AtomicU64 = AtomicU64::new(0);
static SERVER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are the client's.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    let side = if IS_CLIENT.with(Cell::get) { &CLIENT } else { &SERVER };
    side.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(client, server)` allocations made while `f` ran `reps` times, per
/// repetition, rounded down.
fn per_rep(reps: u64, mut f: impl FnMut()) -> (u64, u64) {
    let (c0, s0) = (CLIENT.load(Ordering::SeqCst), SERVER.load(Ordering::SeqCst));
    for _ in 0..reps {
        f();
    }
    let (c1, s1) = (CLIENT.load(Ordering::SeqCst), SERVER.load(Ordering::SeqCst));
    ((c1 - c0) / reps, (s1 - s0) / reps)
}

const POINT: &str = "exists h in Hotels: h.name = $name";
const BULK: &str = "select r.price from h in Hotels, r in h.rooms where r.price >= $floor";

/// At most this many allocations per warm point-wire round trip, client
/// plus server: the client's reply batch; the server's bindings, decoded
/// from the frame straight into `Params`, the string value, the `$name`
/// environment node, the fold's registers and table slots, and the
/// verifier's.
const ROUND_TRIP_BUDGET: u64 = 7;
/// At most this many per warm in-process `execute_snapshot`: the
/// `$name` environment node, the fold's registers and table slots, and
/// the verifier's.
const IN_PROCESS_BUDGET: u64 = 4;
/// At most this many server allocations per warm bag reply, whatever its
/// runs: the bindings, the `$floor` environment node, the fold's
/// registers, and the verifier's. A chain of range filters alone takes
/// its block of the lane from the bisections, with no verdict per entry,
/// and the reply is a window of the lane's runs, encoded from the frame
/// buffer.
const BULK_REPLY_BUDGET: u64 = 4;

#[test]
fn warm_reads_allocate_within_budget() {
    IS_CLIENT.with(|c| c.set(true));
    let reps = 200;

    // In process: the point statement on one snapshot, warm.
    let db = travel::generate(TravelScale::small(), 7);
    let snap = db.snapshot();
    let stmt = prepare_on(&snap, POINT).unwrap();
    let params = Params::new().bind("name", Value::str("hotel_3_2"));
    for _ in 0..20 {
        assert_eq!(stmt.execute_snapshot(&snap, &params).unwrap(), Value::Bool(true));
    }
    let (in_process, _) = per_rep(reps, || {
        stmt.execute_snapshot(&snap, &params).unwrap();
    });
    eprintln!("in-process execute_snapshot: {in_process} allocations");

    // Over the wire: the same statement, PREPAREd once.
    let server = Server::bind("127.0.0.1:0", db).unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let (id, _) = client.prepare(POINT).unwrap();
    let wire_params = vec![("name".to_string(), Value::str("hotel_3_2"))];
    for _ in 0..20 {
        client.execute(id, &wire_params).unwrap();
    }
    let (client_side, server_side) = per_rep(reps, || {
        let reply = client.execute(id, &wire_params).unwrap();
        assert_eq!(reply.value, Value::Bool(true));
    });
    let round_trip = client_side + server_side;
    eprintln!("point-wire round trip: {round_trip} allocations ({client_side} client)");
    let (ping_client, ping_server) = per_rep(reps, || client.ping().unwrap());
    let ping = ping_client + ping_server;
    eprintln!("ping: {ping} allocations");
    drop(client);
    handle.shutdown();

    // A bag reply: the server's count does not grow with its runs.
    let bulk = TravelScale { rooms_per_hotel: 40, ..TravelScale::small() };
    let server = Server::bind("127.0.0.1:0", travel::generate(bulk, 7)).unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let (id, _) = client.prepare(BULK).unwrap();
    let mut server_per_reply = Vec::new();
    for floor in [40.0, 390.0] {
        let wire_params = vec![("floor".to_string(), Value::Float(floor))];
        let mut runs = 0;
        for _ in 0..5 {
            let reply = client.execute(id, &wire_params).unwrap();
            let Value::Bag(bag) = &reply.value else { panic!("a bag: {:?}", reply.value) };
            runs = bag.len();
        }
        let (_, server_side) = per_rep(20, || {
            client.execute(id, &wire_params).unwrap();
        });
        eprintln!("bulk reply of {runs} runs: {server_side} server allocations");
        server_per_reply.push((runs, server_side));
    }
    drop(client);
    handle.shutdown();

    let [(many, at_many), (few, at_few)] = server_per_reply[..] else { unreachable!() };
    assert!(many > 256 && few < 256, "two RUNS frames against one: {many} and {few} runs");
    assert!(at_many <= at_few, "{many} runs cost {at_many} allocations, {few} runs {at_few}");
    assert!(at_few <= BULK_REPLY_BUDGET, "a bag reply made {at_few} server allocations");
    assert!(in_process <= IN_PROCESS_BUDGET, "execute_snapshot made {in_process} allocations");
    assert!(round_trip <= ROUND_TRIP_BUDGET, "a round trip made {round_trip} allocations");
    assert_eq!(ping, 0, "a PING round trip allocates no frame");
}
