//! End-to-end smoke of the real `oqld` binary: spawn it as a child
//! process, parse the `listening on <addr>` line, drive a concurrent
//! client workload and numeric bags over the wire, and kill it.
//!
//! Gated on `MONOID_SERVER_SMOKE=1` — CI runs it as a dedicated step;
//! locally the test passes trivially (and says so) unless the variable
//! is set, so plain `cargo test` stays hermetic and fast.

use monoid_db::calculus::value::Value;
use monoid_db::server::Client;
use monoid_db::store::travel::{self, TravelScale};
use monoid_db::Params;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};

fn smoke_enabled() -> bool {
    std::env::var("MONOID_SERVER_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Kill the child even when an assertion panics mid-test.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_oqld(extra_args: &[&str]) -> (Reaper, std::net::SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_oqld"));
    cmd.args(["--addr", "127.0.0.1:0"]).args(extra_args);
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    let mut child = cmd.spawn().expect("oqld spawns");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let line = lines
        .next()
        .expect("oqld prints its address before serving")
        .expect("oqld stdout is readable");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .parse()
        .expect("announced address parses");
    (Reaper(child), addr)
}

#[test]
fn spawned_oqld_serves_a_concurrent_workload() {
    if !smoke_enabled() {
        eprintln!("MONOID_SERVER_SMOKE != 1 — skipping the oqld process smoke test");
        return;
    }
    let (_reaper, addr) = spawn_oqld(&["--scale", "tiny", "--seed", "7"]);

    // Sanity from one connection first.
    let mut probe = Client::connect(addr).expect("connect to spawned oqld");
    probe.ping().expect("ping");
    let count = probe.query("count(Cities)", &[]).expect("count executes");
    assert_eq!(count.value, Value::Int(3));

    // Then a concurrent workload: every client runs ad-hoc queries and a
    // prepared statement, and every result must be exact — the child has
    // no writer, so the epoch never moves.
    let workers: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connects");
                let (id, _) = client
                    .prepare("exists h in Hotels: h.name = $name")
                    .expect("worker prepares");
                for round in 0..25 {
                    let count = client.query("count(Cities)", &[]).expect("count executes");
                    assert_eq!(count.value, Value::Int(3), "worker {i} round {round}");
                    assert_eq!(count.epoch, client.hello_epoch, "epoch moved with no writer");
                    let exists = client
                        .execute(id, &[("name".to_string(), Value::str("hotel_0_0"))])
                        .expect("prepared executes");
                    assert_eq!(exists.value, Value::Bool(true));
                    let names = client
                        .query("select c.name from c in Cities", &[])
                        .expect("select executes");
                    assert_eq!(names.rows, 3);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker completes");
    }

    // Statement errors are per-statement, not per-process: the child
    // answers them and keeps serving.
    let err = probe.query("select syntax error", &[]).expect_err("bad statement errors");
    assert!(!err.to_string().is_empty());
    probe.ping().expect("child still alive after a bad statement");
}

/// Numeric bags cross the real process as `RUNS` frames: a float bag
/// (packed float columns) and an int bag (mixed batches), each of more
/// than 256 runs (so of more than one frame), equal by `Debug` string to
/// the in-process value over the same generated store.
#[test]
fn spawned_oqld_streams_numeric_bags() {
    if !smoke_enabled() {
        eprintln!("MONOID_SERVER_SMOKE != 1 — skipping the oqld numeric bag test");
        return;
    }
    let (_reaper, addr) = spawn_oqld(&["--scale", "hotels=200", "--seed", "7"]);
    let db = travel::generate(TravelScale::with_hotels(200), 7);
    let mut client = Client::connect(addr).expect("connect to spawned oqld");
    for src in [
        "select r.price from h in Hotels, r in h.rooms",
        "select e.salary from e in Employees",
    ] {
        let want = monoid_db::prepare_on(&db, src)
            .expect("prepares")
            .execute_snapshot(&db, &Params::new())
            .expect("executes");
        let Value::Bag(runs) = &want else { panic!("{src} is a bag, got {want:?}") };
        assert!(runs.len() > 256, "{src}: {} runs", runs.len());
        let got = client.query(src, &[]).expect("the bag streams");
        assert_eq!(format!("{:?}", got.value), format!("{want:?}"), "{src}");
    }
}

#[test]
fn spawned_oqld_rejects_bad_flags() {
    if !smoke_enabled() {
        eprintln!("MONOID_SERVER_SMOKE != 1 — skipping the oqld flag test");
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_oqld"))
        .args(["--scale", "nonsense"])
        .output()
        .expect("oqld runs");
    assert!(!out.status.success(), "bad --scale must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--scale"), "{stderr}");
}
