//! The closed loop: one in-process `Server` on loopback, one `Client`
//! connection, one operation in flight at a time.
//!
//! With a single closed-loop client nothing queues, so `ops_per_s` is
//! about the inverse of the mean round trip and a layer's saving reaches
//! `p50_us` at most in proportion to its share of the round trip.

use crate::affinity;
use crate::report::{median_nanos, peak_rss_mb};
use crate::spec::{Workload, BLOCK_MILLIS, CYCLE, SETUP_REPS};
use crate::workload::{matches, Inputs, Key, Op, Oracle, Scale};
use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::value::Value;
use monoid_db::server::{Client, QueryOutcome, Server, ServerHandle};
use monoid_db::store::Database;
use std::io;
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// A store being served, and the one connection to it.
pub struct Served {
    handle: ServerHandle,
    pub db: Arc<RwLock<Database>>,
    pub client: Client,
    /// The `PREPARE`d statement's id; `None` on `mixed-rw`, which sends
    /// the source ad hoc with every `QUERY`.
    pub statement: Option<u64>,
    /// The server's threads were pinned to the CPU reserved for them.
    pub server_pinned: bool,
}

impl Served {
    /// `Server::bind` + `spawn` + `Client::connect` + `PREPARE`. The
    /// server is spawned from a helper thread pinned to `server_cpu`, so
    /// its accept and connection threads inherit that CPU; the helper has
    /// exited before the first request, so no more threads are runnable
    /// than the host has cores.
    pub fn start(
        workload: Workload,
        db: Database,
        server_cpu: Option<usize>,
    ) -> io::Result<Served> {
        let server = Server::bind("127.0.0.1:0", db)?;
        let shared = server.database();
        let (handle, server_pinned) = thread::spawn(move || {
            let pinned = server_cpu.is_some_and(affinity::pin_current_thread);
            (server.spawn(), pinned)
        })
        .join()
        .expect("the spawning thread does not panic");
        let mut client = Client::connect(handle.addr())?;
        let statement = match workload {
            Workload::MixedRw => None,
            _ => Some(client.prepare(workload.statement())?.0),
        };
        Ok(Served { handle, db: shared, client, statement, server_pinned })
    }

    /// One statement over the wire.
    fn send(&mut self, workload: Workload, params: &[(String, Value)]) -> io::Result<QueryOutcome> {
        match self.statement {
            Some(id) => self.client.execute(id, params),
            None => self.client.query(workload.statement(), params),
        }
    }

    /// Hang up, stop the accept loop, and wait until the server's
    /// detached threads have let go of the database, so the store is
    /// freed *here* — before the next set-up repetition allocates its
    /// own — and `peak_rss_mb` never holds two stores by accident. The
    /// connection thread is seen off before the accept thread: a new
    /// thread takes over the malloc arena of the one that exited last,
    /// so a fixed order of exits gives every repetition's threads the
    /// same arenas, where a race between the two left `peak_rss_mb` a
    /// megabyte higher in one run out of three.
    pub fn stop(self) {
        let Served { handle, db, client, .. } = self;
        let wait_for_holders = |n: usize| {
            while Arc::strong_count(&db) > n {
                thread::sleep(Duration::from_millis(1));
            }
            // Past its last use of the store the thread still has to
            // leave.
            thread::sleep(Duration::from_millis(2));
        };
        drop(client);
        wait_for_holders(2);
        handle.shutdown();
        wait_for_holders(1);
    }
}

/// One timed set-up on fresh state: generate the store from the seed,
/// serve it, connect, prepare, and read the first reply.
pub struct SetUp {
    pub served: Served,
    pub seconds: f64,
    /// Time of `generate` alone (`store.generate_s` in the traced run).
    pub generate_seconds: f64,
    pub objects: usize,
    /// The reply to [`Inputs::first_key`].
    pub first_reply: QueryOutcome,
}

pub fn set_up(inputs: &Inputs, server_cpu: Option<usize>) -> io::Result<SetUp> {
    let started = Instant::now();
    let db = inputs.scale.generate(inputs.seed);
    let generate_seconds = started.elapsed().as_secs_f64();
    let objects = db.object_count();
    let mut served = Served::start(inputs.workload, db, server_cpu)?;
    let first_reply = served.send(inputs.workload, &inputs.params(inputs.first_key()))?;
    let seconds = started.elapsed().as_secs_f64();
    Ok(SetUp { served, seconds, generate_seconds, objects, first_reply })
}

/// The loop's state between operations: how many commits are in, which
/// epoch replies must report, and the tally of attempted and failed
/// operations (error frame, I/O error, or oracle mismatch).
pub struct Loop<'a> {
    pub served: &'a mut Served,
    pub inputs: &'a mut Inputs,
    pub oracle: &'a Oracle,
    hotel_class: Symbol,
    pub writes_done: u64,
    epoch: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// What one operation was and how long the client waited for it.
pub struct Step {
    pub op: Op,
    pub nanos: u64,
}

impl<'a> Loop<'a> {
    pub fn new(served: &'a mut Served, inputs: &'a mut Inputs, oracle: &'a Oracle) -> Loop<'a> {
        let epoch = served.db.read().expect("no writer panicked").mutation_epoch();
        Loop {
            served,
            inputs,
            oracle,
            hotel_class: Symbol::new("Hotel"),
            writes_done: 0,
            epoch,
            attempted: 0,
            failed: 0,
        }
    }

    /// Run the stream's next operation and check its reply: `DONE.rows`,
    /// the checksum and the epoch every time, the full value every 64th.
    pub fn step(&mut self) -> Step {
        let op = self.inputs.next_op();
        let deep = self.attempted.is_multiple_of(64);
        self.attempted += 1;
        match op {
            Op::Read { key, .. } => {
                let params = self.inputs.params(key);
                let started = Instant::now();
                let reply = self.served.send(self.inputs.workload, &params);
                let nanos = started.elapsed().as_nanos() as u64;
                let ok = reply.is_ok_and(|r| self.check(key, &r, deep));
                self.failed += u64::from(!ok);
                Step { op, nanos }
            }
            Op::Write { write } => {
                let hotel = self.inputs.written_hotel(write);
                let nanos = self.commit(hotel);
                self.writes_done += 1;
                Step { op, nanos }
            }
        }
    }

    /// Commit one hotel from the generator thread itself, through the
    /// server's own lock: a second writer thread is what made this
    /// workload's throughput swing between runs. Returns the nanoseconds
    /// the lock and the insert took.
    pub fn commit(&mut self, hotel: Value) -> u64 {
        let started = Instant::now();
        let mut db = self.served.db.write().expect("no writer panicked");
        let ok = db.insert(self.hotel_class, hotel).is_ok();
        self.epoch = db.mutation_epoch();
        drop(db);
        self.failed += u64::from(!ok);
        started.elapsed().as_nanos() as u64
    }

    pub fn check(&self, key: Key, reply: &QueryOutcome, deep: bool) -> bool {
        let expected = self.oracle.expected(self.inputs, key, self.writes_done);
        reply.epoch == self.epoch && matches(expected, reply.rows, &reply.value, deep)
    }
}

/// The measured phase, block by block.
pub struct Measured {
    /// Operations per second of each block.
    pub block_rates: Vec<f64>,
    /// Median read round trip of each block, in nanoseconds.
    pub block_p50_nanos: Vec<f64>,
    /// Reads timed over the whole phase (`client.samples`).
    pub reads: u64,
}

impl Measured {
    /// `ops_per_s`: the fastest block. On a shared host interference
    /// only ever slows a block down, so the best block is the one that
    /// saw the least of it; run-to-run it moves a third as much as the
    /// median block does (README, "How the bounds were derived").
    pub fn ops_per_s(&self) -> f64 {
        self.block_rates.iter().copied().fold(0.0, f64::max)
    }

    /// `p50_us`: the lowest block median, for the same reason.
    pub fn p50_us(&self) -> f64 {
        self.block_p50_nanos.iter().copied().fold(f64::INFINITY, f64::min) / 1e3
    }
}

/// Measure for `length`, in blocks of `BLOCK_MILLIS`, each timed as a
/// whole and operation by operation. A block ends at the first cycle
/// boundary past its deadline, so every block holds whole `mixed-rw`
/// cycles and the same mix; the phase ends with the block that passes
/// `length`.
fn measure(lp: &mut Loop<'_>, length: Duration) -> Measured {
    let block = Duration::from_millis(BLOCK_MILLIS);
    let blocks = (length.as_millis() as u64 / BLOCK_MILLIS).max(1) as usize;
    let mut out = Measured {
        block_rates: Vec::with_capacity(blocks),
        block_p50_nanos: Vec::with_capacity(blocks),
        reads: 0,
    };
    // One buffer, reused by every block: the loop's own memory stays
    // flat, so `peak_rss_mb` is the store's and the server's.
    let mut read_nanos = Vec::new();
    let phase_started = Instant::now();
    while out.block_rates.is_empty() || phase_started.elapsed() < length {
        read_nanos.clear();
        let mut ops = 0u64;
        let started = Instant::now();
        while started.elapsed() < block {
            for _ in 0..CYCLE {
                let step = lp.step();
                if let Op::Read { .. } = step.op {
                    read_nanos.push(step.nanos);
                }
            }
            ops += CYCLE;
        }
        out.block_rates.push(ops as f64 / started.elapsed().as_secs_f64());
        out.block_p50_nanos.push(median_nanos(&read_nanos));
        out.reads += read_nanos.len() as u64;
    }
    out
}

/// Everything an untraced (`--trace 0`) run produced.
pub struct Run {
    pub setup_seconds: Vec<f64>,
    pub measured: Measured,
    /// `VmHWM` when the measured phase ended, before any reporting.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub pinned: bool,
}

/// The end-to-end run: `SETUP_REPS` timed set-ups on fresh state (the
/// last one is kept and served), the oracle, a fixed warm-up, then the
/// measured phase. `corrupt_oracle` is for the smoke test only.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    length: Duration,
    corrupt_oracle: bool,
) -> Result<Run, String> {
    let server_cpu = affinity::place_generator();
    let mut inputs = Inputs::new(workload, scale, seed);

    let mut setup_seconds = Vec::with_capacity(SETUP_REPS);
    let mut first_replies = Vec::with_capacity(SETUP_REPS);
    let mut timed_set_up = || -> Result<Served, String> {
        let rep = set_up(&inputs, server_cpu).map_err(|e| format!("set-up failed: {e}"))?;
        setup_seconds.push(rep.seconds);
        first_replies.push(rep.first_reply);
        Ok(rep.served)
    };
    // Each store is stopped and freed before the next is generated; the
    // last one stays up for the measured phase.
    for _ in 1..SETUP_REPS {
        timed_set_up()?.stop();
    }
    let mut served = timed_set_up()?;
    let pinned = server_cpu.is_some() && served.server_pinned;

    let mut oracle = {
        let mut db = served.db.write().expect("no writer panicked");
        Oracle::compute(&inputs, &mut db)?
    };
    if corrupt_oracle {
        oracle.corrupt();
    }
    let mut lp = Loop::new(&mut served, &mut inputs, &oracle);
    // Set-up's first replies are operations too: attempted, and failed
    // unless the oracle agrees.
    for reply in &first_replies {
        lp.attempted += 1;
        lp.failed += u64::from(!lp.check(lp.inputs.first_key(), reply, true));
    }
    for _ in 0..scale.warmup_ops {
        lp.step();
    }
    let measured = measure(&mut lp, length);
    let peak_rss_mb = peak_rss_mb();
    let (attempted, failed, writes_done) = (lp.attempted, lp.failed, lp.writes_done);

    if workload == Workload::MixedRw {
        let mut db = served.db.write().expect("no writer panicked");
        Oracle::verify_final(&inputs, &mut db, writes_done)?;
    }
    served.stop();
    Ok(Run { setup_seconds, measured, peak_rss_mb, attempted, failed, pinned })
}
