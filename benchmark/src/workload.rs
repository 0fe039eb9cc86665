//! Seeded inputs: store scale, parameter table, operation stream and the
//! reference-engine oracle for each workload.
//!
//! Everything that varies between runs derives from `--seed`: the
//! store's contents, the parameter table and the order operations draw
//! from it. The *sizes* are fixed per workload so that every seed costs
//! the same.

use crate::spec::{Workload, CYCLE};
use monoid_db::algebra::execute_plan_walk_bound;
use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::value::Value;
use monoid_db::store::travel::{self, TravelScale};
use monoid_db::store::{company, Database};
use monoid_db::wire::{Request, ResultShape};
use monoid_db::{prepare_on, Params};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How big a run is. `full` is what `BENCHMARK.json` measures; `tiny` is
/// the same code at a size the smoke tests finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub store: StoreScale,
    /// Operations sent before timing starts (part of neither `setup_s`
    /// nor the measured phase).
    pub warmup_ops: u64,
    /// Operation budget of each phase of the traced run.
    pub trace_ops: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum StoreScale {
    Travel(TravelScale),
    Company { managers: usize, reports: usize, extra: usize },
}

impl Scale {
    /// The committed sizes. Padding objects (`clients`, `extra`) are not
    /// touched by any statement; they raise generation above 0.5 s —
    /// `Database::insert` rebuilds the extent, so cost is quadratic — so
    /// that `setup_s` is a steady number, and they make `Stats::gather`
    /// (run by every cold prepare) walk a realistic heap.
    pub fn full(workload: Workload) -> Scale {
        let travel = |hotels_per_city, rooms_per_hotel, employees_per_hotel, clients| {
            StoreScale::Travel(TravelScale {
                cities: 10,
                hotels_per_city,
                rooms_per_hotel,
                employees_per_hotel,
                clients,
            })
        };
        let (store, warmup_ops) = match workload {
            Workload::PointWire => (travel(5, 8, 3, 7000), 20_000),
            Workload::BulkRows => (travel(5, 400, 3, 7000), 64),
            Workload::JoinWire => {
                (StoreScale::Company { managers: 42, reports: 48, extra: 6500 }, 200)
            }
            Workload::MixedRw => (travel(100, 4, 1, 6500), 20 * CYCLE),
        };
        Scale { store, warmup_ops, trace_ops: 2000 }
    }

    /// Smoke-test sizes: same shape, a few hundred objects.
    pub fn tiny(workload: Workload) -> Scale {
        let store = match workload {
            Workload::JoinWire => StoreScale::Company { managers: 6, reports: 5, extra: 10 },
            Workload::BulkRows => {
                StoreScale::Travel(TravelScale { rooms_per_hotel: 16, ..TravelScale::small() })
            }
            Workload::PointWire | Workload::MixedRw => StoreScale::Travel(TravelScale::small()),
        };
        Scale { store, warmup_ops: CYCLE, trace_ops: 4 * CYCLE }
    }

    pub fn generate(&self, seed: u64) -> Database {
        match self.store {
            StoreScale::Travel(scale) => travel::generate(scale, seed),
            StoreScale::Company { managers, reports, extra } => {
                company::generate(managers, reports, extra, seed)
            }
        }
    }

    /// Names of the generated store's hotels, in extent order.
    fn hotel_names(&self) -> Vec<Value> {
        match self.store {
            StoreScale::Travel(s) => (0..s.cities)
                .flat_map(|c| (0..s.hotels_per_city).map(move |h| format!("hotel_{c}_{h}")))
                .map(|name| Value::str(&name))
                .collect(),
            StoreScale::Company { .. } => Vec::new(),
        }
    }
}

/// Which parameter value a read sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// `keys[i]` of the seeded parameter table.
    Table(usize),
    /// `mixed-rw`: the name of the hotel that write number `n` commits —
    /// present from that commit on, absent before.
    Written(u64),
}

/// One operation of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Send the statement with `key` as its parameter. `cold` marks
    /// `mixed-rw`'s first read after a write, which must re-prepare.
    Read { key: Key, cold: bool },
    /// `mixed-rw` only: commit hotel number `write` in-process.
    Write { write: u64 },
}

/// The seeded inputs of one run: the parameter table and the stream
/// that draws from it.
pub struct Inputs {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Distinct parameter values; on `point-wire` and `mixed-rw`, the
    /// names of the generated store's hotels.
    pub keys: Vec<Value>,
    rng: StdRng,
    position: u64,
}

/// Parameter-table sizes: small enough that the oracle (one reference
/// run per key) stays well under a second, large enough that no reply
/// repeats back to back.
const JOIN_KEYS: usize = 64;
const BULK_KEYS: usize = 32;

impl Inputs {
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        // A stream of its own, so the parameter order is not the store
        // generator's sequence replayed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6f71_6c62_656e_6368);
        let keys: Vec<Value> = match workload {
            Workload::PointWire | Workload::MixedRw => scale.hotel_names(),
            // The lowest floor is always in the table, so every seed's
            // largest reply is every room and `peak_rss_mb` does not
            // depend on which floors the seed drew.
            Workload::BulkRows => std::iter::once(40)
                .chain((1..BULK_KEYS).map(|_| rng.random_range(40..=100)))
                .map(|floor| Value::Float(f64::from(floor)))
                .collect(),
            Workload::JoinWire => {
                (0..JOIN_KEYS).map(|_| Value::Int(rng.random_range(1..1000))).collect()
            }
        };
        Inputs { workload, scale, seed, keys, rng, position: 0 }
    }

    /// The next operation. `mixed-rw` runs the fixed cycle: a write; a
    /// read of the hotel just written (the cold read, and the check that
    /// a commit is visible to the very next statement); a read of a
    /// written or not-yet-written hotel, either equally likely; then
    /// thirteen reads uniform over the generated hotels. Those thirteen
    /// scan the front of the extent whatever has been appended since, so
    /// the median read costs the same in the last block as in the first.
    /// Every other workload reads uniformly from its table.
    pub fn next_op(&mut self) -> Op {
        let position = self.position;
        self.position += 1;
        let table = Key::Table(self.rng.random_range(0..self.keys.len()));
        if self.workload != Workload::MixedRw {
            return Op::Read { key: table, cold: false };
        }
        let write = position / CYCLE;
        match position % CYCLE {
            0 => Op::Write { write },
            1 => Op::Read { key: Key::Written(write), cold: true },
            2 => Op::Read {
                key: Key::Written(self.rng.random_range(0..2 * (write + 1))),
                cold: false,
            },
            _ => Op::Read { key: table, cold: false },
        }
    }

    /// A seeded choice from the table: the parameter of set-up's first
    /// statement.
    pub fn first_key(&self) -> Key {
        Key::Table(self.seed as usize % self.keys.len())
    }

    /// The wire parameters for `key`, as `Client::execute` takes them.
    pub fn params(&self, key: Key) -> Vec<(String, Value)> {
        let value = match key {
            Key::Table(i) => self.keys[i].clone(),
            Key::Written(write) => Value::str(&written_hotel_name(write)),
        };
        vec![(self.workload.param().to_string(), value)]
    }

    /// The hotel `mixed-rw`'s write number `write` commits: two rooms
    /// derived from the seed and the write number, no employees (nothing
    /// reads them). Draws nothing from the stream's generator, so the
    /// traced run's extra commits leave the read sequence as it was.
    pub fn written_hotel(&self, write: u64) -> Value {
        let mix = (write ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        let rooms = (0..2)
            .map(|room| {
                Value::record_from(vec![
                    ("bed#", Value::Int(1 + ((mix >> room) % 4) as i64)),
                    ("price", Value::Float((40 + (mix >> (8 * room)) % 360) as f64)),
                ])
            })
            .collect();
        Value::record_from(vec![
            ("name", Value::str(&written_hotel_name(write))),
            ("address", Value::str(&format!("{write} Side St"))),
            ("facilities", Value::set_from(Vec::new())),
            ("employees", Value::list(Vec::new())),
            ("rooms", Value::list(rooms)),
        ])
    }
}

fn written_hotel_name(write: u64) -> String {
    format!("hotel_w_{write}")
}

/// The first `n` operations of a run as the bytes that would cross the
/// wire (writes as a marker line) — what the reproducibility test
/// compares.
pub fn stream_bytes(workload: Workload, scale: Scale, seed: u64, n: u64) -> Vec<u8> {
    let mut inputs = Inputs::new(workload, scale, seed);
    let mut out = Vec::new();
    for _ in 0..n {
        match inputs.next_op() {
            Op::Read { key, .. } => {
                let req = Request::Execute { id: 1, params: inputs.params(key) };
                out.extend(req.encode().expect("parameters encode"));
            }
            Op::Write { write } => {
                out.extend(format!("{:?}", inputs.written_hotel(write)).into_bytes());
            }
        }
    }
    out
}

/// What a correct reply looks like.
#[derive(Debug, Clone)]
pub struct Expected {
    pub rows: u64,
    pub checksum: u64,
    pub value: Value,
}

impl Expected {
    fn of(value: Value) -> Expected {
        // `DONE.rows` is what the server streams: the deconstructed
        // elements, one for a scalar.
        let rows = ResultShape::deconstruct(&value).1.len() as u64;
        Expected { rows, checksum: checksum(&value), value }
    }
}

/// Expected replies, computed once during set-up by the plan-walk
/// reference engine on the set-up database.
pub struct Oracle {
    /// One per key; for `mixed-rw`, `[absent, present]`.
    replies: Vec<Expected>,
}

impl Oracle {
    /// Run the reference engine for every key of the table. `mixed-rw`'s
    /// answer per key and epoch is a rule — a generated hotel is always
    /// there, a written one from the commit that wrote it — checked here
    /// against the reference engine at the initial epoch and again after
    /// the run by [`Oracle::verify_final`].
    pub fn compute(inputs: &Inputs, db: &mut Database) -> Result<Oracle, String> {
        let epoch = db.mutation_epoch();
        let mut run = reference_runner(inputs, db)?;
        let replies = if inputs.workload == Workload::MixedRw {
            let table = (0..inputs.keys.len()).map(Key::Table);
            for key in table.chain((0..64).map(Key::Written)) {
                let want = Value::Bool(matches!(key, Key::Table(_)));
                let got = run(db, key)?;
                if got != want {
                    return Err(format!("oracle rule broken at epoch 0, {key:?}: {got:?}"));
                }
            }
            vec![Expected::of(Value::Bool(false)), Expected::of(Value::Bool(true))]
        } else {
            let mut replies = Vec::with_capacity(inputs.keys.len());
            for key in 0..inputs.keys.len() {
                replies.push(Expected::of(run(db, Key::Table(key))?));
            }
            replies
        };
        if db.mutation_epoch() != epoch {
            return Err("the reference engine mutated the store".to_string());
        }
        Ok(Oracle { replies })
    }

    /// After a `mixed-rw` run: the reference engine must find a sample of
    /// the written hotels in the final store.
    pub fn verify_final(
        inputs: &Inputs,
        db: &mut Database,
        writes_done: u64,
    ) -> Result<(), String> {
        let mut run = reference_runner(inputs, db)?;
        let step = (writes_done / 64).max(1) as usize;
        for write in (0..writes_done).step_by(step) {
            if run(db, Key::Written(write))? != Value::Bool(true) {
                return Err(format!("written hotel {write} is missing from the final store"));
            }
        }
        Ok(())
    }

    /// The reply expected for `key` once `writes_done` commits are in.
    pub fn expected(&self, inputs: &Inputs, key: Key, writes_done: u64) -> &Expected {
        match key {
            Key::Table(_) if inputs.workload == Workload::MixedRw => &self.replies[1],
            Key::Table(i) => &self.replies[i],
            Key::Written(write) => &self.replies[usize::from(write < writes_done)],
        }
    }

    /// Make every expectation wrong, for the test that a bad reply is
    /// counted rather than ignored.
    pub fn corrupt(&mut self) {
        for reply in &mut self.replies {
            reply.checksum ^= 1;
        }
    }
}

/// Prepare the workload's statement and return a closure that runs it
/// on the plan-walk reference engine for one key.
fn reference_runner<'a>(
    inputs: &'a Inputs,
    db: &Database,
) -> Result<impl FnMut(&mut Database, Key) -> Result<Value, String> + 'a, String> {
    let stmt = prepare_on(db, inputs.workload.statement()).map_err(|e| e.to_string())?;
    Ok(move |db: &mut Database, key: Key| {
        let query = stmt.query().ok_or("statement has no plan to walk")?;
        let mut params = Params::new();
        for (name, value) in inputs.params(key) {
            params.set(&name, value);
        }
        execute_plan_walk_bound(query, db, params.bindings()).map_err(|e| e.to_string())
    })
}

/// Does `reply` match? Row count and checksum always; the full value
/// when `deep` (every 64th operation).
pub fn matches(expected: &Expected, rows: u64, value: &Value, deep: bool) -> bool {
    rows == expected.rows
        && checksum(value) == expected.checksum
        && (!deep || *value == expected.value)
}

/// Structural FNV-1a over a value. Bags hash their `(value, count)` runs,
/// so a 20 000-row reply costs a few hundred steps, not 20 000.
pub fn checksum(value: &Value) -> u64 {
    fn mix(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    }
    fn go(h: u64, v: &Value) -> u64 {
        match v {
            Value::Null => mix(h, 0),
            Value::Bool(b) => mix(mix(h, 1), u64::from(*b)),
            Value::Int(i) => mix(mix(h, 2), *i as u64),
            Value::Float(f) => mix(mix(h, 3), f.to_bits()),
            Value::Str(s) => s.bytes().fold(mix(h, 4), |h, b| mix(h, u64::from(b))),
            Value::Record(fields) => {
                fields.iter().fold(mix(h, 5), |h, (name, v)| go(mix(h, symbol_word(*name)), v))
            }
            Value::Tuple(items) => items.iter().fold(mix(h, 6), go),
            Value::List(items) => items.iter().fold(mix(h, 7), go),
            Value::Set(items) => items.iter().fold(mix(h, 8), go),
            Value::Bag(runs) => runs.iter().fold(mix(h, 9), |h, (v, n)| mix(go(h, v), *n)),
            Value::Vector(items) => items.iter().fold(mix(h, 10), go),
            Value::Obj(oid) => mix(mix(h, 11), oid.0),
            Value::Closure(_) => mix(h, 12),
        }
    }
    fn symbol_word(s: Symbol) -> u64 {
        s.as_str().bytes().fold(0, |h, b| mix(h, u64::from(b)))
    }
    go(0xcbf2_9ce4_8422_2325, value)
}
