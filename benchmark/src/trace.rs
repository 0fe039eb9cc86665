//! The traced run: where a round trip's time goes, layer by layer.
//!
//! The program under test carries no spans of its own yet, so the spans
//! are recorded here, in the benchmark, around each call into a layer's
//! public entry point. After one set-up the run alternates, chunk by
//! chunk (one `mixed-rw` cycle), between sending the stream's operations
//! over the wire (`server.roundtrip` spans) and replaying the same
//! operations in-process, step by step the way `src/server.rs` handles a
//! frame: encode → decode → snapshot → (plan-cache lookup) → execute →
//! deconstruct → encode → decode. What the replay cannot reach — the
//! socket, the thread hand-off, the lock, the flush — is the residual:
//! an operation's round trip minus its replayed parts, with `PING` as
//! its floor.
//!
//! Spans are kept in memory and written to `out/trace-<workload>.jsonl`
//! when the run ends. End-to-end metrics are never taken from this run.

use crate::affinity;
use crate::harness::{set_up, Loop};
use crate::report::{median, median_nanos, quantile_nanos};
use crate::spec::{Workload, CYCLE, PER_LAYER};
use crate::workload::{matches, Inputs, Key, Op, Oracle, Scale};
use monoid_db::algebra::{
    engine_of, execute_snapshot_bound, plan_comprehension, reorder_generators, Engine, Stats,
};
use monoid_db::calculus::normalize::normalize_traced;
use monoid_db::calculus::value::Value;
use monoid_db::store::Snapshot;
use monoid_db::wire::{self, Request, Response, ResultShape};
use monoid_db::{Params, PlanCache, Prepared, Session};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval. Spans of one operation share `op`; `parent`
/// names the span that caused it (empty for a root).
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, and the counts taken at the same boundaries.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    counts: HashMap<&'static str, Vec<u64>>,
}

/// The replayed steps whose sum is compared with the round trip.
/// `algebra.execute` is not among them: it is a second, bare execution
/// of the plan, already inside `serving.execute`.
const REPLAYED_PARTS: [&str; 9] = [
    "wire.req_encode",
    "wire.req_decode",
    "store.snapshot",
    "serving.cache_lookup",
    "serving.prepare",
    "serving.execute",
    "wire.deconstruct",
    "wire.resp_encode",
    "wire.resp_decode",
];

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), counts: HashMap::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Log an interval that was timed elsewhere.
    fn record(
        &mut self,
        op: u32,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
        nanos: u64,
    ) {
        self.spans.push(Span { op, name, parent, start_ns, end_ns: start_ns + nanos });
    }

    /// Time `f` as a span.
    fn span<R>(
        &mut self,
        op: u32,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let out = f();
        self.record(op, name, parent, start_ns, self.now() - start_ns);
        out
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Durations of every span called `name`, in recording order.
    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    fn median_of(&self, name: &str) -> f64 {
        median_nanos(&self.durations(name))
    }

    fn median_count(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| median_nanos(v))
    }

    fn total_count(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| v.iter().sum::<u64>() as f64)
    }

    /// Median over operations of `a − b`, both spans of the same
    /// operation (clamped at 0): a layer's self time.
    fn median_self(&self, a: &str, b: &str) -> f64 {
        let inner: HashMap<u32, u64> = self
            .spans
            .iter()
            .filter(|s| s.name == b)
            .map(|s| (s.op, s.end_ns - s.start_ns))
            .collect();
        let diffs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == a)
            .filter_map(|s| {
                inner.get(&s.op).map(|b| (s.end_ns - s.start_ns).saturating_sub(*b) as f64)
            })
            .collect();
        median(&diffs)
    }

    /// Per operation, the round trip over the wire and the sum of its
    /// replayed in-process parts. Pairing the two by operation — same
    /// parameter, a few milliseconds apart — keeps a change of the
    /// host's speed, or a larger reply, out of their difference.
    fn roundtrip_and_replayed(&self) -> Vec<(f64, f64)> {
        let mut replayed: HashMap<u32, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| REPLAYED_PARTS.contains(&s.name)) {
            if s.parent == "replay" {
                *replayed.entry(s.op).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == "server.roundtrip")
            .filter_map(|s| Some(((s.end_ns - s.start_ns) as f64, *replayed.get(&s.op)? as f64)))
            .collect()
    }

    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.parent, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

/// What the in-process replay executes against: the statement as the
/// server holds it, and for `mixed-rw` a plan cache of the replay's own,
/// so its lookups hit and miss exactly as the server's do without the
/// two warming each other.
struct Replayer {
    workload: Workload,
    statement: Option<Arc<Prepared>>,
    session: Session,
}

impl Replayer {
    /// Handle one read the way `serve_connection` does, a span per step.
    /// Returns the value the client would have reassembled and its rows.
    fn read(
        &self,
        t: &mut Tracer,
        op: u32,
        lp: &Loop<'_>,
        key: Key,
    ) -> Result<(Value, u64), String> {
        const P: &str = "replay";
        let pairs = lp.inputs.params(key);
        let request = match self.statement {
            Some(_) => Request::Execute { id: 1, params: pairs },
            None => Request::Query { src: self.workload.statement().to_string(), params: pairs },
        };
        let body =
            t.span(op, "wire.req_encode", P, || request.encode()).map_err(|e| e.to_string())?;
        let decoded = t
            .span(op, "wire.req_decode", P, || Request::decode(&body))
            .map_err(|e| e.to_string())?;
        let (Request::Execute { params: pairs, .. } | Request::Query { params: pairs, .. }) =
            decoded
        else {
            return Err("the request decoded to another opcode".to_string());
        };
        let snap: Snapshot = t.span(op, "store.snapshot", P, || {
            lp.served.db.read().expect("no writer panicked").snapshot()
        });

        // `run_query` resolves the source through the plan cache, then
        // `Session::query_snapshot` looks it up once more and executes;
        // `run_prepared` goes straight to `Prepared::execute_snapshot`.
        let statement = match &self.statement {
            Some(statement) => Arc::clone(statement),
            None => {
                let start_ns = t.now();
                let (statement, hit) = self
                    .session
                    .cache()
                    .get_or_prepare_snapshot_traced(&snap, self.workload.statement())
                    .map_err(|e| e.to_string())?;
                let name = if hit { "serving.cache_lookup" } else { "serving.prepare" };
                t.record(op, name, P, start_ns, t.now() - start_ns);
                t.count(if hit { "serving.cache_hits" } else { "serving.cache_misses" }, 1);
                statement
            }
        };
        let mut params = Params::new();
        let value = t
            .span(op, "serving.execute", P, || {
                for (name, value) in &pairs {
                    params.set(name, value.clone());
                }
                match self.statement {
                    Some(_) => statement.execute_snapshot(&snap, &params),
                    None => self.session.query_snapshot(&snap, self.workload.statement(), &params),
                }
            })
            .map_err(|e| e.to_string())?;
        let query = statement.query().ok_or("statement has no plan")?;
        t.span(op, "algebra.execute", "serving.execute", || {
            execute_snapshot_bound(query, &snap, params.bindings())
        })
        .map_err(|e| e.to_string())?;
        t.count(
            match engine_of(query) {
                Engine::Fused => "algebra.fused_ops",
                Engine::PlanWalk => "algebra.walk_ops",
            },
            1,
        );

        let (shape, elements) =
            t.span(op, "wire.deconstruct", P, || ResultShape::deconstruct(&value));
        let rows = elements.len() as u64;
        let frames = t
            .span(op, "wire.resp_encode", P, || {
                let mut frames = Vec::with_capacity(elements.len() / wire::ROW_BATCH + 2);
                for batch in elements.chunks(wire::ROW_BATCH) {
                    frames.push(Response::Rows { values: batch.to_vec() }.encode()?);
                }
                frames.push(Response::Done { shape, rows, epoch: snap.epoch() }.encode()?);
                Ok::<_, wire::WireError>(frames)
            })
            .map_err(|e| e.to_string())?;
        t.count("wire.frames", frames.len() as u64);
        t.count("wire.resp_bytes", frames.iter().map(|f| f.len() as u64 + 4).sum());
        t.count("algebra.rows_out", rows);
        let value = t
            .span(op, "wire.resp_decode", P, || {
                let mut elements = Vec::new();
                for frame in &frames {
                    match Response::decode(frame)? {
                        Response::Rows { values } => elements.extend(values),
                        Response::Done { shape, .. } => return shape.assemble(elements),
                        _ => break,
                    }
                }
                Err(wire::WireError::Truncated)
            })
            .map_err(|e| e.to_string())?;
        Ok((value, rows))
    }
}

/// Time the front end on the workload's statement, stage by stage, the
/// way `serving::prepare_on_snapshot` runs it. Each repetition works on
/// a clone of the database — a clone has a fresh instance id, so neither
/// the plan cache nor the one-slot statistics cache can answer from an
/// earlier repetition.
fn front_end(t: &mut Tracer, workload: Workload, lp: &Loop<'_>) -> Result<(), String> {
    const REPS: u32 = 20;
    const P: &str = "prepare";
    let src = workload.statement();
    for rep in 0..REPS {
        let snap = lp.served.db.read().expect("no writer panicked").clone().snapshot();
        t.span(rep, "oql.parse", P, || monoid_db::oql::parse_query(src))
            .map_err(|e| e.to_string())?;
        let expr = t
            .span(rep, "oql.compile", P, || monoid_db::oql::compile(snap.schema(), src))
            .map_err(|e| e.to_string())?;
        t.span(rep, "core.typecheck", P, || snap.check(&expr)).map_err(|e| e.to_string())?;
        let (canonical, _, stats) = t.span(rep, "core.normalize", P, || normalize_traced(&expr));
        t.count("core.normalize_rules", stats.steps as u64);
        t.span(rep, "algebra.plan", P, || {
            let stats = Stats::gather_snapshot(&snap);
            plan_comprehension(&reorder_generators(&canonical, &stats))
        })
        .map_err(|e| e.to_string())?;
        t.span(rep, "serving.prepare", P, || {
            PlanCache::new().get_or_prepare_snapshot_traced(&snap, src).map(|_| ())
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Everything a traced (`--trace 1`) run produced: one value per
/// [`PER_LAYER`] metric, in that order.
pub struct TraceRun {
    pub values: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run `budget_ops` operations or until `budget` has passed, whichever
/// comes first, in whole chunks.
fn chunks_within(
    budget_ops: u64,
    budget: Duration,
    mut chunk: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    for _ in 0..budget_ops / CYCLE {
        chunk()?;
        if started.elapsed() > budget {
            break;
        }
    }
    Ok(())
}

pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    length: Duration,
    out_dir: &Path,
) -> Result<TraceRun, String> {
    let server_cpu = affinity::place_generator();
    let mut inputs = Inputs::new(workload, scale, seed);
    let rep = set_up(&inputs, server_cpu).map_err(|e| format!("set-up failed: {e}"))?;
    let (generate_seconds, objects) = (rep.generate_seconds, rep.objects);
    let first_reply = rep.first_reply;
    let mut served = rep.served;
    let pinned = server_cpu.is_some() && served.server_pinned;
    let oracle = {
        let mut db = served.db.write().expect("no writer panicked");
        Oracle::compute(&inputs, &mut db)?
    };

    let mut t = Tracer::new();
    let mut lp = Loop::new(&mut served, &mut inputs, &oracle);
    lp.attempted += 1;
    lp.failed += u64::from(!lp.check(lp.inputs.first_key(), &first_reply, true));
    front_end(&mut t, workload, &lp)?;
    for _ in 0..scale.warmup_ops {
        lp.step();
    }

    // Phase 1, untraced: the plain closed loop, for the client-side
    // diagnostics and as the base of `trace.overhead_ratio`.
    let phase = length.min(Duration::from_secs(5)) / 2;
    let (mut warm, mut cold, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    chunks_within(scale.trace_ops, phase, || {
        for _ in 0..CYCLE {
            let step = lp.step();
            match step.op {
                Op::Write { .. } => writes.push(step.nanos),
                Op::Read { cold: true, .. } => cold.push(step.nanos),
                Op::Read { .. } => warm.push(step.nanos),
            }
        }
        Ok(())
    })?;
    let reads: Vec<u64> = warm.iter().chain(&cold).copied().collect();
    let untraced_p50 = median_nanos(&reads);

    // Phase 2, traced: a chunk over the wire, then the same chunk
    // replayed in-process.
    let replayer = Replayer {
        workload,
        statement: match workload {
            Workload::MixedRw => None,
            _ => {
                let snap = lp.served.db.read().expect("no writer panicked").snapshot();
                Some(Arc::new(
                    monoid_db::prepare_on_snapshot(&snap, workload.statement())
                        .map_err(|e| e.to_string())?,
                ))
            }
        },
        session: Session::with_cache(Arc::new(PlanCache::new())),
    };
    let mut op = 0u32;
    let mut shadow_writes = 0u64;
    chunks_within(scale.trace_ops, phase * 2, || {
        let first = op;
        let mut chunk = Vec::with_capacity(CYCLE as usize);
        for _ in 0..CYCLE {
            let start_ns = t.now();
            let step = lp.step();
            if let Op::Read { .. } = step.op {
                t.record(op, "server.roundtrip", "", start_ns, step.nanos);
            }
            chunk.push(step.op);
            op += 1;
        }
        t.span(first, "server.ping", "", || lp.served.client.ping()).map_err(|e| e.to_string())?;
        for (i, step) in chunk.into_iter().enumerate() {
            let op = first + i as u32;
            match step {
                // The replay needs an epoch of its own to miss at; its
                // hotel is one no read ever asks for.
                Op::Write { .. } => {
                    let hotel = lp.inputs.written_hotel(u64::MAX - shadow_writes);
                    shadow_writes += 1;
                    let start_ns = t.now();
                    let nanos = lp.commit(hotel);
                    t.record(op, "store.insert", "replay", start_ns, nanos);
                }
                Op::Read { key, .. } => {
                    let (value, rows) = replayer.read(&mut t, op, &lp, key)?;
                    let expected = oracle.expected(lp.inputs, key, lp.writes_done);
                    lp.attempted += 1;
                    lp.failed += u64::from(!matches(expected, rows, &value, true));
                }
            }
        }
        Ok(())
    })?;
    let (attempted, failed) = (lp.attempted, lp.failed);
    served.stop();
    t.write_jsonl(&out_dir.join(format!("trace-{}.jsonl", workload.name())))
        .map_err(|e| e.to_string())?;

    let roundtrip = t.median_of("server.roundtrip");
    let paired = t.roundtrip_and_replayed();
    let residual = median(&paired.iter().map(|(wire, replay)| wire - replay).collect::<Vec<_>>());
    let coverage = median(&paired.iter().map(|(wire, replay)| replay / wire).collect::<Vec<_>>());
    let value_of = |name: &str| -> f64 {
        match name {
            "oql.parse_ns" => t.median_of("oql.parse"),
            "oql.translate_ns" => t.median_self("oql.compile", "oql.parse"),
            "core.typecheck_ns" => t.median_of("core.typecheck"),
            "core.normalize_ns" => t.median_of("core.normalize"),
            "core.normalize_rules" => t.median_count("core.normalize_rules"),
            "algebra.plan_ns" => t.median_of("algebra.plan"),
            "algebra.execute_ns" => t.median_of("algebra.execute"),
            "algebra.fused_ops"
            | "algebra.walk_ops"
            | "algebra.rows_out"
            | "serving.cache_hits"
            | "serving.cache_misses" => t.total_count(name),
            "store.generate_s" => generate_seconds,
            "store.objects" => objects as f64,
            "store.snapshot_ns" => t.median_of("store.snapshot"),
            "store.insert_ns" => t.median_of("store.insert"),
            "serving.cache_lookup_ns" => t.median_of("serving.cache_lookup"),
            "serving.prepare_ns" => t.median_of("serving.prepare"),
            "serving.execute_self_ns" => t.median_self("serving.execute", "algebra.execute"),
            "wire.req_encode_ns" => t.median_of("wire.req_encode"),
            "wire.req_decode_ns" => t.median_of("wire.req_decode"),
            "wire.deconstruct_ns" => t.median_of("wire.deconstruct"),
            "wire.resp_encode_ns" => t.median_of("wire.resp_encode"),
            "wire.resp_decode_ns" => t.median_of("wire.resp_decode"),
            "wire.resp_bytes" | "wire.frames" => t.median_count(name),
            "server.roundtrip_ns" => roundtrip,
            "server.ping_ns" => t.median_of("server.ping"),
            "server.residual_ns" => residual,
            "client.p99_us" => quantile_nanos(&reads, 0.99) / 1e3,
            "client.samples" => reads.len() as f64,
            "client.read_warm_p50_us" => median_nanos(&warm) / 1e3,
            "client.read_cold_p50_us" => median_nanos(&cold) / 1e3,
            "client.write_p50_us" => median_nanos(&writes) / 1e3,
            "client.pinned" => f64::from(u8::from(pinned)),
            "trace.coverage" => coverage,
            "trace.overhead_ratio" => roundtrip / untraced_p50,
            other => unreachable!("{other} is not a per-layer metric"),
        }
    };
    let values = PER_LAYER.iter().map(|spec| value_of(spec.name)).collect();
    Ok(TraceRun { values, attempted, failed })
}
