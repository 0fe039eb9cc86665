//! The benchmark's contract: workload and metric names, units,
//! directions and regression bounds, exactly as `BENCHMARK.json` lists
//! them (`tests/contract.rs` fails when the two drift).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen; per-layer metrics
/// have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The four end-to-end metrics, the same on every workload. Every bound
/// is the contract's cap: ten runs of unchanged code on the reference VM
/// spread (quartile to quartile) by 2–9 % of the median on the timings,
/// 1–3 % on `peak_rss_mb` and up to 25 % on `setup_s`, whose medians
/// over ten runs still agree within 8 % (README, "How the bounds were
/// derived").
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics of the traced run, named after the repo's modules.
pub const PER_LAYER: [MetricSpec; 37] = [
    layer("oql.parse_ns", "ns", Lower),
    layer("oql.translate_ns", "ns", Lower),
    layer("core.typecheck_ns", "ns", Lower),
    layer("core.normalize_ns", "ns", Lower),
    layer("core.normalize_rules", "count", Lower),
    layer("algebra.plan_ns", "ns", Lower),
    layer("algebra.execute_ns", "ns", Lower),
    layer("algebra.fused_ops", "count", Higher),
    layer("algebra.walk_ops", "count", Lower),
    layer("algebra.rows_out", "count", Higher),
    layer("store.generate_s", "s", Lower),
    layer("store.objects", "count", Higher),
    layer("store.snapshot_ns", "ns", Lower),
    layer("store.insert_ns", "ns", Lower),
    layer("serving.cache_lookup_ns", "ns", Lower),
    layer("serving.cache_hits", "count", Higher),
    layer("serving.cache_misses", "count", Lower),
    layer("serving.prepare_ns", "ns", Lower),
    layer("serving.execute_self_ns", "ns", Lower),
    layer("wire.req_encode_ns", "ns", Lower),
    layer("wire.req_decode_ns", "ns", Lower),
    layer("wire.deconstruct_ns", "ns", Lower),
    layer("wire.resp_encode_ns", "ns", Lower),
    layer("wire.resp_decode_ns", "ns", Lower),
    layer("wire.resp_bytes", "count", Lower),
    layer("wire.frames", "count", Lower),
    layer("server.roundtrip_ns", "ns", Lower),
    layer("server.ping_ns", "ns", Lower),
    layer("server.residual_ns", "ns", Lower),
    layer("client.p99_us", "us", Lower),
    layer("client.samples", "count", Higher),
    layer("client.read_warm_p50_us", "us", Lower),
    layer("client.read_cold_p50_us", "us", Lower),
    layer("client.write_p50_us", "us", Lower),
    layer("client.pinned", "count", Higher),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The four workloads. Each stresses a different layer so that a gain in
/// one layer shows on one workload and as "no change" on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointWire,
    JoinWire,
    BulkRows,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PointWire, Workload::JoinWire, Workload::BulkRows, Workload::MixedRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointWire => "point-wire",
            Workload::JoinWire => "join-wire",
            Workload::BulkRows => "bulk-rows",
            Workload::MixedRw => "mixed-rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointWire => {
                "prepared exists-by-name over 50 hotels, scalar reply: time is framing, snapshot, bind and the socket, not the engine"
            }
            Workload::JoinWire => {
                "prepared weighted count over the Managers x CompanyEmployees dept join, scalar reply: time is the plan-walk hash join"
            }
            Workload::BulkRows => {
                "prepared select returning 16 000+ prices as ROWS batches: deconstruct, encode and client decode used for throughput"
            }
            Workload::MixedRw => {
                "16-op cycle of 1 in-process hotel insert + 15 ad-hoc QUERY reads: every cycle's first read misses the plan cache and re-prepares"
            }
        }
    }

    /// The OQL statement the workload prepares (or sends ad hoc).
    pub fn statement(self) -> &'static str {
        match self {
            Workload::PointWire | Workload::MixedRw => "exists h in Hotels: h.name = $name",
            Workload::JoinWire => {
                "sum(select $w from m in Managers, e in CompanyEmployees where m.dept = e.dept)"
            }
            Workload::BulkRows => {
                "select r.price from h in Hotels, r in h.rooms where r.price >= $floor"
            }
        }
    }

    /// The statement's single parameter name.
    pub fn param(self) -> &'static str {
        match self {
            Workload::PointWire | Workload::MixedRw => "name",
            Workload::JoinWire => "w",
            Workload::BulkRows => "floor",
        }
    }
}

/// Operations of one `mixed-rw` cycle: one write, then fifteen reads.
pub const CYCLE: u64 = 16;

/// Length of the blocks the measured phase is cut into. `ops_per_s` and
/// `p50_us` are the best block's, so interference moves the blocks it
/// hits and not the headline; a quarter of a second finds a quiet moment
/// between two bursts and still holds 50 reads of the slowest workload.
pub const BLOCK_MILLIS: u64 = 250;

/// Repetitions of set-up on fresh state; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
