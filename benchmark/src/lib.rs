//! `oqlbench`: the end-to-end benchmark of monoid-db's wire server.
//!
//! Four seeded workloads drive an in-process `oqld` over loopback from
//! one closed-loop client and check every reply against the plan-walk
//! reference engine ([`harness`]); a separate traced run replays the same
//! operations in-process with a span around each layer's public entry
//! point ([`trace`]). Names, units and bounds live in [`spec`] and must
//! match `BENCHMARK.json`. See `README.md` for what each number means.

pub mod affinity;
pub mod harness;
pub mod quiet;
pub mod report;
pub mod spec;
pub mod trace;
pub mod workload;
