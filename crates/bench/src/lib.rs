//! # monoid-bench
//!
//! Workloads, query builders, and a light harness shared by:
//!
//! * the `experiments` binary (`cargo run -p monoid-bench --bin
//!   experiments`), which regenerates every table, worked example, and
//!   derivation in the paper and is the one harness that measures the
//!   benchmark series (E1–E7, B1–B6 in DESIGN.md / EXPERIMENTS.md);
//! * the `regress` binary (`cargo run --release -p monoid-bench --bin
//!   regress`), which runs the canonical paper queries through the
//!   pipeline in process and writes `BENCH_regress.json` — latency
//!   percentiles plus the metrics-registry delta — at the repo root,
//!   and with `--compare` gates a fresh run against that baseline
//!   ([`compare`]); the wire is timed by `oqlbench` (`benchmark/`);
//! * the `oqltop` binary, which renders top queries by time from the
//!   flight recorder's live snapshot or a dumped journal ([`top`]).

pub mod audit;
pub mod compare;
pub mod harness;
pub mod queries;
pub mod regress;
pub mod top;
