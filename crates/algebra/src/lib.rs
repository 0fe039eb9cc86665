//! # monoid-algebra
//!
//! The evaluation back end for canonical monoid comprehensions — the
//! paper's *efficient evaluation* leg (§1, §6 sketch the translation into
//! a logical algebra; the companion paper \[17\] develops the physical
//! mapping, which this crate realizes in Volcano/push style).
//!
//! * [`logical`] — plan operators (Scan, Unnest, Filter, Bind, Join) and
//!   the canonical-comprehension → plan translation with predicate
//!   pushdown and equi-join key detection.
//! * [`exec`] — push-based pipelined execution: no intermediate
//!   materialization except hash-join build sides, with `some`/`all`
//!   short-circuiting.
//! * [`fused`](mod@fused) — fused batch execution: every planned query
//!   compiles, once, into one monomorphic fold over a slot-addressed row
//!   buffer, borrowing rows from extents instead of allocating per-row
//!   environments, with the forms it does not compile run by the
//!   evaluator in place; byte-identical to the plan walk, which stays as
//!   its oracle. The fold is also what the profiler counts, so the engine
//!   that serves is the one that is profiled.
//! * [`optimizer`] — cost-based qualifier reordering (join ordering as a
//!   calculus-level permutation, valid by commutativity) with statistics
//!   gathered from the database.
//! * [`explain`](mod@explain) — human-readable plan trees, optionally
//!   annotated with the optimizer's cardinality estimates.
//! * [`trace`] — the profiled half of `EXPLAIN ANALYZE`: one counted
//!   run of a planned query's fold with per-operator row/time counters
//!   next to the optimizer's estimates, serializable to JSON. A profile
//!   is the only account this crate keeps; it has no metric
//!   series of its own.
//! * [`verify`] — plan invariant verifier: binder consistency,
//!   re-checked before every execution when stage verification is on
//!   (`MONOID_VERIFY=1`, or any debug build). Purity needs no re-check:
//!   [`Query::new`] refuses `:=` and `new`, head included.
//!
//! Typical flow: `compile` OQL → `normalize` →
//! [`optimizer::reorder_generators`] → [`logical::plan_comprehension`],
//! whose [`Query`] carries the plan and the fused fold compiled from it
//! → [`exec::execute`] (or
//! [`trace::execute_profiled_bound`] to see where rows and time go).
//! The umbrella crate's `prepare_on` runs exactly that road once and
//! keeps the result as a `Prepared`; its `explain_analyze` is
//! `prepare_on` + `Prepared::profile`.
//!
//! **A plan reads a [`Snapshot`](monoid_store::Snapshot), and nothing
//! else.** The planner and [`Query::new`] refuse `new`/`:=`
//! (`PlanError::Impure`), so no `Query` ever writes the heap; every entry
//! point here — sequential, plan-walk, profiled — therefore takes
//! `&Snapshot` (a `&Database` or `&mut Database` derefs to its current
//! one) and starts from one private root in [`exec`]. Update programs
//! run on the calculus evaluator through `Database::query`, the paper's
//! §4.2 state-transformer path. The `*_bound` functions take late-bound
//! `$param` values — every `$param` the query reads, or the run is
//! refused; pass `&[]` when there are none.

pub mod error;
pub mod exec;
pub mod explain;
pub mod fused;
pub mod logical;
pub mod optimizer;
pub mod trace;
pub mod verify;

pub use error::PlanError;
pub use exec::{execute, execute_plan_walk_bound, execute_snapshot_bound};
pub use fused::{engine_of, Engine};
pub use explain::{explain, explain_with_estimates};
pub use optimizer::{reorder_generators, Stats};
pub use logical::{plan_comprehension, plan_with_options, Plan, PlanOptions, Query};
pub use trace::{execute_profiled_bound, fold_stacks, Analysis, OperatorProfile, QueryProfile};
pub use verify::verify_query;
