//! # monoid-store
//!
//! The object database substrate underneath the monoid calculus system:
//!
//! * [`database`] — schemas, class extents, the OID heap, persistent roots,
//!   and query entry points ([`Database::query`] threads the heap through
//!   evaluation so update programs mutate in place).
//! * [`travel`] — the paper's travel-agency schema (Cities / Hotels / Rooms
//!   / Employees / Clients) with a deterministic, seeded generator at
//!   configurable scale; city 0 is always `"Portland"` so the paper's
//!   queries run verbatim.
//! * [`company`] — a second sample database with a class *hierarchy*
//!   (`Manager <: Employee <: Person`), exercising OQL's subtype features.
//! * [`snapshot`] — immutable `O(1)` database snapshots
//!   ([`Database::snapshot`]) for concurrent, snapshot-isolated reads;
//!   stamped with `(instance_id, mutation_epoch)`.
//! * [`memo`] — the per-snapshot memo of values derived from one epoch's
//!   data (the fused engine's join tables).
//! * [`codec`] — self-contained binary snapshots of values and whole
//!   databases.
//!
//! The paper evaluates against an O2-style OODB that was never distributed;
//! this crate is the schema-identical substitute (DESIGN.md §5).

pub mod codec;
pub mod company;
pub mod database;
pub mod memo;
pub mod snapshot;
pub mod travel;

pub use database::Database;
pub use snapshot::Snapshot;
pub use travel::TravelScale;
