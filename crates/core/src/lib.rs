//! # monoid-calculus
//!
//! A complete implementation of the **monoid comprehension calculus** from
//! Leonidas Fegaras and David Maier, *Towards an Effective Calculus for
//! Object Query Languages*, SIGMOD 1995.
//!
//! The calculus is a processing framework for object-oriented query
//! languages (OQL of ODMG-93 in particular). Its single bulk operator — the
//! *monoid homomorphism* — uniformly captures queries over multiple
//! collection types (sets, bags, lists, ordered sets, sorted lists,
//! strings), aggregations (`sum`, `max`, …), quantifiers (`some`, `all`),
//! vectors and arrays (§4.1), and object identity and updates (§4.2).
//! Monoid *comprehensions* are the surface syntax for homomorphisms, and a
//! small pattern-based rewrite system (§3.1, Table 3) normalizes any
//! composition of comprehensions into a canonical form that maximizes
//! pipelining.
//!
//! ## Crate layout
//!
//! * [`monoid`] — Table 1: the monoids, their C/I properties, and the `≤`
//!   legality relation for homomorphisms.
//! * [`types`] + [`typecheck`] — the type language and inference, enforcing
//!   the C/I restriction statically.
//! * [`expr`] — the term language (comprehensions, homomorphisms, vector
//!   comprehensions, `new`/`!`/`:=`).
//! * [`value`] + [`heap`] + [`eval`] — canonical runtime values, the object
//!   heap, and the evaluator (state-transformer semantics for updates).
//! * [`subst`] — capture-avoiding substitution.
//! * [`normalize`] — the Table 3 rewrite system with rule-by-rule traces.
//! * [`sru`] — the SRU baseline the paper argues against (§5), with
//!   dynamic law probing demonstrating why its obligations are
//!   impractical to discharge.
//! * [`pretty`] + [`parse`] — paper-notation printing and parsing
//!   (`parse(pretty(e)) = e` on the comprehension fragment).
//! * [`trace`] + [`json`] — query-lifecycle timing shared with the front
//!   and back ends, and the dependency-free JSON writer that serializes
//!   profiles.
//! * [`analysis`] — static analysis: effect inference ([`analysis::effects`]),
//!   the per-rewrite stage invariant verifier ([`analysis::verify`]), and
//!   the MC001–MC009 lint pass ([`analysis::lint`](mod@analysis::lint)) behind `oqlint`
//!   (`docs/analysis.md`).
//! * [`metrics`] — the process-wide registry of counters, gauges, and
//!   log-bucketed latency histograms a serving process writes, exported
//!   as JSON (`docs/observability.md`).
//! * [`recorder`] — the process-wide query flight recorder: a
//!   fixed-capacity ring of per-query [`recorder::QueryRecord`]s plus
//!   the slow-query capture log, fed by the serving layer
//!   (`docs/observability.md`).
//!
//! ## Quick taste
//!
//! ```
//! use monoid_calculus::prelude::*;
//!
//! // set{ (a,b) | a ← [1,2,3], b ← {{4,5}} }  — a list joined with a bag,
//! // returning a set (the paper's first worked example).
//! let q = Expr::comp(
//!     Monoid::Set,
//!     Expr::Tuple(vec![Expr::var("a"), Expr::var("b")]),
//!     vec![
//!         Expr::gen("a", Expr::list_of(vec![Expr::int(1), Expr::int(2), Expr::int(3)])),
//!         Expr::gen("b", Expr::bag_of(vec![Expr::int(4), Expr::int(5)])),
//!     ],
//! );
//! let result = eval_closed(&q).unwrap();
//! assert_eq!(result.len().unwrap(), 6);
//! ```

pub mod analysis;
pub mod error;
pub mod eval;
pub mod expr;
pub mod heap;
pub mod json;
pub mod metrics;
pub mod monoid;
pub mod normalize;
pub mod parse;
pub mod pretty;
pub mod recorder;
pub mod sru;
pub mod subst;
pub mod symbol;
pub mod trace;
pub mod typecheck;
pub mod types;
pub mod value;

/// Convenient glob-import of the common API surface.
pub mod prelude {
    pub use crate::analysis::{
        effects_of, lint, AnalysisReport, Code, Diagnostic, EffectSummary, Effects, Severity,
        Span, SpanMap, VerifyError,
    };
    pub use crate::error::{EvalError, EvalResult, TypeError, TypeResult};
    pub use crate::eval::{eval_closed, Evaluator};
    pub use crate::expr::{BinOp, Expr, Literal, Qual, UnOp};
    pub use crate::heap::Heap;
    pub use crate::monoid::{Monoid, Props};
    pub use crate::json::Json;
    pub use crate::metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
    pub use crate::normalize::{normalize, normalize_traced, NormalizeStats, Rule, TraceStep};
    pub use crate::trace::{Phase, PhaseTiming, QueryTrace};
    pub use crate::parse::parse_expr;
    pub use crate::pretty::{pretty, Pretty};
    pub use crate::recorder::{CacheDisposition, FlightRecorder, QueryRecord, SlowQueryCapture};
    pub use crate::subst::{free_vars, subst};
    pub use crate::symbol::Symbol;
    pub use crate::typecheck::{infer, TypeChecker};
    pub use crate::types::{ClassDef, CollKind, Schema, Type};
    pub use crate::value::{Env, Oid, Value};
}
