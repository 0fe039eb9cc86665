//! Static analysis over calculus terms.
//!
//! The paper's effectiveness standard rests on *manipulability*: every
//! Table-3 rewrite must preserve typing and the C/I legality restriction.
//! Until now those invariants were checked once at the front door; this
//! module re-checks them continuously and classifies queries *before*
//! they run:
//!
//! * [`effects`] — a bottom-up effect-inference pass over [`Expr`]
//!   (allocates / mutates / reads-heap / short-circuits, plus free
//!   variables). The planner, the execution engines and the serving
//!   layer consult the resulting [`EffectSummary`] statically instead of
//!   scanning plans at runtime.
//! * [`verify`] — the stage invariant verifier: [`verify::check_rewrite`]
//!   re-checks scoping, C/I legality, type preservation, and
//!   well-formedness after every normalize rule firing (on under
//!   `cfg(debug_assertions)`, forced by `MONOID_VERIFY=1`).
//! * [`lint`](mod@lint) — structured diagnostics with stable codes (MC001–MC009),
//!   surfaced by the umbrella `analyze` API and the `oqlint` binary.
//!   MC009 (engine fallback) is the one code this crate defines but does
//!   not emit: `analyze` attaches it from the prepared plan.
//!
//! Nothing here reads statistics: the optimizer's `Stats` (in
//! `monoid-algebra`) owns the only fact table about the data.
//!
//! Analyzer activity feeds the process-wide metrics registry:
//! `analysis_diagnostics_total{code}` and
//! `analysis_verify_failures_total{stage}`.
//!
//! [`Expr`]: crate::expr::Expr
//! [`EffectSummary`]: effects::EffectSummary

use std::fmt;

pub mod effects;
pub mod lint;
pub mod verify;

pub use effects::{effects_of, Effects, EffectSummary};
pub use lint::{lint, lint_with_spans, Code, Diagnostic, Severity, SpanMap};
pub use verify::{check_rewrite, record_failure, verify_enabled, VerifyError};

/// A source position in the original query text (byte offset plus 1-based
/// line/column). Spans are threaded best-effort from the OQL front end:
/// synthesized terms (coercions, fresh binders, desugarings) have none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub offset: usize,
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(offset: usize, line: u32, col: u32) -> Span {
        Span { offset, line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Everything the static analyzer has to say about one query: its effect
/// summary and the lint diagnostics, ready to render for humans
/// ([`AnalysisReport::render`]) or machines ([`AnalysisReport::to_json`]).
/// Front ends attach source spans by building one with
/// [`AnalysisReport::with_spans`].
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The query's inferred effects and free variables.
    pub effects: EffectSummary,
    /// Lint findings, in source order where spans are known.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Analyze `e` with no source spans.
    pub fn of(e: &crate::expr::Expr) -> AnalysisReport {
        AnalysisReport::with_spans(e, &SpanMap::default())
    }

    /// Analyze `e`, anchoring diagnostics to `spans` where possible.
    pub fn with_spans(e: &crate::expr::Expr, spans: &SpanMap) -> AnalysisReport {
        AnalysisReport { effects: EffectSummary::of(e), diagnostics: lint_with_spans(e, spans) }
    }

    /// Add a diagnostic a later layer found (the umbrella's MC009),
    /// counted in `analysis_diagnostics_total{code}` like the rest.
    pub fn push(&mut self, d: Diagnostic) {
        lint::record_metrics(std::slice::from_ref(&d));
        self.diagnostics.push(d);
    }

    /// The most severe diagnostic level present, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Human-readable report: one header line with the effect summary,
    /// then one line per diagnostic.
    pub fn render(&self) -> String {
        let mut out = format!("effects: {}\n", self.effects);
        if self.diagnostics.is_empty() {
            out.push_str("no diagnostics\n");
        } else {
            for d in &self.diagnostics {
                out.push_str(&d.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// The report as JSON (strings escaped through [`crate::json`]).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let diags = Json::Arr(
            self.diagnostics
                .iter()
                .map(|d| {
                    Json::obj(vec![
                        ("code", Json::str(d.code.as_str())),
                        ("severity", Json::str(d.severity.to_string())),
                        (
                            "span",
                            match d.span {
                                Some(s) => Json::str(s.to_string()),
                                None => Json::Null,
                            },
                        ),
                        ("message", Json::str(d.message.clone())),
                        (
                            "note",
                            d.note.clone().map(Json::Str).unwrap_or(Json::Null),
                        ),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("effects", Json::str(self.effects.to_string())),
            ("diagnostics", diags),
        ])
    }
}
