//! The plan-quality audit behind `regress --audit` and `oqltop --audit`:
//! run the canonical regression corpus once under the profiler and
//! report, read straight from the profiles — per query, per operator,
//! and per operator *kind* — how honest the optimizer's cardinality estimates
//! were (q-error, `max(est/actual, actual/est)`) and what each operator
//! kind costs per row it produces (self-nanos divided by rows out). The
//! profiles count the fused fold, the engine that serves reads.
//!
//! The `regress` binary serializes the report to `BENCH_audit.json` at
//! the repo root next to `BENCH_regress.json`; with `--audit-baseline`
//! a fresh run is gated on the committed baseline's corpus-median
//! q-error ([`gate`]). Latency regressions have their own gate
//! ([`crate::compare`]) — this one catches *estimate drift*: a cost-model
//! or statistics change that quietly starts lying about cardinalities
//! without (yet) showing up as wall-clock time.
//!
//! `oqltop --audit` / `--flame` reuse the kind aggregation and the
//! stack-rooting helper on profiles loaded from slow-query logs
//! ([`QueryProfile::from_json`], strict).

use crate::harness::{fmt_nanos, Table};
use crate::regress::{self, host_meta, HostMeta};
use monoid_calculus::json::Json;
use monoid_algebra::{OperatorProfile, QueryProfile};

/// Audit schema version stamped into `BENCH_audit.json`.
pub const AUDIT_SCHEMA_VERSION: i64 = 2;

/// Default `--audit-tolerance` (percent): the corpus-median q-error may
/// grow this much over the committed baseline before the gate fails.
pub const DEFAULT_AUDIT_TOLERANCE_PCT: f64 = 50.0;

/// Absolute q-error noise floor: a corpus-median drift below this many
/// q-units never fails the gate, however large it is relatively.
/// Estimates around 1.0–1.25 jitter with store seeds; a drift that small
/// is noise, not a cost-model lie.
pub const AUDIT_NOISE_FLOOR_Q: f64 = 0.25;

/// `folded` stacks re-rooted under one more frame — `name;` prefixed to
/// every line (sanitized: `;` is the frame separator) — so several
/// queries' towers share one flamegraph file.
pub fn rooted(name: &str, folded: &str) -> String {
    let root = name.replace(';', ",").replace('\n', " ");
    folded.lines().map(|line| format!("{root};{line}\n")).collect()
}

/// One corpus query's audit: its operators plus the headline numbers.
#[derive(Debug, Clone)]
pub struct QueryAudit {
    pub name: String,
    pub store: String,
    pub source: String,
    pub rows_to_reduce: u64,
    pub short_circuited: bool,
    pub median_q_error: f64,
    pub max_q_error: f64,
    /// Label of the worst-estimated operator.
    pub worst_operator: String,
    /// Pre-order position of the worst-estimated operator.
    pub worst_op: u64,
    pub operators: Vec<OperatorProfile>,
    /// The query's profile as folded flamegraph stacks.
    pub folded: String,
}

impl QueryAudit {
    pub fn from_profile(name: &str, store: &str, source: &str, p: &QueryProfile) -> QueryAudit {
        let worst = p.worst_q_error();
        QueryAudit {
            name: name.to_string(),
            store: store.to_string(),
            source: source.to_string(),
            rows_to_reduce: p.rows_to_reduce,
            short_circuited: p.short_circuited,
            median_q_error: p.median_q_error().unwrap_or(1.0),
            max_q_error: p.max_q_error().unwrap_or(1.0),
            worst_operator: worst.map(|o| o.label.clone()).unwrap_or_default(),
            worst_op: worst.map_or(0, |o| o.op as u64),
            operators: p.operators.clone(),
            folded: p.to_folded(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name.clone())),
            ("store", Json::str(self.store.clone())),
            ("source", Json::str(self.source.clone())),
            ("rows_to_reduce", Json::from(self.rows_to_reduce)),
            ("short_circuited", Json::Bool(self.short_circuited)),
            ("median_q_error", Json::Float(self.median_q_error)),
            ("max_q_error", Json::Float(self.max_q_error)),
            ("worst_operator", Json::str(self.worst_operator.clone())),
            ("worst_op", Json::from(self.worst_op)),
            ("operators", Json::Arr(self.operators.iter().map(OperatorProfile::to_json).collect())),
        ])
    }
}

/// Aggregate overhead and estimate quality for one operator kind across
/// the whole corpus.
#[derive(Debug, Clone)]
pub struct KindAudit {
    pub kind: &'static str,
    /// Operator instances of this kind across the corpus.
    pub operators: u64,
    /// Rows those operators pushed, summed.
    pub rows: u64,
    pub median_q_error: f64,
    pub max_q_error: f64,
    pub self_nanos: u64,
}

impl KindAudit {
    pub fn nanos_per_row(&self) -> f64 {
        self.self_nanos as f64 / self.rows.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind)),
            ("operators", Json::from(self.operators)),
            ("rows", Json::from(self.rows)),
            ("median_q_error", Json::Float(self.median_q_error)),
            ("max_q_error", Json::Float(self.max_q_error)),
            ("self_nanos", Json::from(self.self_nanos)),
            ("nanos_per_row", Json::Float(self.nanos_per_row())),
        ])
    }
}

/// The lower median of a slice (sorted in place); 1.0 when empty.
fn lower_median(qs: &mut [f64]) -> f64 {
    if qs.is_empty() {
        return 1.0;
    }
    qs.sort_by(f64::total_cmp);
    qs[(qs.len() - 1) / 2]
}

/// Fold a set of audited operators into per-kind aggregates, ordered by
/// total self time (hottest kind first).
pub fn aggregate_kinds<'a>(ops: impl Iterator<Item = &'a OperatorProfile>) -> Vec<KindAudit> {
    // kind → (q-errors, aggregate), insertion-ordered.
    let mut groups: Vec<(Vec<f64>, KindAudit)> = Vec::new();
    for o in ops {
        let entry = match groups.iter_mut().find(|(_, k)| k.kind == o.kind) {
            Some(entry) => entry,
            None => {
                groups.push((
                    Vec::new(),
                    KindAudit {
                        kind: o.kind,
                        operators: 0,
                        rows: 0,
                        median_q_error: 1.0,
                        max_q_error: 1.0,
                        self_nanos: 0,
                    },
                ));
                groups.last_mut().expect("just pushed")
            }
        };
        let (qs, k) = entry;
        let q = o.q_error();
        qs.push(q);
        k.operators += 1;
        k.rows += o.actual_rows;
        k.max_q_error = k.max_q_error.max(q);
        k.self_nanos += o.self_nanos;
    }
    let mut kinds: Vec<KindAudit> = groups
        .into_iter()
        .map(|(mut qs, mut k)| {
            k.median_q_error = lower_median(&mut qs);
            k
        })
        .collect();
    kinds.sort_by_key(|k| std::cmp::Reverse(k.self_nanos));
    kinds
}

/// Estimate drift against a committed baseline, embedded in the report
/// when `--audit-baseline` was given.
#[derive(Debug, Clone)]
pub struct Drift {
    pub baseline_corpus_median: f64,
    pub baseline_corpus_max: f64,
    /// `current − baseline` corpus-median q-error (positive = worse).
    pub median_delta: f64,
    /// The baseline's `quick` flag differed from this run's — latency
    /// and cardinalities aren't comparable like-for-like, so the gate
    /// note says so.
    pub mode_mismatch: bool,
}

impl Drift {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("baseline_corpus_median_q_error", Json::Float(self.baseline_corpus_median)),
            ("baseline_corpus_max_q_error", Json::Float(self.baseline_corpus_max)),
            ("median_delta", Json::Float(self.median_delta)),
            ("mode_mismatch", Json::Bool(self.mode_mismatch)),
        ])
    }
}

/// The full audit report (`BENCH_audit.json`).
#[derive(Debug, Clone)]
pub struct AuditReport {
    pub quick: bool,
    pub queries: Vec<QueryAudit>,
    pub kinds: Vec<KindAudit>,
    /// Median of the per-query median q-errors — the one number the
    /// drift gate watches.
    pub corpus_median_q_error: f64,
    pub corpus_max_q_error: f64,
    pub host: HostMeta,
    pub drift: Option<Drift>,
}

/// Run the audit over the canonical regression corpus: each case
/// executes once under the profiler, and its profile is the audit's
/// only input.
pub fn run(quick: bool) -> AuditReport {
    let (mut travel_db, mut company_db, cases) = regress::suite(quick);
    let mut queries = Vec::with_capacity(cases.len());
    for case in cases {
        let db = match case.store {
            "travel" => &mut travel_db,
            _ => &mut company_db,
        };
        let analysis = regress::profile_case(&case, db);
        queries.push(QueryAudit::from_profile(case.name, case.store, &case.source, &analysis.profile));
    }
    from_queries(quick, queries)
}

/// Assemble a report from already-audited queries (what [`run`] and the
/// tests share).
pub fn from_queries(quick: bool, queries: Vec<QueryAudit>) -> AuditReport {
    let kinds = aggregate_kinds(queries.iter().flat_map(|q| q.operators.iter()));
    let mut medians: Vec<f64> = queries.iter().map(|q| q.median_q_error).collect();
    let corpus_median_q_error = lower_median(&mut medians);
    let corpus_max_q_error =
        queries.iter().map(|q| q.max_q_error).fold(1.0, f64::max);
    AuditReport {
        quick,
        queries,
        kinds,
        corpus_median_q_error,
        corpus_max_q_error,
        host: host_meta(),
        drift: None,
    }
}

impl AuditReport {
    /// Annotate the report with drift against a committed baseline
    /// document (a previous `BENCH_audit.json`). A baseline that isn't
    /// an audit report leaves `drift` unset.
    pub fn with_drift(mut self, baseline: &Json) -> AuditReport {
        let corpus = baseline.get("corpus");
        let Some(base_median) =
            corpus.and_then(|c| c.get("median_q_error")).and_then(Json::as_f64)
        else {
            return self;
        };
        let base_max = corpus
            .and_then(|c| c.get("max_q_error"))
            .and_then(Json::as_f64)
            .unwrap_or(base_median);
        let base_quick = baseline.get("quick").and_then(Json::as_bool).unwrap_or(false);
        self.drift = Some(Drift {
            baseline_corpus_median: base_median,
            baseline_corpus_max: base_max,
            median_delta: self.corpus_median_q_error - base_median,
            mode_mismatch: base_quick != self.quick,
        });
        self
    }

    /// All queries' folded stacks, each line prefixed with the query
    /// name as its own root frame — one file flamegraphs the whole
    /// corpus, with one top-level tower per query.
    pub fn corpus_folded(&self) -> String {
        self.queries.iter().map(|q| rooted(&q.name, &q.folded)).collect()
    }

    /// The `BENCH_audit.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::str("audit")),
            ("schema_version", Json::Int(AUDIT_SCHEMA_VERSION)),
            ("host", self.host.to_json()),
            ("quick", Json::Bool(self.quick)),
            (
                "corpus",
                Json::obj(vec![
                    ("queries", Json::from(self.queries.len())),
                    ("median_q_error", Json::Float(self.corpus_median_q_error)),
                    ("max_q_error", Json::Float(self.corpus_max_q_error)),
                ]),
            ),
            ("queries", Json::Arr(self.queries.iter().map(QueryAudit::to_json).collect())),
            ("kinds", Json::Arr(self.kinds.iter().map(KindAudit::to_json).collect())),
            (
                "drift",
                self.drift.as_ref().map(Drift::to_json).unwrap_or(Json::Null),
            ),
        ])
    }

    /// Render the human audit screen: per-query headline numbers, then
    /// the per-kind overhead table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan-quality audit ({} queries, {}): corpus q-error median {:.2}, max {:.2}\n",
            self.queries.len(),
            if self.quick { "quick" } else { "full" },
            self.corpus_median_q_error,
            self.corpus_max_q_error,
        ));
        if let Some(d) = &self.drift {
            out.push_str(&format!(
                "vs baseline: median {:.2} → {:.2} ({:+.2}){}\n",
                d.baseline_corpus_median,
                self.corpus_median_q_error,
                d.median_delta,
                if d.mode_mismatch { " [mode mismatch: quick vs full]" } else { "" },
            ));
        }
        out.push('\n');
        let mut queries = Table::new(&["query", "rows", "q-med", "q-max", "worst operator"]);
        for q in &self.queries {
            queries.row(&[
                q.name.clone(),
                q.rows_to_reduce.to_string(),
                format!("{:.2}", q.median_q_error),
                format!("{:.2}", q.max_q_error),
                q.worst_operator.clone(),
            ]);
        }
        out.push_str(&queries.render());
        out.push('\n');
        out.push_str(&render_kind_table(&self.kinds));
        out
    }
}

/// The per-kind overhead table ([`AuditReport::render`] and
/// `oqltop --audit` share it).
pub fn render_kind_table(kinds: &[KindAudit]) -> String {
    let mut table =
        Table::new(&["kind", "ops", "rows", "q-med", "q-max", "self", "ns/row"]);
    for k in kinds {
        table.row(&[
            k.kind.to_string(),
            k.operators.to_string(),
            k.rows.to_string(),
            format!("{:.2}", k.median_q_error),
            format!("{:.2}", k.max_q_error),
            fmt_nanos(u128::from(k.self_nanos)),
            format!("{:.1}", k.nanos_per_row()),
        ]);
    }
    table.render()
}

/// The gate's verdict: informational notes plus hard regressions (any
/// regression → the `regress` binary exits 1).
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    pub notes: Vec<String>,
    pub regressions: Vec<String>,
}

/// Gate a fresh audit against a committed baseline: the corpus-median
/// q-error may not grow more than `tolerance_pct` percent *and* more
/// than [`AUDIT_NOISE_FLOOR_Q`] absolute q-units. A baseline that isn't
/// an audit report is an `Err` (a broken gate should fail loudly, not
/// pass silently).
pub fn gate(current: &AuditReport, baseline: &Json, tolerance_pct: f64) -> Result<GateOutcome, String> {
    let base_median = baseline
        .get("corpus")
        .and_then(|c| c.get("median_q_error"))
        .and_then(Json::as_f64)
        .ok_or("audit baseline has no corpus.median_q_error")?;
    if base_median < 1.0 {
        return Err(format!("audit baseline corpus median {base_median} is below 1.0 — not a q-error"));
    }
    let mut out = GateOutcome::default();
    let base_quick = baseline.get("quick").and_then(Json::as_bool).unwrap_or(false);
    if base_quick != current.quick {
        out.notes.push(format!(
            "audit baseline mode mismatch (baseline {}, current {}) — comparing anyway",
            if base_quick { "quick" } else { "full" },
            if current.quick { "quick" } else { "full" },
        ));
    }
    let cur = current.corpus_median_q_error;
    let allowed = base_median * (1.0 + tolerance_pct / 100.0);
    let delta = cur - base_median;
    if cur > allowed && delta > AUDIT_NOISE_FLOOR_Q {
        out.regressions.push(format!(
            "corpus-median q-error regressed: {base_median:.3} → {cur:.3} \
             (allowed ≤ {allowed:.3} at {tolerance_pct:.0}% tolerance)"
        ));
    } else {
        out.notes.push(format!(
            "corpus-median q-error {cur:.3} vs baseline {base_median:.3} — within tolerance"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_audit_produces_a_complete_report() {
        let report = run(true);
        assert_eq!(report.queries.len(), 6, "audit covers the regress corpus");
        assert!(report.corpus_median_q_error >= 1.0);
        assert!(report.corpus_max_q_error >= report.corpus_median_q_error);
        for q in &report.queries {
            assert!(!q.operators.is_empty(), "{} has operators", q.name);
            assert!(q.median_q_error >= 1.0 && q.max_q_error >= q.median_q_error, "{}", q.name);
            assert!(!q.worst_operator.is_empty(), "{}", q.name);
            // The folded stacks parse: every line is `frames value` with
            // at least the root and one operator frame, no empty frames.
            assert_eq!(q.folded.lines().count(), q.operators.len());
            for line in q.folded.lines() {
                let (stack, value) = line.rsplit_once(' ').expect("value separated by space");
                assert!(value.parse::<u64>().is_ok(), "numeric value: {line}");
                let frames: Vec<&str> = stack.split(';').collect();
                assert!(frames.len() >= 2, "root + operator: {line}");
                assert!(frames.iter().all(|f| !f.trim().is_empty()), "no empty frames: {line}");
                assert!(frames[0].starts_with("Reduce["), "reduction roots the stack: {line}");
            }
        }
        // Kinds aggregate over the corpus; scans exist and pushed rows.
        let scan = report.kinds.iter().find(|k| k.kind == "scan").expect("corpus scans");
        assert!(scan.operators > 0 && scan.rows > 0);
        assert!(scan.median_q_error >= 1.0);
        // The JSON document carries the acceptance fields.
        let json = report.to_json().render();
        for key in [
            "\"bench\"",
            "\"corpus\"",
            "\"median_q_error\"",
            "\"max_q_error\"",
            "\"worst_operator\"",
            "\"kinds\"",
            "\"nanos_per_row\"",
            "\"q_error\"",
            "\"host\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // And the render shows the headline plus both tables.
        let text = report.render();
        assert!(text.contains("corpus q-error median"), "{text}");
        assert!(text.contains("ns/row"), "{text}");
    }

    #[test]
    fn corpus_folded_prefixes_query_roots() {
        let report = run(true);
        let folded = report.corpus_folded();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<u64>().is_ok(), "{line}");
            let mut frames = stack.split(';');
            let root = frames.next().unwrap();
            assert!(
                report.queries.iter().any(|q| q.name == root),
                "query name roots the corpus stack: {line}"
            );
            assert!(frames.next().is_some_and(|f| f.starts_with("Reduce[")), "{line}");
        }
    }

    #[test]
    fn audit_gate_passes_within_tolerance_and_fails_beyond() {
        let current = run(true);
        // Gating a run against its own document always passes.
        let own = current.to_json();
        let outcome = gate(&current, &own, DEFAULT_AUDIT_TOLERANCE_PCT).unwrap();
        assert!(outcome.regressions.is_empty(), "{:?}", outcome.regressions);
        // A baseline far below the current median fails the gate (the
        // delta also clears the noise floor).
        let tight = Json::obj(vec![
            ("quick", Json::Bool(true)),
            ("corpus", Json::obj(vec![("median_q_error", Json::Float(1.0))])),
        ]);
        if current.corpus_median_q_error > 1.0 + AUDIT_NOISE_FLOOR_Q {
            let outcome = gate(&current, &tight, 0.0).unwrap();
            assert!(!outcome.regressions.is_empty());
        }
        // An absurdly high baseline passes even at 0% tolerance.
        let loose = Json::obj(vec![
            ("quick", Json::Bool(true)),
            ("corpus", Json::obj(vec![("median_q_error", Json::Float(1e9))])),
        ]);
        let outcome = gate(&current, &loose, 0.0).unwrap();
        assert!(outcome.regressions.is_empty());
        // A mode mismatch is a note, not a failure.
        let full_mode = Json::obj(vec![
            ("quick", Json::Bool(false)),
            (
                "corpus",
                Json::obj(vec![(
                    "median_q_error",
                    Json::Float(current.corpus_median_q_error),
                )]),
            ),
        ]);
        let outcome = gate(&current, &full_mode, DEFAULT_AUDIT_TOLERANCE_PCT).unwrap();
        assert!(outcome.regressions.is_empty());
        assert!(outcome.notes.iter().any(|n| n.contains("mode mismatch")), "{:?}", outcome.notes);
        // Garbage baselines are loud errors.
        assert!(gate(&current, &Json::obj(vec![]), 50.0).is_err());
        // Drift annotation lands in the JSON.
        let annotated = run(true).with_drift(&own);
        let d = annotated.drift.as_ref().expect("baseline parsed");
        assert!(!d.mode_mismatch);
        let json = annotated.to_json().render();
        assert!(json.contains("\"median_delta\""), "{json}");
    }

    #[test]
    fn kinds_aggregate_hottest_first_over_profiles() {
        let op = |kind: &'static str, actual_rows, self_nanos| OperatorProfile {
            op: 0,
            label: kind.to_string(),
            kind,
            depth: 0,
            estimated_rows: 8.0,
            actual_rows,
            build_rows: 0,
            self_nanos,
        };
        let ops = [op("scan", 3, 0), op("unnest", 2, 500), op("scan", 8, 100)];
        let kinds = aggregate_kinds(ops.iter());
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].kind, "unnest", "hottest kind first");
        assert!((kinds[0].median_q_error - 4.0).abs() < 1e-9);
        assert!((kinds[0].nanos_per_row() - 250.0).abs() < 1e-9);
        assert_eq!((kinds[1].operators, kinds[1].rows, kinds[1].self_nanos), (2, 11, 100));
        assert!((kinds[1].max_q_error - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(rooted("q;1", "Reduce[bag];Scan 5\n"), "q,1;Reduce[bag];Scan 5\n");
    }
}
