//! `EXPLAIN ANALYZE`: profiled execution of algebra plans.
//!
//! This module hands the one counting probe — `ExecProbe`, a [`Cell`] per
//! operator — to the query's fused fold, the engine that serves reads, to
//! count rows and operator-local time per plan node of an already-planned
//! query ([`execute_profiled_bound`]; preparing one — normalize →
//! optimize → plan — is the serving layer's job, whose `Prepared::profile`
//! prepends the statement's own phase trace). The result is a [`QueryProfile`]:
//! the `explain` tree annotated with the optimizer's *estimated*
//! cardinalities (`Stats::query_estimates`) next to the *observed* row
//! counts — reading the skew between the two is how you find out where
//! the cost model lies. A profile is the only thing the executor
//! measures, and it is summed once, here: the slow log and the
//! plan-quality audit read profiles, and no profile is re-summed into
//! the process-wide metrics registry. Profiles round-trip through JSON
//! ([`QueryProfile::to_json`] / [`QueryProfile::from_json`]).
//!
//! The unprofiled entry points ([`crate::execute`]) run the same fold
//! with a probe whose hooks are empty, and compile all instrumentation
//! away; nothing here taxes normal execution.

use crate::error::ExecResult;
use crate::exec;
use crate::explain;
use crate::fused::{self, Probe};
use crate::logical::{Plan, Query};
use monoid_calculus::json::Json;
use monoid_calculus::pretty::pretty;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::trace::{Phase, QueryTrace};
use monoid_calculus::value::Value;
use monoid_store::Snapshot;
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

/// The counting probe: one set of cells per plan operator, indexed by the
/// operator's pre-order position. `Cell` (not atomics) because profiled
/// execution is single-threaded; interior mutability lets one `&ExecProbe`
/// be shared down the fold's recursion.
struct ExecProbe {
    rows: Vec<Cell<u64>>,
    build: Vec<Cell<u64>>,
    nanos: Vec<Cell<u64>>,
    short_circuited: Cell<bool>,
}

impl ExecProbe {
    fn new(operators: usize) -> ExecProbe {
        ExecProbe {
            rows: (0..operators).map(|_| Cell::new(0)).collect(),
            build: (0..operators).map(|_| Cell::new(0)).collect(),
            nanos: (0..operators).map(|_| Cell::new(0)).collect(),
            short_circuited: Cell::new(false),
        }
    }
}

fn add(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

impl Probe for ExecProbe {
    const ENABLED: bool = true;

    fn rows_out(&self, op: usize, n: usize) {
        add(&self.rows[op], n as u64);
    }

    fn build_rows(&self, op: usize, n: usize) {
        add(&self.build[op], n as u64);
    }

    fn self_nanos(&self, op: usize, nanos: u64) {
        add(&self.nanos[op], nanos);
    }

    fn short_circuit(&self) {
        self.short_circuited.set(true);
    }
}

/// What one plan operator did during a profiled run, next to what the
/// optimizer predicted it would do.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorProfile {
    /// Pre-order position in the plan tree (0 = root).
    pub op: usize,
    /// The `explain` label, e.g. `Scan c ← Cities`.
    pub label: String,
    /// Operator kind ([`Plan::kind_label`]) — the bounded label the
    /// plan-quality audit aggregates under.
    pub kind: &'static str,
    /// Tree depth (root = 0), for rendering.
    pub depth: usize,
    /// The optimizer's estimated output cardinality.
    pub estimated_rows: f64,
    /// Rows actually pushed to the consumer.
    pub actual_rows: u64,
    /// Rows of the table the operator indexed (joins and keyed filters;
    /// 0 elsewhere).
    pub build_rows: u64,
    /// Operator-local wall-clock time (source/predicate/path evaluation,
    /// a join's keys, index build and probes), excluding time spent in its
    /// inputs or consumer. Always reported — a 0 means the operator's own
    /// work never crossed the clock's resolution, not that it was skipped.
    pub self_nanos: u64,
}

impl OperatorProfile {
    /// The q-error of this operator's cardinality estimate:
    /// `max(est/actual, actual/est)`, both sides clamped to ≥ 1 row so
    /// empty outputs stay finite. 1.0 is a perfect estimate; 4.0 means
    /// the optimizer was off by 4× in either direction. Short-circuited
    /// runs legitimately under-produce rows, so read their q-errors with
    /// [`QueryProfile::short_circuited`] in hand.
    pub fn q_error(&self) -> f64 {
        let est = self.estimated_rows.max(1.0);
        let actual = (self.actual_rows as f64).max(1.0);
        (est / actual).max(actual / est)
    }

    /// Self-nanos per row produced (rows clamped to ≥ 1).
    pub fn nanos_per_row(&self) -> f64 {
        self.self_nanos as f64 / self.actual_rows.max(1) as f64
    }

    /// The operator entry of a profile document; `q_error` and
    /// `nanos_per_row` are derived, emitted for readers of the file.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("op", Json::from(self.op)),
            ("operator", Json::str(self.label.clone())),
            ("kind", Json::str(self.kind)),
            ("depth", Json::from(self.depth)),
            ("estimated_rows", Json::Float(self.estimated_rows)),
            ("actual_rows", Json::from(self.actual_rows)),
            ("build_rows", Json::from(self.build_rows)),
            ("q_error", Json::Float(self.q_error())),
            ("self_nanos", Json::from(self.self_nanos)),
            ("nanos_per_row", Json::Float(self.nanos_per_row())),
        ])
    }

    /// Load an operator written by [`OperatorProfile::to_json`]. Strict:
    /// every stored field must be present and well-typed, and `kind` must
    /// be one of [`Plan::KIND_LABELS`].
    pub fn from_json(j: &Json) -> Result<OperatorProfile, String> {
        let count = |k: &str| j.required_u64("operator", k);
        let kind = j.required_str("operator", "kind")?;
        let kind = *Plan::KIND_LABELS
            .iter()
            .find(|k| **k == kind)
            .ok_or_else(|| format!("unknown operator kind `{kind}`"))?;
        Ok(OperatorProfile {
            op: count("op")? as usize,
            label: j.required_str("operator", "operator")?.to_string(),
            kind,
            depth: count("depth")? as usize,
            estimated_rows: j
                .required("operator", "estimated_rows")?
                .as_f64()
                .ok_or("operator `estimated_rows` is not a number")?,
            actual_rows: count("actual_rows")?,
            build_rows: count("build_rows")?,
            self_nanos: count("self_nanos")?,
        })
    }
}

/// The full profile of one query execution.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Output monoid of the reduction, e.g. `bag`.
    pub monoid: String,
    /// The reduction head, pretty-printed.
    pub head: String,
    /// Per-operator metrics in pre-order (`operators[i].op == i`).
    pub operators: Vec<OperatorProfile>,
    /// Lifecycle phase timings (and normalization stats, when the query
    /// came through `normalize`).
    pub trace: QueryTrace,
    /// Rows the plan root pushed into the `Reduce` accumulator.
    pub rows_to_reduce: u64,
    /// Did a `some`/`all` reduction absorb and cut execution short?
    pub short_circuited: bool,
}

impl QueryProfile {
    fn assemble(query: &Query, estimates: &[f64], probe: &ExecProbe) -> QueryProfile {
        let mut operators = Vec::with_capacity(probe.rows.len());
        query.plan().walk(&mut |op, depth, plan| {
            operators.push(OperatorProfile {
                op,
                label: explain::op_label(plan),
                kind: plan.kind_label(),
                depth,
                estimated_rows: estimates.get(op).copied().unwrap_or(0.0),
                actual_rows: probe.rows[op].get(),
                build_rows: probe.build[op].get(),
                self_nanos: probe.nanos[op].get(),
            });
        });
        QueryProfile {
            monoid: query.monoid().to_string(),
            head: pretty(query.head()),
            operators,
            rows_to_reduce: probe.rows.first().map(Cell::get).unwrap_or(0),
            short_circuited: probe.short_circuited.get(),
            trace: QueryTrace::new(),
        }
    }

    /// Render the annotated plan tree plus the phase table — the human
    /// `EXPLAIN ANALYZE` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Reduce[{}] head = {}  (rows in: {}{})",
            self.monoid,
            self.head,
            self.rows_to_reduce,
            if self.short_circuited { ", short-circuited" } else { "" },
        );
        for o in &self.operators {
            for _ in 0..=o.depth {
                out.push_str("  ");
            }
            let _ = write!(
                out,
                "{}  (est≈{}, actual {} rows",
                o.label,
                explain::fmt_rows(o.estimated_rows),
                o.actual_rows
            );
            if o.build_rows > 0 {
                let _ = write!(out, ", build {} rows", o.build_rows);
            }
            // `self` is always printed (0 means "below clock resolution",
            // not "not measured") so the column set is stable for tooling
            // that scrapes the text output — mirroring the JSON schema.
            let _ = write!(out, ", self {}", fmt_nanos(o.self_nanos as u128));
            out.push_str(")\n");
        }
        if let Some(worst) = self.worst_q_error() {
            let _ = writeln!(
                out,
                "q-error: median {:.2}, max {:.2} at op {} ({})",
                self.median_q_error().unwrap_or(1.0),
                worst.q_error(),
                worst.op,
                worst.label,
            );
        }
        let _ = writeln!(out, "phases ({} total):", fmt_nanos(self.trace.total_nanos()));
        for t in &self.trace.phases {
            let _ = writeln!(out, "  {:<10} {}", t.phase.as_str(), fmt_nanos(t.nanos));
        }
        if let Some(stats) = &self.trace.normalize {
            let _ = writeln!(
                out,
                "  normalize: {} rewrite steps, size {} → {}",
                stats.steps, stats.size_before, stats.size_after
            );
            if stats.steps > 0 {
                let _ = writeln!(out, "  rules fired: {}", stats.render_rules());
            }
        }
        out
    }

    /// Serialize the whole profile (the schema `docs/observability.md`
    /// documents).
    pub fn to_json(&self) -> Json {
        let operators = Json::Arr(self.operators.iter().map(OperatorProfile::to_json).collect());
        let q_error = match self.worst_q_error() {
            Some(worst) => Json::obj(vec![
                ("max", Json::Float(worst.q_error())),
                ("median", Json::Float(self.median_q_error().unwrap_or(1.0))),
                ("worst_op", Json::from(worst.op)),
                ("worst_operator", Json::str(worst.label.clone())),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            ("monoid", Json::str(self.monoid.clone())),
            ("head", Json::str(self.head.clone())),
            ("operators", operators),
            ("q_error", q_error),
            ("rows_to_reduce", Json::from(self.rows_to_reduce)),
            ("short_circuited", Json::Bool(self.short_circuited)),
            ("trace", self.trace.to_json()),
        ])
    }

    /// Load a profile written by [`QueryProfile::to_json`] — what a
    /// slow-query capture carries. Strict like
    /// [`OperatorProfile::from_json`]; the `q_error` summary is derived
    /// and the phase `trace` is not read back (it comes back empty).
    pub fn from_json(j: &Json) -> Result<QueryProfile, String> {
        let text = |k: &str| j.required_str("profile", k).map(str::to_string);
        let count = |k: &str| j.required_u64("profile", k);
        let operators = j
            .required("profile", "operators")?
            .as_arr()
            .ok_or("profile `operators` is not an array")?
            .iter()
            .map(OperatorProfile::from_json)
            .collect::<Result<_, _>>()?;
        Ok(QueryProfile {
            monoid: text("monoid")?,
            head: text("head")?,
            operators,
            trace: QueryTrace::new(),
            rows_to_reduce: count("rows_to_reduce")?,
            short_circuited: j
                .required("profile", "short_circuited")?
                .as_bool()
                .ok_or("profile `short_circuited` is not a boolean")?,
        })
    }

    /// The operator whose cardinality estimate was furthest off (highest
    /// [`OperatorProfile::q_error`]); `None` for an empty plan.
    pub fn worst_q_error(&self) -> Option<&OperatorProfile> {
        self.operators
            .iter()
            .max_by(|a, b| a.q_error().total_cmp(&b.q_error()))
    }

    /// The maximum per-operator q-error, or `None` for an empty plan.
    pub fn max_q_error(&self) -> Option<f64> {
        self.worst_q_error().map(OperatorProfile::q_error)
    }

    /// The lower-median of the per-operator q-errors — the headline
    /// "how honest was the cost model on this query" number the audit
    /// report aggregates corpus-wide.
    pub fn median_q_error(&self) -> Option<f64> {
        if self.operators.is_empty() {
            return None;
        }
        let mut qs: Vec<f64> = self.operators.iter().map(OperatorProfile::q_error).collect();
        qs.sort_by(f64::total_cmp);
        Some(qs[(qs.len() - 1) / 2])
    }

    /// Render the profile as folded stacks — one line per operator,
    /// `frame;frame;frame nanos` — the input format of `flamegraph.pl`
    /// and inferno. The reduction is the root frame; each operator's
    /// value is its *self* time, so the flamegraph's widths compose
    /// without double counting.
    pub fn to_folded(&self) -> String {
        let root = format!("Reduce[{}]", self.monoid);
        fold_stacks(
            &root,
            self.operators.iter().map(|o| (o.label.clone(), o.depth, o.self_nanos)),
        )
    }
}

/// Build folded-stack lines from pre-order `(label, depth, self_nanos)`
/// triples under a synthetic `root` frame. Frames are sanitized so the
/// output always parses: `;` (the frame separator) becomes `,`,
/// newlines collapse to spaces, and an empty label renders as `?`.
/// Zero-valued leaves are kept — flamegraph tooling accepts them and
/// dropping them would hide cheap operators from the tree shape.
pub fn fold_stacks(
    root: &str,
    ops: impl Iterator<Item = (String, usize, u64)>,
) -> String {
    let mut stack: Vec<String> = vec![folded_frame(root)];
    let mut out = String::new();
    for (label, depth, nanos) in ops {
        // depth is relative to the operator tree; +1 leaves room for root.
        stack.truncate(depth + 1);
        stack.push(folded_frame(&label));
        let _ = writeln!(out, "{} {nanos}", stack.join(";"));
    }
    out
}

fn folded_frame(label: &str) -> String {
    let cleaned: String = label
        .chars()
        .map(|c| match c {
            ';' => ',',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    let trimmed = cleaned.trim();
    if trimmed.is_empty() {
        "?".to_string()
    } else {
        trimmed.to_string()
    }
}

/// A profiled run: the query's value and how it was computed.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub value: Value,
    pub profile: QueryProfile,
}

/// The one counted execution: run an already-planned query's fold under an
/// `ExecProbe`, with late-bound parameter values, and read the probe's
/// cells back into a profile whose trace holds the execute phase. This is
/// what the serving layer's `Prepared::profile` — and through it `EXPLAIN
/// ANALYZE`, the slow-query capture and flamegraphs — runs.
/// The fold runs cold — no memo — so every build side runs here and is
/// counted.
/// `estimates` are the per-operator cardinalities the optimizer held when
/// it chose the plan ([`Stats::query_estimates`]; `&[]` for none), so the
/// profile's `est≈` column and q-errors judge that belief, not a fresh
/// look at the store.
///
/// [`Stats::query_estimates`]: crate::optimizer::Stats::query_estimates
pub fn execute_profiled_bound(
    query: &Query,
    estimates: &[f64],
    snap: &Snapshot,
    params: &[(Symbol, Value)],
) -> ExecResult<Analysis> {
    let start = Instant::now();
    let probe = ExecProbe::new(query.plan().node_count());
    let (mut ev, env) = exec::root(query, snap, params)?;
    let value = fused::try_run_reduce(query.fused(), &mut ev, &env, None, &probe)?;
    let mut profile = QueryProfile::assemble(query, estimates, &probe);
    profile.trace.record(Phase::Execute, start.elapsed().as_nanos());
    Ok(Analysis { value, profile })
}

fn fmt_nanos(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::plan_comprehension;
    use crate::optimizer::Stats;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;
    use monoid_store::travel::{self, TravelScale};

    /// Plan `q` as written and profile it against estimates gathered
    /// from `db`.
    fn profiled(q: &Expr, db: &Snapshot) -> Analysis {
        let query = plan_comprehension(q).unwrap();
        let estimates = Stats::gather(db).query_estimates(&query);
        execute_profiled_bound(&query, &estimates, db, &[]).unwrap()
    }

    #[test]
    fn profile_counts_match_pipeline_shape() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
            ],
        );
        let analysis = profiled(&q, &db);
        let p = &analysis.profile;
        // Pre-order: Unnest, Filter, Scan.
        assert_eq!(p.operators.len(), 3);
        assert!(p.operators[2].label.starts_with("Scan c"), "{}", p.render());
        let scan = p.operators[2].actual_rows;
        let filtered = p.operators[1].actual_rows;
        let unnested = p.operators[0].actual_rows;
        assert_eq!(scan, TravelScale::tiny().cities as u64);
        assert_eq!(filtered, 1, "one Portland");
        assert!(unnested >= filtered, "unnest fans out");
        assert_eq!(p.rows_to_reduce, unnested);
        assert!(!p.short_circuited);
        // The result agrees with direct execution.
        let plan = plan_comprehension(&q).unwrap();
        assert_eq!(analysis.value, crate::exec::execute(&plan, &db).unwrap());
        // Execution is the one phase this layer times.
        assert!(p.trace.phase_nanos(Phase::Execute).is_some());
        assert_eq!(p.trace.phases.len(), 1, "{:?}", p.trace.phases);
    }

    #[test]
    fn hash_join_profile_reports_build_side() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Hotels")),
                Expr::gen("b", Expr::var("Hotels")),
                Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("name"))),
            ],
        );
        let analysis = profiled(&q, &db);
        let p = &analysis.profile;
        let join = p
            .operators
            .iter()
            .find(|o| o.label.starts_with("HashJoin"))
            .expect("hash join planned");
        let hotels = db.extent_len("Hotels") as u64;
        assert_eq!(join.build_rows, hotels);
        assert_eq!(join.actual_rows, hotels, "self-join on a key");
        // Estimated and actual are both present and positive.
        assert!(join.estimated_rows > 0.0);
        let json = p.to_json().render();
        assert!(json.contains("\"build_rows\""), "{json}");
        assert!(json.contains("\"operators\""), "{json}");
    }

    #[test]
    fn render_shows_estimates_next_to_actuals() {
        let db = travel::generate(TravelScale::tiny(), 42);
        let q = Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![Expr::gen("c", Expr::var("Cities"))],
        );
        let analysis = profiled(&q, &db);
        let s = analysis.profile.render();
        assert!(s.contains("est≈3.0"), "{s}");
        assert!(s.contains("actual 3 rows"), "{s}");
        assert!(s.contains("phases"), "{s}");
        assert!(s.contains("execute"), "{s}");
    }

    /// The company dept equi-join: a hash join with a non-empty build side.
    fn dept_join_profile() -> QueryProfile {
        let db = monoid_store::company::generate(4, 8, 6, 42);
        let q = Expr::comp(
            Monoid::Bag,
            Expr::var("e").proj("name"),
            vec![
                Expr::gen("m", Expr::var("Managers")),
                Expr::gen("e", Expr::var("CompanyEmployees")),
                Expr::pred(Expr::var("m").proj("salary").gt(Expr::int(0))),
                Expr::pred(Expr::var("m").proj("dept").eq(Expr::var("e").proj("dept"))),
                Expr::pred(Expr::var("e").proj("salary").gt(Expr::int(0))),
            ],
        );
        profiled(&q, &db).profile
    }

    #[test]
    fn profiles_round_trip_through_json_strictly() {
        let p = dept_join_profile();
        let join = p.operators.iter().find(|o| o.kind == "join").expect("hash join planned");
        assert!(join.build_rows > 0 && join.estimated_rows > 0.0);
        // Through the text form, like a slow-query log on disk.
        let doc = Json::parse(&p.to_json().render()).unwrap();
        let back = QueryProfile::from_json(&doc).unwrap();
        assert_eq!(back.operators, p.operators);
        assert_eq!(
            (&back.monoid, &back.head, back.rows_to_reduce, back.short_circuited),
            (&p.monoid, &p.head, p.rows_to_reduce, p.short_circuited)
        );
        assert_eq!(back.to_folded(), p.to_folded());
        // Every kind label maps back to the planner's own `&'static str`.
        for kind in Plan::KIND_LABELS {
            let mut o = join.clone();
            o.kind = kind;
            assert_eq!(OperatorProfile::from_json(&o.to_json()).unwrap().kind, kind);
        }

        // Strict: an unknown kind or a missing counter is an error that
        // names the offender, not a defaulted field.
        let without = |doc: Json, key: &str| {
            let Json::Obj(mut fields) = doc else { panic!("not an object") };
            fields.retain(|(k, _)| k != key);
            fields
        };
        let mut bogus = without(join.to_json(), "kind");
        bogus.push(("kind".to_string(), Json::str("bogus")));
        let err = OperatorProfile::from_json(&Json::Obj(bogus)).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        let short = without(join.to_json(), "actual_rows");
        let err = OperatorProfile::from_json(&Json::Obj(short)).unwrap_err();
        assert!(err.contains("actual_rows"), "{err}");
        let flagless = without(p.to_json(), "short_circuited");
        let err = QueryProfile::from_json(&Json::Obj(flagless)).unwrap_err();
        assert!(err.contains("short_circuited"), "{err}");
    }

    #[test]
    fn executor_and_estimator_number_operators_like_the_visitor() {
        // `run_plan` and `Stats::estimate_into` recurse with their own
        // `right = op + 1 + left.node_count()` arithmetic. On a plan with
        // a join, whatever they filed under `op` must describe the node
        // `Plan::walk` calls `op`: a scan's observed rows and estimate
        // are both its extent's size.
        let db = monoid_store::company::generate(4, 8, 6, 42);
        let p = dept_join_profile();
        let scans = [("Scan m", "Managers"), ("Scan e", "CompanyEmployees")];
        for (i, o) in p.operators.iter().enumerate() {
            assert_eq!(o.op, i, "profile is in visitor order");
            if let Some((_, extent)) = scans.iter().find(|(label, _)| o.label.starts_with(label)) {
                let size = db.extent_len(*extent) as u64;
                assert_eq!(o.actual_rows, size, "{}: executor numbering", o.label);
                assert_eq!(o.estimated_rows, size as f64, "{}: estimator numbering", o.label);
            }
        }
        // The join's right scan sits after the whole two-node left
        // subtree (Filter over Scan m), and the two extents differ in
        // size, so a mis-numbered right child could not pass the above.
        let at = |label: &str| p.operators.iter().position(|o| o.label.starts_with(label)).unwrap();
        assert_eq!(at("Scan e"), at("HashJoin") + 3, "{}", p.render());
        assert_ne!(db.extent_len("Managers"), db.extent_len("CompanyEmployees"));
    }
}
