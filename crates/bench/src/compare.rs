//! The bench regression gate: diff a fresh [`crate::regress`] report
//! against a committed baseline (`BENCH_regress.json`) and decide
//! whether the perf trajectory regressed.
//!
//! Comparison is per-query by name over the stable latency fields —
//! `median_nanos` and `p95_nanos` in the queries and gather sections,
//! `warm_median_nanos` in the prepared section, and `cold_median_nanos`
//! and `cold_p95_nanos` of a prepared case the baseline marks
//! `cold_gated` (the server's own read after a write). A case regresses when
//! the fresh number exceeds the baseline by more than the relative
//! tolerance **and** by more than an absolute noise floor
//! ([`DEFAULT_MIN_DELTA_NANOS`] unless overridden) — without the floor,
//! a 5 µs query failing a 50 % tolerance by 3 µs would gate the build
//! on scheduler jitter.
//!
//! The gate is shape-tolerant on purpose: CI compares a `--quick` run
//! against the committed full-mode baseline, which is conservative
//! (quick stores are smaller, so quick runs are faster — a genuine
//! regression has to overcome that headroom before it trips). Differing
//! modes are reported as [`CompareReport::mode_mismatch`], not an
//! error; missing or extra cases are listed, not fatal.

use monoid_calculus::json::Json;
use std::fmt::Write as _;

/// Default absolute noise floor: a latency increase below this many
/// nanos never counts as a regression regardless of its relative size.
/// Sub-millisecond queries routinely spike hundreds of µs at p95 (cold
/// caches, scheduler preemption), so the default floor sits above that
/// band; override with the binary's `--min-delta`.
pub const DEFAULT_MIN_DELTA_NANOS: f64 = 1_000_000.0;

/// Tolerance the `regress` binary defaults to when `--tolerance` is not
/// given: generous, because CI runners are noisy neighbors.
pub const DEFAULT_TOLERANCE_PCT: f64 = 50.0;

/// One compared metric of one case.
#[derive(Debug, Clone)]
pub struct CompareCase {
    /// `<section>/<case name>`, e.g. `queries/portland-flat`.
    pub name: String,
    /// The compared field, e.g. `median_nanos`.
    pub metric: &'static str,
    pub baseline_nanos: f64,
    pub current_nanos: f64,
    /// `current ÷ baseline` (1.0 = unchanged).
    pub ratio: f64,
}

/// The gate's verdict: what was compared, what regressed, what improved,
/// and what could not be matched up.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    pub tolerance_pct: f64,
    pub min_delta_nanos: f64,
    /// Metrics successfully compared (both sides present).
    pub compared: usize,
    /// Cases beyond tolerance + noise floor, slower.
    pub regressions: Vec<CompareCase>,
    /// Cases beyond tolerance + noise floor, faster.
    pub improvements: Vec<CompareCase>,
    /// Case names present in the baseline but absent from the fresh run.
    pub missing_in_current: Vec<String>,
    /// Case names present in the fresh run but absent from the baseline.
    pub only_in_current: Vec<String>,
    /// The two reports ran in different modes (`quick` flags differ), so
    /// absolute numbers are not like-for-like. Informational.
    pub mode_mismatch: bool,
}

impl CompareReport {
    /// The gate passes iff nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "regression gate: {} metrics compared, tolerance {}% (+{} µs noise floor)",
            self.compared,
            self.tolerance_pct,
            self.min_delta_nanos / 1_000.0,
        );
        if self.mode_mismatch {
            let _ = writeln!(
                out,
                "note: quick/full mode differs from the baseline — absolute numbers are not like-for-like"
            );
        }
        for c in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION  {} {}: {} → {} ({:.2}x)",
                c.name,
                c.metric,
                crate::harness::fmt_nanos(c.baseline_nanos as u128),
                crate::harness::fmt_nanos(c.current_nanos as u128),
                c.ratio,
            );
        }
        for c in &self.improvements {
            let _ = writeln!(
                out,
                "improvement {} {}: {} → {} ({:.2}x)",
                c.name,
                c.metric,
                crate::harness::fmt_nanos(c.baseline_nanos as u128),
                crate::harness::fmt_nanos(c.current_nanos as u128),
                c.ratio,
            );
        }
        for name in &self.missing_in_current {
            let _ = writeln!(out, "missing in current run: {name}");
        }
        for name in &self.only_in_current {
            let _ = writeln!(out, "new (no baseline): {name}");
        }
        let _ = writeln!(out, "verdict: {}", if self.passed() { "PASS" } else { "FAIL" });
        out
    }
}

/// The compared sections and their latency fields: per-query end-to-end
/// medians and tails, the prepared warm path (the serving-layer number
/// `docs/serving.md` optimizes for), and the fused median of the fusion
/// cases — four scan-heavy chains and the corpus's join (a regression
/// there means the fold itself got slower) — and the statistics gather's
/// median and tail at three store sizes (what a cold prepare walks). Cold prepared numbers are
/// deliberately not gated — they measure the host (compiler, disk cache)
/// more than the code — except where a case is marked `cold_gated`
/// ([`COLD_GATED`]). Every section is in-process: the wire is gated by
/// `oqlbench`, and a baseline's extra sections (a pre-v8 `serving`) are
/// ignored. A report from before schema v7 has a `parallel` section where
/// `fusion` is now: comparing against it is an error naming the missing
/// section, never a silent pass.
const SECTIONS: [(&str, &[&str]); 4] = [
    ("queries", &["median_nanos", "p95_nanos"]),
    ("prepared", &["warm_median_nanos"]),
    ("fusion", &["fused_median_nanos"]),
    ("gather", &["median_nanos", "p95_nanos"]),
];

/// The cold fields of a prepared case whose baseline has `cold_gated`.
const COLD_GATED: &[&str] = &["cold_median_nanos", "cold_p95_nanos"];

/// Compare a fresh report against a baseline, both in their
/// `RegressReport::to_json` form. A case regresses (or improves) only
/// when it moves beyond both the relative `tolerance_pct` and the
/// absolute `min_delta_nanos` floor. Errors only on documents that are
/// not regress reports at all (missing sections).
pub fn compare_reports(
    current: &Json,
    baseline: &Json,
    tolerance_pct: f64,
    min_delta_nanos: f64,
) -> Result<CompareReport, String> {
    let mut report =
        CompareReport { tolerance_pct, min_delta_nanos, ..CompareReport::default() };
    report.mode_mismatch = current.get("quick").and_then(Json::as_bool)
        != baseline.get("quick").and_then(Json::as_bool);
    let threshold = 1.0 + tolerance_pct / 100.0;

    for (section, metrics) in SECTIONS {
        let cur = cases_of(current, section)?;
        let base = cases_of(baseline, section)?;
        for (name, base_case) in &base {
            let Some(cur_case) = cur.iter().find(|(n, _)| n == name).map(|(_, c)| c) else {
                report.missing_in_current.push(format!("{section}/{name}"));
                continue;
            };
            let cold_gated = base_case.get("cold_gated").and_then(Json::as_bool) == Some(true);
            let extra: &[&str] = if cold_gated { COLD_GATED } else { &[] };
            for metric in metrics.iter().chain(extra) {
                let (Some(b), Some(c)) = (
                    base_case.get(metric).and_then(Json::as_f64),
                    cur_case.get(metric).and_then(Json::as_f64),
                ) else {
                    continue;
                };
                report.compared += 1;
                let case = CompareCase {
                    name: format!("{section}/{name}"),
                    metric,
                    baseline_nanos: b,
                    current_nanos: c,
                    ratio: if b > 0.0 { c / b } else { f64::INFINITY },
                };
                if c > b * threshold && c - b >= min_delta_nanos {
                    report.regressions.push(case);
                } else if b > c * threshold && b - c >= min_delta_nanos {
                    report.improvements.push(case);
                }
            }
        }
        for (name, _) in &cur {
            if !base.iter().any(|(n, _)| n == name) {
                report.only_in_current.push(format!("{section}/{name}"));
            }
        }
    }
    Ok(report)
}

/// The `(name, case object)` pairs of one report section.
fn cases_of<'a>(report: &'a Json, section: &str) -> Result<Vec<(String, &'a Json)>, String> {
    let arr = report
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("not a regress report: no `{section}` array"))?;
    Ok(arr
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str).map(|n| (n.to_string(), c)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(median: u64, warm: u64, quick: bool) -> Json {
        Json::obj(vec![
            ("quick", Json::Bool(quick)),
            (
                "queries",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("q1")),
                    ("median_nanos", Json::from(median)),
                    ("p95_nanos", Json::from(median * 2)),
                ])]),
            ),
            (
                "prepared",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("p1")),
                    ("warm_median_nanos", Json::from(warm)),
                ])]),
            ),
            (
                "fusion",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("f1")),
                    ("fused_median_nanos", Json::from(median)),
                ])]),
            ),
            (
                "gather",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("g1")),
                    ("median_nanos", Json::from(median)),
                    ("p95_nanos", Json::from(median * 2)),
                ])]),
            ),
        ])
    }

    #[test]
    fn self_compare_passes() {
        let r = report(1_000_000, 500_000, false);
        let c = compare_reports(&r, &r, 50.0, 100_000.0).unwrap();
        assert!(c.passed());
        assert_eq!(c.compared, 6);
        assert!(!c.mode_mismatch);
        assert!(c.improvements.is_empty());
        assert!(c.render().contains("PASS"), "{}", c.render());
    }

    #[test]
    fn large_slowdowns_regress_and_large_speedups_improve() {
        let base = report(1_000_000, 500_000, false);
        let slow = report(10_000_000, 5_000_000, false);
        let c = compare_reports(&slow, &base, 50.0, 100_000.0).unwrap();
        assert!(!c.passed());
        assert_eq!(c.regressions.len(), 6, "{:?}", c.regressions);
        assert!(c.render().contains("REGRESSION"), "{}", c.render());
        // The mirror image is an improvement, and still a pass.
        let c = compare_reports(&base, &slow, 50.0, 100_000.0).unwrap();
        assert!(c.passed());
        assert_eq!(c.improvements.len(), 6);
    }

    #[test]
    fn tolerance_and_noise_floor_absorb_jitter() {
        let base = report(1_000_000, 500_000, false);
        // 10% worse: inside a 50% tolerance.
        let c = compare_reports(&report(1_100_000, 550_000, false), &base, 50.0, 100_000.0).unwrap();
        assert!(c.passed(), "{:?}", c.regressions);
        // Tiny absolute values: 10x worse but under the noise floor.
        let small = report(1_000, 500, false);
        let c = compare_reports(&report(10_000, 5_000, false), &small, 50.0, 100_000.0).unwrap();
        assert!(c.passed(), "{:?}", c.regressions);
    }

    #[test]
    fn a_cold_gated_case_gates_its_cold_median_and_tail() {
        let served = |cold: u64, gated: bool| {
            let mut r = report(1_000_000, 500_000, false);
            if let Json::Obj(fields) = &mut r {
                let prepared = &mut fields.iter_mut().find(|(k, _)| k == "prepared").unwrap().1;
                *prepared = Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("served")),
                    ("warm_median_nanos", Json::from(500_000u64)),
                    ("cold_median_nanos", Json::from(cold)),
                    ("cold_p95_nanos", Json::from(cold * 2)),
                    ("cold_gated", Json::Bool(gated)),
                ])]);
            }
            r
        };
        let gate = |gated| {
            compare_reports(&served(10_000_000, gated), &served(1_000_000, gated), 50.0, 100_000.0)
                .unwrap()
        };
        let names: Vec<_> = gate(true).regressions.iter().map(|r| r.metric).collect();
        assert_eq!(names, ["cold_median_nanos", "cold_p95_nanos"]);
        // Unmarked, a cold path is not gated.
        let c = gate(false);
        assert!(c.passed(), "{:?}", c.regressions);
    }

    #[test]
    fn mode_mismatch_is_noted_not_fatal() {
        let c = compare_reports(&report(1, 1, true), &report(1, 1, false), 50.0, 100_000.0).unwrap();
        assert!(c.mode_mismatch);
        assert!(c.passed());
        assert!(c.render().contains("mode differs"), "{}", c.render());
    }

    #[test]
    fn unmatched_cases_are_listed() {
        let base = report(1_000_000, 500_000, false);
        let mut renamed = report(1_000_000, 500_000, false);
        if let Json::Obj(fields) = &mut renamed {
            fields[1].1 = Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("q2")),
                ("median_nanos", Json::from(1_000_000u64)),
            ])]);
        }
        let c = compare_reports(&renamed, &base, 50.0, 100_000.0).unwrap();
        assert_eq!(c.missing_in_current, vec!["queries/q1"]);
        assert_eq!(c.only_in_current, vec!["queries/q2"]);
        assert!(c.passed(), "unmatched cases alone do not fail the gate");
    }

    #[test]
    fn non_reports_error() {
        assert!(compare_reports(&Json::Null, &Json::Null, 50.0, 100_000.0).is_err());
        let no_prepared = Json::obj(vec![("queries", Json::Arr(vec![]))]);
        assert!(compare_reports(&no_prepared, &no_prepared, 50.0, 100_000.0).is_err());
    }

    #[test]
    fn a_report_missing_a_section_is_an_error_on_either_side() {
        let current = report(1_000_000, 500_000, false);
        let mut old = report(1_000_000, 500_000, false);
        if let Json::Obj(fields) = &mut old {
            fields.retain(|(k, _)| k != "prepared");
        }
        let err = compare_reports(&current, &old, 50.0, 100_000.0).unwrap_err();
        assert!(err.contains("`prepared`"), "{err}");
        assert!(compare_reports(&old, &current, 50.0, 100_000.0).is_err());

        // A schema-7 baseline's wire section is not compared, and does not
        // fail the gate.
        let mut v7 = report(1_000_000, 500_000, false);
        if let Json::Obj(fields) = &mut v7 {
            let serving = Json::obj(vec![("name", Json::str("s1"))]);
            fields.push(("serving".to_string(), Json::Arr(vec![serving])));
        }
        let c = compare_reports(&current, &v7, 50.0, 100_000.0).unwrap();
        assert!(c.passed() && c.compared == 6, "{}", c.render());

        // A pre-v7 baseline still calls the section `parallel`: refused by
        // name on whichever side it sits, so it cannot pass silently.
        let mut stale = report(1_000_000, 500_000, false);
        if let Json::Obj(fields) = &mut stale {
            for (k, _) in fields.iter_mut().filter(|(k, _)| k == "fusion") {
                *k = "parallel".to_string();
            }
        }
        for (cur, base) in [(&current, &stale), (&stale, &current)] {
            let err = compare_reports(cur, base, 50.0, 100_000.0).unwrap_err();
            assert!(err.contains("no `fusion` array"), "{err}");
        }
    }
}
