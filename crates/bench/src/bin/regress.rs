//! `regress` — the bench-regression harness binary.
//!
//! Runs the canonical paper queries (company + travel stores) through the
//! full normalize → plan → execute pipeline N times, in process, then
//! writes `BENCH_regress.json` at the repo root: per-query median/p95/p99
//! wall times plus the metrics-registry delta (per-rule normalization
//! counts, plan-cache traffic, store counters, phase histograms).
//! Per-operator rows and q-errors are the audit's (`--audit`), read from
//! the profiles; the wire is timed by `oqlbench`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p monoid-bench --bin regress [-- --quick] [--out PATH]
//!     [--compare BASELINE.json] [--tolerance PCT] [--slow-out PATH] [--journal-out PATH]
//! ```
//!
//! `--quick` shrinks the stores and run counts for CI smoke runs.
//!
//! `--compare BASELINE.json` turns the run into a regression *gate*: the
//! fresh report is diffed against the baseline per query (median/p95,
//! prepared warm median, statistics gather median/p95) with `--tolerance PCT` relative slack (default
//! 50) plus an absolute noise floor of `--min-delta NANOS` (default
//! 1 ms), and the process exits 1 when anything regressed.
//! `--slow-out` / `--journal-out` dump the flight recorder's slow-query
//! log (only when non-empty) and record journal after the run — set
//! `MONOID_SLOW_QUERY_NANOS` to arm the former.
//!
//! `--audit` additionally runs the plan-quality audit over the same
//! corpus — per-operator q-errors and per-row overhead — and writes
//! `BENCH_audit.json` (`--audit-out PATH` to relocate). With
//! `--audit-baseline BASELINE.json` the corpus-median q-error is gated
//! against the committed baseline at `--audit-tolerance PCT` (default
//! 50), sharing the compare gate's exit-1 semantics. `--flame-out PATH`
//! writes the corpus's folded flamegraph stacks.

use monoid_bench::audit::{self, DEFAULT_AUDIT_TOLERANCE_PCT};
use monoid_bench::compare::{compare_reports, DEFAULT_MIN_DELTA_NANOS, DEFAULT_TOLERANCE_PCT};
use monoid_bench::harness::{fmt_nanos, Table};
use monoid_bench::regress;
use monoid_calculus::json::Json;

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE_PCT;
    let mut min_delta = DEFAULT_MIN_DELTA_NANOS;
    let mut slow_out: Option<String> = None;
    let mut journal_out: Option<String> = None;
    let mut run_audit = false;
    let mut audit_out: Option<String> = None;
    let mut audit_baseline: Option<String> = None;
    let mut audit_tolerance = DEFAULT_AUDIT_TOLERANCE_PCT;
    let mut flame_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let path_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a path");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(path_arg(&mut args, "--out")),
            "--compare" => compare = Some(path_arg(&mut args, "--compare")),
            "--tolerance" => {
                tolerance = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance needs a percentage");
                    std::process::exit(2);
                });
            }
            "--min-delta" => {
                min_delta = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--min-delta needs a nanosecond count");
                    std::process::exit(2);
                });
            }
            "--slow-out" => slow_out = Some(path_arg(&mut args, "--slow-out")),
            "--journal-out" => journal_out = Some(path_arg(&mut args, "--journal-out")),
            "--audit" => run_audit = true,
            "--audit-out" => {
                run_audit = true;
                audit_out = Some(path_arg(&mut args, "--audit-out"));
            }
            "--audit-baseline" => {
                run_audit = true;
                audit_baseline = Some(path_arg(&mut args, "--audit-baseline"));
            }
            "--audit-tolerance" => {
                audit_tolerance = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--audit-tolerance needs a percentage");
                    std::process::exit(2);
                });
            }
            "--flame-out" => {
                run_audit = true;
                flame_out = Some(path_arg(&mut args, "--flame-out"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: regress [--quick] [--out PATH] [--compare BASELINE.json] \
                     [--tolerance PCT] [--min-delta NANOS] [--slow-out PATH] [--journal-out PATH] \
                     [--audit] [--audit-out PATH] [--audit-baseline BASELINE.json] \
                     [--audit-tolerance PCT] [--flame-out PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        // The binary lives in crates/bench; the report belongs at the
        // repo root so PRs diff it in place.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_regress.json").to_string()
    });

    // The baseline is read before the run: with the default `--out`, the
    // fresh report is written over it.
    let baseline = compare.as_ref().map(|baseline_path| {
        let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("baseline {baseline_path} is not JSON: {e}");
            std::process::exit(2);
        })
    });

    let report = regress::run(quick);

    let mut table = Table::new(&["query", "store", "p50", "p95", "p99", "rows→reduce", "norm steps"]);
    for q in &report.queries {
        table.row(&[
            q.name.to_string(),
            q.store.to_string(),
            fmt_nanos(q.p50_nanos),
            fmt_nanos(q.p95_nanos),
            fmt_nanos(q.p99_nanos),
            q.rows_to_reduce.to_string(),
            q.normalize.steps.to_string(),
        ]);
    }
    println!(
        "regress: {} queries × {}+ runs{}\n",
        report.queries.len(),
        report.runs_per_query,
        if report.quick { " (quick)" } else { "" }
    );
    println!("{}", table.render());

    let mut etable = Table::new(&["fusion query", "fused p50", "plan-walk p50", "fusion speedup"]);
    for p in &report.fusion {
        etable.row(&[
            p.name.to_string(),
            fmt_nanos(p.fused_p50_nanos),
            fmt_nanos(p.plan_walk_p50_nanos),
            format!("{:.2}x", p.fused_speedup),
        ]);
    }
    println!("{}", etable.render());

    let mut stable =
        Table::new(&["prepared statement", "cold p50", "cold p95", "warm p50", "warm p95", "speedup"]);
    for p in &report.prepared {
        stable.row(&[
            p.name.to_string(),
            fmt_nanos(p.cold_p50_nanos),
            fmt_nanos(p.cold_p95_nanos),
            fmt_nanos(p.warm_p50_nanos),
            fmt_nanos(p.warm_p95_nanos),
            format!("{:.2}x", p.warm_speedup),
        ]);
    }
    println!("{}", stable.render());

    let mut gtable = Table::new(&["statistics gather", "objects", "p50", "p95"]);
    for g in &report.gather {
        gtable.row(&[
            g.name.to_string(),
            g.objects.to_string(),
            fmt_nanos(g.p50_nanos),
            fmt_nanos(g.p95_nanos),
        ]);
    }
    println!("{}", gtable.render());
    println!("rules fired: {:?}", report.rule_firings());

    let report_json = report.to_json();
    if let Err(e) = std::fs::write(&out, format!("{}\n", report_json.render_pretty())) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out}");

    // Dump what the flight recorder saw during the run. The slow log is
    // only written when it captured something — CI uploads it as an
    // artifact iff the file exists.
    let recorder = monoid_calculus::recorder::global();
    if let Some(path) = &journal_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", recorder.to_json().render_pretty())) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path} ({} records)", recorder.len());
    }
    if let Some(path) = &slow_out {
        let captures = recorder.slow_log();
        if captures.is_empty() {
            println!(
                "slow-query log empty (threshold {}), not writing {path}",
                fmt_nanos(recorder.slow_threshold().into())
            );
        } else {
            let doc = recorder.slow_log_json();
            if let Err(e) = std::fs::write(path, format!("{}\n", doc.render_pretty())) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path} ({} slow-query captures)", captures.len());
        }
    }

    // Both gates report before the process exits, so one CI run shows
    // every regression at once instead of one per push.
    let mut gate_failed = false;

    // The plan-quality audit: same corpus, one profiled pass per query.
    if run_audit {
        let audit_out = audit_out.unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json").to_string()
        });
        let mut audit_report = audit::run(quick);
        let baseline = audit_baseline.as_ref().map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read audit baseline {path}: {e}");
                std::process::exit(2);
            });
            Json::parse(&text).unwrap_or_else(|e| {
                eprintln!("audit baseline {path} is not JSON: {e}");
                std::process::exit(2);
            })
        });
        if let Some(b) = &baseline {
            audit_report = audit_report.with_drift(b);
        }
        println!();
        print!("{}", audit_report.render());
        if let Err(e) = std::fs::write(&audit_out, format!("{}\n", audit_report.to_json().render_pretty())) {
            eprintln!("cannot write {audit_out}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {audit_out}");
        if let Some(path) = &flame_out {
            if let Err(e) = std::fs::write(path, audit_report.corpus_folded()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path} (corpus folded stacks)");
        }
        if let Some(b) = &baseline {
            let baseline_path = audit_baseline.as_deref().unwrap_or("?");
            match audit::gate(&audit_report, b, audit_tolerance) {
                Ok(outcome) => {
                    println!("\naudit gate against {baseline_path}:");
                    for note in &outcome.notes {
                        println!("  note: {note}");
                    }
                    for regression in &outcome.regressions {
                        println!("  REGRESSION: {regression}");
                        gate_failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("cannot gate against {baseline_path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }

    // The latency gate: diff this run against the committed baseline and
    // fail the process on regressions beyond tolerance.
    if let (Some(baseline_path), Some(baseline)) = (&compare, baseline) {
        let verdict =
            compare_reports(&report_json, &baseline, tolerance, min_delta).unwrap_or_else(|e| {
            eprintln!("cannot compare against {baseline_path}: {e}");
            std::process::exit(2);
        });
        println!("\ncompared against {baseline_path}:");
        print!("{}", verdict.render());
        if !verdict.passed() {
            gate_failed = true;
        }
    }
    if gate_failed {
        std::process::exit(1);
    }
}
