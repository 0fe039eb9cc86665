//! `oqltop` — top queries from the flight recorder.
//!
//! Renders what the process-wide recorder remembers — top statements by
//! cumulative or tail latency, cache hit ratios, per-phase totals —
//! from either a dumped journal (`--journal FILE`,
//! the `FlightRecorder::to_json` document the `regress` binary writes
//! with `--journal-out`) or, with no file, a live demo: a short
//! travel-store workload runs through `Session::query` in-process and
//! the screen shows the recorder's snapshot of it.
//!
//! ```text
//! oqltop [--journal FILE] [--slow FILE] [--top N] [--by total|p95] [--json]
//!        [--audit] [--flame]
//! ```
//!
//! `--slow FILE` pretty-prints a dumped slow-query log (captures with
//! plans/profiles) after the table. `--audit` switches to the
//! plan-quality view — per-operator q-errors and per-row overhead, read
//! from the slow log's captured profiles (with `--slow`) or a live
//! profiled demo run. `--flame` emits folded flamegraph stacks
//! (`frame;frame value`, `flamegraph.pl` / inferno input) to stdout from
//! the same sources. Exit status: 0 on success, 2 on usage or
//! unreadable/malformed input.

use monoid_bench::audit;
use monoid_bench::harness::fmt_nanos;
use monoid_algebra::QueryProfile;
use monoid_bench::top::{aggregate, load_journal, SortBy};
use monoid_calculus::json::Json;

struct Options {
    journal: Option<String>,
    slow: Option<String>,
    top: usize,
    by: SortBy,
    json: bool,
    audit: bool,
    flame: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: oqltop [--journal FILE] [--slow FILE] [--top N] [--by total|p95] [--json] \
         [--audit] [--flame]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        journal: None,
        slow: None,
        top: 10,
        by: SortBy::default(),
        json: false,
        audit: false,
        flame: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--journal" => opts.journal = Some(args.next().unwrap_or_else(|| usage())),
            "--slow" => opts.slow = Some(args.next().unwrap_or_else(|| usage())),
            "--top" => {
                opts.top = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--by" => {
                opts.by = args.next().as_deref().and_then(SortBy::parse).unwrap_or_else(|| usage());
            }
            "--json" => opts.json = true,
            "--audit" => opts.audit = true,
            "--flame" => opts.flame = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// With no journal, give the recorder something to remember: the
/// canonical travel statements served repeatedly through one session
/// (misses, then hits) plus one direct `explain_analyze`.
fn demo_workload() {
    use monoid_db::{Params, Session};
    use monoid_store::{travel, TravelScale};

    let mut db = travel::generate(TravelScale::tiny(), 7);
    let session = Session::new();
    let statements = [
        "select h.name from c in Cities, h in c.hotels, r in h.rooms \
         where c.name = \"Portland\" and r.bed# = 2",
        "exists h in Hotels: h.name = \"hotel_0_0\"",
        "sum(select r.price from c in Cities, h in c.hotels, r in h.rooms)",
    ];
    for _ in 0..5 {
        for src in &statements {
            let _ = session.query(&mut db, src, &Params::new());
        }
    }
    let _ = monoid_db::explain_analyze(statements[0], &db);
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not JSON: {e}");
        std::process::exit(2);
    })
}

fn render_slow_log(doc: &Json) {
    let captures = doc.get("captures").and_then(Json::as_arr).unwrap_or_else(|| {
        eprintln!("slow log has no `captures` array");
        std::process::exit(2);
    });
    let threshold = doc.get("threshold_nanos").and_then(Json::as_u64).unwrap_or(0);
    println!("\nslow-query log: {} captures (threshold {})", captures.len(), fmt_nanos(threshold.into()));
    for c in captures {
        let source = c.get("source").and_then(Json::as_str).unwrap_or("<unknown>");
        let total = c.get("total_nanos").and_then(Json::as_u64).unwrap_or(0);
        println!("\n[{}] {}", fmt_nanos(total.into()), source.replace('\n', " "));
        if let Some(plan) = c.get("plan").and_then(Json::as_str) {
            for line in plan.lines() {
                println!("  {line}");
            }
        }
        if let Some(profile) = c.get("profile").filter(|p| !matches!(p, Json::Null)) {
            println!("  profile: {}", profile.render());
        }
    }
}

/// The slow log's captures as `(source, profile)` pairs — only the
/// captures whose replay was safe enough to profile carry one. A profile
/// this build cannot read is malformed input, not something to skip.
fn slow_profiles(path: &str) -> Vec<(String, QueryProfile)> {
    let doc = read_json(path);
    let captures = doc.get("captures").and_then(Json::as_arr).unwrap_or_else(|| {
        eprintln!("{path}: slow log has no `captures` array");
        std::process::exit(2);
    });
    captures
        .iter()
        .filter_map(|c| {
            let source = c.get("source").and_then(Json::as_str).unwrap_or("<unknown>");
            let profile = c.get("profile").filter(|p| !matches!(p, Json::Null))?;
            let profile = QueryProfile::from_json(profile).unwrap_or_else(|e| {
                eprintln!("{path}: capture of `{source}`: {e}");
                std::process::exit(2);
            });
            Some((source.to_string(), profile))
        })
        .collect()
}

/// A live profiled run of the demo statements, as `(source, profile)`
/// pairs.
fn demo_profiles() -> Vec<(String, QueryProfile)> {
    use monoid_store::{travel, TravelScale};

    let db = travel::generate(TravelScale::tiny(), 7);
    let statements = [
        "select h.name from c in Cities, h in c.hotels, r in h.rooms \
         where c.name = \"Portland\" and r.bed# = 2",
        "exists h in Hotels: h.name = \"hotel_0_0\"",
        "sum(select r.price from c in Cities, h in c.hotels, r in h.rooms)",
    ];
    statements
        .iter()
        .filter_map(|src| {
            monoid_db::explain_analyze(src, &db).ok().map(|a| (src.to_string(), a.profile))
        })
        .collect()
}

/// `--flame`: folded stacks to stdout, one tower per profiled query,
/// rooted at the (sanitized) statement source.
fn run_flame(profiles: &[(String, QueryProfile)]) {
    if profiles.is_empty() {
        eprintln!("no profiles to fold (slow log without captured profiles?)");
        std::process::exit(2);
    }
    for (source, profile) in profiles {
        print!("{}", audit::rooted(source, &profile.to_folded()));
    }
}

/// `--audit`: per-query q-error headlines and the kind table over the
/// profiles.
fn run_audit(profiles: &[(String, QueryProfile)], from_slow_log: bool) {
    if profiles.is_empty() {
        eprintln!("no profiles to audit (slow log without captured profiles?)");
        std::process::exit(2);
    }
    println!(
        "plan-quality audit of {} profile(s) ({})\n",
        profiles.len(),
        if from_slow_log { "slow-query log" } else { "live demo workload" },
    );
    for (source, profile) in profiles {
        println!("{}", source.replace('\n', " "));
        match profile.worst_q_error() {
            Some(w) => println!(
                "  q-error median {:.2}, max {:.2} at op {} ({})",
                profile.median_q_error().unwrap_or(1.0),
                w.q_error(),
                w.op,
                w.label
            ),
            None => println!("  (no operators in profile)"),
        }
    }
    let kinds = audit::aggregate_kinds(profiles.iter().flat_map(|(_, p)| &p.operators));
    println!("\n{}", audit::render_kind_table(&kinds));
}

fn main() {
    let opts = parse_args();
    if opts.audit || opts.flame {
        let (profiles, from_slow_log) = match &opts.slow {
            Some(path) => (slow_profiles(path), true),
            None => (demo_profiles(), false),
        };
        if opts.flame {
            run_flame(&profiles);
        }
        if opts.audit {
            run_audit(&profiles, from_slow_log);
        }
        return;
    }
    let records = match &opts.journal {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            });
            load_journal(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            })
        }
        None => {
            let recorder = monoid_calculus::recorder::global();
            if recorder.is_empty() && recorder.enabled() {
                demo_workload();
            }
            recorder.snapshot()
        }
    };
    let report = aggregate(&records);
    if opts.json {
        println!("{}", report.to_json().render_pretty());
    } else {
        if opts.journal.is_none() {
            println!("live snapshot of this process's flight recorder\n");
        }
        print!("{}", report.render(opts.top, opts.by));
    }
    if let Some(path) = &opts.slow {
        render_slow_log(&read_json(path));
    }
}
