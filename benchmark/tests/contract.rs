//! `BENCHMARK.json` and the names compiled into `oqlbench` must not
//! drift: the driver reads the file, the binary prints from `spec`.

use monoid_db::calculus::json::Json;
use oqlbench::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("`{key}` missing in {entry:?}"))
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("`{key}` missing"))
}

/// The contract's limits on a name: at most 64 of letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_metrics_match(listed: &[Json], specs: &[MetricSpec]) {
    assert_eq!(listed.len(), specs.len());
    for (entry, spec) in listed.iter().zip(specs) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(text(entry, "better"), spec.better.as_str(), "{}", spec.name);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), spec.bound, "{}", spec.name);
        assert!(valid_name(spec.name), "{}", spec.name);
        assert!(spec.unit.len() <= 16, "{}", spec.name);
    }
}

#[test]
fn benchmark_json_matches_spec() {
    let doc = benchmark_json();
    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(text(entry, "name"), workload.name());
        assert_eq!(text(entry, "why"), workload.why());
        assert!(valid_name(workload.name()));
        assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
    }
    assert_metrics_match(entries(&doc, "end_to_end"), &END_TO_END);
    assert_metrics_match(entries(&doc, "per_layer"), &PER_LAYER);
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}

#[test]
fn list_prints_every_name_of_benchmark_json() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_oqlbench")).arg("--list").output().expect("oqlbench runs");
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    let doc = benchmark_json();
    for (section, kind) in
        [("workloads", "workload"), ("end_to_end", "end_to_end"), ("per_layer", "per_layer")]
    {
        for entry in entries(&doc, section) {
            let name = text(entry, "name");
            let found = listed.lines().any(|line| {
                let mut words = line.split_whitespace();
                words.next() == Some(kind) && words.next() == Some(name)
            });
            assert!(found, "--list lacks {kind} {name}");
        }
    }
    let names = |kind: &str| listed.lines().filter(|l| l.starts_with(kind)).count();
    assert_eq!(names("workload"), entries(&doc, "workloads").len());
    assert_eq!(names("end_to_end"), entries(&doc, "end_to_end").len());
    assert_eq!(names("per_layer"), entries(&doc, "per_layer").len());
}
