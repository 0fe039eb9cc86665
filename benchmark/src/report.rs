//! Turning raw samples into the numbers the contract names, and
//! printing them: one `name value unit` line per metric, then the one
//! JSON object the driver reads as the last line of standard output.

use crate::spec::MetricSpec;
use monoid_db::calculus::json::Json;
use std::fs;

/// Median of unsorted samples (mean of the two middle ones when the
/// count is even); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    median_of(samples.to_vec())
}

pub fn median_nanos(samples: &[u64]) -> f64 {
    median_of(samples.iter().map(|&n| n as f64).collect())
}

fn median_of(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// The `q` quantile (nearest rank) of unsorted samples; 0 for none.
pub fn quantile_nanos(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n as f64 * q).ceil() as usize).clamp(1, n) - 1] as f64,
    }
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Print `values` (in the order of `specs`, one per spec) by name with
/// unit, then the driver's result object as the last line.
pub fn print_result(specs: &[MetricSpec], values: &[f64], attempted: u64, failed: u64) {
    assert_eq!(specs.len(), values.len(), "one value per metric of the contract");
    for (spec, value) in specs.iter().zip(values) {
        println!("{:<28} {value:>16.4} {}", spec.name, spec.unit);
    }
    println!("{}", result_json(specs, values, attempted, failed).render());
}

fn result_json(specs: &[MetricSpec], values: &[f64], attempted: u64, failed: u64) -> Json {
    let metrics = specs
        .iter()
        .zip(values)
        .map(|(spec, &value)| {
            (
                spec.name,
                Json::obj(vec![("value", Json::Float(value)), ("unit", Json::str(spec.unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::obj(metrics)),
    ])
}
