//! The whole benchmark at a size that finishes in seconds: every
//! workload answers correctly, a wrong oracle is counted, the seed is
//! the only source of variation, and the traced run accounts for the
//! plan cache the way the workloads were designed to use it.

use oqlbench::spec::{Workload, CYCLE, PER_LAYER};
use oqlbench::workload::{stream_bytes, Scale};
use oqlbench::{harness, quiet, trace};
use std::path::Path;
use std::time::{Duration, Instant};

/// Two blocks of the measured phase.
const LENGTH: Duration = Duration::from_millis(500);

#[test]
fn every_workload_runs_without_a_failed_operation() {
    for workload in Workload::ALL {
        let run = harness::run(workload, Scale::tiny(workload), 11, LENGTH, false).expect("runs");
        assert!(run.attempted > 20 * CYCLE, "{}: {}", workload.name(), run.attempted);
        assert_eq!(run.failed, 0, "{}", workload.name());
        assert_eq!(run.setup_seconds.len(), 5);
        assert!(run.measured.reads > 0 && run.measured.block_rates.len() == 2);
    }
}

#[test]
fn a_corrupted_oracle_is_counted_as_failures() {
    for workload in [Workload::BulkRows, Workload::MixedRw] {
        let run = harness::run(workload, Scale::tiny(workload), 11, LENGTH, true).expect("runs");
        let reads = run.measured.reads;
        assert!(run.failed >= reads, "{}: {} of {reads} reads failed", workload.name(), run.failed);
        assert!(run.failed <= run.attempted);
    }
}

#[test]
fn the_seed_and_only_the_seed_decides_the_operation_stream() {
    for workload in Workload::ALL {
        let scale = Scale::tiny(workload);
        let a = stream_bytes(workload, scale, 3, 10 * CYCLE);
        assert_eq!(a, stream_bytes(workload, scale, 3, 10 * CYCLE), "{}", workload.name());
        assert_ne!(a, stream_bytes(workload, scale, 4, 10 * CYCLE), "{}", workload.name());
    }
}

fn metric(values: &[f64], name: &str) -> f64 {
    values[PER_LAYER.iter().position(|m| m.name == name).expect("a per-layer metric")]
}

#[test]
fn the_traced_run_reports_every_layer_and_the_designed_cache_behaviour() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-smoke");
    for workload in Workload::ALL {
        let scale = Scale::tiny(workload);
        let traced = trace::run(workload, scale, 11, LENGTH, &out_dir).expect("runs");
        assert_eq!(traced.values.len(), PER_LAYER.len());
        assert_eq!(traced.failed, 0, "{}", workload.name());
        let get = |name| metric(&traced.values, name);
        assert!(get("server.roundtrip_ns") > 0.0 && get("algebra.execute_ns") > 0.0);
        assert!(get("wire.frames") >= 2.0, "a reply is at least ROWS + DONE");
        if workload == Workload::MixedRw {
            // One miss per cycle, the other fourteen lookups hit.
            assert!(get("serving.cache_misses") >= 1.0);
            assert_eq!(get("serving.cache_hits"), 14.0 * get("serving.cache_misses"));
            assert!(get("store.insert_ns") > 0.0);
        } else {
            assert_eq!(get("serving.cache_misses") + get("serving.cache_hits"), 0.0);
        }
        let walk = workload == Workload::JoinWire;
        assert_eq!(get("algebra.walk_ops") > 0.0, walk, "{}", workload.name());
        assert_eq!(get("algebra.fused_ops") > 0.0, !walk, "{}", workload.name());
        let file = out_dir.join(format!("trace-{}.jsonl", workload.name()));
        let spans = std::fs::read_to_string(file).expect("the span log was written");
        assert!(spans.lines().any(|l| l.contains("\"server.roundtrip\"")));
        assert!(spans.lines().any(|l| l.contains("\"parent\":\"replay\"")));
    }
}

#[test]
fn the_gate_goes_ahead_on_a_fresh_checkout_and_when_its_waiting_time_is_spent() {
    let state = Path::new(env!("CARGO_TARGET_TMPDIR")).join("host-speed-smoke");
    let _ = std::fs::remove_file(&state);
    let first = quiet::wait_for_quiet_host(&state);
    assert_eq!(first.best_ns, first.reading_ns, "nothing to compare with");
    // A best no host can match, and all of the checkout's waiting spent:
    // one look at the host, then on with the run.
    std::fs::write(&state, "1 360000\n").expect("state is writable");
    let started = Instant::now();
    let gated = quiet::wait_for_quiet_host(&state);
    assert_eq!(gated.best_ns, 1);
    assert!(gated.reading_ns > 1 && started.elapsed() < Duration::from_secs(10));
    let kept = std::fs::read_to_string(&state).expect("state was written back");
    assert!(kept.starts_with("1 36"), "{kept}");
}
