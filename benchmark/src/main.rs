//! `oqlbench` command line.
//!
//! ```text
//! oqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! oqlbench --list
//! oqlbench --check-repeat [--seed <n>] [--seconds <s>]
//! ```

use monoid_db::calculus::json::Json;
use oqlbench::report::{median, print_result};
use oqlbench::spec::{Workload, END_TO_END, PER_LAYER};
use oqlbench::workload::Scale;
use oqlbench::{affinity, harness, quiet, trace};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The seed and run length `BENCHMARK.json` and the README's reference
/// numbers use.
const DEFAULT_SEED: u64 = 1995;
const DEFAULT_SECONDS: u64 = 28;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    list: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        list: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => args.list = true,
            "--check-repeat" => args.check_repeat = true,
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.list {
            list();
            Ok(true)
        } else if args.check_repeat {
            check_repeat(&args)
        } else {
            let workload = args.workload.ok_or("--workload <name> is required (see --list)")?;
            run(workload, &args).map(|()| true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("oqlbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Workload and metric names, units, directions and bounds, as
/// `BENCHMARK.json` has them.
fn list() {
    for w in Workload::ALL {
        println!("workload   {:<26} {}", w.name(), w.why());
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        println!("end_to_end {:<26} {:<6} {:<6} {bound}", m.name, m.unit, m.better.as_str());
    }
    for m in PER_LAYER {
        println!("per_layer  {:<26} {:<6} {}", m.name, m.unit, m.better.as_str());
    }
}

fn run(workload: Workload, args: &Args) -> Result<(), String> {
    let scale = Scale::full(workload);
    let length = Duration::from_secs(args.seconds);
    println!(
        "# oqlbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // Placed here as the run will place it again, so that the yardstick
    // is read on the CPU the load will run on.
    let _ = affinity::place_generator();
    let host = quiet::wait_for_quiet_host(&out_dir.join("host-speed"));
    println!(
        "# host: yardstick {} us, best in this checkout {} us, {:.1} s at the gate",
        host.reading_ns / 1000,
        host.best_ns / 1000,
        host.waited.as_secs_f64()
    );
    if args.trace {
        let traced = trace::run(workload, scale, args.seed, length, &out_dir)?;
        print_result(&PER_LAYER, &traced.values, traced.attempted, traced.failed);
        return Ok(());
    }
    let run = harness::run(workload, scale, args.seed, length, false)?;
    let m = &run.measured;
    // Diagnostics as comment lines; the contract's four numbers last.
    // The per-block series show when the host changed speed mid-run.
    println!("# setup repetitions (s): {:?}", run.setup_seconds);
    println!(
        "# ops/s per block: {:?}",
        m.block_rates.iter().map(|r| *r as u64).collect::<Vec<_>>()
    );
    println!(
        "# p50 (ns) per block: {:?}",
        m.block_p50_nanos.iter().map(|p| *p as u64).collect::<Vec<_>>()
    );
    println!("# client.samples {}; client.pinned {}", m.reads, u8::from(run.pinned));
    let values = [median(&run.setup_seconds), m.ops_per_s(), m.p50_us(), run.peak_rss_mb];
    print_result(&END_TO_END, &values, run.attempted, run.failed);
    Ok(())
}

/// Run every workload twice in child processes (peak RSS is per
/// process) and hold each end-to-end metric's relative difference
/// against its bound. `Ok(false)` on any breach.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let measure = |workload: Workload| -> Result<Vec<f64>, String> {
        let out = Command::new(&exe)
            .args(["--workload", workload.name(), "--trace", "0"])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().ok_or("the run printed nothing")?;
        let result = Json::parse(last)?;
        if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{} did not run correctly: {last}", workload.name()));
        }
        END_TO_END
            .iter()
            .map(|m| {
                result
                    .get("metrics")
                    .and_then(|all| all.get(m.name))
                    .and_then(|metric| metric.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{} is missing from the result", m.name))
            })
            .collect()
    };
    let mut within = true;
    println!(
        "{:<11} {:<12} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in Workload::ALL {
        let (first, second) = (measure(workload)?, measure(workload)?);
        for ((m, a), b) in END_TO_END.iter().zip(first).zip(second) {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let diff = (b - a).abs() / a;
            let verdict = if diff > bound { "BREACH" } else { "" };
            within &= diff <= bound;
            println!(
                "{:<11} {:<12} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.0}% {verdict}",
                workload.name(),
                m.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(within)
}
