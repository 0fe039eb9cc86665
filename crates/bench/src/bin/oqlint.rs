//! `oqlint` — static diagnostics for OQL queries, no execution.
//!
//! Compiles each input against the paper's travel-agency schema (or the
//! company schema with `--schema company`), runs `monoid_db::analyze` —
//! effect inference and the MC001–MC009 lint pass — and prints one line
//! per finding with the source position where the front end recorded one.
//!
//! ```text
//! oqlint [--schema travel|company] [--deny-warnings] [--deny CODE] [--json] [FILE...]
//! ```
//!
//! With no files, reads one query from stdin. Exit status: 0 clean (or
//! info-only), 1 on error-level diagnostics or compile failures, with
//! `--deny-warnings` also on warnings, and with `--deny MC00N` (repeatable)
//! on any diagnostic carrying a denied code regardless of its severity —
//! that is how CI gates a corpus on specific lints without promoting every
//! warning.

use monoid_calculus::analysis::{Code, Severity};
use monoid_calculus::types::Schema;
use std::io::Read;
use std::process::ExitCode;

struct Options {
    schema: Schema,
    deny_warnings: bool,
    deny: Vec<Code>,
    json: bool,
    files: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: oqlint [--schema travel|company] [--deny-warnings] [--deny CODE] [--json] [FILE...]"
    );
    std::process::exit(2);
}

/// Resolve a `--deny` operand like `MC007` to its lint code.
fn parse_code(s: &str) -> Code {
    match Code::all().iter().find(|c| c.as_str().eq_ignore_ascii_case(s)) {
        Some(c) => *c,
        None => {
            let known: Vec<&str> = Code::all().iter().map(|c| c.as_str()).collect();
            eprintln!("oqlint: unknown lint code `{s}` (known: {})", known.join(", "));
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Options {
    let mut schema = monoid_store::travel::schema();
    let mut deny_warnings = false;
    let mut deny = Vec::new();
    let mut json = false;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => {
                schema = match args.next().as_deref() {
                    Some("travel") => monoid_store::travel::schema(),
                    Some("company") => monoid_store::company::schema(),
                    _ => usage(),
                }
            }
            "--deny-warnings" => deny_warnings = true,
            "--deny" => match args.next() {
                Some(code) => deny.push(parse_code(&code)),
                None => usage(),
            },
            "--json" => json = true,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => usage(),
        }
    }
    Options { schema, deny_warnings, deny, json, files }
}

/// Lint one source text; returns whether it should fail the run.
fn lint_source(name: &str, src: &str, opts: &Options) -> bool {
    let report = match monoid_db::analyze(&opts.schema, src) {
        Ok(report) => report,
        Err(e) => {
            if opts.json {
                use monoid_calculus::json::Json;
                let j = Json::obj(vec![
                    ("file", Json::str(name)),
                    ("error", Json::str(e.to_string())),
                ]);
                println!("{}", j.render());
            } else {
                eprintln!("{name}: error: {e}");
            }
            return true;
        }
    };
    if opts.json {
        use monoid_calculus::json::Json;
        let j = Json::obj(vec![("file", Json::str(name)), ("report", report.to_json())]);
        println!("{}", j.render());
    } else {
        for d in &report.diagnostics {
            println!("{name}: {d}");
        }
        if report.diagnostics.is_empty() {
            eprintln!("{name}: clean ({})", report.effects);
        }
    }
    let deny_at = if opts.deny_warnings { Severity::Warning } else { Severity::Error };
    report.max_severity().is_some_and(|s| s >= deny_at)
        || report.diagnostics.iter().any(|d| opts.deny.contains(&d.code))
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut failed = false;
    if opts.files.is_empty() {
        let mut src = String::new();
        if std::io::stdin().read_to_string(&mut src).is_err() || src.trim().is_empty() {
            usage();
        }
        failed |= lint_source("<stdin>", &src, &opts);
    } else {
        for f in &opts.files {
            match std::fs::read_to_string(f) {
                Ok(src) => failed |= lint_source(f, &src, &opts),
                Err(e) => {
                    eprintln!("{f}: error: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
