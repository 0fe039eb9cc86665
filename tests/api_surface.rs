//! Pins the entry-point surface so the `{&mut Database, &Snapshot} ×
//! {bound, unbound} × {engine, probe}` matrix cannot silently regrow, and
//! with it the option count: the `MONOID_*` variables the library reads,
//! the variants of `Plan`, the one shape of a join, the one place that
//! decides which engine runs, the one owner of a statement's lifecycle
//! (one way to prepare, one builder of its flight-recorder record), one
//! implementation each of float order, join-key equality and purity, and
//! nothing ambient under it.
//!
//! A plan is a pure read: every executor in `monoid_algebra`, and the
//! prepare/cache/profile half of `monoid_db`, takes a `&Snapshot` (which a
//! `&Database` derefs to). `&mut Database` belongs to the writer path
//! alone. This test reads the sources and checks both halves of that:
//!
//! * the public `execute*` / `prepare*` / `get_or_prepare*` / `query*`
//!   names are exactly the committed lists below — adding a twin means
//!   editing this file, in review, on purpose;
//! * no function signature under `crates/algebra/src/` mentions
//!   `Database` at all, and in `src/serving.rs` / `src/lib.rs` only the
//!   writer-path functions take `&mut Database`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// `monoid_algebra`'s public `execute*` functions.
const ALGEBRA_EXECUTE: &[&str] = &[
    "execute",
    "execute_plan_walk_bound",
    "execute_profiled_bound",
    "execute_snapshot_bound",
];

/// `monoid_db`'s public serving entry points, as `Owner::name` (free
/// functions have no owner). `prepare_on_snapshot` is the one alias, kept
/// for the frozen `benchmark/` crate.
const SERVING_ENTRY_POINTS: &[&str] = &[
    "PlanCache::get_or_prepare_snapshot_traced",
    "Prepared::execute",
    "Prepared::execute_snapshot",
    "Session::query",
    "Session::query_snapshot",
    "prepare",
    "prepare_expr",
    "prepare_on",
    "prepare_on_snapshot",
];

/// Every environment variable the library and its binaries read
/// (ROADMAP 4b's option count). Test-only switches (`MONOID_SERVER_SMOKE`,
/// …) live under `tests/` and are not options of the system.
const ENV_VARS: &[&str] = &[
    "MONOID_RECORDER",
    "MONOID_RECORDER_CAPACITY",
    "MONOID_SLOW_QUERY_NANOS",
    "MONOID_VERIFY",
];

/// Accessors on [`monoid_db::Prepared`] whose names happen to share an
/// entry-point prefix: the captured plan and the prepare's duration.
const ACCESSORS: &[&str] = &["Prepared::query", "Prepared::prepare_nanos"];

/// The functions allowed to take `&mut Database`: a statement whose
/// effects write commits through these and nothing else.
/// `Prepared::execute_from` is the one private helper `Session::query`
/// (and `oqld`) reach `Prepared::execute`'s body through, bringing their
/// own record origin.
const WRITER_PATH: &[&str] =
    &["Prepared::execute", "Prepared::execute_from", "Prepared::run_write", "Session::query"];

/// The only callers of `normalize_traced(` outside `crates/core` and test
/// modules, as `(file, enclosing fn)`: the one spelling of normalize →
/// optimize → plan, `regress`'s timed loop (which times the phases
/// separately, on purpose), and E3, which prints the derivation steps — the
/// one thing a `Prepared` does not keep.
const NORMALIZE_CALLERS: &[(&str, &str)] = &[
    ("crates/bench/src/bin/experiments.rs", "table3"),
    ("crates/bench/src/regress.rs", "run"),
    ("src/serving.rs", "finish_prepare"),
];

fn set_of(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(ToString::to_string).collect()
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The non-test part of a source file, comment lines dropped.
fn code_of(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

struct FnSig {
    /// `Owner::name` inside an `impl Owner` block, else `name`.
    path: String,
    public: bool,
    /// Everything from `fn` to the body's opening brace.
    text: String,
}

/// Every function signature in `code`, with its `impl` owner. Good enough
/// for rustfmt-shaped source: `impl` blocks open at column 0 and close
/// with a `}` at column 0.
fn signatures(code: &str) -> Vec<FnSig> {
    let mut out = Vec::new();
    let mut owner: Option<String> = None;
    let lines: Vec<&str> = code.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if let Some(rest) = line.strip_prefix("impl") {
            // `impl Foo {`, `impl<T> Trait for Foo {`: the owner is the
            // last path segment before the brace.
            let head = rest.split('{').next().unwrap_or("");
            let ty = head.rsplit(" for ").next().unwrap_or(head);
            let name = ty
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .filter(|s| !s.is_empty())
                .find(|s| s.chars().next().is_some_and(char::is_uppercase));
            owner = name.map(str::to_string);
        } else if line == "}" {
            owner = None;
        }
        let trimmed = line.trim_start();
        let decl = trimmed
            .strip_prefix("pub(crate) ")
            .or_else(|| trimmed.strip_prefix("pub "))
            .unwrap_or(trimmed);
        if let Some(rest) = decl.strip_prefix("fn ") {
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            let mut text = String::new();
            while i < lines.len() {
                text.push_str(lines[i]);
                text.push('\n');
                if lines[i].contains('{') || lines[i].trim_end().ends_with(';') {
                    break;
                }
                i += 1;
            }
            out.push(FnSig {
                path: owner.as_ref().map_or(name.clone(), |o| format!("{o}::{name}")),
                public: trimmed.starts_with("pub fn "),
                text,
            });
        }
        i += 1;
    }
    out
}

fn is_entry_point(name: &str) -> bool {
    ["execute", "prepare", "get_or_prepare", "query"].iter().any(|p| name.starts_with(p))
}

fn algebra_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_files(&root().join("crates/algebra/src"), &mut files);
    files.sort();
    files
}

/// Every `.rs` file under `dir`, recursively, skipping `tests/` trees.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "tests") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_library_reads_exactly_the_pinned_environment_variables() {
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    rust_files(&root().join("src"), &mut files);
    let mut found = BTreeSet::new();
    for file in files {
        let code = code_of(&file);
        for (at, _) in code.match_indices("env::var") {
            // `env::var("NAME")` / `env::var_os("NAME")`: the first string
            // literal after the call is the variable.
            let name = code[at..].split('"').nth(1).unwrap_or("<not a literal>");
            found.insert(name.to_string());
        }
    }
    assert_eq!(found, set_of(ENV_VARS), "the set of environment variables read changed");
}

/// A logical plan holds operators, not materialized data or execution
/// strategy: five variants and no access path (the secondary-index
/// subsystem and its lookup operator are gone, and nothing re-exports
/// them), the build table is `exec.rs`'s private temporary, and a join is its two
/// inputs and its keys — how it runs is read off `on`, not stored beside
/// it.
#[test]
fn plan_has_five_variants_one_join_shape_and_no_build_table() {
    let logical = code_of(&root().join("crates/algebra/src/logical.rs"));
    let body = logical
        .split("pub enum Plan {")
        .nth(1)
        .and_then(|rest| rest.split("\n}").next())
        .expect("`pub enum Plan` in logical.rs");
    let variants: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(char::is_uppercase))
        .map(|l| l.split([' ', '{', ',']).next().unwrap_or(l))
        .collect();
    assert_eq!(variants, ["Scan", "Unnest", "Filter", "Bind", "Join"]);
    let lib = code_of(&root().join("crates/algebra/src/lib.rs"));
    // (Spelled in halves so a repo-wide grep for the old names is empty.)
    for gone in ["Index", concat!("Index", "Catalog"), concat!("apply", "_indexes")] {
        let exported = lib.split(|c: char| !c.is_alphanumeric() && c != '_').any(|t| t == gone);
        assert!(!exported, "monoid_algebra's lib.rs names `{gone}`");
    }
    assert!(!logical.contains("BuildTable"), "logical.rs names `BuildTable`");
    // (Spelled in two halves so a repo-wide grep for the old name is empty.)
    assert!(!logical.contains(concat!("enum Join", "Kind")), "logical.rs stores a join strategy");
    let join = body
        .lines()
        .find_map(|l| l.trim().strip_prefix("Join {"))
        .and_then(|rest| rest.split('}').next())
        .expect("`Join { … }` on one line");
    // Field names are the words a `: ` follows; types hold no colon.
    let fields: Vec<&str> = join
        .split(": ")
        .filter_map(|before| before.rsplit([' ', ',']).next())
        .filter(|w| !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
        .collect();
    assert_eq!(fields, ["left", "right", "on"]);
}

/// The core crate does not model an engine it cannot see, nor the data
/// it will run on: nothing under `analysis/` mentions the fused fold or
/// a statistics catalog (the optimizer's `Stats` owns those facts)
/// outside comments and tests, and MC009 — attached by
/// `monoid_db::analyze` from the prepared plan — keeps its code and
/// severity.
#[test]
fn the_analysis_layer_does_not_model_the_fused_engine() {
    let mut files = Vec::new();
    rust_files(&root().join("crates/core/src/analysis"), &mut files);
    for file in files {
        let code = code_of(&file);
        for word in ["fused", "Catalog", "Interval"] {
            assert!(!code.contains(word), "{} names `{word}`", file.display());
        }
    }
    use monoid_db::calculus::analysis::{Code, Severity};
    let mc009 = Code::all().iter().find(|c| c.as_str() == "MC009").expect("MC009 is listed");
    assert_eq!(mc009.default_severity(), Severity::Info);
}

/// Where non-test code may order or compare floats on its own, as
/// `(file, why)`: everywhere else `Value::cmp` (`impl Ord for Value`)
/// decides, so NaN, `±0` and `1 = 1.0` are judged in one place. A new
/// typed copy needs an entry here, naming the workload it serves.
const FLOAT_ORDER_COPIES: &[(&str, &str)] = &[
    ("crates/algebra/src/trace.rs", "q-error sort"),
    ("crates/bench/src/audit.rs", "q-error sort"),
    ("crates/core/src/value.rs", "`float_key`: lane dictionaries and distinct counts (mixed-rw)"),
    ("src/wire.rs", "the RUNS float column (bulk-rows)"),
];

/// Each judgement has one implementation: a fused table's key index is
/// the walk's `Value`-ordered map plus string buckets (no int or OID
/// buckets, whose probes re-derived `1 = 1.0`), purity is
/// `Effects::is_pure` alone, and floats are ordered by `Value::cmp` except
/// in [`FLOAT_ORDER_COPIES`].
#[test]
fn value_cmp_and_effects_of_decide_alone() {
    let table = code_of(&root().join("crates/algebra/src/fused/table.rs"));
    let body = table
        .split("enum KeyIndex {")
        .nth(1)
        .and_then(|rest| rest.split("\n}").next())
        .expect("`enum KeyIndex` in fused/table.rs");
    let variants: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(char::is_uppercase))
        .map(|l| l.split([' ', '(', ',']).next().unwrap_or(l))
        .collect();
    assert_eq!(variants, ["All", "Str", "Ordered"]);

    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    files.sort();
    let (mut purity, mut float_order) = (BTreeSet::new(), BTreeSet::new());
    for file in &files {
        let code = code_of(file);
        if signatures(&code).iter().any(|s| s.path.rsplit("::").next() == Some("is_pure")) {
            purity.insert(relative(file));
        }
        let mut owner = "";
        for line in code.lines() {
            if line.starts_with("impl") {
                owner = line;
            } else if line == "}" {
                owner = "";
            }
            let orders = line.contains("total_cmp") || line.contains("to_bits");
            if orders && owner != "impl Ord for Value {" {
                float_order.insert(relative(file));
            }
        }
    }
    let effects = set_of(&["crates/core/src/analysis/effects.rs"]);
    assert_eq!(purity, effects, "`fn is_pure` definitions");
    let copies: Vec<&str> = FLOAT_ORDER_COPIES.iter().map(|(file, _)| *file).collect();
    assert_eq!(float_order, set_of(&copies), "float order outside `Value::cmp`");
}

/// Where non-test code may name a calculus variant, as `(file, why)`,
/// probed with `Expr::VecIndex`, the one variant no rule, binder or lint
/// gives a meaning of its own. `expr.rs` owns a term's shape, and with it
/// `Expr::for_each_child` / `Expr::map_children`; the rest give each
/// variant its meaning. A new structural walk (substitution,
/// normalization, the linter) goes through the shape's helpers, or edits
/// this list in review.
const VARIANT_MEANING: &[(&str, &str)] = &[
    ("crates/core/src/eval.rs", "evaluation"),
    ("crates/core/src/expr.rs", "the shape: constructors and child traversal"),
    ("crates/core/src/parse.rs", "calculus syntax"),
    ("crates/core/src/pretty.rs", "paper notation"),
    ("crates/core/src/typecheck.rs", "typing rules"),
];

#[test]
fn a_terms_shape_is_spelled_once() {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    let naming: BTreeSet<String> = files
        .iter()
        .filter(|file| code_of(file).contains(concat!("Expr::", "VecIndex")))
        .map(|file| relative(file))
        .collect();
    let allowed: Vec<&str> = VARIANT_MEANING.iter().map(|(file, _)| *file).collect();
    assert_eq!(naming, set_of(&allowed), "files naming every calculus variant");
}

#[test]
fn algebra_exports_exactly_the_pinned_execute_functions() {
    let mut found = BTreeSet::new();
    for file in algebra_sources() {
        for sig in signatures(&code_of(&file)) {
            if sig.public && sig.path.starts_with("execute") {
                found.insert(sig.path);
            }
        }
    }
    let pinned = set_of(ALGEBRA_EXECUTE);
    assert_eq!(found, pinned, "monoid_algebra's public execute* surface changed");
    // …and each one is re-exported from the crate root.
    let lib = code_of(&root().join("crates/algebra/src/lib.rs"));
    for name in ALGEBRA_EXECUTE {
        let reexported = lib
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|token| token == *name);
        assert!(reexported, "`{name}` is not re-exported from monoid_algebra");
    }
}

#[test]
fn serving_exports_exactly_the_pinned_entry_points() {
    let mut found = BTreeSet::new();
    for file in ["src/serving.rs", "src/lib.rs"] {
        let code = code_of(&root().join(file));
        for sig in signatures(&code) {
            let name = sig.path.rsplit("::").next().unwrap();
            if sig.public && is_entry_point(name) && !ACCESSORS.contains(&sig.path.as_str()) {
                found.insert(sig.path);
            }
        }
        // `pub use self::x as y;` aliases.
        for line in code.lines() {
            if let Some((_, alias)) = line
                .trim()
                .strip_prefix("pub use self::")
                .and_then(|rest| rest.trim_end_matches(';').split_once(" as "))
            {
                if is_entry_point(alias) {
                    found.insert(alias.to_string());
                }
            }
        }
    }
    // `monoid_db::explain_analyze` is named for what it is; not part of
    // the execute/prepare/query matrix.
    let pinned = set_of(SERVING_ENTRY_POINTS);
    assert_eq!(found, pinned, "monoid_db's public serving surface changed");
    assert!(ALGEBRA_EXECUTE.len() + SERVING_ENTRY_POINTS.len() <= 16);
}

/// One counting probe: `NoProbe` (off) and `ExecProbe` (on) are the only
/// `Probe` implementors, so every consumer of per-operator counts is a
/// sink flushed from a profile, not a third monomorphization of the
/// executor. The probe rides on the fused fold, the engine that serves
/// reads: the plan walk names none, and the trait stays inside
/// `monoid_algebra`.
#[test]
fn the_executor_has_exactly_two_probes() {
    let mut probes = BTreeSet::new();
    for file in algebra_sources() {
        for line in code_of(&file).lines() {
            if let Some(ty) = line.trim_start().strip_prefix("impl Probe for ") {
                probes.insert(ty.trim_end_matches(|c: char| !c.is_alphanumeric()).to_string());
            }
        }
    }
    assert_eq!(probes, set_of(&["ExecProbe", "NoProbe"]));
    // (Spelled in halves so this file passes its own check.)
    let probe = concat!("Pro", "be");
    let walk = fs::read_to_string(root().join("crates/algebra/src/exec.rs")).expect("exec.rs");
    assert!(!walk.contains(probe), "exec.rs names `{probe}`");
    let lib = code_of(&root().join("crates/algebra/src/lib.rs"));
    for name in [probe, concat!("No", "Pro", "be")] {
        let exported = lib.split(|c: char| !c.is_alphanumeric() && c != '_').any(|t| t == name);
        assert!(!exported, "monoid_algebra's lib.rs re-exports `{name}`");
    }
}

#[test]
fn only_the_writer_path_takes_a_mutable_database() {
    for file in algebra_sources() {
        for sig in signatures(&code_of(&file)) {
            assert!(
                !sig.text.contains("Database"),
                "{}: `{}` names `Database` — plans read a `&Snapshot`:\n{}",
                file.display(),
                sig.path,
                sig.text
            );
        }
    }
    let mut writers = BTreeSet::new();
    for file in ["src/serving.rs", "src/lib.rs"] {
        for sig in signatures(&code_of(&root().join(file))) {
            if sig.text.contains("&mut Database") {
                writers.insert(sig.path);
            } else {
                assert!(
                    !sig.text.contains("Database"),
                    "{file}: `{}` takes a `Database` it only reads — take `&Snapshot`:\n{}",
                    sig.path,
                    sig.text
                );
            }
        }
    }
    let allowed = set_of(WRITER_PATH);
    assert_eq!(writers, allowed, "the `&mut Database` writer path changed");
    // …and only as a function parameter: no struct, enum or trait object
    // in the umbrella crate carries a `&mut Database` around.
    for file in ["src/serving.rs", "src/lib.rs", "src/server.rs"] {
        let code = code_of(&root().join(file));
        let in_signatures: usize =
            signatures(&code).iter().map(|s| s.text.matches("mut Database").count()).sum();
        assert_eq!(
            code.matches("mut Database").count(),
            in_signatures,
            "{file}: `&mut Database` appears outside a function signature"
        );
    }
}

/// Every workspace source file outside `crates/core`: the umbrella's
/// `src/` and the other crates' `src/` trees.
fn sources_above_core() -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    files.retain(|f| !f.starts_with(root().join("crates/core")));
    files.sort();
    files
}

fn relative(path: &Path) -> String {
    path.strip_prefix(root()).expect("under the repo root").display().to_string()
}

/// A statement's flight-recorder record is a value its owner builds and
/// commits: the recorder keeps no thread-local scope and offers no hooks
/// (`fingerprint` and `global` are its only public free functions), and
/// the algebra crate knows neither it nor the metrics registry — it
/// measures a profile and writes no process-wide state.
#[test]
fn a_query_record_is_a_value_and_nothing_is_ambient() {
    let recorder = code_of(&root().join("crates/core/src/recorder.rs"));
    assert!(!recorder.contains("thread_local"), "recorder.rs keeps thread-local state");
    let free: BTreeSet<String> = signatures(&recorder)
        .into_iter()
        .filter(|s| s.public && !s.path.contains("::"))
        .map(|s| s.path)
        .collect();
    assert_eq!(free, set_of(&["fingerprint", "global"]), "recorder's public free functions");
    for file in algebra_sources() {
        let code = code_of(&file);
        for ambient in ["recorder", "metrics"] {
            let names_it =
                code.split(|c: char| !c.is_alphanumeric() && c != '_').any(|token| token == ambient);
            assert!(!names_it, "{} names the `{ambient}`", file.display());
        }
    }
}

/// One way to prepare: `explain_analyze` is defined once (the umbrella's,
/// `prepare_on` + `Prepared::profile`), the algebra-level twin that
/// re-spelled normalize → optimize → plan is gone, and nothing outside
/// [`NORMALIZE_CALLERS`] normalizes on its own.
#[test]
fn one_spelling_of_normalize_optimize_plan() {
    let mut explain_analyze = Vec::new();
    let mut normalizers = BTreeSet::new();
    let mut files = sources_above_core();
    rust_files(&root().join("crates/core"), &mut files);
    for file in files {
        let (code, name) = (code_of(&file), relative(&file));
        // (Spelled in two halves so this file passes its own grep.)
        assert!(!code.contains(concat!("analyze_with", "_trace")), "{name} names the old twin");
        for sig in signatures(&code) {
            if sig.path.rsplit("::").next() == Some("explain_analyze") {
                explain_analyze.push(name.clone());
            }
        }
        if name.starts_with("crates/core") {
            continue;
        }
        let mut enclosing = String::new();
        for line in code.lines() {
            let decl = line.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub ");
            if let Some(rest) = decl.strip_prefix("fn ") {
                enclosing = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            } else if line.contains("normalize_traced(") {
                normalizers.insert((name.clone(), enclosing.clone()));
            }
        }
    }
    assert_eq!(explain_analyze, ["src/lib.rs"], "`fn explain_analyze` definitions");
    let pinned: BTreeSet<(String, String)> =
        NORMALIZE_CALLERS.iter().map(|(f, c)| (f.to_string(), c.to_string())).collect();
    assert_eq!(normalizers, pinned, "callers of `normalize_traced(` outside crates/core");
}

/// A statement's phase timings are one fixed array wherever they are
/// kept — a `Prepared`, a profile, a flight-recorder record — indexed by
/// `Phase::index`: the searched list of timings, its element type and the
/// normalizer's own clock are gone. Normalizing prints nothing: a
/// derivation holds terms, and a caller that shows one prints it.
#[test]
fn a_statements_account_is_kept_once_and_normalizing_prints_nothing() {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    for file in &files {
        let code = code_of(file);
        for gone in ["QueryTrace", "PhaseTiming", "elapsed_nanos"] {
            assert!(!code.contains(gone), "{} names `{gone}`", relative(file));
        }
    }
    let normalize = code_of(&root().join("crates/core/src/normalize.rs"));
    assert!(!normalize.contains("pretty"), "normalize.rs prints outside its tests");
}

/// One decision of which engine runs: the fused compiler is called once,
/// by the `Query` constructor, so a planned query carries its fold and
/// every engine question reads it there. The compiler cannot refuse — a
/// form it does not compile is evaluated in place — so it returns no
/// `Result`, and the refusal type and the helpers that worded one are
/// gone, as are the classifier and the policy that used to ask again.
#[test]
fn the_fused_compiler_runs_only_where_a_query_is_built() {
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    rust_files(&root().join("src"), &mut files);
    let mut callers = BTreeSet::new();
    for file in &files {
        let (mut owner, mut enclosing) = (String::new(), String::new());
        for line in code_of(file).lines() {
            if let Some(rest) = line.strip_prefix("impl ") {
                owner = rest.split([' ', '<', '{']).next().unwrap_or("").to_string();
            } else if line == "}" {
                owner.clear();
            }
            let decl =
                line.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub ");
            if let Some(rest) = decl.strip_prefix("fn ") {
                let name: String =
                    rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                enclosing = format!("{owner}::{name}");
            } else if line.contains("fused::compile(") {
                callers.insert((relative(file), enclosing.clone()));
            }
        }
    }
    let expected = [("crates/algebra/src/logical.rs".to_string(), "Query::new".to_string())];
    assert_eq!(callers, expected.into(), "callers of `fused::compile(`");
    let compiler = signatures(&code_of(&root().join("crates/algebra/src/fused/compile.rs")));
    let compile: Vec<_> = compiler.iter().filter(|s| s.path == "compile").collect();
    assert_eq!(compile.len(), 1, "one `fn compile` in the fused compiler");
    assert!(!compile[0].text.contains("Result"), "`fused::compile` refuses: {}", compile[0].text);
    // (Spelled in halves so a repo-wide grep for the old names is empty.)
    let gone = [
        concat!("Engine", "Policy"),
        concat!("fused", "_eligible"),
        concat!("Refu", "sal"),
        concat!("desc", "ribe("),
        concat!("out", "side("),
    ];
    for gone in gone {
        for file in &files {
            let text = fs::read_to_string(file).expect("readable source");
            assert!(!text.contains(gone), "{} names `{gone}`", relative(file));
        }
    }
}

/// One engine serves: the fold never declines, so the plan walk runs
/// only when asked for by name — `execute_plan_walk_bound`, the oracle of
/// the differential batteries and the ablation baseline — and the
/// umbrella crate asks no query which engine it runs on.
#[test]
fn the_plan_walk_runs_only_when_asked_for_and_the_fold_never_declines() {
    let mut walkers = BTreeSet::new();
    for file in sources_above_core() {
        let mut enclosing = String::new();
        for line in code_of(&file).lines() {
            let decl =
                line.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub ");
            if let Some(rest) = decl.strip_prefix("fn ") {
                enclosing = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                continue;
            }
            // A call of the walk: `exec::walk(`, or a bare `walk(` — not a
            // method (`plan.walk(`) nor another path's (`Plan::walk(`).
            let calls = line.match_indices("walk(").any(|(at, _)| {
                let before = &line[..at];
                before.ends_with("exec::")
                    || !(before.ends_with(|c: char| c.is_alphanumeric() || "_.:".contains(c)))
            });
            if calls {
                walkers.insert((relative(&file), enclosing.clone()));
            }
        }
    }
    let expected = [("crates/algebra/src/exec.rs", "execute_plan_walk_bound")];
    let expected = expected.map(|(file, f)| (file.to_string(), f.to_string()));
    assert_eq!(walkers, expected.into(), "callers of the plan walk outside tests");

    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    for file in files {
        let text = fs::read_to_string(&file).expect("readable source");
        let named = text
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .find(|t| ["engine_of", "Engine"].contains(t));
        assert_eq!(named, None, "{} asks which engine runs", relative(&file));
    }
    let drive = fs::read_to_string(root().join("crates/algebra/src/fused/drive.rs")).unwrap();
    assert!(!drive.contains(concat!("decl", "ined")), "the fold declines a run");
}

#[test]
fn database_defines_no_read_accessor_that_snapshot_also_defines() {
    let names = |file: &str| -> BTreeSet<String> {
        signatures(&code_of(&root().join(file)))
            .into_iter()
            .filter(|s| s.public)
            .map(|s| s.path.rsplit("::").next().unwrap().to_string())
            .collect()
    };
    let database = names("crates/store/src/database.rs");
    let snapshot = names("crates/store/src/snapshot.rs");
    // `query` is on both by design: the snapshot's refuses writes, the
    // database's is the §4.2 writer (`&mut self`).
    let shared: Vec<_> = database.intersection(&snapshot).filter(|n| *n != "query").collect();
    assert!(shared.is_empty(), "Database re-defines Snapshot accessors: {shared:?}");
}
