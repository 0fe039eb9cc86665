//! Smoke test of the `experiments` binary, the one harness behind
//! EXPERIMENTS.md: the paper sections run to completion with every law
//! check holding, and a section name it does not know is rejected.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("experiments runs")
}

#[test]
fn paper_sections_run_and_every_check_holds() {
    let out = experiments(&["table1", "examples", "table3", "oql", "vectors", "identity"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}\n{stdout}", String::from_utf8_lossy(&out.stderr));
    for id in ["E1", "E2", "E3", "E4", "E5", "E6"] {
        assert!(stdout.contains(&format!("\n## {id} — ")), "missing {id}:\n{stdout}");
    }
    assert!(!stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("Normalization cost by `from`-nesting depth"), "{stdout}");
    for depth in ["| 2 ", "| 8 ", "| 32 "] {
        assert!(stdout.contains(depth), "no depth row `{depth}`:\n{stdout}");
    }
    assert!(!stdout.contains("## B1"), "only the named sections run");
}

#[test]
fn an_unknown_section_is_rejected_with_the_valid_names() {
    let out = experiments(&["identity", "unnesting"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the names are checked");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`unnesting`"), "{stderr}");
    assert!(stderr.contains("bench-unnesting"), "{stderr}");
}
