//! An interactive OQL shell over the travel database.
//!
//! ```text
//! cargo run --example oql_shell
//! ```
//!
//! Enter OQL queries terminated by `;`. Meta-commands:
//!
//! | command | effect |
//! |---------|--------|
//! | `:help` | this text |
//! | `:schema` | print classes and extents |
//! | `:calculus <query>;` | show the monoid-calculus translation |
//! | `:normalize <query>;` | show the Table-3 derivation |
//! | `:explain <query>;` | show the algebra plan |
//! | `:scale <hotels>` | regenerate the database at a new scale |
//! | `:quit` | exit |

use monoid_db::algebra;
use monoid_db::calculus::normalize::{normalize, normalize_traced};
use monoid_db::calculus::pretty::{pretty, Pretty};
use monoid_db::oql::compile;
use monoid_db::store::travel::{self, TravelScale};
use monoid_db::store::Database;
use std::io::{self, BufRead, Write};

fn main() {
    let mut db = travel::generate(TravelScale::small(), 42);
    println!(
        "monoid-db OQL shell — {} objects loaded; :help for commands",
        db.object_count()
    );
    let stdin = io::stdin();
    let mut buffer = String::new();
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with(':') && !trimmed.contains(';') {
            if !meta_command(trimmed, &mut db) {
                break;
            }
            prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if line.contains(';') {
            let input = std::mem::take(&mut buffer);
            dispatch(input.trim(), &mut db);
        }
        prompt(&buffer);
    }
}

fn prompt(buffer: &str) {
    if buffer.is_empty() {
        print!("oql> ");
    } else {
        print!("...> ");
    }
    let _ = io::stdout().flush();
}

/// Handle `:command query;` and plain queries.
fn dispatch(input: &str, db: &mut Database) {
    let input = input.trim().trim_end_matches(';').trim();
    if input.is_empty() {
        return;
    }
    if let Some(rest) = input.strip_prefix(":calculus") {
        match compile(db.schema(), rest.trim()) {
            Ok(q) => println!("{}", pretty(&q)),
            Err(e) => println!("error: {e}"),
        }
        return;
    }
    if let Some(rest) = input.strip_prefix(":normalize") {
        match compile(db.schema(), rest.trim()) {
            Ok(q) => {
                println!("calculus:  {}", pretty(&q));
                let (n, trace, _) = normalize_traced(&q);
                for step in &trace {
                    println!("⇒ [{}] {}", step.rule, Pretty(&step.after));
                }
                println!("canonical: {}", pretty(&n));
            }
            Err(e) => println!("error: {e}"),
        }
        return;
    }
    if let Some(rest) = input.strip_prefix(":calc") {
        // A raw monoid-calculus term (paper notation or ASCII), evaluated
        // against the database roots.
        match monoid_db::calculus::parse::parse_expr(rest.trim()) {
            Ok(e) => {
                println!("parsed:    {}", pretty(&e));
                let n = normalize(&e);
                if n != e {
                    println!("canonical: {}", pretty(&n));
                }
                match db.query(&n) {
                    Ok(v) => println!("{v}"),
                    Err(err) => println!("runtime error: {err}"),
                }
            }
            Err(err) => println!("error: {err}"),
        }
        return;
    }
    if let Some(rest) = input.strip_prefix(":explain") {
        match compile(db.schema(), rest.trim()) {
            Ok(q) => match algebra::plan_comprehension(&normalize(&q)) {
                Ok(plan) => print!("{}", algebra::explain(&plan)),
                Err(e) => println!("not plannable: {e}"),
            },
            Err(e) => println!("error: {e}"),
        }
        return;
    }
    // A plain query: compile, normalize, run through the best path.
    match compile(db.schema(), input) {
        Ok(q) => {
            let n = normalize(&q);
            let result = match algebra::plan_comprehension(&n) {
                Ok(plan) => algebra::execute(&plan, db),
                Err(_) => db.query(&n),
            };
            match result {
                Ok(v) => println!("{v}"),
                Err(e) => println!("runtime error: {e}"),
            }
        }
        Err(e) => println!("error: {e}"),
    }
}

/// Handle bare `:commands` (no query argument). Returns false to exit.
fn meta_command(cmd: &str, db: &mut Database) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        ":quit" | ":q" | ":exit" => return false,
        ":help" | ":h" => {
            println!(
                "queries end with `;`.\n\
                 :schema               print classes and extents\n\
                 :calculus  <query>;   show the calculus translation\n\
                 :normalize <query>;   show the Table-3 derivation\n\
                 :explain   <query>;   show the algebra plan\n\
                 :calc      <term>;    evaluate a raw calculus term (paper notation)\n\
                 :scale <hotels>       regenerate the database\n\
                 :quit                 exit"
            );
        }
        ":schema" => {
            for class in db.schema().classes() {
                let extent = class
                    .extent
                    .map(|e| format!(" (extent {e})"))
                    .unwrap_or_default();
                println!("class {}{extent}", class.name);
                println!("  {}", class.state);
            }
        }
        ":scale" => match parts.next().and_then(|n| n.parse::<usize>().ok()) {
            Some(hotels) => {
                *db = travel::generate(TravelScale::with_hotels(hotels), 42);
                println!("regenerated: {} objects", db.object_count());
            }
            None => println!("usage: :scale <hotels>"),
        },
        other => println!("unknown command `{other}` (:help)"),
    }
    true
}
