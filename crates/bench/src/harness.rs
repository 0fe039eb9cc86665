//! Timing and table-rendering utilities for the `experiments` binary
//! and the `regress`/`oqltop` reports: one sampler ([`sample_nanos`],
//! summarized by [`Timing`]), an aligned text table, and the fenced-JSON
//! emitter the profiled experiments use for machine-readable
//! per-operator breakdowns.

pub use monoid_algebra::trace::fmt_nanos;
use std::time::Instant;

/// Wall-time samples of `runs` executions of `f`, in nanoseconds.
pub fn sample_nanos<T>(runs: usize, mut f: impl FnMut() -> T) -> Vec<u128> {
    assert!(runs > 0);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let out = f();
        samples.push(start.elapsed().as_nanos());
        drop(out);
    }
    samples
}

/// The `p`-th percentile (`0.0 ≤ p ≤ 100.0`) of a sample vec, by the
/// nearest-rank method (`p = 50` is the median for odd-length inputs;
/// `p = 100` is the max). Panics on an empty slice, like `sample_nanos`
/// does on `runs = 0`.
pub fn percentile_nanos(samples: &[u128], p: f64) -> u128 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Center and spread of `runs` timed executions of `f`: `cell()`
/// renders the table entry as `median (p95 …)`; speedup ratios compare
/// medians.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    median: u128,
    p95: u128,
}

impl Timing {
    pub fn of<T>(runs: usize, f: impl FnMut() -> T) -> Timing {
        let samples = sample_nanos(runs, f);
        Timing {
            median: percentile_nanos(&samples, 50.0),
            p95: percentile_nanos(&samples, 95.0),
        }
    }

    pub fn cell(&self) -> String {
        format!("{} (p95 {})", fmt_nanos(self.median), fmt_nanos(self.p95))
    }

    /// `self` is the slower side: how many times faster is `faster`?
    pub fn speedup(&self, faster: &Timing) -> String {
        format!("{:.1}×", self.median as f64 / faster.median as f64)
    }
}

/// Render a named, fenced JSON block. Experiment output is a markdown
/// document (EXPERIMENTS.md), so profiles ride along as ```json fences
/// tagged with a stable `BENCH <name>` marker that scrapers can grep for.
pub fn json_block(name: &str, json: &monoid_calculus::json::Json) -> String {
    format!("<!-- BENCH {name} -->\n```json\n{}\n```\n", json.render_pretty())
}

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(cell);
                for _ in cell.chars().count()..*w {
                    line.push(' ');
                }
                line.push_str(" | ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let mut t = Table::new(&["name", "n"]);
        t.row(&["a".to_string(), "100".to_string()]);
        t.row(&["longer".to_string(), "2".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let samples: Vec<u128> = (1..=100).collect();
        assert_eq!(percentile_nanos(&samples, 50.0), 50);
        assert_eq!(percentile_nanos(&samples, 95.0), 95);
        assert_eq!(percentile_nanos(&samples, 99.0), 99);
        assert_eq!(percentile_nanos(&samples, 100.0), 100);
        assert_eq!(percentile_nanos(&samples, 0.0), 1);
        // Unsorted input is handled (the helper sorts a copy).
        assert_eq!(percentile_nanos(&[30, 10, 20], 50.0), 20);
        assert_eq!(percentile_nanos(&[7], 95.0), 7);
    }

    #[test]
    fn timing_renders_center_and_spread() {
        let t = Timing::of(5, || 1 + 1);
        assert!(t.median <= t.p95);
        assert!(t.cell().contains(" (p95 "), "{}", t.cell());
        let slow = Timing { median: 300, p95: 400 };
        assert_eq!(slow.speedup(&Timing { median: 100, p95: 100 }), "3.0×");
    }

    #[test]
    fn json_block_is_fenced_and_tagged() {
        use monoid_calculus::json::Json;
        let j = Json::obj(vec![("rows", Json::Int(3))]);
        let s = json_block("profile-portland", &j);
        assert!(s.starts_with("<!-- BENCH profile-portland -->\n```json\n"), "{s}");
        assert!(s.ends_with("```\n"), "{s}");
        assert!(s.contains("\"rows\": 3"), "{s}");
    }
}
