//! Aggregation behind the `oqltop` binary: fold a set of flight-recorder
//! [`QueryRecord`]s — a live [`monoid_calculus::recorder::global`]
//! snapshot or a dumped journal — into per-statement statistics (count,
//! latency percentiles, cache hit ratio, rows) plus fleet-wide totals
//! (phase breakdown, error and slow counts).
//!
//! Records group by [`QueryRecord::fingerprint`], not source text: the
//! ring truncates long sources, but the fingerprint always covers the
//! whole statement, so repeated executions of one query aggregate under
//! one key regardless of length.

use crate::harness::{fmt_nanos, percentile_nanos, Table};
use monoid_calculus::json::Json;
use monoid_calculus::recorder::{CacheDisposition, QueryRecord, JOURNAL_SCHEMA_VERSION};
use monoid_calculus::trace::Phase;
use std::sync::Arc;

/// Column the per-query table is ranked by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortBy {
    /// Cumulative wall-clock time — "where did the process spend it".
    #[default]
    Total,
    /// Tail latency — "which statement hurts interactively".
    P95,
}

impl SortBy {
    pub fn parse(s: &str) -> Option<SortBy> {
        match s {
            "total" => Some(SortBy::Total),
            "p95" => Some(SortBy::P95),
            _ => None,
        }
    }
}

/// Aggregated statistics for one statement (one fingerprint).
#[derive(Debug, Clone)]
pub struct QueryStats {
    pub fingerprint: u64,
    /// Truncated source of the most recent execution.
    pub source: Arc<str>,
    pub count: u64,
    pub errors: u64,
    pub slow: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Rows produced by the most recent successful execution.
    pub last_rows: u64,
    pub total_nanos: u128,
    pub p50_nanos: u128,
    pub p95_nanos: u128,
    pub max_nanos: u128,
}

impl QueryStats {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            ("source", Json::str(&*self.source)),
            ("count", Json::from(self.count)),
            ("errors", Json::from(self.errors)),
            ("slow", Json::from(self.slow)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("last_rows", Json::from(self.last_rows)),
            ("total_nanos", Json::from(self.total_nanos.min(u64::MAX as u128) as u64)),
            ("p50_nanos", Json::from(self.p50_nanos.min(u64::MAX as u128) as u64)),
            ("p95_nanos", Json::from(self.p95_nanos.min(u64::MAX as u128) as u64)),
            ("max_nanos", Json::from(self.max_nanos.min(u64::MAX as u128) as u64)),
        ])
    }
}

/// The full aggregation: fleet totals plus per-statement stats.
#[derive(Debug, Clone, Default)]
pub struct TopReport {
    pub records: u64,
    pub errors: u64,
    pub slow: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub uncached: u64,
    /// Nanos per lifecycle phase, summed over all records (indexed by
    /// [`Phase::index`]).
    pub phase_totals: [u128; Phase::ALL.len()],
    pub queries: Vec<QueryStats>,
}

/// Aggregate a record set (snapshot or journal) into a [`TopReport`].
pub fn aggregate(records: &[QueryRecord]) -> TopReport {
    let mut report = TopReport::default();
    // fingerprint → (samples, stats), insertion-ordered so ties render
    // deterministically.
    let mut groups: Vec<(u64, Vec<u128>, QueryStats)> = Vec::new();
    for r in records {
        report.records += 1;
        if !r.ok() {
            report.errors += 1;
        }
        if r.slow {
            report.slow += 1;
        }
        match r.cache {
            CacheDisposition::Hit => report.cache_hits += 1,
            CacheDisposition::Miss => report.cache_misses += 1,
            CacheDisposition::Uncached => report.uncached += 1,
        }
        for phase in Phase::ALL {
            report.phase_totals[phase.index()] += u128::from(r.phase_nanos(phase));
        }
        let entry = match groups.iter_mut().find(|(fp, _, _)| *fp == r.fingerprint) {
            Some(entry) => entry,
            None => {
                groups.push((
                    r.fingerprint,
                    Vec::new(),
                    QueryStats {
                        fingerprint: r.fingerprint,
                        source: r.source.clone(),
                        count: 0,
                        errors: 0,
                        slow: 0,
                        cache_hits: 0,
                        cache_misses: 0,
                        last_rows: 0,
                        total_nanos: 0,
                        p50_nanos: 0,
                        p95_nanos: 0,
                        max_nanos: 0,
                    },
                ));
                groups.last_mut().expect("just pushed")
            }
        };
        let (_, samples, stats) = entry;
        samples.push(u128::from(r.total_nanos));
        stats.source = r.source.clone();
        stats.count += 1;
        if !r.ok() {
            stats.errors += 1;
        }
        if r.slow {
            stats.slow += 1;
        }
        match r.cache {
            CacheDisposition::Hit => stats.cache_hits += 1,
            CacheDisposition::Miss => stats.cache_misses += 1,
            CacheDisposition::Uncached => {}
        }
        if r.ok() {
            stats.last_rows = r.rows;
        }
        stats.total_nanos += u128::from(r.total_nanos);
    }
    report.queries = groups
        .into_iter()
        .map(|(_, samples, mut stats)| {
            stats.p50_nanos = percentile_nanos(&samples, 50.0);
            stats.p95_nanos = percentile_nanos(&samples, 95.0);
            stats.max_nanos = percentile_nanos(&samples, 100.0);
            stats
        })
        .collect();
    report
}

impl TopReport {
    /// Cache hit ratio over the records that went through a plan cache,
    /// or `None` when none did.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let cached = self.cache_hits + self.cache_misses;
        (cached > 0).then(|| self.cache_hits as f64 / cached as f64)
    }

    /// Render the `oqltop` screen: a totals header, the phase
    /// breakdown, and the top-`n` statements by `sort`.
    pub fn render(&self, n: usize, sort: SortBy) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} records ({} errors, {} slow) | cache: {} hits / {} misses / {} uncached",
            self.records, self.errors, self.slow, self.cache_hits, self.cache_misses,
            self.uncached,
        ));
        if let Some(ratio) = self.cache_hit_ratio() {
            out.push_str(&format!(" ({:.0}% hit)", ratio * 100.0));
        }
        out.push('\n');
        let phase_line: Vec<String> = Phase::ALL
            .iter()
            .filter(|p| self.phase_totals[p.index()] > 0)
            .map(|p| format!("{} {}", p.as_str(), fmt_nanos(self.phase_totals[p.index()])))
            .collect();
        if !phase_line.is_empty() {
            out.push_str(&format!("phases: {}\n", phase_line.join(" | ")));
        }
        out.push('\n');
        let mut ranked: Vec<&QueryStats> = self.queries.iter().collect();
        match sort {
            SortBy::Total => ranked.sort_by_key(|q| std::cmp::Reverse(q.total_nanos)),
            SortBy::P95 => ranked.sort_by_key(|q| std::cmp::Reverse(q.p95_nanos)),
        }
        let mut table =
            Table::new(&["#", "calls", "total", "p50", "p95", "max", "cache", "rows", "source"]);
        for (i, q) in ranked.iter().take(n).enumerate() {
            let cache = if q.cache_hits + q.cache_misses > 0 {
                format!("{}h/{}m", q.cache_hits, q.cache_misses)
            } else {
                "-".to_string()
            };
            let mut source: String = q.source.chars().take(48).collect();
            if q.source.chars().count() > 48 {
                source.push('…');
            }
            table.row(&[
                (i + 1).to_string(),
                format!("{}{}", q.count, if q.errors > 0 { "!" } else { "" }),
                fmt_nanos(q.total_nanos),
                fmt_nanos(q.p50_nanos),
                fmt_nanos(q.p95_nanos),
                fmt_nanos(q.max_nanos),
                cache,
                q.last_rows.to_string(),
                source.replace('\n', " "),
            ]);
        }
        out.push_str(&table.render());
        out
    }

    pub fn to_json(&self) -> Json {
        let phases = Json::Obj(
            Phase::ALL
                .iter()
                .map(|p| {
                    (
                        p.as_str().to_string(),
                        Json::from(self.phase_totals[p.index()].min(u64::MAX as u128) as u64),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("records", Json::from(self.records)),
            ("errors", Json::from(self.errors)),
            ("slow", Json::from(self.slow)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("uncached", Json::from(self.uncached)),
            ("phase_totals", phases),
            (
                "queries",
                Json::Arr(self.queries.iter().map(QueryStats::to_json).collect()),
            ),
        ])
    }
}

/// Parse a journal dump back into records: the
/// `FlightRecorder::to_json` document, whose `schema_version` must be the
/// one this build writes, or a bare array of records (which carries no
/// version). Strict: a record missing a field is an error — a journal is
/// outside input, and a half-read one would aggregate into wrong totals.
pub fn load_journal(text: &str) -> Result<Vec<QueryRecord>, String> {
    let doc = Json::parse(text).map_err(|e| format!("journal is not JSON: {e}"))?;
    let arr = match &doc {
        Json::Arr(a) => a,
        _ => {
            let records = doc
                .get("records")
                .and_then(Json::as_arr)
                .ok_or("journal has no `records` array")?;
            let version = doc.get("schema_version").and_then(Json::as_u64);
            if version != Some(JOURNAL_SCHEMA_VERSION) {
                return Err(format!(
                    "journal declares schema version {}, this build reads only version \
                     {JOURNAL_SCHEMA_VERSION}",
                    version.map_or("none".to_string(), |v| v.to_string()),
                ));
            }
            records
        }
    };
    arr.iter()
        .enumerate()
        .map(|(i, j)| QueryRecord::from_json(j).map_err(|e| format!("journal record {i}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(source: &str, total: u64, cache: CacheDisposition) -> QueryRecord {
        let mut r = QueryRecord::new(source);
        r.total_nanos = total;
        r.cache = cache;
        r.rows = 2;
        r.phase_nanos[Phase::Execute.index()] = total;
        r
    }

    #[test]
    fn aggregates_by_fingerprint() {
        let records = vec![
            record("q1", 1_000, CacheDisposition::Miss),
            record("q1", 3_000, CacheDisposition::Hit),
            record("q2", 2_000, CacheDisposition::Uncached),
        ];
        let top = aggregate(&records);
        assert_eq!(top.records, 3);
        assert_eq!(top.cache_hits, 1);
        assert_eq!(top.cache_misses, 1);
        assert_eq!(top.uncached, 1);
        assert_eq!(top.cache_hit_ratio(), Some(0.5));
        assert_eq!(top.phase_totals[Phase::Execute.index()], 6_000);
        assert_eq!(top.queries.len(), 2);
        let q1 = top.queries.iter().find(|q| &*q.source == "q1").unwrap();
        assert_eq!(q1.count, 2);
        assert_eq!(q1.total_nanos, 4_000);
        assert_eq!(q1.p50_nanos, 1_000);
        assert_eq!(q1.max_nanos, 3_000);
        assert_eq!(q1.last_rows, 2);
    }

    #[test]
    fn errors_and_slow_counts_surface() {
        let mut failed = record("q1", 500, CacheDisposition::Uncached);
        failed.error = Some("boom".to_string());
        let mut slow = record("q1", 9_000, CacheDisposition::Uncached);
        slow.slow = true;
        let top = aggregate(&[failed, slow]);
        assert_eq!(top.errors, 1);
        assert_eq!(top.slow, 1);
        assert_eq!(top.cache_hit_ratio(), None);
        let rendered = top.render(10, SortBy::Total);
        assert!(rendered.contains("1 errors, 1 slow"), "{rendered}");
    }

    #[test]
    fn render_ranks_by_requested_column() {
        // q-many: more cumulative time; q-spiky: worse p95.
        let mut records: Vec<QueryRecord> =
            (0..10).map(|_| record("q-many", 1_000_000, CacheDisposition::Uncached)).collect();
        records.push(record("q-spiky", 5_000_000, CacheDisposition::Uncached));
        let top = aggregate(&records);
        let by_total = top.render(1, SortBy::Total);
        assert!(by_total.contains("q-many"), "{by_total}");
        assert!(!by_total.contains("q-spiky"), "{by_total}");
        let by_p95 = top.render(1, SortBy::P95);
        assert!(by_p95.contains("q-spiky"), "{by_p95}");
    }

    fn journal(version: u64, records: Vec<Json>) -> String {
        Json::obj(vec![
            ("schema_version", Json::from(version)),
            ("records", Json::Arr(records)),
        ])
        .render()
    }

    #[test]
    fn journal_round_trips() {
        let records = vec![
            record("q1", 1_000, CacheDisposition::Miss),
            record("q2", 2_000, CacheDisposition::Hit),
        ];
        let as_json: Vec<Json> = records.iter().map(QueryRecord::to_json).collect();
        let doc = journal(JOURNAL_SCHEMA_VERSION, as_json.clone());
        assert_eq!(load_journal(&doc).unwrap(), records);
        // Bare arrays load too.
        assert_eq!(load_journal(&Json::Arr(as_json).render()).unwrap(), records);
        // What the recorder itself writes loads.
        let ring = monoid_calculus::recorder::FlightRecorder::with_capacity(4);
        ring.push(records[0].clone());
        assert_eq!(load_journal(&ring.to_json().render()).unwrap().len(), 1);
        // Non-journals are rejected.
        assert!(load_journal("{}").is_err());
        assert!(load_journal("not json").is_err());
        assert!(load_journal(r#"{"schema_version":5,"records":[42]}"#).is_err());
    }

    #[test]
    fn other_schema_versions_and_short_records_are_refused() {
        let good = record("q1", 1_000, CacheDisposition::Miss).to_json();
        // A journal from another schema version: refused, both versions named.
        for (doc, declared) in [
            (journal(4, vec![good.clone()]), "version 4"),
            (Json::obj(vec![("records", Json::Arr(vec![good.clone()]))]).render(), "version none"),
        ] {
            let err = load_journal(&doc).unwrap_err();
            assert!(err.contains(declared), "{err}");
            assert!(err.contains("this build reads only version 5"), "{err}");
        }
        // A current-version journal whose record lacks a field: refused,
        // record and field named.
        let mut short = good;
        if let Json::Obj(fields) = &mut short {
            fields.retain(|(k, _)| k != "cache");
        }
        let err = load_journal(&journal(JOURNAL_SCHEMA_VERSION, vec![short])).unwrap_err();
        assert!(err.contains("record 0") && err.contains("`cache`"), "{err}");
        // Unknown keys are ignored, as they always were: a v5 record still
        // carrying the retired `parallel_workers` key loads unchanged.
        let plain = record("q1", 1_000, CacheDisposition::Miss);
        let mut stray = plain.to_json();
        if let Json::Obj(fields) = &mut stray {
            fields.push(("parallel_workers".to_string(), Json::from(4u64)));
        }
        let loaded = load_journal(&journal(JOURNAL_SCHEMA_VERSION, vec![stray])).unwrap();
        assert_eq!(loaded, vec![plain]);
    }

    #[test]
    fn empty_input_is_an_empty_report() {
        let top = aggregate(&[]);
        assert_eq!(top.records, 0);
        assert!(top.queries.is_empty());
        let rendered = top.render(10, SortBy::default());
        assert!(rendered.contains("0 records"), "{rendered}");
    }
}
