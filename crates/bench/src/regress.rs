//! The bench-regression harness: run the canonical paper queries
//! (company + travel stores) many times through the full
//! normalize → plan → execute pipeline — the engine `oqld` serves reads
//! with — and report in-process latency percentiles plus the
//! metrics-registry account of the whole workload — per-rule
//! normalization firings, plan-cache traffic, store counters, and
//! phase-latency histograms. Per-operator rows are not re-summed here:
//! each query's one profiled pass is its account, and the plan-quality
//! audit ([`crate::audit`]) reads those profiles. The wire is timed by
//! `oqlbench`, not here.
//!
//! The `regress` binary serializes the report to `BENCH_regress.json`
//! at the repo root: the first point on the perf trajectory every
//! future PR regresses against — and, with `--compare` (see
//! [`crate::compare`]), the baseline the fresh run is gated on. The
//! report deliberately contains no timestamps — two runs on the same
//! machine diff cleanly — but it does carry a [`HostMeta`] header
//! (logical cores, rustc version, OS), because latencies from different
//! machines are not like-for-like.

use crate::harness::{percentile_nanos, sample_nanos};
use crate::queries;
use monoid_calculus::expr::Expr;
use monoid_calculus::monoid::Monoid;
use monoid_calculus::json::Json;
use monoid_calculus::metrics::{self, Snapshot};
use monoid_calculus::normalize::{normalize_traced, NormalizeStats};
use monoid_calculus::trace::Phase;
use monoid_store::{company, travel, Database, TravelScale};
use std::time::Instant;

/// One canonical query in the regression suite. Shared with the
/// plan-quality audit ([`crate::audit`]) and the umbrella's MC009 test so
/// every gate runs over the same corpus.
pub struct Case {
    pub name: &'static str,
    pub store: &'static str,
    /// OQL source, or a paper-notation description for calculus-built
    /// queries.
    pub source: String,
    pub expr: Expr,
}

/// What one query did across `runs` executions.
pub struct QueryReport {
    pub name: &'static str,
    pub store: &'static str,
    pub source: String,
    pub runs: usize,
    pub p50_nanos: u128,
    pub p95_nanos: u128,
    pub p99_nanos: u128,
    /// Rows the plan root pushed into the reduction (single run).
    pub rows_to_reduce: u64,
    /// Normalization statistics of a single run (identical every run —
    /// normalization is deterministic).
    pub normalize: NormalizeStats,
    /// Median wall-time of the term-level static analyzer (effect
    /// inference + the MC001–MC008 lints) over the raw translated
    /// expression; `oqlint` additionally prepares the statement for MC009.
    pub analysis_p50_nanos: u128,
}

/// The fusion section: one query timed on the engine production runs
/// (the fused fold) against the forced plan walk, each median taken warm,
/// from a block of that engine's samples after its own warm-up.
pub struct FusionBench {
    pub name: &'static str,
    pub monoid: &'static str,
    pub source: String,
    /// Median on the default engine (fused, for these cases) — gated by
    /// [`crate::compare`].
    pub fused_p50_nanos: u128,
    /// Median with the plan-walk interpreter forced
    /// ([`monoid_algebra::execute_plan_walk_bound`]) — the ablation baseline.
    pub plan_walk_p50_nanos: u128,
    /// Plan-walk median ÷ fused median: what fusion buys.
    pub fused_speedup: f64,
}

/// One prepared statement: the cold path (prepare + execute, the whole
/// parse → translate → normalize → optimize → plan pipeline every run)
/// against the warm path (`Prepared::execute` alone — bind and run the
/// stored plan).
pub struct PreparedBench {
    pub name: &'static str,
    pub source: String,
    pub cold_p50_nanos: u128,
    pub cold_p95_nanos: u128,
    pub warm_p50_nanos: u128,
    pub warm_p95_nanos: u128,
    /// Cold median ÷ warm median: what preparing once buys per execution.
    pub warm_speedup: f64,
}

/// One `Stats::gather` over a whole travel store (every root walked, as
/// the first prepare after a `set_root` pays it), timed warm.
pub struct GatherBench {
    pub name: &'static str,
    /// Objects in the store's heap.
    pub objects: usize,
    pub p50_nanos: u128,
    pub p95_nanos: u128,
}

/// Host facts stamped into the report header: the context that makes
/// latency numbers interpretable when reports from different machines
/// meet.
#[derive(Debug, Clone)]
pub struct HostMeta {
    /// `std::thread::available_parallelism()`.
    pub logical_cores: usize,
    /// `rustc --version` output, or `"unknown"` when the compiler is
    /// not on PATH at run time.
    pub rustc: String,
    /// Target OS and architecture, e.g. `linux x86_64`.
    pub os: String,
}

/// Gather the [`HostMeta`] for this process.
pub fn host_meta() -> HostMeta {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    HostMeta {
        logical_cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        rustc,
        os: format!("{} {}", std::env::consts::OS, std::env::consts::ARCH),
    }
}

impl HostMeta {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("logical_cores", Json::from(self.logical_cores)),
            ("rustc", Json::str(self.rustc.clone())),
            ("os", Json::str(self.os.clone())),
        ])
    }
}

/// The full regression report.
pub struct RegressReport {
    pub quick: bool,
    /// Samples per case; a full run's fast queries take 101 (each
    /// query's own `runs` says how many).
    pub runs_per_query: usize,
    pub queries: Vec<QueryReport>,
    /// Fused fold vs forced plan walk on four scan-heavy linear chains
    /// and the corpus's hash join.
    pub fusion: Vec<FusionBench>,
    /// Prepared-statement serving latencies (cold prepare vs warm
    /// execute); the workload also runs through a `Session` + `PlanCache`
    /// so the `plan_cache_*` counters land in the registry delta below.
    pub prepared: Vec<PreparedBench>,
    /// The statistics walk at three store sizes.
    pub gather: Vec<GatherBench>,
    /// Registry delta attributable to this workload (snapshot diff
    /// around the run).
    pub registry: Snapshot,
    /// The host this report was produced on.
    pub host: HostMeta,
}

/// The corpus and the two stores it runs against (travel, company).
pub fn suite(quick: bool) -> (Database, Database, Vec<Case>) {
    let travel_scale = if quick { TravelScale::tiny() } else { TravelScale::small() };
    let travel_db = travel::generate(travel_scale, 7);
    let (managers, reports, floaters) = if quick { (4, 8, 6) } else { (8, 20, 15) };
    let company_db = company::generate(managers, reports, floaters, 42);

    let tschema = travel::schema();
    let cschema = company_db.schema().clone();
    let oql = |schema: &monoid_calculus::types::Schema, src: &str| {
        monoid_oql::compile(schema, src).expect("canonical query compiles")
    };

    let company_join = "select struct(mgr: m.name, emp: e.name) \
                        from m in Managers, e in CompanyEmployees \
                        where m.dept = e.dept";
    let company_forall = "for all e in CompanyEmployees: e.salary >= 40000";
    let cases = vec![
        Case {
            name: "portland-flat",
            store: "travel",
            source: queries::PORTLAND_FLAT_OQL.to_string(),
            expr: oql(&tschema, queries::PORTLAND_FLAT_OQL),
        },
        Case {
            name: "portland-nested",
            store: "travel",
            source: queries::PORTLAND_NESTED_OQL.to_string(),
            expr: oql(&tschema, queries::PORTLAND_NESTED_OQL),
        },
        Case {
            name: "clients-existing-city",
            store: "travel",
            source: "set{ cl.name | cl ← Clients, p ← cl.preferred, some{ c.name = p | c ← Cities } }"
                .to_string(),
            expr: queries::clients_preferring_existing_city(),
        },
        Case {
            name: "exists-hotel",
            store: "travel",
            source: "exists h in Hotels: h.name = 'hotel_0_0'".to_string(),
            expr: oql(&tschema, "exists h in Hotels: h.name = 'hotel_0_0'"),
        },
        Case {
            name: "company-dept-join",
            store: "company",
            source: company_join.to_string(),
            expr: oql(&cschema, company_join),
        },
        Case {
            name: "company-forall-salary",
            store: "company",
            source: company_forall.to_string(),
            expr: oql(&cschema, company_forall),
        },
    ];
    (travel_db, company_db, cases)
}

/// One profiled pass over a corpus case, prepared the way `oqld` prepares
/// a statement (statistics gathered from `db`): what [`run`] reads a
/// query's rows and normalization from, and the plan-quality audit
/// judges.
pub fn profile_case(case: &Case, db: &monoid_store::Snapshot) -> monoid_algebra::Analysis {
    monoid_db::prepare_expr(&case.expr, &monoid_algebra::Stats::gather(db))
        .profile(db, &monoid_db::Params::new())
        .expect("canonical query executes")
}

/// A full run samples a query whose median is under `FAST_CASE_NANOS`
/// (1 ms) at least this many times: of 25 samples, two scheduler stalls
/// are enough to set the p95 the compare gate reads.
const FAST_CASE_RUNS: usize = 101;
const FAST_CASE_NANOS: u128 = 1_000_000;

/// Run the suite. `quick` shrinks stores and run counts for CI smoke;
/// a full run samples each query 25 times, a fast one 101 times.
pub fn run(quick: bool) -> RegressReport {
    let runs = if quick { 5 } else { 25 };
    let (mut travel_db, mut company_db, cases) = suite(quick);
    let join = cases
        .iter()
        .find(|c| c.name == "company-dept-join")
        .map(|c| (c.name, c.source.clone(), c.expr.clone()))
        .expect("the corpus has its join");
    let before = metrics::global().snapshot();
    let mut reports = Vec::with_capacity(cases.len());
    for case in cases {
        let db = match case.store {
            "travel" => &mut travel_db,
            _ => &mut company_db,
        };
        // One profiled pass for the query's own account…
        let analysis = profile_case(&case, db);
        let rows_to_reduce = analysis.profile.rows_to_reduce;
        let normalize = analysis.profile.normalize.clone().expect("every prepare normalizes");
        // …then the timed runs, each one exercising normalize → plan →
        // execute end to end on the engine production reads run (fused
        // where the chain compiles).
        let mut samples = Vec::with_capacity(runs.max(FAST_CASE_RUNS));
        let mut target = runs;
        while samples.len() < target {
            let started = Instant::now();
            let mut phases = [0; Phase::ALL.len()];
            let canonical = Phase::Normalize.time(&mut phases, || {
                let (canonical, _, _) = normalize_traced(&case.expr);
                canonical
            });
            let plan = Phase::Plan.time(&mut phases, || {
                monoid_algebra::plan_comprehension(&canonical).expect("canonical query plans")
            });
            let value = Phase::Execute.time(&mut phases, || {
                monoid_algebra::execute_snapshot_bound(&plan, db, &[])
                    .expect("canonical query executes")
            });
            drop(value);
            samples.push(started.elapsed().as_nanos());
            if !quick && samples.len() == runs && percentile_nanos(&samples, 50.0) < FAST_CASE_NANOS
            {
                target = FAST_CASE_RUNS;
            }
        }
        // The static analyzer's own cost, timed separately: it never
        // runs inside the execute path, so it gets its own series.
        let analysis_samples =
            sample_nanos(runs, || monoid_calculus::analysis::AnalysisReport::of(&case.expr));
        reports.push(QueryReport {
            name: case.name,
            store: case.store,
            source: case.source,
            runs: samples.len(),
            p50_nanos: percentile_nanos(&samples, 50.0),
            p95_nanos: percentile_nanos(&samples, 95.0),
            p99_nanos: percentile_nanos(&samples, 99.0),
            rows_to_reduce,
            normalize,
            analysis_p50_nanos: percentile_nanos(&analysis_samples, 50.0),
        });
    }
    let fusion = run_fusion_section(quick, runs, join, &company_db);
    let prepared = run_prepared_section(quick, runs);
    let gather = run_gather_section(runs);
    let registry = metrics::global().snapshot().diff(&before);
    RegressReport {
        quick,
        runs_per_query: runs,
        queries: reports,
        fusion,
        prepared,
        gather,
        registry,
        host: host_meta(),
    }
}

/// Runs of a case taken and dropped before its warm samples.
const WARM_UP_RUNS: usize = 3;

/// `runs` samples of `f`, taken after [`WARM_UP_RUNS`] untimed runs: the
/// memo's tables and lanes are built and the caches hold what `f` reads.
fn warm_samples<T>(runs: usize, mut f: impl FnMut() -> T) -> Vec<u128> {
    for _ in 0..WARM_UP_RUNS {
        drop(f());
    }
    sample_nanos(runs, f)
}

/// Time the serving layer: for each canonical statement, the cold path
/// re-prepares (parse → … → plan) and executes every run, the warm path
/// executes one `Prepared` repeatedly. The same statements then go
/// through a private `Session`/`PlanCache` so the run's registry delta
/// carries `plan_cache_hits_total` / `plan_cache_misses_total` traffic.
fn run_prepared_section(quick: bool, runs: usize) -> Vec<PreparedBench> {
    use monoid_calculus::value::Value;
    use monoid_db::{prepare_on, Params, PlanCache, Session};

    let scale = if quick { TravelScale::tiny() } else { TravelScale::small() };
    let mut db = travel::generate(scale, 7);
    let cases: Vec<(&'static str, &'static str, Params)> = vec![
        (
            "portland-flat-prepared",
            "select h.name from c in Cities, h in c.hotels, r in h.rooms \
             where c.name = $city and r.bed# = $beds",
            Params::new()
                .bind("city", Value::str("Portland"))
                .bind("beds", Value::Int(3)),
        ),
        (
            "exists-hotel-prepared",
            "exists h in Hotels: h.name = $name",
            Params::new().bind("name", Value::str("hotel_0_0")),
        ),
        (
            "city-hotels-prepared",
            "select h.name from c in Cities, h in c.hotels \
             where c.hotel# >= $1 and c.name = $2",
            Params::new().bind("1", Value::Int(1)).bind("2", Value::str("Portland")),
        ),
    ];

    let session = Session::with_cache(std::sync::Arc::new(PlanCache::new()));
    cases
        .into_iter()
        .map(|(name, source, params)| {
            // Cold: the whole pipeline, every run.
            let cold = sample_nanos(runs, || {
                let stmt = prepare_on(&db, source).expect("canonical statement prepares");
                stmt.execute(&mut db, &params).expect("canonical statement executes");
                stmt
            });
            // Warm: prepare once, execute `runs` times after a warm-up.
            let stmt = prepare_on(&db, source).expect("canonical statement prepares");
            let warm_samples = warm_samples(runs, || {
                stmt.execute(&mut db, &params).expect("canonical statement executes");
            });
            // Cache traffic for the registry delta: one miss, then hits.
            for _ in 0..runs {
                session.query(&mut db, source, &params).expect("session serves the statement");
            }
            prepared_bench(name, source, &cold, &warm_samples)
        })
        .chain([
            read_after_write("read-after-insert", false, quick, runs),
            read_after_write("read-after-set-root", true, quick, runs),
        ])
        .collect()
}

/// A prepared case's report row from its cold and warm samples.
fn prepared_bench(name: &'static str, source: &str, cold: &[u128], warm: &[u128]) -> PreparedBench {
    let cold_p50 = percentile_nanos(cold, 50.0);
    let warm_p50 = percentile_nanos(warm, 50.0);
    PreparedBench {
        name,
        source: source.to_string(),
        cold_p50_nanos: cold_p50,
        cold_p95_nanos: percentile_nanos(cold, 95.0),
        warm_p50_nanos: warm_p50,
        warm_p95_nanos: percentile_nanos(warm, 95.0),
        warm_speedup: cold_p50 as f64 / warm_p50.max(1) as f64,
    }
}

/// `read-after-insert`: the first read after a write, on the shape of
/// `oqlbench`'s `mixed-rw` store (10 cities × 100 hotels, 4 rooms and 1
/// employee each, 6 500 clients: 8 510 objects; `tiny` in quick mode).
/// Each cold sample commits one hotel with `Database::insert`, then
/// prepares and executes the keyed lookup of its name at the new epoch,
/// so the `Hotels` statistics and the by-name table are built again; the
/// other extents' statistics are carried from the last epoch. The warm
/// path executes one statement with no write between runs.
///
/// `read-after-set-root` (`full`) is the same, but each sample also
/// rebinds a root no statement reads, which carries nothing: the cold
/// prepare walks every root.
fn read_after_write(case: &'static str, full: bool, quick: bool, runs: usize) -> PreparedBench {
    use monoid_calculus::symbol::Symbol;
    use monoid_calculus::value::Value;
    use monoid_db::{prepare_on, Params};

    let scale = if quick {
        TravelScale::tiny()
    } else {
        TravelScale {
            cities: 10,
            hotels_per_city: 100,
            rooms_per_hotel: 4,
            employees_per_hotel: 1,
            clients: 6500,
        }
    };
    let mut db = travel::generate(scale, 1995);
    let hotel = Symbol::new(travel::names::HOTEL);
    let source = "exists h in Hotels: h.name = $name";
    let mut written = 0;
    let cold = sample_nanos(runs, || {
        written += 1;
        let name = format!("hotel_w_{written}");
        let room = Value::record_from(vec![("bed#", Value::Int(2)), ("price", Value::Float(90.0))]);
        let state = Value::record_from(vec![
            ("name", Value::str(&name)),
            ("address", Value::str(&format!("{written} Side St"))),
            ("facilities", Value::set_from(Vec::new())),
            ("employees", Value::list(Vec::new())),
            ("rooms", Value::list(vec![room])),
        ]);
        db.insert(hotel, state).expect("a hotel commits");
        if full {
            db.set_root("Written", Value::Int(written));
        }
        let stmt = prepare_on(&db, source).expect("the lookup prepares");
        let found = stmt.execute(&mut db, &Params::new().bind("name", Value::str(&name)));
        assert_eq!(found.expect("the lookup executes"), Value::Bool(true));
    });
    let stmt = prepare_on(&db, source).expect("the lookup prepares");
    let params = Params::new().bind("name", Value::str("hotel_w_1"));
    let warm = warm_samples(runs, || {
        stmt.execute(&mut db, &params).expect("the lookup executes");
    });
    prepared_bench(case, source, &cold, &warm)
}

/// Time `Stats::gather` over travel stores of 310, 910 and 3 310 hotels
/// (1 116, 3 276 and 11 916 objects), the same sizes in either mode.
fn run_gather_section(runs: usize) -> Vec<GatherBench> {
    [("gather-310-hotels", 310), ("gather-910-hotels", 910), ("gather-3310-hotels", 3310)]
        .into_iter()
        .map(|(name, hotels)| {
            let db = travel::generate(TravelScale::with_hotels(hotels), 1995);
            let samples = warm_samples(runs, || monoid_algebra::Stats::gather(&db));
            GatherBench {
                name,
                objects: db.heap().len(),
                p50_nanos: percentile_nanos(&samples, 50.0),
                p95_nanos: percentile_nanos(&samples, 95.0),
            }
        })
        .collect()
}

/// Time the fused fold against the forced plan walk on a commutative
/// fold, an order-sensitive list build and a sorted bag build over the
/// same scan → unnest chain, the bag build behind a compare filter, two
/// sums behind the lane's range filters, on `join` (the corpus's hash
/// join, over the company store), on that
/// join's pair count, whose head reads neither side, on the set of its
/// keys and its pair count behind a filter on the key — the three fold a
/// lane of `m.dept` against the join's buckets — and on four OQL
/// shapes whose nested comprehension — in a predicate, a head, a
/// `group by`'s partition — the fold hands to the evaluator in place.
fn run_fusion_section(
    quick: bool,
    runs: usize,
    (join_name, join_source, join_expr): (&'static str, String, Expr),
    company_db: &Database,
) -> Vec<FusionBench> {
    let scale = TravelScale::with_hotels(if quick { 64 } else { 1024 });
    let db = travel::generate(scale, 7);
    let oql = |src: &str| {
        let expr = monoid_oql::compile(db.schema(), src).expect("fusion case compiles");
        (src.to_string(), &db, expr)
    };
    let evaluated = [
        ("count-rooms-pred", "bag", "select h.name from h in Hotels where count(h.rooms) > 3"),
        (
            "in-select",
            "bag",
            "select h.name from h in Hotels where h.name in (select c.name from c in Cities)",
        ),
        ("count-head", "bag", "select struct(city: c.name, n: count(c.hotels)) from c in Cities"),
        (
            "group-by-count",
            "set",
            "select struct(city: cn, n: count(partition)) from h in Hotels group by cn: h.name",
        ),
    ];
    let evaluated = evaluated.into_iter().map(|(name, monoid, src)| {
        let (source, db, expr) = oql(src);
        (name, monoid, source, db, expr)
    });
    let cases = [
        (
            "sum-beds",
            "sum",
            "sum{ r.bed# | h ← Hotels, r ← h.rooms }".to_string(),
            &db,
            Expr::comp(
                Monoid::Sum,
                Expr::var("r").proj("bed#"),
                vec![
                    Expr::gen("h", Expr::var("Hotels")),
                    Expr::gen("r", Expr::var("h").proj("rooms")),
                ],
            ),
        ),
        (
            "list-prices",
            "list",
            "list{ r.price | h ← Hotels, r ← h.rooms }".to_string(),
            &db,
            Expr::comp(
                Monoid::List,
                Expr::var("r").proj("price"),
                vec![
                    Expr::gen("h", Expr::var("Hotels")),
                    Expr::gen("r", Expr::var("h").proj("rooms")),
                ],
            ),
        ),
        (
            "bag-prices",
            "bag",
            "bag{ r.price | h ← Hotels, r ← h.rooms }".to_string(),
            &db,
            Expr::comp(
                Monoid::Bag,
                Expr::var("r").proj("price"),
                vec![
                    Expr::gen("h", Expr::var("Hotels")),
                    Expr::gen("r", Expr::var("h").proj("rooms")),
                ],
            ),
        ),
        // `bulk-rows`' shape in process: a compare stage over the unnest.
        (
            "bag-prices-floor",
            "bag",
            "bag{ r.price | h ← Hotels, r ← h.rooms, r.price ≥ 100.0 }".to_string(),
            &db,
            Expr::comp(
                Monoid::Bag,
                Expr::var("r").proj("price"),
                vec![
                    Expr::gen("h", Expr::var("Hotels")),
                    Expr::gen("r", Expr::var("h").proj("rooms")),
                    Expr::pred(Expr::var("r").proj("price").ge(Expr::float(100.0))),
                ],
            ),
        ),
        // The lane's range path on monoids that push a head per row: an
        // equality keeps one dictionary entry, two ranges a band.
        (
            "count-price-eq",
            "sum",
            "sum{ 1 | h ← Hotels, r ← h.rooms, r.price = 200.0 }".to_string(),
            &db,
            Expr::comp(
                Monoid::Sum,
                Expr::int(1),
                vec![
                    Expr::gen("h", Expr::var("Hotels")),
                    Expr::gen("r", Expr::var("h").proj("rooms")),
                    Expr::pred(Expr::var("r").proj("price").eq(Expr::float(200.0))),
                ],
            ),
        ),
        (
            "sum-prices-band",
            "sum",
            "sum{ r.price | h ← Hotels, r ← h.rooms, r.price ≥ 100.0, r.price < 200.0 }"
                .to_string(),
            &db,
            Expr::comp(
                Monoid::Sum,
                Expr::var("r").proj("price"),
                vec![
                    Expr::gen("h", Expr::var("Hotels")),
                    Expr::gen("r", Expr::var("h").proj("rooms")),
                    Expr::pred(Expr::var("r").proj("price").ge(Expr::float(100.0))),
                    Expr::pred(Expr::var("r").proj("price").lt(Expr::float(200.0))),
                ],
            ),
        ),
        (join_name, "bag", join_source, company_db, join_expr),
        // `join-wire`'s shape in process: a head that reads neither side,
        // folded once per bucket.
        (
            "company-dept-pairs",
            "sum",
            "sum{ 1 | m ← Managers, e ← CompanyEmployees, m.dept = e.dept }".to_string(),
            company_db,
            Expr::comp(
                Monoid::Sum,
                Expr::int(1),
                vec![
                    Expr::gen("m", Expr::var("Managers")),
                    Expr::gen("e", Expr::var("CompanyEmployees")),
                    Expr::pred(Expr::var("m").proj("dept").eq(Expr::var("e").proj("dept"))),
                ],
            ),
        ),
        // The same join under a head that reads the key, once per
        // manager's dept…
        (
            "company-dept-set",
            "set",
            "set{ m.dept | m ← Managers, e ← CompanyEmployees, m.dept = e.dept }".to_string(),
            company_db,
            Expr::comp(
                Monoid::Set,
                Expr::var("m").proj("dept"),
                vec![
                    Expr::gen("m", Expr::var("Managers")),
                    Expr::gen("e", Expr::var("CompanyEmployees")),
                    Expr::pred(Expr::var("m").proj("dept").eq(Expr::var("e").proj("dept"))),
                ],
            ),
        ),
        // …and behind a filter on the key before the join.
        (
            "company-dept-pairs-ne",
            "sum",
            "sum{ 1 | m ← Managers, m.dept ≠ \"sales\", e ← CompanyEmployees, m.dept = e.dept }"
                .to_string(),
            company_db,
            Expr::comp(
                Monoid::Sum,
                Expr::int(1),
                vec![
                    Expr::gen("m", Expr::var("Managers")),
                    Expr::pred(Expr::var("m").proj("dept").ne(Expr::str("sales"))),
                    Expr::gen("e", Expr::var("CompanyEmployees")),
                    Expr::pred(Expr::var("m").proj("dept").eq(Expr::var("e").proj("dept"))),
                ],
            ),
        ),
    ];
    cases
        .into_iter()
        .chain(evaluated)
        .map(|(name, monoid, source, db, expr)| {
            let plan = monoid_algebra::plan_comprehension(&expr).expect("fusion case plans");
            // Each engine in a block of its own, after its own warm-up: a
            // fused sample taken right after a plan-walk sample of the
            // same query reads caches the walk evicted, and a change to
            // the fold worth under a microsecond would not show.
            let fused_samples = warm_samples(runs, || {
                monoid_algebra::execute(&plan, db).expect("fused run")
            });
            let plan_walk_samples = warm_samples(runs, || {
                monoid_algebra::execute_plan_walk_bound(&plan, db, &[]).expect("plan-walk baseline")
            });
            let fused_p50_nanos = percentile_nanos(&fused_samples, 50.0);
            let plan_walk_p50_nanos = percentile_nanos(&plan_walk_samples, 50.0);
            FusionBench {
                name,
                monoid,
                source,
                fused_p50_nanos,
                plan_walk_p50_nanos,
                fused_speedup: plan_walk_p50_nanos as f64 / fused_p50_nanos.max(1) as f64,
            }
        })
        .collect()
}

impl RegressReport {
    /// Cumulative rule firings from the registry delta.
    pub fn rule_firings(&self) -> Vec<(String, u64)> {
        self.registry
            .series
            .iter()
            .filter(|s| s.key.name == "normalize_rule_fired_total")
            .filter_map(|s| match s.value {
                metrics::MetricValue::Counter(n) if n > 0 => {
                    s.key.labels.first().map(|(_, rule)| (rule.clone(), n))
                }
                _ => None,
            })
            .collect()
    }

    /// The `BENCH_regress.json` document.
    pub fn to_json(&self) -> Json {
        let queries = Json::Arr(
            self.queries
                .iter()
                .map(|q| {
                    let rules = Json::Arr(
                        q.normalize
                            .rule_counts()
                            .filter(|(_, n)| *n > 0)
                            .map(|(rule, n)| {
                                Json::obj(vec![
                                    ("rule", Json::str(format!("N{}", rule.number()))),
                                    ("name", Json::str(rule.name())),
                                    ("fired", Json::from(n)),
                                ])
                            })
                            .collect(),
                    );
                    Json::obj(vec![
                        ("name", Json::str(q.name)),
                        ("store", Json::str(q.store)),
                        ("source", Json::str(q.source.clone())),
                        ("runs", Json::from(q.runs)),
                        ("median_nanos", Json::from(q.p50_nanos)),
                        ("p50_nanos", Json::from(q.p50_nanos)),
                        ("p95_nanos", Json::from(q.p95_nanos)),
                        ("p99_nanos", Json::from(q.p99_nanos)),
                        ("rows_to_reduce", Json::from(q.rows_to_reduce)),
                        ("analysis_nanos", Json::from(q.analysis_p50_nanos)),
                        (
                            "normalize",
                            Json::obj(vec![
                                ("steps", Json::from(q.normalize.steps)),
                                ("size_before", Json::from(q.normalize.size_before)),
                                ("size_after", Json::from(q.normalize.size_after)),
                                ("rules", rules),
                            ]),
                        ),
                    ])
                })
                .collect(),
        );
        let fusion = Json::Arr(
            self.fusion
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("name", Json::str(p.name)),
                        ("monoid", Json::str(p.monoid)),
                        ("source", Json::str(p.source.clone())),
                        ("fused_median_nanos", Json::from(p.fused_p50_nanos)),
                        ("plan_walk_median_nanos", Json::from(p.plan_walk_p50_nanos)),
                        ("fused_speedup", Json::Float(p.fused_speedup)),
                    ])
                })
                .collect(),
        );
        let prepared = Json::Arr(
            self.prepared
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("name", Json::str(p.name)),
                        ("source", Json::str(p.source.clone())),
                        ("cold_median_nanos", Json::from(p.cold_p50_nanos)),
                        ("cold_p95_nanos", Json::from(p.cold_p95_nanos)),
                        ("warm_median_nanos", Json::from(p.warm_p50_nanos)),
                        ("warm_p95_nanos", Json::from(p.warm_p95_nanos)),
                        ("warm_speedup", Json::Float(p.warm_speedup)),
                    ])
                })
                .collect(),
        );
        let gather = Json::Arr(
            self.gather
                .iter()
                .map(|g| {
                    Json::obj(vec![
                        ("name", Json::str(g.name)),
                        ("objects", Json::from(g.objects)),
                        ("median_nanos", Json::from(g.p50_nanos)),
                        ("p95_nanos", Json::from(g.p95_nanos)),
                    ])
                })
                .collect(),
        );
        let rules = self.rule_firings().into_iter().map(|(k, n)| (k, Json::from(n))).collect();
        Json::obj(vec![
            ("bench", Json::str("regress")),
            // Version 7 replaced `parallel` (thread ladder) with `fusion`
            // (fused vs plan walk); version 8 dropped the wire `serving`
            // section, `warm` and `operator_rows`; version 9 added
            // `gather`.
            ("schema_version", Json::Int(9)),
            ("host", self.host.to_json()),
            ("quick", Json::Bool(self.quick)),
            ("runs_per_query", Json::from(self.runs_per_query)),
            ("queries", queries),
            ("fusion", fusion),
            ("prepared", prepared),
            ("gather", gather),
            ("normalize_rules", Json::Obj(rules)),
            ("registry", self.registry.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_regress_produces_a_complete_report() {
        let report = run(true);
        assert_eq!(report.queries.len(), 6);
        for q in &report.queries {
            assert!(q.p50_nanos > 0, "{} has a latency", q.name);
            assert!(q.p95_nanos >= q.p50_nanos, "{}: p95 ≥ p50", q.name);
            assert!(q.p99_nanos >= q.p95_nanos, "{}: p99 ≥ p95", q.name);
        }
        // The nested Portland query must exercise the unnesting rules.
        let nested = report.queries.iter().find(|q| q.name == "portland-nested").unwrap();
        assert!(nested.normalize.steps > 0, "nested form normalizes");
        // Per-rule firings made it into the delta; no executor series did
        // (a profile is its run's one account).
        assert!(!report.rule_firings().is_empty(), "rules counted");
        let names: Vec<&str> = report.registry.series.iter().map(|s| s.key.name.as_str()).collect();
        assert!(names.iter().all(|n| !n.starts_with("exec_")), "{names:?}");
        // The fusion section covers a commutative, an ordered and a
        // sorting monoid over a linear chain, the sorting one behind a
        // filter, two sums behind lane ranges, the corpus's join, with a
        // head reading both sides, one reading neither, one reading the
        // key, and one behind a filter on the key, and four
        // shapes with a nested comprehension evaluated in place: the
        // default engine is fused, and the forced plan walk was timed
        // alongside it.
        assert_eq!(
            report.fusion.iter().map(|p| p.name).collect::<Vec<_>>(),
            [
                "sum-beds",
                "list-prices",
                "bag-prices",
                "bag-prices-floor",
                "count-price-eq",
                "sum-prices-band",
                "company-dept-join",
                "company-dept-pairs",
                "company-dept-set",
                "company-dept-pairs-ne",
                "count-rooms-pred",
                "in-select",
                "count-head",
                "group-by-count"
            ]
        );
        for p in &report.fusion {
            assert!(p.fused_p50_nanos > 0, "{}", p.name);
            assert!(p.plan_walk_p50_nanos > 0 && p.fused_speedup > 0.0, "{}", p.name);
        }
        // Neither the deleted parallel engine's metric family nor its
        // retired lint code can reach a regenerated baseline.
        let registry = report.registry.to_json().render();
        assert!(!registry.contains("parallel_"), "{registry}");
        assert!(!registry.contains("\"MC005\""), "{registry}");
        // The prepared-statement section: every case timed on both paths
        // (`read-after-insert` and `read-after-set-root` last), and the
        // three canonical statements' session loop put plan-cache traffic
        // into the delta — exactly one miss per statement, the rest hits.
        assert_eq!(report.prepared.len(), 5);
        assert_eq!(report.prepared[3].name, "read-after-insert");
        assert_eq!(report.prepared[4].name, "read-after-set-root");
        for p in &report.prepared {
            assert!(p.cold_p50_nanos > 0 && p.warm_p50_nanos > 0, "{} timed", p.name);
            assert!(p.warm_speedup > 0.0);
        }
        assert!(
            report.registry.counter("plan_cache_misses_total") >= 3,
            "the session loop misses once per statement"
        );
        assert!(
            report.registry.counter("plan_cache_hits_total")
                >= 3 * (report.runs_per_query as u64 - 1),
            "and hits on every later run"
        );
        // The statistics walk, at three store sizes.
        let gathers: Vec<_> = report.gather.iter().map(|g| (g.name, g.objects)).collect();
        assert_eq!(
            gathers,
            [
                ("gather-310-hotels", 1116),
                ("gather-910-hotels", 3276),
                ("gather-3310-hotels", 11916)
            ]
        );
        assert!(report.gather.iter().all(|g| g.p95_nanos >= g.p50_nanos && g.p50_nanos > 0));
        // And the JSON document carries the acceptance fields.
        let json = report.to_json().render();
        for key in [
            "\"median_nanos\"",
            "\"p95_nanos\"",
            "\"normalize_rules\"",
            "\"registry\"",
            "\"rows_to_reduce\"",
            "\"analysis_nanos\"",
            "\"fusion\"",
            "\"fused_median_nanos\"",
            "\"plan_walk_median_nanos\"",
            "\"fused_speedup\"",
            "\"prepared\"",
            "\"cold_median_nanos\"",
            "\"warm_median_nanos\"",
            "\"warm_speedup\"",
            "\"gather\"",
            "\"objects\"",
            "\"host\"",
            "\"logical_cores\"",
            "\"rustc\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        for gone in ["\"serving\"", "\"warm\"", "\"operator_rows\""] {
            assert!(!json.contains(gone), "schema 9 has no {gone}");
        }
        assert!(report.host.logical_cores >= 1);
    }
}
