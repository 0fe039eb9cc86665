//! B2 — pipelining: nested-from subqueries vs the canonical pipeline.
//!
//! A three-level navigation written with subqueries in `from` materializes
//! (and canonicalizes) an intermediate bag per level when evaluated
//! directly; the normalized canonical form streams, and the algebra
//! pipeline streams without any interpretation of generators. Expected
//! shape: a constant-factor win growing with chain depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monoid_bench::queries::deep_navigation_nested;
use monoid_calculus::normalize::normalize;
use monoid_store::travel::{self, TravelScale};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_pipelining");
    group.sample_size(10);
    for hotels in [200usize, 800] {
        let scale = TravelScale::with_hotels(hotels);
        let mut db = travel::generate(scale, 7);
        let q = deep_navigation_nested(200);
        let n = normalize(&q);
        let plan = monoid_algebra::plan_comprehension(&n).expect("plans");

        group.bench_with_input(BenchmarkId::new("nested_eval", hotels), &hotels, |b, _| {
            b.iter(|| db.query(&q).expect("nested"));
        });
        group.bench_with_input(
            BenchmarkId::new("canonical_eval", hotels),
            &hotels,
            |b, _| b.iter(|| db.query(&n).expect("canonical")),
        );
        group.bench_with_input(
            BenchmarkId::new("canonical_pipeline", hotels),
            &hotels,
            |b, _| b.iter(|| monoid_algebra::execute(&plan, &db).expect("pipeline")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
