//! B6 — ablations of the algebra's design choices (DESIGN.md calls out
//! equi-join detection and predicate placement):
//!
//! * hash join vs nested loop across sizes and key selectivities —
//!   expected: hash wins once the build side exceeds a few dozen rows;
//! * predicate pushdown on vs off — expected: pushing the city filter
//!   below the unnests skips navigating every non-matching city.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monoid_bench::queries::{employee_client_join, PORTLAND_FLAT_OQL};
use monoid_calculus::normalize::normalize;
use monoid_store::travel::{self, TravelScale};

fn bench_join_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("b6_join_strategy");
    group.sample_size(10);
    for hotels in [200usize, 800] {
        for k in [4i64, 64] {
            let scale = TravelScale::with_hotels(hotels);
            let db = travel::generate(scale, 7);
            let q = employee_client_join(k);
            let hash = monoid_algebra::plan_comprehension(&q).expect("hash plan");
            let nl = monoid_algebra::plan_with_options(
                &q,
                monoid_algebra::PlanOptions { hash_joins: false, push_predicates: true },
            )
            .expect("nl plan");
            let id = format!("h{hotels}_k{k}");
            group.bench_with_input(BenchmarkId::new("hash", &id), &id, |b, _| {
                b.iter(|| monoid_algebra::execute(&hash, &db).expect("hash"));
            });
            group.bench_with_input(BenchmarkId::new("nested_loop", &id), &id, |b, _| {
                b.iter(|| monoid_algebra::execute(&nl, &db).expect("nl"));
            });
        }
    }
    group.finish();
}

fn bench_pushdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("b6_predicate_pushdown");
    group.sample_size(10);
    for hotels in [400usize, 1600] {
        let scale = TravelScale::with_hotels(hotels);
        let db = travel::generate(scale, 7);
        let schema = travel::schema();
        let q = monoid_oql::compile(&schema, PORTLAND_FLAT_OQL).expect("compiles");
        let n = normalize(&q);
        let on = monoid_algebra::plan_comprehension(&n).expect("on");
        let off = monoid_algebra::plan_with_options(
            &n,
            monoid_algebra::PlanOptions { hash_joins: true, push_predicates: false },
        )
        .expect("off");
        group.bench_with_input(BenchmarkId::new("pushdown_on", hotels), &hotels, |b, _| {
            b.iter(|| monoid_algebra::execute(&on, &db).expect("on"));
        });
        group.bench_with_input(
            BenchmarkId::new("pushdown_off", hotels),
            &hotels,
            |b, _| b.iter(|| monoid_algebra::execute(&off, &db).expect("off")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_join_strategy, bench_pushdown);
criterion_main!(benches);
