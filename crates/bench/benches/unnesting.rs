//! B1 — unnesting a correlated exists (DESIGN.md experiment index).
//!
//! The query `set{ cl.name | cl ← Clients, p ← cl.preferred,
//! some{ c.name = p | c ← Cities } }` is measured three ways at each
//! scale: evaluated as written (the existential rescans `Cities` per
//! preference), evaluated after normalization (rule N6 unnests the
//! exists), and executed through the algebra (where the unnested form
//! becomes a hash join). Expected shape: naive is O(clients · cities),
//! pipeline is O(clients + cities).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monoid_bench::queries::clients_preferring_existing_city;
use monoid_calculus::normalize::normalize;
use monoid_store::travel::{self, TravelScale};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b1_unnesting");
    group.sample_size(10);
    for hotels in [100usize, 400, 1600] {
        let scale = TravelScale::with_hotels(hotels);
        let mut db = travel::generate(scale, 7);
        let q = clients_preferring_existing_city();
        let n = normalize(&q);
        let plan = monoid_algebra::plan_comprehension(&n).expect("plans");

        group.bench_with_input(BenchmarkId::new("naive_eval", hotels), &hotels, |b, _| {
            b.iter(|| db.query(&q).expect("naive"));
        });
        group.bench_with_input(
            BenchmarkId::new("normalized_eval", hotels),
            &hotels,
            |b, _| b.iter(|| db.query(&n).expect("normalized")),
        );
        group.bench_with_input(
            BenchmarkId::new("pipeline_hash_join", hotels),
            &hotels,
            |b, _| b.iter(|| monoid_algebra::execute(&plan, &db).expect("pipeline")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
