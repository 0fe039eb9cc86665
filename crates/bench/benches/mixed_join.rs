//! B3 — the paper's §2.4 mixed-collection join (list × bag → set), scaled.
//!
//! Expected shape: direct evaluation of the comprehension is a nested
//! loop, O(n²); the planner detects the equality and hash-joins, O(n).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monoid_bench::queries::mixed_join;
use monoid_calculus::eval::eval_closed;
use monoid_calculus::types::Schema;
use monoid_store::Database;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("b3_mixed_join");
    group.sample_size(10);
    for n in [100usize, 400, 1600] {
        let q = mixed_join(n, n);
        let plan = monoid_algebra::plan_comprehension(&q).expect("plans");
        let db = Database::new(Schema::new());

        group.bench_with_input(BenchmarkId::new("direct_eval", n), &n, |b, _| {
            b.iter(|| eval_closed(&q).expect("direct"));
        });
        group.bench_with_input(BenchmarkId::new("pipeline_hash_join", n), &n, |b, _| {
            b.iter(|| monoid_algebra::execute(&plan, &db).expect("pipeline"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
