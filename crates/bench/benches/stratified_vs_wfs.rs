//! E8 — stratified evaluation (the [1] baseline) vs the full WFS engine on
//! stratified workloads; the models coincide, the perfect-model evaluation
//! skips the unfounded-set machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{random_database, random_stratified_program, RandomConfig, RandomDbConfig};
use wfdl_wfs::{perfect_model, solve, stratify, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("stratified_vs_wfs");
    group.sample_size(10);

    let mut u = Universe::new();
    let w = random_stratified_program(
        &mut u,
        &RandomConfig {
            seed: 2,
            num_rules: 16,
            num_preds: 8,
            negation_prob: 0.6,
            existential_prob: 0.0,
            ..Default::default()
        },
        3,
    );
    let db = random_database(
        &mut u,
        &w,
        &RandomDbConfig {
            num_constants: 16,
            num_facts: 64,
            seed: 9,
        },
    );
    let strat = stratify(&w.sigma).expect("stratified");
    let req = SolveRequest::new(&mut u, &db, &w.sigma, WfsOptions::unbounded());
    let model = solve(req).model;

    group.bench_with_input(BenchmarkId::new("engine", "stratified"), &(), |b, _| {
        b.iter(|| perfect_model(&u, &model.ground, &strat));
    });
    group.bench_with_input(BenchmarkId::new("engine", "wfs"), &(), |b, _| {
        b.iter(|| {
            let req = SolveRequest::new(&mut u, &db, &w.sigma, WfsOptions::unbounded());
            solve(req).model
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
