//! E10 — WCHECK: demand-driven single-atom membership (dependency-cone
//! extraction + cone-local fixpoint) vs solving the whole program.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{chain_database, example4_sigma};
use wfdl_wfs::{solve, wcheck, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("wcheck_membership");
    group.sample_size(10);

    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, 64);
    let model = solve(SolveRequest::new(&mut u, &db, &sigma, WfsOptions::depth(6))).model;
    let t_pred = u.lookup_pred("T").unwrap();
    let c0 = u.lookup_constant("c0").unwrap();
    let t_atom = u.atoms.lookup(t_pred, &[c0]).unwrap();

    group.bench_with_input(BenchmarkId::new("membership", "decide"), &(), |b, _| {
        b.iter(|| wcheck::decide(&model.ground, t_atom));
    });
    group.bench_with_input(BenchmarkId::new("membership", "global"), &(), |b, _| {
        b.iter(|| solve(SolveRequest::new(&mut u, &db, &sigma, WfsOptions::depth(6))).model);
    });
    group.bench_with_input(BenchmarkId::new("membership", "certify"), &(), |b, _| {
        b.iter(|| wcheck::certify(&model.segment, &model.result.interp, t_atom));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
