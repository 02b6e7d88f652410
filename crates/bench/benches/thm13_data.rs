//! E3 — Theorem 13 data complexity: WFS solving with fixed `Σ` and growing
//! database (the Example 4 chain family). The paper claims PTIME data
//! complexity; the measured growth should be near-linear in `|D|`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{chain_database, example4_sigma};
use wfdl_wfs::{solve, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm13_data");
    group.sample_size(10);
    for seeds in [8usize, 32, 128] {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let db = chain_database(&mut u, seeds);
        // Warm-up interns every term/atom the solve will touch.
        let _ = solve(SolveRequest::new(&mut u, &db, &sigma, WfsOptions::depth(6))).model;
        group.bench_with_input(BenchmarkId::from_parameter(db.len()), &seeds, |b, _| {
            b.iter(|| solve(SolveRequest::new(&mut u, &db, &sigma, WfsOptions::depth(6))).model);
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
