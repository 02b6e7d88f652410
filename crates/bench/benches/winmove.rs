//! E9 — win–move scaling: exact three-valued well-founded models on random
//! game graphs of growing size (PTIME data complexity, experiment E9).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{winmove_database, winmove_sigma, WinMoveConfig};
use wfdl_wfs::{solve, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("winmove");
    group.sample_size(10);
    for nodes in [128usize, 512, 2048] {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_database(
            &mut u,
            &WinMoveConfig {
                nodes,
                out_degree: 2.0,
                forward_bias: 0.5,
                seed: 17,
            },
        );
        let req = SolveRequest::new(&mut u, &db, &sigma, WfsOptions::unbounded());
        let _ = solve(req).model;
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| {
                let req = SolveRequest::new(&mut u, &db, &sigma, WfsOptions::unbounded());
                solve(req).model
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
