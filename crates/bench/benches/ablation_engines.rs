//! E7 — engine ablation: the same well-founded model computed by the
//! definitional `W_P` engine (accelerated and literal stepping), Van
//! Gelder's alternating fixpoint, and the forward-proof `Ŵ_P` engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{winmove_database, winmove_sigma, WinMoveConfig};
use wfdl_wfs::{solve, EngineKind, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_engines");
    group.sample_size(10);

    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let db = winmove_database(
        &mut u,
        &WinMoveConfig {
            nodes: 512,
            out_degree: 2.0,
            forward_bias: 0.5,
            seed: 3,
        },
    );
    let req = SolveRequest::new(&mut u, &db, &sigma, WfsOptions::unbounded());
    let _ = solve(req).model;

    for (name, engine) in [
        ("wp", EngineKind::Wp),
        ("wp_literal", EngineKind::WpLiteral),
        ("alternating", EngineKind::Alternating),
        ("forward", EngineKind::Forward),
    ] {
        group.bench_with_input(
            BenchmarkId::new("winmove512", name),
            &engine,
            |b, &engine| {
                b.iter(|| {
                    let req = SolveRequest::new(
                        &mut u,
                        &db,
                        &sigma,
                        WfsOptions::unbounded().with_engine(engine),
                    );
                    solve(req).model
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
