//! E4 — Theorem 13 combined complexity: random guarded programs with
//! growing maximum arity `w`. The paper's bounds are EXPTIME (bounded
//! arity) and 2-EXPTIME (unbounded); the measured cost blows up quickly
//! with `w` even at small scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{random_database, random_program, RandomConfig, RandomDbConfig};
use wfdl_wfs::{solve, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm13_combined");
    group.sample_size(10);
    for w in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("arity", w), &w, |b, &w| {
            b.iter(|| {
                let mut u = Universe::new();
                let workload = random_program(
                    &mut u,
                    &RandomConfig {
                        num_preds: 6,
                        max_arity: w,
                        num_rules: 14,
                        extra_pos: 1.0,
                        negation_prob: 0.4,
                        existential_prob: 0.2,
                        seed: 7,
                    },
                );
                let db = random_database(
                    &mut u,
                    &workload,
                    &RandomDbConfig {
                        num_constants: 6,
                        num_facts: 24,
                        seed: 11,
                    },
                );
                let req = SolveRequest::new(&mut u, &db, &workload.sigma, WfsOptions::depth(4));
                solve(req).model
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
