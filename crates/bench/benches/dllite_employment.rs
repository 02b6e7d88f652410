//! E6 — Example 2: DL-Lite employment ontology at scale (translation +
//! well-founded reasoning under UNA).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{employment_ontology, EmploymentConfig};
use wfdl_ontology::translate;
use wfdl_wfs::{solve, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dllite_employment");
    group.sample_size(10);
    for persons in [8usize, 32, 128] {
        let onto = employment_ontology(&EmploymentConfig {
            num_persons: persons,
            employed_fraction: 0.5,
            seed: 5,
        });
        let mut u = Universe::new();
        let tr = translate(&mut u, &onto).unwrap();
        let sigma = tr.program.clone().skolemize(&mut u).unwrap();
        let req = SolveRequest::new(&mut u, &tr.database, &sigma, WfsOptions::depth(5));
        let _ = solve(req).model;
        group.bench_with_input(BenchmarkId::from_parameter(persons), &persons, |b, _| {
            b.iter(|| {
                let req = SolveRequest::new(&mut u, &tr.database, &sigma, WfsOptions::depth(5));
                solve(req).model
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
