//! E5 — Theorem 14: NBCQ answering over the well-founded model, scaling
//! the database (PTIME data complexity) and the number of query literals.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{chain_database, example4_sigma};
use wfdl_query::{answers, Nbcq, QTerm, QVar, QueryAtom};
use wfdl_wfs::{solve, SolveRequest, WfsOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm14_nbcq");
    group.sample_size(10);
    for seeds in [16usize, 64, 256] {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let db = chain_database(&mut u, seeds);
        let model = solve(SolveRequest::new(&mut u, &db, &sigma, WfsOptions::depth(6))).model;
        let p = u.lookup_pred("P").unwrap();
        let s = u.lookup_pred("S").unwrap();
        // ∃X,Y P(X,Y) ∧ ¬S(X)
        let q = Nbcq::boolean(
            &u,
            vec![QueryAtom::new(
                p,
                vec![QTerm::Var(QVar::new(0)), QTerm::Var(QVar::new(1))],
            )],
            vec![QueryAtom::new(s, vec![QTerm::Var(QVar::new(0))])],
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("db", db.len()), &seeds, |b, _| {
            b.iter(|| answers(&u, &model, &q));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
