//! Delta-aware re-solve: full recompute vs incremental solve after a 1%
//! fact delta on the Example 4 chain workload.
//!
//! The scenario the redesign targets: a knowledge base with a stable rule
//! set and a large, growing extensional database. Per sample we
//!
//! 1. load `SEEDS` chain seeds and solve (untimed warm model);
//! 2. insert a ~1% delta of fresh seeds through the **typed** path
//!    ([`wfdatalog::FactBatch`] / `RelationWriter` — no parser);
//! 3. time the **incremental** re-solve (a resumed `SolveRequest`: chase
//!    resumed from the previous frontier + per-component verdict reuse)
//!    against a **full** recompute over the union database.
//!
//! Both the engine-level comparison (`wfdl_wfs::solve` resumed vs full)
//! and the end-to-end façade comparison
//! (`KnowledgeBase::solve`, which additionally re-packages the snapshot
//! and indexes) are reported. Output mirrors the other benches:
//! human-readable medians on stdout, machine-readable
//! `BENCH_incremental.json` (override with `WFDL_BENCH_JSON`, sample
//! count with `WFDL_BENCH_SAMPLES`).

use std::fmt::Write as _;
use std::time::Instant;
use wfdatalog::{FactBatch, KnowledgeBase, Universe, WfsOptions};
use wfdl_bench::timing::{fmt_ns, median, sample_count};
use wfdl_gen::{chain_database, example4_sigma};

const SEEDS: usize = 256;
const DEPTH: u32 = 8;

/// Example 4's Σ as surface text, for the façade leg (the engine leg uses
/// the typed `example4_sigma` on a raw universe).
const RULES: &str = r#"
    R(X,Y,Z) -> R(X,Z,f(X,Y,Z)).
    R(X,Y,Z), P(X,Y), not Q(Z) -> P(X,Z).
    R(X,Y,Z), not P(X,Y) -> Q(Z).
    R(X,Y,Z), not P(X,Z) -> S(X).
    P(X,Y), not S(X) -> T(X).
"#;

fn delta_count() -> usize {
    (SEEDS / 100).max(1)
}

/// Seed facts `{R(cᵢ,cᵢ,dᵢ), P(cᵢ,cᵢ)}` for `range`, via the typed path.
fn seed_batch(universe: &mut Universe, range: std::ops::Range<usize>) -> FactBatch {
    let mut batch = FactBatch::new();
    {
        let mut r = batch.relation(universe, "R", 3).expect("R/3");
        for i in range.clone() {
            let (c, d) = (format!("c{i}"), format!("d{i}"));
            r.push(&[c.as_str(), c.as_str(), d.as_str()]).expect("row");
        }
    }
    {
        let mut p = batch.relation(universe, "P", 2).expect("P/2");
        for i in range {
            let c = format!("c{i}");
            p.push(&[c.as_str(), c.as_str()]).expect("row");
        }
    }
    batch
}

struct EngineLeg {
    full_ns: Vec<u64>,
    inc_ns: Vec<u64>,
    components_reused: usize,
    components: usize,
}

/// Engine-level comparison on a raw universe (typed sigma, no parsing).
fn run_engine_leg(samples: usize) -> EngineLeg {
    let options = WfsOptions::depth(DEPTH);
    let delta_n = delta_count();
    let mut full_ns = Vec::with_capacity(samples);
    let mut inc_ns = Vec::with_capacity(samples);
    let mut components_reused = 0;
    let mut components = 0;
    for sample in 0..samples {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let base = chain_database(&mut u, SEEDS);
        let req = wfdatalog::wfs::SolveRequest::new(&mut u, &base, &sigma, options);
        let prev = wfdatalog::wfs::solve(req).model;

        let delta = seed_batch(&mut u, SEEDS..SEEDS + delta_n);
        let mut union_db = base.clone();
        for &f in delta.atoms() {
            union_db.insert(&u, f).expect("delta fact is ground");
        }

        let start = Instant::now();
        let req = wfdatalog::wfs::SolveRequest::new(&mut u, &union_db, &sigma, options);
        let wfdatalog::wfs::SolveOutput {
            model: inc_model,
            stats,
            ..
        } = wfdatalog::wfs::solve(req.resume(&prev, delta.atoms()));
        inc_ns.push(start.elapsed().as_nanos() as u64);
        assert!(stats.incremental);
        assert!(
            stats.components_reused > 0,
            "chain seeds are independent: untouched components must be reused"
        );
        components_reused = stats.components_reused;

        let start = Instant::now();
        let req = wfdatalog::wfs::SolveRequest::new(&mut u, &union_db, &sigma, options);
        let full_model = wfdatalog::wfs::solve(req).model;
        full_ns.push(start.elapsed().as_nanos() as u64);
        components = full_model.component_stats().map_or(0, |s| s.components);

        if sample == 0 {
            assert_eq!(
                full_model.counts(),
                inc_model.counts(),
                "incremental and full models must agree"
            );
        }
    }
    EngineLeg {
        full_ns,
        inc_ns,
        components_reused,
        components,
    }
}

/// End-to-end façade comparison: `KnowledgeBase::solve` after `insert`
/// (includes snapshot + index re-packaging) vs a fresh build-and-solve.
fn run_facade_leg(samples: usize) -> (Vec<u64>, Vec<u64>) {
    let delta_n = delta_count();
    let mut full_ns = Vec::with_capacity(samples);
    let mut inc_ns = Vec::with_capacity(samples);
    for sample in 0..samples {
        let mut kb = KnowledgeBase::from_source(RULES)
            .expect("rules compile")
            .with_depth(DEPTH);
        let base = seed_batch(kb.universe_mut(), 0..SEEDS);
        kb.insert(base).expect("base loads");
        let first = kb.solve();
        let delta = seed_batch(kb.universe_mut(), SEEDS..SEEDS + delta_n);
        kb.insert(delta).expect("delta loads");
        let start = Instant::now();
        let second = kb.solve();
        inc_ns.push(start.elapsed().as_nanos() as u64);
        assert!(second.solve_stats().incremental);
        drop(first);

        let mut kb_full = KnowledgeBase::from_source(RULES)
            .expect("rules compile")
            .with_depth(DEPTH);
        let all = seed_batch(kb_full.universe_mut(), 0..SEEDS + delta_n);
        kb_full.insert(all).expect("union loads");
        let start = Instant::now();
        let reference = kb_full.solve();
        full_ns.push(start.elapsed().as_nanos() as u64);
        if sample == 0 {
            assert_eq!(
                reference.render_true(),
                second.render_true(),
                "façade incremental model must agree with scratch"
            );
        }
    }
    (full_ns, inc_ns)
}

fn main() {
    let samples = sample_count();
    let delta_n = delta_count();

    let engine = run_engine_leg(samples);
    let (facade_full, facade_inc) = run_facade_leg(samples);

    let full_m = median(engine.full_ns);
    let inc_m = median(engine.inc_ns);
    let speedup = full_m as f64 / inc_m as f64;
    let f_full_m = median(facade_full);
    let f_inc_m = median(facade_inc);
    let f_speedup = f_full_m as f64 / f_inc_m as f64;

    println!(
        "incremental_update/chain{SEEDS}_depth{DEPTH}/full_solve: median {} ({samples} samples)",
        fmt_ns(full_m)
    );
    println!(
        "incremental_update/chain{SEEDS}_depth{DEPTH}/incremental_solve: median {} — {speedup:.1}x vs full ({} of {} components reused)",
        fmt_ns(inc_m),
        engine.components_reused,
        engine.components
    );
    println!(
        "incremental_update/facade/full: median {} — fresh KnowledgeBase, load + solve",
        fmt_ns(f_full_m)
    );
    println!(
        "incremental_update/facade/incremental: median {} — {f_speedup:.1}x vs full (incl. snapshot repackaging)",
        fmt_ns(f_inc_m)
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"samples\": {samples},").unwrap();
    writeln!(json, "  \"workload\": \"chain{SEEDS}_depth{DEPTH}\",").unwrap();
    writeln!(json, "  \"base_facts\": {},", SEEDS * 2).unwrap();
    writeln!(json, "  \"delta_facts\": {},", delta_n * 2).unwrap();
    writeln!(json, "  \"full_solve_ns\": {full_m},").unwrap();
    writeln!(json, "  \"incremental_solve_ns\": {inc_m},").unwrap();
    writeln!(json, "  \"incremental_speedup\": {speedup:.2},").unwrap();
    writeln!(json, "  \"components_total\": {},", engine.components).unwrap();
    writeln!(
        json,
        "  \"components_reused\": {},",
        engine.components_reused
    )
    .unwrap();
    writeln!(json, "  \"facade_full_ns\": {f_full_m},").unwrap();
    writeln!(json, "  \"facade_incremental_ns\": {f_inc_m},").unwrap();
    writeln!(json, "  \"facade_speedup\": {f_speedup:.2}").unwrap();
    json.push_str("}\n");

    wfdl_bench::write_bench_json("BENCH_incremental.json", &json);
}
