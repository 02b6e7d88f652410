//! Parallel modular solve: serial vs 2/4/8 worker threads, engine time
//! only (the ground program is built once per workload).
//!
//! Workloads, chosen to span the shapes the wavefront scheduler meets:
//!
//! * `winmove2048` — the win–move game on a 2048-node random graph with
//!   draw cycles: a deep condensation with recursive components scattered
//!   through it;
//! * `chain256` — the Example 4 chain workload at 256 seeds, depth 8:
//!   thousands of independent per-seed cones (the incremental bench's
//!   base workload);
//! * `fanout8192` — `wfdl_gen::fanout`'s 8192 independent shallow groups:
//!   tiny components in huge wavefronts, built specifically to expose
//!   scheduling overhead.
//!
//! A fourth leg, `parallel_chase`, times **saturation** rather than
//! evaluation: `ChaseSegment::build` over the chain-256 workload at the
//! same thread counts, with a fresh universe per sample (the chase
//! interns into its universe, and the sharded match phase is specified
//! to be bit-identical at every worker count — asserted before timing).
//!
//! Every thread count is asserted to produce the exact serial model
//! before anything is timed. Output mirrors the other benches:
//! human-readable medians on stdout, machine-readable
//! `BENCH_parallel.json` (override with `WFDL_BENCH_JSON`, sample count
//! with `WFDL_BENCH_SAMPLES`). The JSON records
//! `available_parallelism`: on a single-core host the multi-thread legs
//! only measure scheduler overhead — real scaling numbers come from the
//! multicore CI runner, where the bench job asserts `scaling > 1`.

use std::fmt::Write as _;
use std::time::Instant;
use wfdl_bench::timing::{fmt_ns, median, sample_count};
use wfdl_chase::{ChaseBudget, ChaseSegment};
use wfdl_core::Universe;
use wfdl_gen::{
    chain_database, example4_sigma, fanout_database, fanout_sigma, winmove_database, winmove_sigma,
    FanoutConfig, WinMoveConfig,
};
use wfdl_storage::GroundProgram;
use wfdl_wfs::{solve, ModularEngine, SolveRequest, WfsOptions};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn winmove_ground(nodes: usize) -> GroundProgram {
    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let db = winmove_database(
        &mut u,
        &WinMoveConfig {
            nodes,
            out_degree: 2.0,
            forward_bias: 0.8,
            seed: 3,
        },
    );
    let req = SolveRequest::new(&mut u, &db, &sigma, WfsOptions::unbounded());
    solve(req).model.ground
}

fn chain_ground(seeds: usize) -> GroundProgram {
    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, seeds);
    solve(SolveRequest::new(&mut u, &db, &sigma, WfsOptions::depth(8)))
        .model
        .ground
}

fn fanout_ground(groups: usize) -> GroundProgram {
    let mut u = Universe::new();
    let sigma = fanout_sigma(&mut u);
    let db = fanout_database(
        &mut u,
        &FanoutConfig {
            groups,
            recursive_fraction: 0.25,
            seed: 2013,
        },
    );
    let req = SolveRequest::new(&mut u, &db, &sigma, WfsOptions::unbounded());
    solve(req).model.ground
}

struct Leg {
    threads: usize,
    median_ns: u64,
    /// Serial median / this leg's median: the parallel speedup.
    scaling: f64,
}

struct Outcome {
    name: &'static str,
    atoms: usize,
    components: usize,
    wavefronts: usize,
    max_wavefront: usize,
    legs: Vec<Leg>,
}

fn run_workload(name: &'static str, ground: &GroundProgram, samples: usize) -> Outcome {
    // Correctness first: every thread count must reproduce the serial
    // model bit for bit before anything is timed.
    let serial = ModularEngine::new(ground).solve();
    let mut shape = (0usize, 0usize);
    for &t in &THREADS[1..] {
        let par = ModularEngine::new(ground).with_threads(t).solve();
        for &atom in ground.atoms() {
            assert_eq!(
                par.value(atom),
                serial.value(atom),
                "{name}: {t}-thread solve diverged on {atom:?}"
            );
        }
        let stats = par.stats.expect("modular stats");
        shape = (stats.wavefronts, stats.max_wavefront);
    }
    let stats = serial.stats.expect("modular stats");

    let mut legs = Vec::with_capacity(THREADS.len());
    let mut serial_median = 0u64;
    for &t in &THREADS {
        let engine = ModularEngine::new(ground).with_threads(t);
        let _ = engine.solve(); // untimed warm-up per thread count
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            let res = engine.solve();
            times.push(start.elapsed().as_nanos() as u64);
            std::hint::black_box(res);
        }
        let m = median(times);
        if t == 1 {
            serial_median = m;
        }
        let scaling = serial_median as f64 / m as f64;
        println!(
            "parallel_scaling/{name}/threads{t}: median {} — {scaling:.2}x vs serial ({samples} samples)",
            fmt_ns(m)
        );
        legs.push(Leg {
            threads: t,
            median_ns: m,
            scaling,
        });
    }
    Outcome {
        name,
        atoms: ground.num_atoms(),
        components: stats.components,
        wavefronts: shape.0,
        max_wavefront: shape.1,
        legs,
    }
}

struct ChaseOutcome {
    atoms: usize,
    instances: usize,
    legs: Vec<Leg>,
}

/// Times `ChaseSegment::build` (saturation only; universe/database
/// construction is untimed setup) over the chain-256 workload at every
/// thread count. Each sample gets a fresh universe — the deterministic
/// interning order is what makes the runs comparable, and is asserted
/// across thread counts before anything is timed.
fn run_chase_workload(samples: usize) -> ChaseOutcome {
    const SEEDS: usize = 256;
    const DEPTH: u32 = 8;
    let build = |threads: usize| -> (Universe, ChaseSegment) {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let db = chain_database(&mut u, SEEDS);
        let seg = ChaseSegment::build(
            &mut u,
            &db,
            &sigma,
            ChaseBudget::depth(DEPTH).with_threads(threads),
        );
        (u, seg)
    };

    let (u1, s1) = build(1);
    for &t in &THREADS[1..] {
        let (u2, s2) = build(t);
        assert_eq!(
            s2.atoms().len(),
            s1.atoms().len(),
            "parallel_chase: {t}-thread saturation changed the atom count"
        );
        for (a2, a1) in s2.atoms().iter().zip(s1.atoms()) {
            assert_eq!(
                (u2.display_atom(a2.atom).to_string(), a2.depth, a2.level),
                (u1.display_atom(a1.atom).to_string(), a1.depth, a1.level),
                "parallel_chase: {t}-thread saturation diverged"
            );
        }
        assert_eq!(
            s2.instance_ids().count(),
            s1.instance_ids().count(),
            "parallel_chase: {t}-thread saturation changed the instance count"
        );
    }

    let mut legs = Vec::with_capacity(THREADS.len());
    let mut serial_median = 0u64;
    for &t in &THREADS {
        let mut times = Vec::with_capacity(samples);
        // First iteration is an untimed warm-up per thread count.
        for i in 0..=samples {
            let mut u = Universe::new();
            let sigma = example4_sigma(&mut u);
            let db = chain_database(&mut u, SEEDS);
            let start = Instant::now();
            let seg = ChaseSegment::build(
                &mut u,
                &db,
                &sigma,
                ChaseBudget::depth(DEPTH).with_threads(t),
            );
            let elapsed = start.elapsed().as_nanos() as u64;
            std::hint::black_box(&seg);
            if i > 0 {
                times.push(elapsed);
            }
        }
        let m = median(times);
        if t == 1 {
            serial_median = m;
        }
        let scaling = serial_median as f64 / m as f64;
        println!(
            "parallel_scaling/parallel_chase/threads{t}: median {} — {scaling:.2}x vs serial ({samples} samples)",
            fmt_ns(m)
        );
        legs.push(Leg {
            threads: t,
            median_ns: m,
            scaling,
        });
    }
    ChaseOutcome {
        atoms: s1.atoms().len(),
        instances: s1.instance_ids().count(),
        legs,
    }
}

fn main() {
    let samples = sample_count();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("parallel_scaling: {cores} core(s) available, {samples} samples");

    let workloads = [
        ("winmove2048", winmove_ground(2048)),
        ("chain256", chain_ground(256)),
        ("fanout8192", fanout_ground(8192)),
    ];
    let outcomes: Vec<Outcome> = workloads
        .iter()
        .map(|(name, g)| run_workload(name, g, samples))
        .collect();
    let chase = run_chase_workload(samples);

    let best = outcomes
        .iter()
        .flat_map(|o| o.legs.iter())
        .chain(chase.legs.iter())
        .map(|l| l.scaling)
        .fold(0.0f64, f64::max);
    println!("parallel_scaling/best_scaling: {best:.2}x");

    let mut json = String::from("{\n");
    writeln!(json, "  \"samples\": {samples},").unwrap();
    writeln!(json, "  \"available_parallelism\": {cores},").unwrap();
    writeln!(json, "  \"best_scaling\": {best:.2},").unwrap();
    writeln!(
        json,
        "  \"chase_threads\": [{}],",
        THREADS.map(|t| t.to_string()).join(", ")
    )
    .unwrap();
    json.push_str("  \"chase\": {\n");
    writeln!(json, "    \"name\": \"parallel_chase\",").unwrap();
    writeln!(json, "    \"atoms\": {},", chase.atoms).unwrap();
    writeln!(json, "    \"instances\": {},", chase.instances).unwrap();
    json.push_str("    \"legs\": [\n");
    for (li, l) in chase.legs.iter().enumerate() {
        writeln!(
            json,
            "      {{\"threads\": {}, \"median_ns\": {}, \"scaling\": {:.2}}}{}",
            l.threads,
            l.median_ns,
            l.scaling,
            if li + 1 == chase.legs.len() { "" } else { "," }
        )
        .unwrap();
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"workloads\": [\n");
    for (wi, o) in outcomes.iter().enumerate() {
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": \"{}\",", o.name).unwrap();
        writeln!(json, "      \"atoms\": {},", o.atoms).unwrap();
        writeln!(json, "      \"components\": {},", o.components).unwrap();
        writeln!(json, "      \"wavefronts\": {},", o.wavefronts).unwrap();
        writeln!(json, "      \"max_wavefront\": {},", o.max_wavefront).unwrap();
        json.push_str("      \"legs\": [\n");
        for (li, l) in o.legs.iter().enumerate() {
            writeln!(
                json,
                "        {{\"threads\": {}, \"median_ns\": {}, \"scaling\": {:.2}}}{}",
                l.threads,
                l.median_ns,
                l.scaling,
                if li + 1 == o.legs.len() { "" } else { "," }
            )
            .unwrap();
        }
        json.push_str("      ]\n");
        writeln!(
            json,
            "    }}{}",
            if wi + 1 == outcomes.len() { "" } else { "," }
        )
        .unwrap();
    }
    json.push_str("  ]\n}\n");

    wfdl_bench::write_bench_json("BENCH_parallel.json", &json);
}
