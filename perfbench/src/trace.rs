//! The traced run: replays the operations of the timed run through each
//! layer's public functions, records a span around every layer call, and
//! reports per-layer times and counters.
//!
//! The replay is hand-wired from the crates' public entry points, so it
//! is not byte-for-byte the `KnowledgeBase::solve` path. Two numbers keep
//! the gap visible: `facade.coverage` (replayed solve layers over the real
//! solve) and `trace.overhead_pct` (traced cold load over untraced).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wfdatalog::chase::ChaseSegment;
use wfdatalog::core::{SolveBudget, SolveOutcome, TruncationReason, Universe, UniverseSnapshot};
use wfdatalog::storage::{AtomIndex, GroundProgram};
use wfdatalog::wfs::{constraint_status, EngineResult, ModularEngine};
use wfdatalog::{
    fact_batch_from_separated, KnowledgeBase, PreparedQuery, SolvedModel, TruthSource,
    WellFoundedModel, WfsOptions,
};

use crate::gen::{self, Inputs, Rng};
use crate::http::Conn;
use crate::oracle::Oracle;
use crate::stats::{self, Span};
use crate::timed;
use crate::{Report, Spec, Tally};

/// In-memory span recorder; spans are written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Per span name, the median over operations of the self time the
    /// operation spent in spans of that name, in milliseconds.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut per_op: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(stats::self_times(&self.spans)) {
            *per_op.entry((s.name, s.op)).or_default() += t as f64 / 1e6;
        }
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ms) in per_op {
            by.entry(name).or_default().push(ms);
        }
        by.into_iter()
            .map(|(k, v)| (k, stats::median(&v)))
            .collect()
    }

    /// Durations of every span named `name`, in milliseconds.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as TSV (name, op, start ns, end ns, parent).
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\top\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.start, s.end, parent
            )?;
        }
        out.flush()
    }
}

/// Counters read off one replayed cold solve.
#[derive(Default)]
struct SolveShape {
    chase: Option<wfdatalog::chase::ChaseStats>,
    atoms: usize,
    instances: usize,
    rules: usize,
    body_literals: usize,
    modular: Option<wfdatalog::ModularStats>,
}

fn body_literals(g: &GroundProgram) -> usize {
    (0..g.num_rules())
        .map(|r| g.pos_local(r).len() + g.neg_local(r).len())
        .sum()
}

/// The outcome `KnowledgeBase::solve` would report for an untripped
/// solve over `segment`.
fn outcome_of(segment: &ChaseSegment, result: &EngineResult) -> SolveOutcome {
    match result.truncation {
        Some(r) => SolveOutcome::Truncated(r),
        None if segment.complete => SolveOutcome::Complete,
        None => SolveOutcome::Truncated(segment.truncation().unwrap_or(TruncationReason::DepthCap)),
    }
}

/// One replayed cold load: parse and lower, parse and insert the facts,
/// chase, ground, run the modular engine, evaluate the constraints, build
/// the certain-atom index and answer the source queries.
fn replay_cold(
    t: &mut Tracer,
    op: u64,
    inputs: &Inputs,
    options: WfsOptions,
) -> Result<SolveShape, String> {
    let root = t.begin("op.cold", None, op);
    let p = Some(root);
    let mut u = Universe::new();
    let (lowered, sigma, violations) = t.span("syntax.load", p, op, || {
        let lowered = wfdatalog::syntax::load(&mut u, &inputs.rules).map_err(|e| e.to_string())?;
        let (mut sigma, violations) =
            wfdatalog::wfs::lower_with_constraints(&mut u, &lowered.program)
                .map_err(|e| e.to_string())?;
        sigma.rules.extend(lowered.functional.iter().cloned());
        Ok::<_, String>((lowered, sigma, violations))
    })?;
    let batch = t.span("facade.tsv_parse", p, op, || {
        fact_batch_from_separated(&mut u, &inputs.facts_tsv).map_err(|e| e.to_string())
    })?;
    let mut db = lowered.database;
    t.span("facade.insert", p, op, || {
        for &a in batch.atoms() {
            db.insert(&u, a).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(())
    })?;
    let solve = t.begin("facade.solve_replay", p, op);
    let s = Some(solve);
    let budget = options.budget.with_threads(options.threads);
    let segment = t.span("chase.build", s, op, || {
        ChaseSegment::build_budgeted(&mut u, &db, &sigma, budget, &SolveBudget::unlimited())
    });
    let ground = t.span("ground.extract", s, op, || segment.to_ground_program());
    let result = t.span("wfs.engine", s, op, || {
        ModularEngine::new(&ground)
            .with_threads(options.threads)
            .with_budget(SolveBudget::unlimited())
            .solve_incremental(None)
    });
    let shape = SolveShape {
        chase: Some(segment.stats()),
        atoms: segment.atoms().len(),
        instances: segment.num_instances(),
        rules: ground.num_rules(),
        body_literals: body_literals(&ground),
        modular: result.stats,
    };
    let outcome = outcome_of(&segment, &result);
    let model = WellFoundedModel {
        exact: segment.complete,
        segment,
        ground,
        result,
        engine: options.engine,
        outcome,
    };
    t.span("wfs.constraint_status", s, op, || {
        constraint_status(&mut u, &model, &violations)
    });
    let (snapshot, index) = t.span("facade.index", s, op, || {
        let snapshot = UniverseSnapshot::from_arc(Arc::new(u));
        let index = AtomIndex::build(&snapshot, TruthSource::certain_atoms(&model));
        (snapshot, index)
    });
    t.end(solve);
    let answered = t.span("query.source_answers", p, op, || {
        lowered
            .queries
            .iter()
            .map(|q| {
                PreparedQuery::from_query(q.clone())
                    .answers_with(&snapshot, &model, &index)
                    .len()
            })
            .sum::<usize>()
    });
    t.end(root);
    std::hint::black_box(answered);
    Ok(shape)
}

/// Median of a list of millisecond samples, `0` when empty.
fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    oracle: &Oracle,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    report: &mut Report,
) {
    let mut t = Tracer::new();
    let options = match KnowledgeBase::from_source(&inputs.rules) {
        Ok(kb) => kb.effective_options(),
        Err(e) => {
            tally.attempted += 1;
            tally.fail(&format!("compile: {e}"));
            return;
        }
    };
    let began = Instant::now();
    let secs = budget.as_secs_f64();

    // --- Cold loads: replay, untraced load and real solve, interleaved.
    let mut untraced_ms = Vec::new();
    let (mut match_ms, mut merge_ms) = (Vec::new(), Vec::new());
    let mut solve_ms = Vec::new();
    let mut shape = SolveShape::default();
    let mut op = 0u64;
    while began.elapsed().as_secs_f64() < secs * 0.4 || op < 3 {
        tally.attempted += 1;
        match replay_cold(&mut t, op, inputs, options) {
            Ok(s) => {
                let cs = s.chase.unwrap_or_default();
                match_ms.push(cs.match_ns as f64 / 1e6);
                merge_ms.push(cs.merge_ns as f64 / 1e6);
                shape = s;
            }
            Err(e) => tally.fail(&format!("replayed cold load: {e}")),
        }
        op += 1;
        // The same load through the production path, untraced.
        tally.attempted += 1;
        let t0 = Instant::now();
        let loaded = timed::cold_load(inputs);
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match loaded {
            Ok((_, model, answers)) => {
                if !timed::check_load(&model, &answers, oracle) {
                    tally.fail("cold load verdicts differ from the reference engine");
                }
            }
            Err(e) => tally.fail(&format!("cold load: {e}")),
        }
        // The real `KnowledgeBase::solve` on the same input.
        tally.attempted += 1;
        match KnowledgeBase::from_source(&inputs.rules)
            .and_then(|mut kb| kb.insert_tsv(&inputs.facts_tsv).map(|_| kb))
        {
            Ok(mut kb) => {
                let t0 = Instant::now();
                let solved = kb.try_solve();
                solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = solved {
                    tally.fail(&format!("solve: {e}"));
                }
            }
            Err(e) => tally.fail(&format!("compile: {e}")),
        }
    }
    report.stamp("cold_replays", op);

    // --- Ingests: the writer thread's work, replayed.
    let Some((mut kb, mut model)) = solved_kb(inputs, tally) else {
        return;
    };
    let mut rng = Rng::new(seed ^ 0x7ACE);
    let mut ingest_inproc_ms = Vec::new();
    let mut ingest_solve_ms = Vec::new();
    let mut reuse = Vec::new();
    let mut k = 0usize;
    while began.elapsed().as_secs_f64() < secs * 0.6 || k < 3 {
        let body = gen::ingest_body(spec.shape, 1_000_000 + k, &mut rng);
        k += 1;
        tally.attempted += 1;
        match replay_ingest(&mut t, op, &mut kb, &model, &body, &mut reuse) {
            Ok((m, inproc, solve)) => {
                model = m;
                ingest_inproc_ms.push(inproc);
                ingest_solve_ms.push(solve);
            }
            Err(e) => tally.fail(&format!("replayed ingest: {e}")),
        }
        op += 1;
    }
    report.stamp("ingest_replays", k);

    // --- Sliced queries: slice, restricted chase.
    let sliced_keys = gen::sliced_keys(spec.shape);
    let mut slice_share = Vec::new();
    let mut n_sliced = 0;
    while began.elapsed().as_secs_f64() < secs * 0.7 || n_sliced < 3 {
        let key = &sliced_keys[rng.below(sliced_keys.len())];
        tally.attempted += 1;
        match replay_sliced(&mut t, op, &kb, &model, key, options) {
            Ok(share) => slice_share.push(share),
            Err(e) => tally.fail(&format!("replayed sliced query: {e}")),
        }
        op += 1;
        n_sliced += 1;
    }

    // --- Queries against the published model.
    let keys = gen::read_keys(spec.shape);
    let (mut prepare_us, mut eval_us, mut render_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2000 {
        let key = &keys[rng.below(keys.len())];
        tally.attempted += 1;
        let t0 = Instant::now();
        let q = t.span("query.prepare", None, op, || model.prepare(key));
        prepare_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let Ok(q) = q else {
            tally.fail(&format!("prepare {key}"));
            continue;
        };
        let t0 = Instant::now();
        let truth = t.span("query.eval", None, op, || model.ask3_prepared(&q));
        eval_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if oracle.truth.get(key).map(String::as_str) != Some(truth.to_string().as_str()) {
            tally.fail(&format!("{key} evaluated to {truth}"));
        }
        let t0 = Instant::now();
        let body = t.span("query.render", None, op, || {
            wfdatalog::serve::query_response_body(&model, &[key.as_str()])
        });
        render_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if body.is_err() {
            tally.fail(&format!("render {key}"));
        }
        op += 1;
    }

    // --- The serving tier: quiet round trips, then a churn phase.
    let serve_secs = (secs - began.elapsed().as_secs_f64()).max(2.0);
    let served = serve_replay(kb, spec, seed, oracle, serve_secs, tally);

    // --- Report.
    let selfs = t.self_ms();
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let solve_layers = [
        "chase.build",
        "ground.extract",
        "wfs.engine",
        "wfs.constraint_status",
        "facade.index",
    ];
    let real_solve = med(&solve_ms);
    report.metric("syntax.load_ms", get("syntax.load"), "ms");
    report.metric("facade.tsv_parse_ms", get("facade.tsv_parse"), "ms");
    report.metric("facade.insert_ms", get("facade.insert"), "ms");
    let load_s = (get("facade.tsv_parse") + get("facade.insert")) / 1e3;
    report.metric(
        "facade.facts_per_s",
        if load_s > 0.0 {
            inputs.num_facts as f64 / load_s
        } else {
            0.0
        },
        "1/s",
    );
    report.metric("facade.index_ms", get("facade.index"), "ms");
    report.metric("facade.solve_ms", real_solve, "ms");
    let covered: f64 = solve_layers.iter().map(|n| get(n)).sum();
    report.metric(
        "facade.coverage",
        if real_solve > 0.0 {
            covered / real_solve
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("facade.ingest_insert_ms", get("facade.ingest_insert"), "ms");
    report.metric("facade.ingest_solve_ms", med(&ingest_solve_ms), "ms");
    report.metric("chase.build_ms", get("chase.build"), "ms");
    let cs = shape.chase.unwrap_or_default();
    report.metric("chase.match_ms", med(&match_ms), "ms");
    report.metric("chase.merge_ms", med(&merge_ms), "ms");
    report.metric("chase.rounds", cs.rounds as f64, "count");
    report.metric("chase.parallel_rounds", cs.parallel_rounds as f64, "count");
    report.metric(
        "chase.effective_threads",
        cs.effective_threads as f64,
        "count",
    );
    report.metric("chase.atoms", shape.atoms as f64, "count");
    report.metric("chase.instances", shape.instances as f64, "count");
    report.metric("chase.resume_ms", get("chase.resume"), "ms");
    report.metric("chase.restricted_ms", get("chase.restricted"), "ms");
    report.metric("ground.extract_ms", get("ground.extract"), "ms");
    report.metric("ground.rules", shape.rules as f64, "count");
    report.metric("ground.body_literals", shape.body_literals as f64, "count");
    report.metric("ground.extend_ms", get("ground.extend"), "ms");
    report.metric("wfs.engine_ms", get("wfs.engine"), "ms");
    report.metric(
        "wfs.engine_incremental_ms",
        get("wfs.engine_incremental"),
        "ms",
    );
    let ms = shape.modular.unwrap_or_default();
    report.metric("wfs.components", ms.components as f64, "count");
    report.metric(
        "wfs.recursive_components",
        ms.recursive_components as f64,
        "count",
    );
    report.metric(
        "wfs.largest_component",
        ms.largest_component as f64,
        "count",
    );
    report.metric(
        "wfs.atoms_in_recursive",
        ms.atoms_in_recursive as f64,
        "count",
    );
    report.metric("wfs.unknown_atoms", ms.unknown_atoms as f64, "count");
    report.metric("wfs.reuse_ratio", med(&reuse), "ratio");
    report.metric("wfs.threads", ms.threads as f64, "count");
    report.metric("wfs.wavefronts", ms.wavefronts as f64, "count");
    report.metric("wfs.chunks", ms.chunks as f64, "count");
    report.metric("wfs.queued_chunks", ms.queued_chunks as f64, "count");
    report.metric(
        "wfs.constraint_status_ms",
        get("wfs.constraint_status"),
        "ms",
    );
    report.metric("analyze.slice_ms", get("analyze.slice"), "ms");
    report.metric("analyze.slice_share", med(&slice_share), "ratio");
    report.metric("analyze.lint_ms", get("analyze.lint"), "ms");
    let render = med(&render_us);
    report.metric("query.prepare_us", med(&prepare_us), "us");
    report.metric("query.eval_us", med(&eval_us), "us");
    report.metric("query.render_us", render, "us");
    if let Some(sv) = served {
        report.metric(
            "serve.http_self_us",
            (sv.quiet_rtt_us - render).max(0.0),
            "us",
        );
        report.metric(
            "serve.writer_wait_ms",
            (sv.ingest_ms - med(&ingest_inproc_ms)).max(0.0),
            "ms",
        );
        report.metric("serve.query_p50_us", sv.query_p50_us, "us");
        report.metric("serve.qps_at_slo", sv.qps_at_slo, "req/s");
        report.metric("serve.gen_lateness_ms", sv.max_lateness_ms, "ms");
        report.metric("serve.non200_query", sv.non200[0] as f64, "count");
        report.metric("serve.non200_ingest", sv.non200[1] as f64, "count");
        report.metric("serve.non200_sliced", sv.non200[2] as f64, "count");
    }
    let (tr, un) = (med(&t.durations_ms("op.cold")), med(&untraced_ms));
    report.metric(
        "trace.overhead_pct",
        if un > 0.0 {
            (tr - un) / un * 100.0
        } else {
            0.0
        },
        "%",
    );
    report.stamp("chase_threads", cs.threads);
    report.stamp("wfs_threads", ms.threads);
    report.stamp("spans", t.spans.len());
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path = std::path::Path::new(&dir).join(format!("perfbench-spans-{}-{seed}.tsv", spec.name));
    match t.write(&path) {
        Ok(()) => report.stamp("span_file", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// A compiled, loaded and solved knowledge base.
fn solved_kb(inputs: &Inputs, tally: &mut Tally) -> Option<(KnowledgeBase, Arc<SolvedModel>)> {
    tally.attempted += 1;
    let loaded = KnowledgeBase::from_source(&inputs.rules)
        .and_then(|mut kb| kb.insert_tsv(&inputs.facts_tsv).map(|_| kb))
        .and_then(|mut kb| kb.try_solve().map(|m| (kb, m)));
    match loaded {
        Ok(x) => Some(x),
        Err(e) => {
            tally.fail(&format!("load: {e}"));
            None
        }
    }
}

/// One ingest as the writer thread runs it — copy-on-write of the shared
/// universe, TSV parse, insert, incremental solve, lint — with the
/// incremental solve also replayed layer by layer on a copy of the
/// universe. Returns the new model, the in-process time of the writer's
/// work and the real solve time (ms).
fn replay_ingest(
    t: &mut Tracer,
    op: u64,
    kb: &mut KnowledgeBase,
    prev: &Arc<SolvedModel>,
    body: &str,
    reuse: &mut Vec<f64>,
) -> Result<(Arc<SolvedModel>, f64, f64), String> {
    let root = t.begin("op.ingest", None, op);
    let p = Some(root);
    let t0 = Instant::now();
    let cow = t.begin("facade.ingest_insert", p, op);
    // The published snapshot shares the universe: the first mutable
    // access copies it.
    kb.universe_mut();
    t.end(cow);
    let batch = t.span("facade.ingest_parse", p, op, || {
        fact_batch_from_separated(kb.universe_mut(), body).map_err(|e| e.to_string())
    })?;
    let delta: Vec<_> = batch.atoms().to_vec();
    let ins = t.begin("facade.ingest_insert", p, op);
    kb.insert(batch).map_err(|e| e.to_string())?;
    t.end(ins);
    let parse_insert = t0.elapsed().as_secs_f64() * 1e3;

    // Layer replay of the incremental solve, on a copy of the universe.
    let mut u = kb.universe().clone();
    let options = kb.effective_options();
    let pm = prev.model();
    let rep = t.begin("facade.ingest_replay", p, op);
    let r = Some(rep);
    let segment = t
        .span("chase.resume", r, op, || {
            pm.segment
                .resume_budgeted(&mut u, kb.sigma(), &delta, &SolveBudget::unlimited())
        })
        .map_err(|e| format!("resume refused: {e:?}"))?;
    let ground = t.span("ground.extend", r, op, || {
        segment.to_ground_program_from(&pm.ground)
    });
    let result = t.span("wfs.engine_incremental", r, op, || {
        ModularEngine::new(&ground)
            .with_threads(options.threads)
            .with_budget(SolveBudget::unlimited())
            .solve_incremental(Some((&pm.ground, &pm.result)))
    });
    if let Some(s) = result.stats {
        reuse.push(s.components_reused as f64 / s.components.max(1) as f64);
    }
    let outcome = outcome_of(&segment, &result);
    let replayed = WellFoundedModel {
        exact: segment.complete,
        segment,
        ground,
        result,
        engine: options.engine,
        outcome,
    };
    let snapshot = UniverseSnapshot::from_arc(Arc::new(u));
    t.span("facade.ingest_index", r, op, || {
        AtomIndex::build(&snapshot, TruthSource::certain_atoms(&replayed))
    });
    t.end(rep);

    // The writer's real work.
    let t1 = Instant::now();
    let model = t
        .span("facade.ingest_solve", p, op, || kb.try_solve())
        .map_err(|e| e.to_string())?;
    let solve = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    t.span("analyze.lint", p, op, || kb.analyze().to_json("<program>"));
    let lint = t2.elapsed().as_secs_f64() * 1e3;
    t.end(root);
    Ok((model, parse_insert + solve + lint, solve))
}

/// One sliced query's analysis and restricted chase, replayed; returns
/// the slice's share of the program's components.
fn replay_sliced(
    t: &mut Tracer,
    op: u64,
    kb: &KnowledgeBase,
    model: &Arc<SolvedModel>,
    key: &str,
    options: WfsOptions,
) -> Result<f64, String> {
    let root = t.begin("op.sliced", None, op);
    let p = Some(root);
    let slice = t.span("analyze.slice", p, op, || {
        let q = wfdatalog::syntax::prepare_query(kb.universe(), key).map_err(|e| e.to_string())?;
        Ok::<_, String>(wfdatalog::ProgramSlice::compute(
            kb.universe().num_preds(),
            kb.sigma(),
            &q.goal_preds(),
        ))
    })?;
    let mut u = t.span("facade.universe_copy", p, op, || kb.universe().clone());
    let segment = t.span("chase.restricted", p, op, || {
        ChaseSegment::build_restricted_budgeted(
            &mut u,
            kb.database(),
            kb.sigma(),
            options.budget.with_threads(options.threads),
            &SolveBudget::unlimited(),
            &slice.pred_mask,
        )
    });
    let ground = t.span("ground.extract_sliced", p, op, || {
        segment.to_ground_program()
    });
    t.span("wfs.engine_sliced", p, op, || {
        ModularEngine::new(&ground)
            .with_threads(options.threads)
            .with_budget(SolveBudget::unlimited())
            .solve_incremental(Some((&model.model().ground, &model.model().result)))
    });
    t.end(root);
    Ok(slice.components_in_slice as f64 / slice.components_total.max(1) as f64)
}

struct Served {
    quiet_rtt_us: f64,
    qps_at_slo: f64,
    query_p50_us: f64,
    ingest_ms: f64,
    max_lateness_ms: f64,
    non200: [u64; 3],
}

/// Serves the knowledge base: one second of quiet `/query` traffic for
/// the bare round trip, the `qps_at_slo` rate ladder on the quiet server,
/// then reads at the base rate beside the ingest stream, exactly as the
/// timed run drives them.
fn serve_replay(
    kb: KnowledgeBase,
    spec: &Spec,
    seed: u64,
    oracle: &Oracle,
    secs: f64,
    tally: &mut Tally,
) -> Option<Served> {
    let (server, addr) = match timed::start_server(kb, timed::nproc()) {
        Ok(x) => x,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(&e);
            return None;
        }
    };
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(&format!("connect: {e}"));
            server.shutdown();
            return None;
        }
    };
    let keys = gen::read_keys(spec.shape);
    let mut rng = Rng::new(seed ^ 0x5E4E);
    let mut read_non200 = 0u64;
    let quiet = timed::read_phase(
        &mut conn,
        timed::BASE_READ_RATE,
        1.0,
        &keys,
        oracle,
        &mut rng,
        tally,
        &mut read_non200,
    );
    let rtt: Vec<f64> = quiet.iter().map(|s| (s.done - s.sent) * 1e6).collect();
    let qps_at_slo =
        timed::rate_ladder(&mut conn, &keys, oracle, &mut rng, tally, &mut read_non200);
    let stop = AtomicBool::new(false);
    let (churn, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| timed::ingest_stream(addr, spec, seed, oracle, &stop));
        let churn = timed::read_phase(
            &mut conn,
            timed::BASE_READ_RATE,
            (secs - 1.0 - timed::LADDER_SECS).max(2.0),
            &keys,
            oracle,
            &mut rng,
            tally,
            &mut read_non200,
        );
        stop.store(true, Ordering::Relaxed);
        (churn, writer.join())
    });
    drop(conn);
    server.shutdown();
    let Ok((ingest_ms, _sliced_ms, non200, wtally)) = writer else {
        tally.attempted += 1;
        tally.fail("ingest thread panicked");
        return None;
    };
    tally.merge(wtally);
    Some(Served {
        quiet_rtt_us: med(&rtt),
        qps_at_slo,
        query_p50_us: stats::windowed_quantile(&churn, timed::QUERY_WINDOWS, 0.5) * 1e6,
        ingest_ms: med(&ingest_ms),
        max_lateness_ms: stats::summarize_open_loop(&churn).max_lateness * 1e3,
        non200: [read_non200, non200[0], non200[1]],
    })
}
