//! Differential tests for goal-directed (sliced) solving.
//!
//! The contract under test: a solve restricted to the relevance closure
//! of a query's goal predicates (`ProgramSlice` over the predicate
//! dependency graph, following positive **and** negative edges) assigns
//! every in-slice atom exactly the verdict the full solve assigns — same
//! atoms, same truth values, bit-for-bit — on every workload generator,
//! including under a depth budget. The façade tests add the caching,
//! memo-composition and out-of-slice-guard behaviour of
//! `KnowledgeBase::solve_for` / `SolvedModel::prepare_sliced`.

// Test code: panicking on a broken invariant IS the failure signal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use proptest::prelude::*;
use wfdatalog::storage::Database;
use wfdatalog::wfs::{solve, SolveRequest, WellFoundedModel};
use wfdatalog::{
    Error, FactBatch, KnowledgeBase, ProgramSlice, SkolemProgram, SolveBudget, Truth, Universe,
    WfsOptions,
};
use wfdl_gen::{
    chain_database, example4_sigma, fanout_database, fanout_sigma, random_database, random_program,
    random_stratified_program, winmove_cycle, winmove_database, winmove_path, winmove_sigma,
    FanoutConfig, RandomConfig, RandomDbConfig, WinMoveConfig,
};

/// Renders every in-slice atom of `model` with its verdict, sorted.
///
/// Comparison happens on rendered text, not `AtomId`s: the sliced chase
/// interns only its own nulls, so null *ids* can differ between the two
/// universes while the structural (skolem-term) atoms are identical.
fn verdicts_over(universe: &Universe, model: &WellFoundedModel, mask: &[bool]) -> Vec<String> {
    let mut out: Vec<String> = model
        .segment
        .atoms()
        .iter()
        .filter(|sa| mask[universe.atoms.pred(sa.atom).index()])
        .map(|sa| {
            format!(
                "{} = {}",
                universe.display_atom(sa.atom),
                model.value(sa.atom)
            )
        })
        .collect();
    out.sort();
    out
}

/// For every goal set: compute the slice, solve sliced from scratch, and
/// require verdict-for-verdict agreement with one full solve over the
/// in-slice predicates.
fn assert_slices_agree(
    universe: &Universe,
    db: &Database,
    sigma: &SkolemProgram,
    options: WfsOptions,
    goal_sets: &[Vec<wfdatalog::core::PredId>],
) {
    let mut u_full = universe.clone();
    let full = solve(SolveRequest::new(&mut u_full, db, sigma, options)).model;
    for goals in goal_sets {
        let slice = ProgramSlice::compute(universe.num_preds(), sigma, goals);
        let mut u_sliced = universe.clone();
        let out =
            solve(SolveRequest::new(&mut u_sliced, db, sigma, options).slice(&slice.pred_mask));
        assert!(out.stats.sliced);
        assert_eq!(
            verdicts_over(&u_full, &full, &slice.pred_mask),
            verdicts_over(&u_sliced, &out.model, &slice.pred_mask),
            "sliced verdicts diverge for goals {goals:?}"
        );
    }
}

/// Every distinct head predicate of the program, as singleton goal sets —
/// the exhaustive directed sweep for one workload.
fn head_goal_sets(sigma: &SkolemProgram) -> Vec<Vec<wfdatalog::core::PredId>> {
    let mut heads: Vec<_> = sigma.rules.iter().map(|r| r.head_pred).collect();
    heads.sort_unstable();
    heads.dedup();
    heads.into_iter().map(|p| vec![p]).collect()
}

#[test]
fn fanout_slices_agree_and_drop_the_unrelated_cone() {
    let mut u = Universe::new();
    let sigma = fanout_sigma(&mut u);
    let db = fanout_database(
        &mut u,
        &FanoutConfig {
            groups: 256,
            recursive_fraction: 0.5,
            seed: 7,
        },
    );
    assert_slices_agree(
        &u,
        &db,
        &sigma,
        WfsOptions::unbounded(),
        &head_goal_sets(&sigma),
    );

    // Structure check: the `out` cone excludes the recursive flip/flop
    // half (and vice versa) — the whole point of goal-direction here.
    let out = u.lookup_pred("out").unwrap();
    let flip = u.lookup_pred("flip").unwrap();
    let slice = ProgramSlice::compute(u.num_preds(), &sigma, &[out]);
    assert!(!slice.contains(flip));
    assert!(slice.components_in_slice < slice.components_total);
    let slice = ProgramSlice::compute(u.num_preds(), &sigma, &[flip]);
    assert!(!slice.contains(out));
}

#[test]
fn example4_chain_slices_agree_under_depth_budget() {
    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, 24);
    // Existential heads: the depth budget truncates, and the sliced solve
    // must truncate *identically* over in-slice predicates.
    for depth in [2, 4, 6] {
        assert_slices_agree(
            &u,
            &db,
            &sigma,
            WfsOptions::depth(depth),
            &head_goal_sets(&sigma),
        );
    }
}

#[test]
fn winmove_slices_agree() {
    for db_kind in 0..3 {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = match db_kind {
            0 => winmove_path(&mut u, 12),
            1 => winmove_cycle(&mut u, 9),
            _ => winmove_database(
                &mut u,
                &WinMoveConfig {
                    nodes: 40,
                    out_degree: 2.0,
                    forward_bias: 0.5,
                    seed: 11,
                },
            ),
        };
        let win = u.lookup_pred("win").unwrap();
        let mv = u.lookup_pred("move").unwrap();
        assert_slices_agree(
            &u,
            &db,
            &sigma,
            WfsOptions::unbounded(),
            &[vec![win], vec![mv], vec![win, mv]],
        );
    }
}

#[test]
fn random_programs_slices_agree() {
    for seed in 0..10u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0x5eed,
                ..Default::default()
            },
        );
        assert_slices_agree(
            &u,
            &db,
            &w.sigma,
            WfsOptions::depth(5),
            &head_goal_sets(&w.sigma),
        );
    }
}

#[test]
fn random_stratified_slices_agree() {
    for seed in 0..6u64 {
        let mut u = Universe::new();
        let w = random_stratified_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 12,
                ..Default::default()
            },
            3,
        );
        let db = random_database(&mut u, &w, &RandomDbConfig::default());
        assert_slices_agree(
            &u,
            &db,
            &w.sigma,
            WfsOptions::depth(5),
            &head_goal_sets(&w.sigma),
        );
    }
}

#[test]
fn half_recursive_fanout_slices_agree() {
    let mut u = Universe::new();
    let sigma = fanout_sigma(&mut u);
    let db = fanout_database(
        &mut u,
        &FanoutConfig {
            groups: 128,
            recursive_fraction: 0.5,
            seed: 3,
        },
    );
    let out = u.lookup_pred("out").unwrap();
    assert_slices_agree(&u, &db, &sigma, WfsOptions::unbounded(), &[vec![out]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random guarded programs with negation + existentials, random
    /// databases, every head predicate as a goal: sliced ≡ full.
    #[test]
    fn prop_sliced_agrees_on_random_workloads(
        seed in 0u64..500,
        db_seed in 0u64..500,
        negation_pct in 0u32..=100,
        existential_pct in 0u32..=50,
    ) {
        let negation_prob = f64::from(negation_pct) / 100.0;
        let existential_prob = f64::from(existential_pct) / 100.0;
        let mut u = Universe::new();
        let w = random_program(&mut u, &RandomConfig {
            seed,
            negation_prob,
            existential_prob,
            ..Default::default()
        });
        let db = random_database(&mut u, &w, &RandomDbConfig {
            seed: db_seed,
            ..Default::default()
        });
        assert_slices_agree(&u, &db, &w.sigma, WfsOptions::depth(4), &head_goal_sets(&w.sigma));
    }
}

// ======================================================================
// Façade: KnowledgeBase::solve_for / SolvedModel::prepare_sliced
// ======================================================================

const FACADE_RULES: &str = "
    edge(X,Y) -> covered(Y).
    covered(X) -> seen(X).
    node(X), not covered(X) -> isolated(X).
    pick(X), not flop(X) -> flip(X).
    pick(X), not flip(X) -> flop(X).
    edge(a,b). edge(b,c). node(a). node(b). node(c). node(d). pick(z).
";

#[test]
fn solve_for_matches_full_solve_answers() {
    let queries = [
        "?- covered(c).",
        "?(X) covered(X).",
        "?(X) seen(X).",
        "?(X) isolated(X).",
        "?- flip(z).",
        "?(X) flip(X).",
    ];
    for q in &queries {
        let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
        let full = kb.solve();
        let sliced = kb.solve_for(q).unwrap();
        assert!(sliced.solve_stats().sliced);
        let pf = full.prepare(q).unwrap();
        let ps = sliced.prepare_sliced(q).unwrap();
        assert_eq!(
            full.ask3_prepared(&pf),
            sliced.ask3_prepared(&ps),
            "three-valued verdicts diverge for {q}"
        );
        assert_eq!(
            full.answers_prepared(&pf),
            sliced.answers_prepared(&ps),
            "answer sets diverge for {q}"
        );
    }
}

#[test]
fn solve_for_composes_with_the_component_memo() {
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    // A prior full solve fills the per-component memo; the sliced solve
    // under the same options reuses untouched components.
    kb.solve();
    let sliced = kb.solve_for("?(X) covered(X).").unwrap();
    let stats = sliced.solve_stats();
    assert!(stats.sliced);
    assert!(
        stats.components_reused > 0,
        "slice components must fingerprint-match the full solve: {stats:?}"
    );
    assert!(stats.slice_components > 0);
    assert!(stats.slice_components < stats.total_components, "{stats:?}");
}

#[test]
fn out_of_slice_queries_error_instead_of_lying() {
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    let sliced = kb.solve_for("?- covered(c).").unwrap();
    assert!(sliced.is_sliced());
    // flip/flop are outside the covered-slice: the full model answers
    // Unknown, so a silent False here would be a lie — it must error.
    for q in [
        "?- flip(z).",
        "?(X) flip(X).",
        "?- covered(b), not flip(z).",
    ] {
        match sliced.prepare_sliced(q) {
            Err(Error::OutOfSlice(preds)) => assert!(preds.contains("flip"), "{preds}"),
            other => panic!("expected OutOfSlice for {q}, got {other:?}"),
        }
    }
    // `prepare` enforces the same guard (there is no unguarded door).
    assert!(matches!(
        sliced.prepare("?- flip(z)."),
        Err(Error::OutOfSlice(_))
    ));
    // Unknown names still short-circuit instead of erroring: that verdict
    // is slice-independent.
    assert!(!sliced.ask("?- covered(ghost).").unwrap());
    // The rebind path is guarded too: a query prepared against the full
    // model cannot smuggle an out-of-slice predicate in.
    let full = kb.solve();
    let foreign = full.prepare("?- flip(z).").unwrap();
    assert!(matches!(sliced.rebind(&foreign), Err(Error::OutOfSlice(_))));
}

#[test]
fn sliced_cache_serves_and_invalidates_on_generation() {
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    let first = kb.solve_for("?(X) covered(X).").unwrap();
    let again = kb.solve_for("?(X) covered(X).").unwrap();
    assert!(
        Arc::ptr_eq(&first, &again),
        "unchanged data + goals → cached"
    );
    // Same slice, different query text, same goal set → still cached.
    let same_goals = kb.solve_for("?(Y) covered(Y).").unwrap();
    assert!(Arc::ptr_eq(&first, &same_goals));

    // Mutation invalidates — even with an intervening *full* solve that
    // consumes the delta (the generation counter, not the delta, is the
    // staleness key).
    let mut batch = FactBatch::new();
    batch
        .relation(kb.universe_mut(), "edge", 2)
        .unwrap()
        .push(&["c", "d"])
        .unwrap();
    kb.insert(batch).unwrap();
    kb.solve();
    let after = kb.solve_for("?(X) covered(X).").unwrap();
    assert!(
        !Arc::ptr_eq(&first, &after),
        "insert must invalidate the sliced cache"
    );
    assert!(after.ask("?- covered(d).").unwrap());
    // The fresh sliced model agrees with the full model on the grown data.
    assert_eq!(
        kb.solve().answers("?(X) covered(X).").unwrap(),
        after.answers("?(X) covered(X).").unwrap()
    );
}

#[test]
fn constraints_outside_the_slice_read_unknown() {
    let mut kb = KnowledgeBase::from_source(
        "p(a). q(a).
         p(X), q(X) -> false.
         r(X) -> s(X).",
    )
    .unwrap();
    // Full solve: the constraint is violated.
    assert_eq!(kb.solve().constraint_status(), &[Truth::True]);
    // Sliced on the unrelated r/s cone: the violation rule never fired,
    // so its status is honestly Unknown, not a false all-clear.
    let sliced = kb.solve_for("?(X) s(X).").unwrap();
    assert_eq!(sliced.constraint_status(), &[Truth::Unknown]);
    // Sliced on a goal that pulls the constraint's inputs in: the lowered
    // violation predicate depends on p and q, so slicing on it reproduces
    // the full verdict.
    let model = kb.solve_for("?- p(a), q(a).").unwrap();
    assert!(model.ask("?- p(a), q(a).").unwrap());
}

#[test]
fn solve_for_leaves_the_full_solve_state_untouched() {
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    let full_before = kb.solve();
    // A sliced solve in between must not disturb the full-solve cache…
    let _ = kb.solve_for("?(X) covered(X).").unwrap();
    let full_after = kb.solve();
    assert!(Arc::ptr_eq(&full_before, &full_after));
    // …and an insert after sliced solving still takes the incremental path.
    let mut batch = FactBatch::new();
    batch
        .relation(kb.universe_mut(), "edge", 2)
        .unwrap()
        .push(&["c", "d"])
        .unwrap();
    kb.insert(batch).unwrap();
    let _ = kb.solve_for("?(X) covered(X).").unwrap();
    let resumed = kb.solve();
    assert!(resumed.solve_stats().incremental);
    assert!(resumed.ask("?- covered(d).").unwrap());
}

/// Full, budget-truncated, resumed and sliced solves in one sequence: a
/// resume-boundary trip, then a resumed recovery, then a sliced solve
/// whose memo comes from the resumed model. The sliced verdicts must match
/// a fresh full solve over base + delta.
#[test]
fn sliced_solve_after_tripped_and_resumed_solves_matches_fresh() {
    use wfdatalog::core::budget::{FaultKind, FaultPlan, FaultSite};
    const QUERY: &str = "?(X) covered(X).";
    fn in_slice_verdicts(kb: &KnowledgeBase, model: &wfdatalog::SolvedModel) -> Vec<String> {
        let goals = wfdatalog::syntax::prepare_query(kb.universe(), QUERY)
            .unwrap()
            .goal_preds();
        let slice = ProgramSlice::compute(kb.universe().num_preds(), kb.sigma(), &goals);
        verdicts_over(model.universe(), model.model(), &slice.pred_mask)
    }
    let mut fresh = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    fresh.insert_tsv("edge\tc\td\n").unwrap();
    let reference = fresh.solve();

    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    assert!(kb.solve().outcome().is_complete());
    kb.insert_tsv("edge\tc\td\n").unwrap();
    kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
        site: FaultSite::ResumeBoundary,
        kind: FaultKind::TripCancel,
    }));
    let truncated = kb.solve();
    assert_eq!(
        truncated.outcome().truncation(),
        Some(wfdatalog::TruncationReason::Cancelled),
        "the trip must truncate the resumed solve"
    );
    kb.set_solve_budget(SolveBudget::unlimited());
    let resumed = kb.solve();
    assert!(resumed.outcome().is_complete());
    assert!(resumed.solve_stats().incremental);

    let sliced = kb.solve_for(QUERY).unwrap();
    let stats = sliced.solve_stats();
    assert!(stats.sliced);
    assert!(
        stats.components_reused > 0,
        "the memo from the resumed model must be used: {stats:?}"
    );
    assert_eq!(
        in_slice_verdicts(&kb, &sliced),
        in_slice_verdicts(&fresh, &reference)
    );
}
