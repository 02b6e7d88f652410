//! Deterministic fault-injection matrix for the solve pipeline.
//!
//! Every injection point (chase round boundary, chase merge phase, WFS
//! component ordinal, incremental resume boundary) is driven with every
//! fault kind (simulated deadline / memory / cancellation trips, and a
//! hard panic). The contract under test:
//!
//! * a **trip** yields a usable truncated model — `SolveOutcome` reports
//!   the exact reason, queries still answer, and every verdict is a sound
//!   under-approximation of the uninterrupted model (certain answers stay
//!   certain, nothing flips);
//! * a **panic** is converted into `Error::EnginePanic` at the engine
//!   boundary — no poisoned state escapes;
//! * in both cases the `KnowledgeBase` stays reusable: clearing the budget
//!   and re-solving is **bit-identical** to a fresh, uninterrupted solve.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::{KnowledgeBase, SolveBudget, SolvedModel, TruncationReason, WfsOptions};
use wfdl_core::budget::{FaultKind, FaultPlan, FaultSite};

/// Multi-round chase (guarded reachability closure over a chain) feeding a
/// negation-recursive win–move core, so both pipeline phases have real
/// work at every site.
const SRC: &str = r#"
    e(n0,n1). e(n1,n2). e(n2,n3). e(n3,n4).
    move(n0,n1). move(n1,n2). move(n2,n0). move(n3,n4).
    start(n0).
    start(X) -> reach(X).
    reach(X), e(X,Y) -> reach(Y).
    move(X,Y), not win(Y) -> win(X).
    reach(X), not win(X) -> safe(X).
    ?(X) win(X).
    ?(X) safe(X).
"#;

/// Delta used by the resume-boundary sites.
const DELTA: &str = "e\tn4\tn5\nmove\tn4\tn5\n";

const TRIP_KINDS: [(FaultKind, TruncationReason); 3] = [
    (FaultKind::TripDeadline, TruncationReason::Deadline),
    (FaultKind::TripMem, TruncationReason::MemBudget),
    (FaultKind::TripCancel, TruncationReason::Cancelled),
];

fn sites() -> Vec<FaultSite> {
    vec![
        FaultSite::ChaseRound(0),
        FaultSite::ChaseRound(1),
        FaultSite::ChaseMerge(1),
        FaultSite::WfsComponent(0),
        FaultSite::WfsComponent(3),
    ]
}

fn kb(with_delta: bool) -> KnowledgeBase {
    let mut kb = KnowledgeBase::from_source(SRC).expect("source parses");
    if with_delta {
        kb.insert_tsv(DELTA).expect("delta loads");
    }
    kb
}

/// Order-independent rendering of everything observable about a model.
fn observe(model: &SolvedModel) -> (String, String, Vec<String>) {
    let mut unknown: Vec<String> = model
        .model()
        .unknown_atoms()
        .map(|a| model.universe().display_atom(a).to_string())
        .collect();
    unknown.sort();
    let answers = model
        .source_queries()
        .iter()
        .map(|q| {
            let ans = model.answers_prepared(q);
            let mut tuples: Vec<String> = ans
                .tuples()
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|&x| model.universe().display_term(x).to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            tuples.sort();
            tuples.join(";")
        })
        .collect();
    (model.render_true(), unknown.join("\n"), answers)
}

fn true_lines(model: &SolvedModel) -> std::collections::BTreeSet<String> {
    model.render_true().lines().map(|l| l.to_string()).collect()
}

/// The uninterrupted reference for a given fact set.
fn reference(with_delta: bool) -> (String, String, Vec<String>) {
    let model = kb(with_delta)
        .with_options(WfsOptions::unbounded())
        .try_solve()
        .unwrap();
    assert!(model.outcome().is_complete(), "reference must be complete");
    observe(&model)
}

/// Trip kinds: truncated-but-usable model, then bit-identical recovery.
#[test]
fn every_trip_site_degrades_soundly_and_recovers() {
    let reference_obs = reference(false);
    let reference_true: std::collections::BTreeSet<String> =
        reference_obs.0.lines().map(|l| l.to_string()).collect();
    for site in sites() {
        for (kind, reason) in TRIP_KINDS {
            let label = format!("{site:?}/{kind:?}");
            let mut kb = kb(false).with_options(WfsOptions::unbounded());
            kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan { site, kind }));
            let truncated = kb
                .try_solve()
                .unwrap_or_else(|e| panic!("{label}: trip must not error: {e}"));
            assert_eq!(
                truncated.outcome().truncation(),
                Some(reason),
                "{label}: outcome must carry the injected reason"
            );
            assert!(truncated.under_approximate(), "{label}");
            // Soundness: every certain atom of the truncated model is
            // certain in the uninterrupted model.
            for line in true_lines(&truncated) {
                assert!(
                    reference_true.contains(&line),
                    "{label}: {line} is certain only under truncation"
                );
            }
            // Queries still answer (and stay sound).
            let q = truncated.prepare("?(X) win(X).").unwrap();
            let _ = truncated.answers_prepared(&q);
            // Recovery: clearing the budget re-solves bit-identically.
            kb.set_solve_budget(SolveBudget::unlimited());
            let recovered = kb
                .try_solve()
                .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            assert!(recovered.outcome().is_complete(), "{label}");
            assert_eq!(
                observe(&recovered),
                reference_obs,
                "{label}: recovery must be bit-identical to a fresh solve"
            );
        }
    }
}

/// Panic kind: `Error::EnginePanic` at the boundary, KB stays reusable.
#[test]
fn every_panic_site_is_contained_and_recoverable() {
    let reference_obs = reference(false);
    for site in sites() {
        let label = format!("{site:?}/Panic");
        let mut kb = kb(false).with_options(WfsOptions::unbounded());
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site,
            kind: FaultKind::Panic,
        }));
        match kb.try_solve() {
            Err(wfdatalog::Error::EnginePanic(msg)) => {
                assert!(msg.contains("injected fault"), "{label}: {msg}");
            }
            Err(other) => panic!("{label}: wrong error: {other}"),
            Ok(_) => panic!("{label}: panic must not produce a model"),
        }
        kb.set_solve_budget(SolveBudget::unlimited());
        let recovered = kb
            .try_solve()
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        assert!(recovered.outcome().is_complete(), "{label}");
        assert_eq!(
            observe(&recovered),
            reference_obs,
            "{label}: recovery must be bit-identical to a fresh solve"
        );
    }
}

/// Resume-boundary sites: cancel (or panic) in the middle of an
/// incremental re-solve must leave memo and fingerprints uncorrupted —
/// the recovered solve is bit-identical to a fresh KB over the union.
#[test]
fn resume_boundary_faults_leave_incremental_state_clean() {
    let union_obs = reference(true);
    for (kind, reason) in TRIP_KINDS {
        let label = format!("ResumeBoundary/{kind:?}");
        let mut kb = kb(false).with_options(WfsOptions::unbounded());
        let base = kb.try_solve().unwrap();
        assert!(base.outcome().is_complete());
        kb.insert_tsv(DELTA).unwrap();
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ResumeBoundary,
            kind,
        }));
        let truncated = kb
            .try_solve()
            .unwrap_or_else(|e| panic!("{label}: trip must not error: {e}"));
        assert_eq!(truncated.outcome().truncation(), Some(reason), "{label}");
        kb.set_solve_budget(SolveBudget::unlimited());
        let recovered = kb.try_solve().unwrap();
        assert!(recovered.outcome().is_complete(), "{label}");
        assert_eq!(
            observe(&recovered),
            union_obs,
            "{label}: post-trip incremental state must not be corrupted"
        );
    }
    // Panic during the resume: delta is restored, next solve re-chases
    // from scratch and still lands on the union model bit-for-bit.
    let label = "ResumeBoundary/Panic";
    let mut kb = kb(false).with_options(WfsOptions::unbounded());
    kb.try_solve().unwrap();
    kb.insert_tsv(DELTA).unwrap();
    kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
        site: FaultSite::ResumeBoundary,
        kind: FaultKind::Panic,
    }));
    match kb.try_solve() {
        Err(wfdatalog::Error::EnginePanic(_)) => {}
        Err(other) => panic!("{label}: wrong error: {other}"),
        Ok(_) => panic!("{label}: panic must not produce a model"),
    }
    kb.set_solve_budget(SolveBudget::unlimited());
    let recovered = kb.try_solve().unwrap();
    assert!(recovered.outcome().is_complete(), "{label}");
    assert_eq!(observe(&recovered), union_obs, "{label}");
}

/// A structural-cap truncation (`max_atoms`) is not resumable; the next
/// incremental solve must fall back to a full re-chase instead of
/// panicking (regression for the old `resume_with` cap panic).
#[test]
fn cap_truncated_segment_falls_back_to_full_rechase() {
    // Tiny atom cap: the chase peters out mid-way with `AtomCap`.
    let opts = WfsOptions::unbounded();
    let mut capped = opts;
    capped.budget = capped.budget.with_max_atoms(4);
    let mut kb = kb(false).with_options(capped);
    let first = kb.try_solve().unwrap();
    assert_eq!(
        first.outcome().truncation(),
        Some(TruncationReason::AtomCap),
        "the cap must actually bite for this regression to mean anything"
    );
    kb.insert_tsv(DELTA).unwrap();
    // The capped segment cannot be resumed; the solver must silently fall
    // back to a full re-chase of base + delta under the same cap.
    let second = kb.try_solve().unwrap();
    let q = second.prepare("?(X) win(X).").unwrap();
    let _ = second.answers_prepared(&q);
    // And with the cap lifted the same KB reaches the uncapped union model.
    let mut kb = kb.with_options(opts);
    let full = kb.try_solve().unwrap();
    assert!(full.outcome().is_complete());
    assert_eq!(observe(&full), reference(true));
}
