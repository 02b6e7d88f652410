//! Incremental-vs-scratch agreement: `insert` + incremental `solve()`
//! must agree **bit for bit** — model, constraint statuses, prepared-query
//! answers — with a from-scratch `KnowledgeBase` built over the union of
//! base and delta facts.
//!
//! The workload is the win–move game (negation-recursive by nature) plus a
//! stratified layer and two constraints whose statuses range over all
//! three truth values. Random edge deltas routinely create new SCCs
//! (closing draw cycles) and touch components recursive through negation —
//! exactly the cases where verdict reuse must *not* fire stale.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdatalog::wfs::{solve, SolveOutput, SolveRequest, WellFoundedModel, WfsOptions};
use wfdatalog::{AtomId, FactBatch, KnowledgeBase, SolvedModel, Truth, Universe};
use wfdl_gen::{chain_database, example4_sigma};

const RULES: &str = r#"
    move(X,Y), not win(Y) -> win(X).
    move(X,Y) -> node(X).
    move(X,Y) -> node(Y).
    node(X), not win(X) -> losing(X).
    mark(n0). mark(n3).
    mark(X), win(X) -> false.
    mark(X), not win(X) -> false.
"#;

const QUERIES: [&str; 4] = [
    "?(X) win(X).",
    "?(X) losing(X).",
    "?- win(n0).",
    "?(X) node(X), not win(X).",
];

fn insert_edges(kb: &mut KnowledgeBase, edges: &[(usize, usize)]) -> usize {
    let mut batch = FactBatch::new();
    {
        let mut moves = batch.relation(kb.universe_mut(), "move", 2).unwrap();
        for &(a, b) in edges {
            let (sa, sb) = (format!("n{a}"), format!("n{b}"));
            moves.push(&[sa.as_str(), sb.as_str()]).unwrap();
        }
    }
    kb.insert(batch).unwrap()
}

/// Everything observable about a solved model, rendered order-independent.
fn observe(model: &SolvedModel) -> (String, String, Vec<Truth>, Vec<String>) {
    let mut unknown: Vec<String> = model
        .model()
        .unknown_atoms()
        .map(|a| model.universe().display_atom(a).to_string())
        .collect();
    unknown.sort();
    let answers = QUERIES
        .iter()
        .map(|q| {
            let pq = model.prepare(q).unwrap();
            if pq.is_boolean() {
                format!("{:?}", model.ask3_prepared(&pq))
            } else {
                let ans = model.answers_prepared(&pq);
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
            }
        })
        .collect();
    (
        model.render_true(),
        unknown.join("\n"),
        model.constraint_status().to_vec(),
        answers,
    )
}

/// Base + delta through the incremental path vs union from scratch.
fn check_agreement(edges: &[(usize, usize)], split: usize) -> Result<(), TestCaseError> {
    let split = split % (edges.len() + 1);
    let (base, delta) = edges.split_at(split);

    let mut incremental = KnowledgeBase::from_source(RULES).unwrap();
    insert_edges(&mut incremental, base);
    let first = incremental.solve();
    prop_assert!(!first.solve_stats().incremental, "first solve is full");
    let added = insert_edges(&mut incremental, delta);
    let second = incremental.solve();
    if added == 0 {
        // Duplicates of existing facts (or no delta at all) leave the
        // database untouched: a cache hit, not a re-solve.
        prop_assert!(!second.solve_stats().incremental);
    } else {
        prop_assert!(
            second.solve_stats().incremental,
            "insert-only delta must resume"
        );
    }

    let mut scratch = KnowledgeBase::from_source(RULES).unwrap();
    insert_edges(&mut scratch, edges);
    let reference = scratch.solve();
    prop_assert!(!reference.solve_stats().incremental);

    let (got, want) = (observe(&second), observe(&reference));
    prop_assert_eq!(&got.0, &want.0, "true atoms differ");
    prop_assert_eq!(&got.1, &want.1, "unknown atoms differ");
    prop_assert_eq!(&got.2, &want.2, "constraint statuses differ");
    prop_assert_eq!(&got.3, &want.3, "prepared-query answers differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 64 random win–move graphs with random base/delta splits.
    #[test]
    fn incremental_solve_agrees_with_scratch(
        edges in proptest::collection::vec((0..8usize, 0..8usize), 1..24),
        split in 0..64usize,
    ) {
        check_agreement(&edges, split)?;
    }
}

/// A delta that closes a draw cycle: previously-decided atoms turn
/// Unknown, and a brand-new SCC (the 2-cycle) appears in the dependency
/// graph.
#[test]
fn delta_creating_a_new_negative_scc() {
    check_agreement(&[(0, 1), (1, 0)], 1).unwrap();
}

/// A delta that gives an unknown draw node a winning escape: the touched
/// component is recursive through negation and must be re-evaluated, not
/// reused.
#[test]
fn delta_touching_a_negation_recursive_component() {
    // Base: 0 ⇄ 1 draw (both unknown). Delta: 1 → 2 (2 is a dead end, so
    // win(1) becomes true and win(0) false).
    check_agreement(&[(0, 1), (1, 0), (1, 2)], 2).unwrap();
}

/// Empty base: the "incremental" solve starts from an empty segment and
/// derives everything from the delta.
#[test]
fn delta_from_empty_base() {
    check_agreement(&[(0, 1), (1, 2), (2, 0), (3, 0)], 0).unwrap();
}

/// Empty delta: inserting nothing keeps the cached artifact valid.
#[test]
fn empty_delta_is_a_cache_hit() {
    let edges = [(0, 1), (1, 0), (2, 1)];
    check_agreement(&edges, edges.len()).unwrap();
}

/// The engine-level resume path on the Example 4 chain: resume the chase
/// with two more chain seeds, re-solve with memo reuse, and compare
/// against a from-scratch solve over the union.
#[test]
fn chain_resume_matches_scratch_solve() {
    // Renders everything observable about a model, name-keyed: chase
    // nulls intern in different orders on the resumed vs scratch paths,
    // so raw atom ids do not align across universes.
    fn observe(model: &WellFoundedModel, u: &Universe) -> (String, Vec<String>) {
        let mut unknown: Vec<String> = model
            .unknown_atoms()
            .map(|a| u.display_atom(a).to_string())
            .collect();
        unknown.sort();
        (model.render_true(u), unknown)
    }

    for seeds in [24usize, 64] {
        let mut u_ref = Universe::new();
        let sigma_ref = example4_sigma(&mut u_ref);
        let db_ref = chain_database(&mut u_ref, seeds + 2);
        let req = SolveRequest::new(&mut u_ref, &db_ref, &sigma_ref, WfsOptions::depth(6));
        let reference = solve(req).model;

        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let base = chain_database(&mut u, seeds);
        let options = WfsOptions::depth(6);
        let prev = solve(SolveRequest::new(&mut u, &base, &sigma, options)).model;

        // Delta: two more chain seeds, inserted as facts
        // (`chain_database` re-interns the shared prefix, so only the
        // fresh seeds' facts survive the filter).
        let delta_db = chain_database(&mut u, seeds + 2);
        let new_facts: Vec<AtomId> = delta_db
            .facts()
            .iter()
            .copied()
            .filter(|f| !base.contains(*f))
            .collect();
        assert_eq!(new_facts.len(), 4, "two fresh seeds = four facts");
        let req = SolveRequest::new(&mut u, &delta_db, &sigma, options).resume(&prev, &new_facts);
        let SolveOutput {
            model: inc, stats, ..
        } = solve(req);
        assert!(stats.incremental);
        assert!(
            stats.components_reused > 0,
            "independent chain seeds must be reused"
        );
        assert_eq!(
            inc.segment.atoms().len(),
            reference.segment.atoms().len(),
            "seeds {seeds}"
        );
        assert_eq!(
            observe(&inc, &u),
            observe(&reference, &u_ref),
            "seeds {seeds}"
        );
    }
}
