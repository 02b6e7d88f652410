//! NBCQ semantics over the paper's running example: certain answers,
//! null handling, and three-valued satisfaction.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::chase::paper::example4;
use wfdatalog::query::{answers, holds, holds3, Nbcq, QTerm, QVar, QueryAtom};
use wfdatalog::wfs::{solve, SolveRequest, WellFoundedModel, WfsOptions};
use wfdatalog::{Truth, Universe};

fn v(i: u32) -> QTerm {
    QTerm::Var(QVar::new(i))
}

fn setup() -> (Universe, WellFoundedModel) {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let model = solve(SolveRequest::new(&mut u, &db, &prog, WfsOptions::depth(6))).model;
    (u, model)
}

#[test]
fn positive_bcq() {
    let (u, model) = setup();
    let t = u.lookup_pred("T").unwrap();
    let q = Nbcq::boolean(&u, vec![QueryAtom::new(t, vec![v(0)])], vec![]).unwrap();
    assert!(holds(&u, &model, &q));
}

#[test]
fn nbcq_with_negation() {
    let (u, model) = setup();
    // ∃X,Y P(X,Y) ∧ ¬S(X): true (S(0) false, P(0,·) true).
    let p = u.lookup_pred("P").unwrap();
    let s = u.lookup_pred("S").unwrap();
    let q = Nbcq::boolean(
        &u,
        vec![QueryAtom::new(p, vec![v(0), v(1)])],
        vec![QueryAtom::new(s, vec![v(0)])],
    )
    .unwrap();
    assert!(holds(&u, &model, &q));
    // ∃X,Y P(X,Y) ∧ ¬T(X): false (T(0) true, every P starts with 0).
    let t = u.lookup_pred("T").unwrap();
    let q2 = Nbcq::boolean(
        &u,
        vec![QueryAtom::new(p, vec![v(0), v(1)])],
        vec![QueryAtom::new(t, vec![v(0)])],
    )
    .unwrap();
    assert!(!holds(&u, &model, &q2));
    assert_eq!(holds3(&u, &model, &q2), Truth::False);
}

#[test]
fn answers_are_constant_tuples_only() {
    let (u, model) = setup();
    // ?(Z) R(0,Y,Z): R(0,0,1) gives Z=1; deeper rows have null Z — filtered.
    let r = u.lookup_pred("R").unwrap();
    let zero = u.lookup_constant("0").unwrap();
    let q = Nbcq::new(
        &u,
        vec![QueryAtom::new(r, vec![QTerm::Const(zero), v(0), v(1)])],
        vec![],
        vec![QVar::new(1)],
    )
    .unwrap();
    let ans = answers(&u, &model, &q);
    let one = u.lookup_constant("1").unwrap();
    assert_eq!(ans.len(), 1);
    assert!(ans.contains(&[one]));
}

#[test]
fn existential_vars_may_bind_nulls() {
    let (u, model) = setup();
    // BCQ ∃Z R(0,1,Z): satisfied by the null row R(0,1,f(0,0,1)).
    let r = u.lookup_pred("R").unwrap();
    let zero = u.lookup_constant("0").unwrap();
    let one = u.lookup_constant("1").unwrap();
    let q = Nbcq::boolean(
        &u,
        vec![QueryAtom::new(
            r,
            vec![QTerm::Const(zero), QTerm::Const(one), v(0)],
        )],
        vec![],
    )
    .unwrap();
    assert!(holds(&u, &model, &q));
}

#[test]
fn repeated_variables_constrain_matches() {
    let (u, model) = setup();
    let r = u.lookup_pred("R").unwrap();
    // ∃X,Z R(X,X,Z): only R(0,0,1).
    let q = Nbcq::boolean(&u, vec![QueryAtom::new(r, vec![v(0), v(0), v(1)])], vec![]).unwrap();
    assert!(holds(&u, &model, &q));
    // ∃X R(X,X,X): none.
    let q2 = Nbcq::boolean(&u, vec![QueryAtom::new(r, vec![v(0), v(0), v(0)])], vec![]).unwrap();
    assert!(!holds(&u, &model, &q2));
}

#[test]
fn joins_across_atoms() {
    let (u, model) = setup();
    // ∃X,Y,Z R(X,Y,Z) ∧ P(X,Z): e.g. R(0,0,1) ∧ P(0,1).
    let r = u.lookup_pred("R").unwrap();
    let p = u.lookup_pred("P").unwrap();
    let q = Nbcq::boolean(
        &u,
        vec![
            QueryAtom::new(r, vec![v(0), v(1), v(2)]),
            QueryAtom::new(p, vec![v(0), v(2)]),
        ],
        vec![],
    )
    .unwrap();
    assert!(holds(&u, &model, &q));
}

#[test]
fn negation_of_never_materialized_atom_is_satisfied() {
    let (u, model) = setup();
    // ∃X,Y P(X,Y) ∧ ¬P(Y,X): P(0,0) is symmetric, but P(0,1) works since
    // P(1,0) never occurs in the chase.
    let p = u.lookup_pred("P").unwrap();
    let q = Nbcq::boolean(
        &u,
        vec![QueryAtom::new(p, vec![v(0), v(1)])],
        vec![QueryAtom::new(p, vec![v(1), v(0)])],
    )
    .unwrap();
    assert!(holds(&u, &model, &q));
}

#[test]
fn query_as_set_of_literals_counts() {
    let (u, _model) = setup();
    let p = u.lookup_pred("P").unwrap();
    let s = u.lookup_pred("S").unwrap();
    let q = Nbcq::boolean(
        &u,
        vec![QueryAtom::new(p, vec![v(0), v(1)])],
        vec![QueryAtom::new(s, vec![v(0)])],
    )
    .unwrap();
    assert_eq!(q.num_literals(), 2);
    assert!(q.is_boolean());
}
