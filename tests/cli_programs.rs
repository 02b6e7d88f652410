//! The sample programs shipped in `programs/` keep their advertised
//! behaviour (these are the same files the `wfdl` CLI demonstrates).

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::{KnowledgeBase, Truth, WfsOptions};

fn load_program(name: &str) -> KnowledgeBase {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/programs/");
    let src = std::fs::read_to_string(format!("{path}{name}")).expect("program file exists");
    KnowledgeBase::from_source(&src).expect("program file parses")
}

#[test]
fn example4_program_file() {
    let mut kb = load_program("example4.dl").with_options(WfsOptions::depth(7));
    assert_eq!(kb.queries().len(), 3);
    let model = kb.solve();
    let expected = [Truth::True, Truth::False, Truth::True];
    assert_eq!(model.source_queries().len(), 3);
    for (q, want) in model.source_queries().iter().zip(expected) {
        assert_eq!(model.ask3_prepared(q), want, "query {q:?}");
    }
}

#[test]
fn employment_program_file() {
    let mut kb = load_program("employment.dl").with_options(WfsOptions::depth(6));
    let model = kb.solve();
    assert!(model.ask("?- validId(I).").unwrap());
    // b is the only unemployed person.
    let ans = model.answers("?(X) person(X), not employed(X).").unwrap();
    assert_eq!(ans.len(), 1);
    let b = model.universe().lookup_constant("b").unwrap();
    assert!(ans.contains(&[b]));
    // The valid ID is a's; b's job-seeker ID does not validate.
    assert!(model.ask("?- employeeId(a, I), validId(I).").unwrap());
    assert!(!model.ask("?- jobSeekerId(b, I), validId(I).").unwrap());
}

#[test]
fn win_move_program_file() {
    let mut kb = load_program("win_move.dl");
    let model = kb.solve();
    assert!(model.exact());
    // c is won (moves to terminal d), d is lost.
    assert_eq!(model.ask3("?- win(c).").unwrap(), Truth::True);
    assert_eq!(model.ask3("?- win(d).").unwrap(), Truth::False);
    // a and b sit on a draw cycle: undefined.
    assert_eq!(model.ask3("?- win(a).").unwrap(), Truth::Unknown);
    assert_eq!(model.ask3("?- win(b).").unwrap(), Truth::Unknown);
}
