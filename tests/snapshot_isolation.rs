//! Copy-on-write isolation of published models: a `SolvedModel` keeps the
//! universe it was solved under, unchanged, however much the knowledge base
//! interns afterwards. Cloning a universe is a flat copy, so this pins the
//! contract that cheap clone carries.

// Test code: panicking on a broken invariant IS the failure signal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::KnowledgeBase;

const PROGRAM: &str = "
    edge(X, Y) -> reach(Y).
    edge(X, Y) -> link(X, Y, Z).
    ?(Y) reach(Y).
";

#[test]
fn earlier_model_is_unchanged_by_later_ingest_and_resolve() {
    let mut kb = KnowledgeBase::from_source(PROGRAM).unwrap();
    kb.insert_tsv("edge\ta\tb\nedge\tb\tc\n").unwrap();
    let before = kb.solve();
    let u = before.universe();
    let sizes = (u.symbols.len(), u.terms.len(), u.atoms.len());
    let answers = before.answers("?(Y) reach(Y).").unwrap();
    let rendered = before.render_true();

    // New constants, a new null per new edge, new atoms.
    kb.insert_tsv("edge\tc\tfresh_1\nedge\tfresh_1\tfresh_2\n")
        .unwrap();
    let after = kb.solve();

    let u = before.universe();
    assert_eq!((u.symbols.len(), u.terms.len(), u.atoms.len()), sizes);
    assert_eq!(u.lookup_constant("fresh_1"), None);
    assert_eq!(u.lookup_constant("fresh_2"), None);
    assert_eq!(before.answers("?(Y) reach(Y).").unwrap(), answers);
    assert_eq!(before.render_true(), rendered);
    assert!(before.ask("?- reach(c).").unwrap());
    assert!(!before.ask("?- reach(fresh_2).").unwrap());

    let v = after.universe();
    assert!(v.lookup_constant("fresh_1").is_some());
    assert!(v.lookup_constant("fresh_2").is_some());
    assert!(v.atoms.len() > sizes.2);
    assert!(after.ask("?- reach(fresh_2).").unwrap());
    assert_eq!(
        after.answers("?(Y) reach(Y).").unwrap().len(),
        answers.len() + 2
    );
}
