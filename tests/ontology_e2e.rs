//! End-to-end DL-Lite reasoning at scale: the employment ontology of
//! Example 2 with many persons, plus disjointness constraints.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::ontology::{Basic, ConceptInclusion, ConceptLiteral, Ontology, Rhs, Role};
use wfdatalog::{KnowledgeBase, Truth, WfsOptions};
use wfdl_gen::{employment_ontology, EmploymentConfig};

#[test]
fn scaled_employment_invariants() {
    for n in [4usize, 16, 48] {
        let cfg = EmploymentConfig {
            num_persons: n,
            employed_fraction: 0.5,
            seed: 99,
        };
        let onto = employment_ontology(&cfg);
        let employed: Vec<String> = onto
            .abox
            .concept_assertions
            .iter()
            .filter(|(c, _)| c == "Employed")
            .map(|(_, i)| i.clone())
            .collect();
        let mut kb = KnowledgeBase::from_ontology(&onto)
            .unwrap()
            .with_options(WfsOptions::depth(5));
        let model = kb.solve();

        for i in 0..n {
            let person = format!("per{i}");
            let is_employed = employed.contains(&person);
            // Employed persons get an employee ID; the others a job-seeker
            // ID.
            let has_emp = model.ask(&format!("?- EmployeeID({person}, X).")).unwrap();
            let has_seek = model.ask(&format!("?- JobSeekerID({person}, X).")).unwrap();
            assert_eq!(has_emp, is_employed, "{person}");
            assert_eq!(has_seek, !is_employed, "{person}");
            // Every employee ID is valid (UNA separates the ID spaces).
            if is_employed {
                assert!(
                    model
                        .ask(&format!("?- EmployeeID({person}, X), ValidID(X)."))
                        .unwrap(),
                    "{person}'s ID should be valid"
                );
            }
        }
        // No job-seeker ID is ever valid.
        assert!(
            !model.ask("?- JobSeekerID(X, Y), ValidID(Y).").unwrap(),
            "job-seeker IDs must not validate"
        );
    }
}

#[test]
fn disjointness_constraint_detects_violation() {
    // Employed ⊓ Retired ⊑ ⊥, with a violating ABox.
    let mut onto = Ontology::default();
    onto.tbox.concepts.push(ConceptInclusion {
        lhs: vec![
            ConceptLiteral::pos(Basic::Atomic("Employed".into())),
            ConceptLiteral::pos(Basic::Atomic("Retired".into())),
        ],
        rhs: Rhs::Bottom,
    });
    onto.abox.concept("Employed", "zoe");
    onto.abox.concept("Retired", "zoe");
    let mut kb = KnowledgeBase::from_ontology(&onto).unwrap();
    let model = kb.solve();
    assert_eq!(model.constraint_status().to_vec(), vec![Truth::True]);

    // And a consistent ABox passes.
    let mut onto2 = Ontology::default();
    onto2.tbox.concepts.push(ConceptInclusion {
        lhs: vec![
            ConceptLiteral::pos(Basic::Atomic("Employed".into())),
            ConceptLiteral::pos(Basic::Atomic("Retired".into())),
        ],
        rhs: Rhs::Bottom,
    });
    onto2.abox.concept("Employed", "zoe");
    let mut kb2 = KnowledgeBase::from_ontology(&onto2).unwrap();
    let model2 = kb2.solve();
    assert_eq!(model2.constraint_status().to_vec(), vec![Truth::False]);
}

#[test]
fn role_hierarchy_propagates() {
    // worksFor ⊑ affiliatedWith; ∃affiliatedWith ⊑ Affiliated.
    let mut onto = Ontology::default();
    onto.tbox.roles.push(wfdatalog::ontology::RoleInclusion {
        sub: Role::Direct("worksFor".into()),
        sup: Role::Direct("affiliatedWith".into()),
    });
    onto.tbox.concepts.push(ConceptInclusion {
        lhs: vec![ConceptLiteral::pos(Basic::Exists(Role::Direct(
            "affiliatedWith".into(),
        )))],
        rhs: Rhs::Basic(Basic::Atomic("Affiliated".into())),
    });
    onto.abox.role("worksFor", "ada", "acme");
    let mut kb = KnowledgeBase::from_ontology(&onto).unwrap();
    let model = kb.solve();
    assert!(model.ask("?- affiliatedWith(ada, acme).").unwrap());
    assert!(model.ask("?- Affiliated(ada).").unwrap());
    assert!(!model.ask("?- Affiliated(acme).").unwrap());
}

#[test]
fn inverse_roles_fire_range_reasoning() {
    // ∃employs⁻ ⊑ Employee  (whoever is employed by someone is an employee)
    let mut onto = Ontology::default();
    onto.tbox.concepts.push(ConceptInclusion {
        lhs: vec![ConceptLiteral::pos(Basic::Exists(Role::Inverse(
            "employs".into(),
        )))],
        rhs: Rhs::Basic(Basic::Atomic("Employee".into())),
    });
    onto.abox.role("employs", "acme", "bob");
    let mut kb = KnowledgeBase::from_ontology(&onto).unwrap();
    let model = kb.solve();
    assert!(model.ask("?- Employee(bob).").unwrap());
    assert!(!model.ask("?- Employee(acme).").unwrap());
}

#[test]
fn default_negation_in_tbox_is_nonmonotonic() {
    // Person ⊓ not Minor ⊑ Adult; asserting Minor removes the inference.
    let mut onto = Ontology::default();
    onto.tbox.concepts.push(ConceptInclusion {
        lhs: vec![
            ConceptLiteral::pos(Basic::Atomic("Person".into())),
            ConceptLiteral::not(Basic::Atomic("Minor".into())),
        ],
        rhs: Rhs::Basic(Basic::Atomic("Adult".into())),
    });
    onto.abox.concept("Person", "sam");
    let mut kb = KnowledgeBase::from_ontology(&onto).unwrap();
    let model = kb.solve();
    assert!(model.ask("?- Adult(sam).").unwrap());

    let mut onto2 = onto.clone();
    onto2.abox.concept("Minor", "sam");
    let mut kb2 = KnowledgeBase::from_ontology(&onto2).unwrap();
    let model2 = kb2.solve();
    assert!(!model2.ask("?- Adult(sam).").unwrap());
}
