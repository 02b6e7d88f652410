//! WCHECK properties: demand-driven membership agrees with the global
//! fixpoint, and certificates verify (and only genuine ones do).

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::wfs::{solve, wcheck, SolveRequest, WfsOptions};
use wfdatalog::Universe;
use wfdl_gen::{random_database, random_program, RandomConfig, RandomDbConfig};

#[test]
fn decide_agrees_with_global_solve_on_random_workloads() {
    for seed in 0..25u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 10,
                negation_prob: 0.5,
                existential_prob: 0.2,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed.wrapping_mul(31),
                ..Default::default()
            },
        );
        let req = SolveRequest::new(&mut u, &db, &w.sigma, WfsOptions::depth(4));
        let model = solve(req).model;
        for sa in model.segment.atoms() {
            assert_eq!(
                wcheck::decide(&model.ground, sa.atom),
                model.value(sa.atom),
                "seed {seed}, atom {}",
                u.display_atom(sa.atom)
            );
        }
    }
}

#[test]
fn every_true_atom_has_a_verifying_certificate() {
    for seed in 0..15u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed: seed.wrapping_add(1000),
                num_rules: 10,
                negation_prob: 0.5,
                existential_prob: 0.15,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0xC0FFEE,
                ..Default::default()
            },
        );
        let req = SolveRequest::new(&mut u, &db, &w.sigma, WfsOptions::depth(4));
        let model = solve(req).model;
        for atom in model.true_atoms().collect::<Vec<_>>() {
            let cert =
                wcheck::certify(&model.segment, &model.result.interp, atom).unwrap_or_else(|| {
                    panic!(
                        "seed {seed}: true atom {} lacks a certificate",
                        u.display_atom(atom)
                    )
                });
            assert!(
                wcheck::verify(&model.segment, &model.result.interp, &cert),
                "seed {seed}: certificate for {} failed verification",
                u.display_atom(atom)
            );
            assert_eq!(cert.path.last(), Some(&atom));
        }
    }
}

#[test]
fn every_false_atom_has_a_refutation() {
    for seed in 0..15u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed: seed.wrapping_add(2000),
                num_rules: 10,
                negation_prob: 0.6,
                existential_prob: 0.1,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0xBEEF,
                ..Default::default()
            },
        );
        let req = SolveRequest::new(&mut u, &db, &w.sigma, WfsOptions::depth(4));
        let model = solve(req).model;
        for sa in model.segment.atoms() {
            if !model.is_false(sa.atom) {
                continue;
            }
            let refutation = wcheck::refute(&model.segment, &model.result.interp, sa.atom)
                .unwrap_or_else(|| {
                    panic!(
                        "seed {seed}: false atom {} lacks a refutation",
                        u.display_atom(sa.atom)
                    )
                });
            // Either no rule derives it, or every deriving rule is blocked.
            assert!(
                refutation.no_derivation
                    || refutation.blocked.len() == model.segment.instances_with_head(sa.atom).len()
            );
        }
    }
}

#[test]
fn certificates_do_not_exist_for_non_true_atoms() {
    let mut u = Universe::new();
    let (db, sigma) = wfdatalog::chase::paper::example4(&mut u);
    let model = solve(SolveRequest::new(&mut u, &db, &sigma, WfsOptions::depth(5))).model;
    let s = u.lookup_pred("S").unwrap();
    let zero = u.lookup_constant("0").unwrap();
    let s0 = u.atoms.lookup(s, &[zero]).unwrap();
    assert!(model.is_false(s0));
    assert!(wcheck::certify(&model.segment, &model.result.interp, s0).is_none());
}

#[test]
fn cone_extraction_is_closed() {
    let mut u = Universe::new();
    let w = random_program(&mut u, &RandomConfig::default());
    let db = random_database(&mut u, &w, &RandomDbConfig::default());
    let req = SolveRequest::new(&mut u, &db, &w.sigma, WfsOptions::depth(4));
    let model = solve(req).model;
    for sa in model.segment.atoms().iter().take(10) {
        let cone = wcheck::dependency_cone(&model.ground, &[sa.atom]);
        // Dependency closure: every body atom of a cone rule has all *its*
        // deriving rules in the cone.
        for rule in cone.rules() {
            for &b in rule.pos.iter().chain(rule.neg.iter()) {
                assert_eq!(
                    cone.rules_with_head(b).len(),
                    model.ground.rules_with_head(b).len(),
                    "cone not closed under dependencies"
                );
            }
        }
    }
}
