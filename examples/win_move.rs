//! Win–move under the well-founded semantics: three-valued game solving.
//!
//! `win(X) ← move(X,Y), ¬win(Y)` — true = won, false = lost, undefined =
//! drawn (both players can avoid losing forever). The WFS finds all three
//! classes in one fixpoint; no stratification exists for this program.
//!
//! ```text
//! cargo run --example win_move [nodes]
//! ```

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::wfs::{solve, SolveRequest, WfsOptions};
use wfdatalog::{Truth, Universe};
use wfdl_gen::{winmove_database, winmove_sigma, WinMoveConfig};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);

    let mut universe = Universe::new();
    let sigma = winmove_sigma(&mut universe);
    let cfg = WinMoveConfig {
        nodes,
        out_degree: 2.2,
        forward_bias: 0.35,
        seed: 2013,
    };
    let db = winmove_database(&mut universe, &cfg);
    println!("game graph: {} positions, {} moves", nodes, db.len());

    let req = SolveRequest::new(&mut universe, &db, &sigma, WfsOptions::unbounded());
    let model = solve(req).model;
    assert!(model.exact, "win-move chase always terminates");

    let win = universe.lookup_pred("win").unwrap();
    let mut won = Vec::new();
    let mut lost = Vec::new();
    let mut drawn = Vec::new();
    for i in 0..nodes {
        let n = universe.lookup_constant(&format!("n{i}")).unwrap();
        let value = universe
            .atoms
            .lookup(win, &[n])
            .map(|a| model.value(a))
            .unwrap_or(Truth::False);
        match value {
            Truth::True => won.push(i),
            Truth::False => lost.push(i),
            Truth::Unknown => drawn.push(i),
        }
    }

    println!("\nwon   ({:3}): {:?}", won.len(), preview(&won));
    println!("lost  ({:3}): {:?}", lost.len(), preview(&lost));
    println!("drawn ({:3}): {:?}", drawn.len(), preview(&drawn));
    match model.component_stats() {
        Some(s) => println!(
            "\ncondensation: {} components ({} definite, {} recursive, largest {}) \
             over {} ground rule instances",
            s.components,
            s.definite_components,
            s.recursive_components,
            s.largest_component,
            model.ground.num_rules()
        ),
        None => println!(
            "\nfixpoint in {} stages over {} ground rule instances",
            model.stages(),
            model.ground.num_rules()
        ),
    }
}

fn preview(v: &[usize]) -> Vec<usize> {
    v.iter().copied().take(12).collect()
}
