//! Workload inputs, generated from the seed as plain text: `.dl` rules
//! (with the source queries), TSV facts and the HTTP bodies the serving
//! client sends. The program under test only ever sees this text.

use std::fmt::Write as _;

use wfdatalog::core::Universe;
use wfdl_gen::{winmove_database, WinMoveConfig};

/// Example 4 of the paper (the functional head makes the chase infinite,
/// so the knowledge base picks its automatic depth-12 budget).
pub const CHAIN_RULES: &str = "\
r(X, Y, Z) -> r(X, Z, f(X, Y, Z)).
r(X, Y, Z), p(X, Y), not q(Z) -> p(X, Z).
r(X, Y, Z), not p(X, Y) -> q(Z).
r(X, Y, Z), not p(X, Z) -> s(X).
p(X, Y), not s(X) -> t(X).
";

/// The win–move game.
pub const WINMOVE_RULES: &str = "move(X, Y), not win(Y) -> win(X).\n";

/// Chain seeds and game positions of each program.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub chain_seeds: usize,
    pub positions: usize,
}

/// `example4_chain`: Example 4 scaled to 1024 seeds (2048 facts).
pub const EXAMPLE4_CHAIN: Shape = Shape {
    chain_seeds: 1024,
    positions: 0,
};
/// `winmove_game`: a 16384-position game (≈36k `move` facts).
pub const WINMOVE_GAME: Shape = Shape {
    chain_seeds: 0,
    positions: 16384,
};
/// Small deterministic generator for the benchmark's own choices
/// (SplitMix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The generated text of one program.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Rules plus source queries, as `.dl` text.
    pub rules: String,
    /// Every database fact, one TSV line each.
    pub facts_tsv: String,
    pub num_facts: usize,
}

/// Generates the program for `shape` from `seed`. Chain seeds are
/// written in a seed-shuffled order; the game graph comes from
/// `wfdl_gen::winmove_database` (out-degree 2.2, forward bias 0.35).
pub fn inputs(shape: Shape, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut rules = String::new();
    let mut tsv = String::new();
    let mut num_facts = 0;
    if shape.chain_seeds > 0 {
        rules.push_str(CHAIN_RULES);
        rules.push_str("?(X) t(X).\n?(X) s(X).\n");
        let mut order: Vec<usize> = (0..shape.chain_seeds).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for i in order {
            let _ = writeln!(tsv, "r\tc{i}\tc{i}\td{i}\np\tc{i}\tc{i}");
            num_facts += 2;
        }
    }
    if shape.positions > 0 {
        rules.push_str(WINMOVE_RULES);
        rules.push_str("?(X) win(X).\n");
        let mut u = Universe::new();
        let db = winmove_database(
            &mut u,
            &WinMoveConfig {
                nodes: shape.positions,
                out_degree: 2.2,
                forward_bias: 0.35,
                seed: rng.next_u64(),
            },
        );
        for &fact in db.facts() {
            let args = u.atoms.args(fact);
            let _ = writeln!(
                tsv,
                "move\t{}\t{}",
                u.display_term(args[0]),
                u.display_term(args[1])
            );
            num_facts += 1;
        }
    }
    Inputs {
        rules,
        facts_tsv: tsv,
        num_facts,
    }
}

/// Read keys of a program: Boolean queries whose verdicts the ingest
/// stream never changes (ingests only add edges out of fresh nodes and
/// fresh chain seeds).
pub fn read_keys(shape: Shape) -> Vec<String> {
    let mut keys = Vec::new();
    for i in 0..shape.positions {
        keys.push(format!("?- win(n{i})."));
    }
    for i in 0..shape.chain_seeds {
        keys.push(format!("?- t(c{i})."));
        keys.push(format!("?- s(c{i})."));
    }
    keys
}

/// Sliced-query keys: the chain cone when the program has one, else the
/// game.
pub fn sliced_keys(shape: Shape) -> Vec<String> {
    if shape.chain_seeds > 0 {
        (0..shape.chain_seeds)
            .map(|i| format!("?- t(c{i})."))
            .collect()
    } else {
        (0..shape.positions)
            .map(|i| format!("?- win(n{i})."))
            .collect()
    }
}

/// The `/ingest` body number `k` (4 facts, insert-only, every node or
/// seed fresh). Games get a fresh 3-cycle plus one edge from it into the
/// existing graph; chain-only programs get two fresh chain seeds.
pub fn ingest_body(shape: Shape, k: usize, rng: &mut Rng) -> String {
    if shape.positions > 0 {
        let target = rng.below(shape.positions);
        format!(
            "move\tg{k}a\tg{k}b\nmove\tg{k}b\tg{k}c\nmove\tg{k}c\tg{k}a\nmove\tg{k}a\tn{target}\n"
        )
    } else {
        format!(
            "r\tx{k}a\tx{k}a\ty{k}a\np\tx{k}a\tx{k}a\nr\tx{k}b\tx{k}b\ty{k}b\np\tx{k}b\tx{k}b\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let both = Shape {
            chain_seeds: 8,
            positions: 64,
        };
        let a = inputs(both, 7);
        let b = inputs(both, 7);
        assert_eq!(a.facts_tsv, b.facts_tsv);
        assert_ne!(a.facts_tsv, inputs(both, 8).facts_tsv);
        assert_eq!(inputs(EXAMPLE4_CHAIN, 1).num_facts, 2048);
    }
}
