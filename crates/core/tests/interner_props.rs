//! Model-based property tests for the three interners (`SymbolTable`,
//! `TermStore`, `AtomStore`): random intern and lookup sequences are run
//! against a `HashMap` reference model that assigns ids densely in
//! first-intern order.

// Test code: panicking on a broken invariant IS the failure signal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;
use wfdl_core::{
    AtomStore, PredId, SkolemId, Symbol, SymbolTable, TermId, TermNode, TermStore, Universe,
};

/// Reference interner: the id of a key is its first-intern position.
#[derive(Clone, Debug)]
struct Model<K> {
    ids: HashMap<K, usize>,
    keys: Vec<K>,
}

impl<K: Clone + Eq + Hash> Model<K> {
    fn new() -> Self {
        Model {
            ids: HashMap::new(),
            keys: Vec::new(),
        }
    }

    fn intern(&mut self, key: K) -> usize {
        let next = self.keys.len();
        *self.ids.entry(key.clone()).or_insert_with(|| {
            self.keys.push(key);
            next
        })
    }

    fn lookup(&self, key: &K) -> Option<usize> {
        self.ids.get(key).copied()
    }
}

/// A term key with raw ids, comparable without a store.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum TermKey {
    Const(Symbol),
    Skolem(SkolemId, Vec<TermId>),
}

fn term_key(node: TermNode<'_>) -> TermKey {
    match node {
        TermNode::Const(c) => TermKey::Const(c),
        TermNode::Skolem { f, args } => TermKey::Skolem(f, args.to_vec()),
    }
}

/// Symbol names: short, long, empty, non-ASCII, and prefixes of each
/// other, so equal hashes of padded words and shared prefixes get tested.
fn name(n: u16) -> String {
    match n % 4 {
        0 => format!("c{n}"),
        1 => "x".repeat(usize::from(n % 23)),
        2 => format!("näme_{n}_{}", "y".repeat(usize::from(n % 9))),
        _ => format!("{n}"),
    }
}

/// One step of a random interner session. Integers are resolved against
/// the session's current state (e.g. "the k-th existing term").
#[derive(Clone, Debug)]
enum Op {
    Symbol(u16),
    LookupSymbol(u16),
    Const(u16),
    LookupConst(u16),
    /// Skolem function, arity (0..=3), argument picks.
    Skolem(u8, u8, [u16; 3]),
    LookupSkolem(u8, u8, [u16; 3]),
    /// Predicate, arity (0..=3), argument picks.
    Atom(u8, u8, [u16; 3]),
    LookupAtom(u8, u8, [u16; 3]),
}

fn picks() -> impl Strategy<Value = [u16; 3]> {
    (0u16..2000, 0u16..2000, 0u16..2000).prop_map(|(a, b, c)| [a, b, c])
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..700).prop_map(Op::Symbol),
        (0u16..800).prop_map(Op::LookupSymbol),
        (0u16..700).prop_map(Op::Const),
        (0u16..800).prop_map(Op::LookupConst),
        (0u8..3, 0u8..4, picks()).prop_map(|(f, n, p)| Op::Skolem(f, n, p)),
        (0u8..3, 0u8..4, picks()).prop_map(|(f, n, p)| Op::LookupSkolem(f, n, p)),
        (0u8..4, 0u8..4, picks()).prop_map(|(q, n, p)| Op::Atom(q, n, p)),
        (0u8..4, 0u8..4, picks()).prop_map(|(q, n, p)| Op::LookupAtom(q, n, p)),
    ]
}

/// The three stores under test, next to their models.
#[derive(Clone)]
struct Session {
    symbols: SymbolTable,
    terms: TermStore,
    atoms: AtomStore,
    symbol_model: Model<String>,
    term_model: Model<TermKey>,
    atom_model: Model<(PredId, Vec<TermId>)>,
}

impl Session {
    fn new() -> Self {
        Session {
            symbols: SymbolTable::new(),
            terms: TermStore::new(),
            atoms: AtomStore::new(),
            symbol_model: Model::new(),
            term_model: Model::new(),
            atom_model: Model::new(),
        }
    }

    /// Picks `arity` existing terms, first interning a seed constant if
    /// the store is empty.
    fn pick_terms(&mut self, arity: u8, picks: [u16; 3]) -> Vec<TermId> {
        if self.terms.is_empty() {
            let c = self.symbols.intern("seed");
            self.symbol_model.intern("seed".to_owned());
            self.term_model.intern(TermKey::Const(c));
            self.terms.constant(c);
        }
        picks[..usize::from(arity)]
            .iter()
            .map(|&p| TermId::from_index(usize::from(p) % self.terms.len()))
            .collect()
    }

    fn apply(&mut self, op: &Op, skolems: &[SkolemId]) -> Result<(), TestCaseError> {
        match *op {
            Op::Symbol(n) => {
                let s = name(n);
                let before = self.symbols.len();
                let sym = self.symbols.intern(&s);
                let expected = self.symbol_model.intern(s.clone());
                prop_assert_eq!(sym.index(), expected);
                prop_assert!(sym.index() <= before, "ids are dense");
                prop_assert_eq!(self.symbols.resolve(sym), s.as_str());
            }
            Op::LookupSymbol(n) => {
                let s = name(n);
                let before = self.symbols.len();
                let got = self.symbols.lookup(&s).map(Symbol::index);
                prop_assert_eq!(got, self.symbol_model.lookup(&s));
                prop_assert_eq!(self.symbols.len(), before, "lookup never interns");
            }
            Op::Const(n) => {
                let s = name(n);
                let sym = self.symbols.intern(&s);
                self.symbol_model.intern(s);
                let id = self.terms.constant(sym);
                prop_assert_eq!(id.index(), self.term_model.intern(TermKey::Const(sym)));
                prop_assert_eq!(term_key(self.terms.node(id)), TermKey::Const(sym));
                prop_assert!(self.terms.is_constant(id));
                prop_assert_eq!(self.terms.depth(id), 0);
            }
            Op::LookupConst(n) => {
                let before = self.terms.len();
                if let Some(sym) = self.symbols.lookup(&name(n)) {
                    let got = self.terms.lookup_const(sym).map(TermId::index);
                    prop_assert_eq!(got, self.term_model.lookup(&TermKey::Const(sym)));
                }
                prop_assert_eq!(self.terms.len(), before, "lookup never interns");
            }
            Op::Skolem(f, arity, picks) => {
                let f = skolems[usize::from(f)];
                let args = self.pick_terms(arity, picks);
                let id = self.terms.skolem(f, &args);
                let key = TermKey::Skolem(f, args.clone());
                prop_assert_eq!(id.index(), self.term_model.intern(key.clone()));
                prop_assert_eq!(term_key(self.terms.node(id)), key);
                prop_assert!(self.terms.is_null(id));
                for a in &args {
                    prop_assert!(a.index() < id.index(), "sub-terms come first");
                    prop_assert!(self.terms.depth(*a) < self.terms.depth(id));
                }
            }
            Op::LookupSkolem(f, arity, picks) => {
                let f = skolems[usize::from(f)];
                let args = self.pick_terms(arity, picks);
                let before = self.terms.len();
                let got = self.terms.lookup_skolem(f, &args).map(TermId::index);
                prop_assert_eq!(got, self.term_model.lookup(&TermKey::Skolem(f, args)));
                prop_assert_eq!(self.terms.len(), before, "lookup never interns");
            }
            Op::Atom(q, arity, picks) => {
                let pred = PredId::from_index(usize::from(q));
                let args = self.pick_terms(arity, picks);
                let id = self.atoms.intern(pred, &args);
                prop_assert_eq!(id.index(), self.atom_model.intern((pred, args.clone())));
                let node = self.atoms.node(id);
                prop_assert_eq!(node.pred, pred);
                prop_assert_eq!(node.args, args.as_slice());
            }
            Op::LookupAtom(q, arity, picks) => {
                let pred = PredId::from_index(usize::from(q));
                let args = self.pick_terms(arity, picks);
                let before = self.atoms.len();
                let got = self.atoms.lookup(pred, &args).map(|a| a.index());
                prop_assert_eq!(got, self.atom_model.lookup(&(pred, args)));
                prop_assert_eq!(self.atoms.len(), before, "lookup never interns");
            }
        }
        Ok(())
    }

    /// Every stored key reads back as the model's key for its id, and
    /// every model key looks up to its id.
    fn check_contents(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.symbols.len(), self.symbol_model.keys.len());
        prop_assert_eq!(self.terms.len(), self.term_model.keys.len());
        prop_assert_eq!(self.atoms.len(), self.atom_model.keys.len());
        for (i, s) in self.symbol_model.keys.iter().enumerate() {
            let sym = self.symbols.lookup(s).expect("interned name");
            prop_assert_eq!(sym.index(), i);
            prop_assert_eq!(self.symbols.resolve(sym), s.as_str());
        }
        for (i, key) in self.term_model.keys.iter().enumerate() {
            let id = TermId::from_index(i);
            prop_assert_eq!(&term_key(self.terms.node(id)), key);
            let found = match key {
                TermKey::Const(c) => self.terms.lookup_const(*c),
                TermKey::Skolem(f, args) => self.terms.lookup_skolem(*f, args),
            };
            prop_assert_eq!(found, Some(id));
        }
        for (i, (pred, args)) in self.atom_model.keys.iter().enumerate() {
            let id = self.atoms.lookup(*pred, args).expect("interned atom");
            prop_assert_eq!(id.index(), i);
            prop_assert_eq!(self.atoms.pred(id), *pred);
            prop_assert_eq!(self.atoms.args(id), args.as_slice());
        }
        prop_assert!(self.terms.ids().map(TermId::index).eq(0..self.terms.len()));
        prop_assert!(self.atoms.ids().map(|a| a.index()).eq(0..self.atoms.len()));
        Ok(())
    }
}

/// Three Skolem functions, declared in a universe (the only public way to
/// mint `SkolemId`s). `TermStore` does not check arities, so the tests
/// apply each function to zero to three arguments.
fn skolem_ids() -> Vec<SkolemId> {
    let mut u = Universe::new();
    (0..3)
        .map(|i| u.skolem_fn(&format!("f{i}"), 0).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Equal keys get equal ids, ids are dense in first-intern order,
    /// lookups never intern, and sub-terms precede their terms.
    #[test]
    fn interners_match_hashmap_model(ops in proptest::collection::vec(op(), 0..700)) {
        let skolems = skolem_ids();
        let mut session = Session::new();
        for op in &ops {
            session.apply(op, &skolems)?;
        }
        session.check_contents()?;
    }

    /// A clone that keeps interning diverges from the original, which
    /// keeps exactly its contents (the copy-on-write contract).
    #[test]
    fn cloned_interners_diverge_independently(
        before in proptest::collection::vec(op(), 0..300),
        after in proptest::collection::vec(op(), 1..300),
    ) {
        let skolems = skolem_ids();
        let mut original = Session::new();
        for op in &before {
            original.apply(op, &skolems)?;
        }
        let mut copy = original.clone();
        for op in &after {
            copy.apply(op, &skolems)?;
        }
        copy.check_contents()?;
        original.check_contents()?;
        for s in &copy.symbol_model.keys[original.symbol_model.keys.len()..] {
            prop_assert_eq!(original.symbols.lookup(s), None);
        }
        for (pred, args) in &copy.atom_model.keys[original.atom_model.keys.len()..] {
            prop_assert_eq!(original.atoms.lookup(*pred, args), None);
        }
    }
}

/// Thousands of distinct keys push every table through many doublings;
/// every key must still be found under its first id afterwards.
#[test]
fn ids_survive_many_table_resizes() {
    let skolems = skolem_ids();
    let mut session = Session::new();
    for n in 0..5000u16 {
        session.apply(&Op::Const(n), &skolems).unwrap();
        let picks = [n, n / 2, n / 3];
        session
            .apply(&Op::Skolem((n % 3) as u8, (n % 4) as u8, picks), &skolems)
            .unwrap();
        session
            .apply(&Op::Atom((n % 4) as u8, 3, picks), &skolems)
            .unwrap();
    }
    assert!(session.terms.len() > 5000);
    assert!(session.atoms.len() > 4000);
    session.check_contents().unwrap();
}
