//! Ground atoms, hash-consed to dense [`AtomId`]s.
//!
//! Everything downstream — chase segments, interpretations, ground programs —
//! identifies a ground atom by its `AtomId`, so set membership, truth values
//! and indexes are all flat arrays.
//!
//! Atom ids are dense and numbered in first-intern order. The
//! [`AtomStore`] keeps every atom once, in flat arenas: a predicate array,
//! one shared argument arena, and an open-addressing id table probed by
//! `(PredId, &[TermId])` (see `intern.rs`). [`AtomStore::node`]
//! returns an [`AtomNode`] that borrows its arguments from the arena.
//! Interning a known atom allocates nothing, and cloning the store copies
//! four flat buffers.

use crate::intern::{hash_key, IdTable, SliceArena};
use crate::schema::PredId;
use crate::term::TermId;
use std::fmt;

/// An interned ground atom.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(u32);

impl AtomId {
    /// Dense index usable for direct-indexed side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an `AtomId` from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        AtomId(crate::dense_u32(i, "atom id"))
    }
}

impl fmt::Debug for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Structure of a ground atom, borrowed from its [`AtomStore`]: a
/// predicate applied to ground terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AtomNode<'a> {
    /// The predicate symbol.
    pub pred: PredId,
    /// Ground arguments, of length equal to the predicate's arity.
    pub args: &'a [TermId],
}

/// Hash-consing store for ground atoms.
#[derive(Clone, Debug, Default)]
pub struct AtomStore {
    preds: Vec<PredId>,
    args: SliceArena<TermId>,
    table: IdTable,
}

impl AtomStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the atom `pred(args…)`. A hit allocates nothing; only a new
    /// atom copies `args` into the arena.
    ///
    /// Arity agreement with the predicate declaration is the caller's
    /// responsibility; [`crate::universe::Universe::atom`] performs the check.
    pub fn intern(&mut self, pred: PredId, args: &[TermId]) -> AtomId {
        let hash = hash_key(pred.index() as u64, args);
        if let Some(id) = self.find(hash, pred, args) {
            return id;
        }
        let id = crate::dense_u32(self.preds.len(), "atom store");
        self.preds.push(pred);
        self.args.push(args, "atom arguments");
        self.table.insert_new(hash, id);
        AtomId(id)
    }

    /// Looks up an atom without interning it. Allocation-free.
    pub fn lookup(&self, pred: PredId, args: &[TermId]) -> Option<AtomId> {
        self.find(hash_key(pred.index() as u64, args), pred, args)
    }

    fn find(&self, hash: u64, pred: PredId, args: &[TermId]) -> Option<AtomId> {
        self.table
            .find(hash, |id| {
                let i = id as usize;
                self.preds[i] == pred && self.args.get(i) == args
            })
            .map(AtomId)
    }

    /// The structure of an interned atom.
    #[inline]
    pub fn node(&self, id: AtomId) -> AtomNode<'_> {
        AtomNode {
            pred: self.pred(id),
            args: self.args(id),
        }
    }

    /// The predicate of an interned atom.
    #[inline]
    pub fn pred(&self, id: AtomId) -> PredId {
        self.preds[id.index()]
    }

    /// The arguments of an interned atom.
    #[inline]
    pub fn args(&self, id: AtomId) -> &[TermId] {
        self.args.get(id.index())
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True iff the store is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Iterates over all interned atom ids in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.preds.len() as u32).map(AtomId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PredId;

    #[test]
    fn atoms_are_hash_consed() {
        let mut store = AtomStore::new();
        let p = PredId::from_index(0);
        let q = PredId::from_index(1);
        let t0 = TermId::from_index(0);
        let t1 = TermId::from_index(1);
        let a1 = store.intern(p, &[t0, t1]);
        let a2 = store.intern(p, &[t0, t1]);
        let a3 = store.intern(p, &[t1, t0]);
        let a4 = store.intern(q, &[t0, t1]);
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
        assert_ne!(a1, a4);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut store = AtomStore::new();
        let p = PredId::from_index(0);
        let t0 = TermId::from_index(0);
        assert_eq!(store.lookup(p, &[t0]), None);
        let id = store.intern(p, &[t0]);
        assert_eq!(store.lookup(p, &[t0]), Some(id));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn node_accessors() {
        let mut store = AtomStore::new();
        let p = PredId::from_index(3);
        let t0 = TermId::from_index(7);
        let id = store.intern(p, &[t0]);
        assert_eq!(store.pred(id), p);
        assert_eq!(store.args(id), &[t0]);
    }
}
