//! Ground terms: constants and Skolem terms (labelled nulls under UNA).
//!
//! Following the paper's Section 2, the universe consists of data constants
//! `∆` and labelled nulls `∆_N`. Under the unique name assumption the nulls
//! produced by the functional transformation are Skolem terms
//! `f_{σ,Z}(t̄)`, and **syntactically distinct ground terms denote distinct
//! values** (Example 4 relies on `f(t1,t2,t3) ≠ 1` by construction). We
//! therefore hash-cons ground terms: equality of values is equality of
//! [`TermId`]s.
//!
//! Term ids are dense and numbered in first-intern order. The
//! [`TermStore`] keeps every term once, in flat arenas: a head array
//! (constant name or Skolem function), one shared argument arena, a depth
//! array, and an open-addressing id table probed by `(head, &[TermId])`
//! (see `intern.rs`). [`TermStore::node`] returns a [`TermNode`]
//! that borrows its arguments from the arena. Interning a known term
//! allocates nothing, and cloning the store copies a few flat buffers.

use crate::intern::{hash_key, IdTable, SliceArena};
use crate::symbol::Symbol;
use std::fmt;

/// An interned ground term (constant or Skolem term).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// Dense index of the term, usable for direct-indexed side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `TermId` from a dense index (inverse of [`TermId::index`]).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        TermId(crate::dense_u32(i, "term id"))
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An interned Skolem function symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkolemId(u32);

impl SkolemId {
    /// Dense index of the function symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Self {
        SkolemId(crate::dense_u32(i, "skolem id"))
    }
}

impl fmt::Debug for SkolemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Structure of a ground term, borrowed from its [`TermStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TermNode<'a> {
    /// A data constant from `∆`, identified by its interned name.
    Const(Symbol),
    /// A labelled null from `∆_N`: a Skolem function applied to ground terms.
    Skolem {
        /// The Skolem function symbol.
        f: SkolemId,
        /// Its ground arguments.
        args: &'a [TermId],
    },
}

/// The head of a stored term; its arguments live in the shared arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Head {
    Const(Symbol),
    Skolem(SkolemId),
}

impl Head {
    /// Hash input: constants and Skolem functions live in disjoint halves,
    /// so `c` and a nullary `f()` with equal raw ids hash apart.
    #[inline]
    fn key(self) -> u64 {
        match self {
            Head::Const(c) => c.index() as u64,
            Head::Skolem(f) => (1 << 32) | f.index() as u64,
        }
    }
}

/// Hash-consing store for ground terms.
///
/// Guarantees: one `TermId` per structurally distinct term; term ids are
/// dense and allocation-ordered, so sub-terms always have smaller ids than
/// the terms containing them.
#[derive(Clone, Debug, Default)]
pub struct TermStore {
    heads: Vec<Head>,
    args: SliceArena<TermId>,
    depth: Vec<u32>,
    table: IdTable,
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: Symbol) -> TermId {
        self.intern(Head::Const(name), &[])
    }

    /// Interns a Skolem term. All `args` must already belong to this store.
    pub fn skolem(&mut self, f: SkolemId, args: &[TermId]) -> TermId {
        self.intern(Head::Skolem(f), args)
    }

    fn intern(&mut self, head: Head, args: &[TermId]) -> TermId {
        let hash = hash_key(head.key(), args);
        if let Some(id) = self.find(hash, head, args) {
            return id;
        }
        let depth = match head {
            Head::Const(_) => 0,
            Head::Skolem(_) => {
                1 + args
                    .iter()
                    .map(|a| self.depth[a.index()])
                    .max()
                    .unwrap_or(0)
            }
        };
        let id = crate::dense_u32(self.heads.len(), "term store");
        self.heads.push(head);
        self.args.push(args, "term arguments");
        self.depth.push(depth);
        self.table.insert_new(hash, id);
        TermId(id)
    }

    fn find(&self, hash: u64, head: Head, args: &[TermId]) -> Option<TermId> {
        self.table
            .find(hash, |id| {
                let i = id as usize;
                self.heads[i] == head && self.args.get(i) == args
            })
            .map(TermId)
    }

    /// Looks up the constant with the given name without interning it.
    pub fn lookup_const(&self, name: Symbol) -> Option<TermId> {
        let head = Head::Const(name);
        self.find(hash_key(head.key(), &[]), head, &[])
    }

    /// Looks up a Skolem term without interning it.
    pub fn lookup_skolem(&self, f: SkolemId, args: &[TermId]) -> Option<TermId> {
        let head = Head::Skolem(f);
        self.find(hash_key(head.key(), args), head, args)
    }

    /// The structure of a term.
    #[inline]
    pub fn node(&self, id: TermId) -> TermNode<'_> {
        match self.heads[id.index()] {
            Head::Const(c) => TermNode::Const(c),
            Head::Skolem(f) => TermNode::Skolem {
                f,
                args: self.args.get(id.index()),
            },
        }
    }

    /// Nesting depth of Skolem applications (constants have depth 0).
    #[inline]
    pub fn depth(&self, id: TermId) -> u32 {
        self.depth[id.index()]
    }

    /// True iff the term is a data constant (an element of `∆`).
    #[inline]
    pub fn is_constant(&self, id: TermId) -> bool {
        matches!(self.heads[id.index()], Head::Const(_))
    }

    /// True iff the term is a labelled null (an element of `∆_N`).
    #[inline]
    pub fn is_null(&self, id: TermId) -> bool {
        !self.is_constant(id)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True iff the store is empty.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Iterates over all interned term ids in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = TermId> {
        (0..self.heads.len() as u32).map(TermId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn syms() -> (SymbolTable, Symbol, Symbol) {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        (t, a, b)
    }

    #[test]
    fn constants_are_hash_consed() {
        let (_t, a, b) = syms();
        let mut store = TermStore::new();
        let t1 = store.constant(a);
        let t2 = store.constant(a);
        let t3 = store.constant(b);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn skolem_terms_are_hash_consed_and_una_distinct() {
        let (_t, a, _b) = syms();
        let mut store = TermStore::new();
        let f = SkolemId::from_index(0);
        let g = SkolemId::from_index(1);
        let ca = store.constant(a);
        let fa1 = store.skolem(f, &[ca]);
        let fa2 = store.skolem(f, &[ca]);
        let ga = store.skolem(g, &[ca]);
        assert_eq!(fa1, fa2);
        // UNA: f(a) and g(a) are distinct values.
        assert_ne!(fa1, ga);
        assert_ne!(fa1, ca);
    }

    #[test]
    fn depth_tracks_nesting() {
        let (_t, a, _b) = syms();
        let mut store = TermStore::new();
        let f = SkolemId::from_index(0);
        let ca = store.constant(a);
        let fa = store.skolem(f, &[ca]);
        let ffa = store.skolem(f, &[fa]);
        assert_eq!(store.depth(ca), 0);
        assert_eq!(store.depth(fa), 1);
        assert_eq!(store.depth(ffa), 2);
        assert!(store.is_constant(ca));
        assert!(store.is_null(ffa));
    }

    #[test]
    fn subterms_have_smaller_ids() {
        let (_t, a, _b) = syms();
        let mut store = TermStore::new();
        let f = SkolemId::from_index(0);
        let ca = store.constant(a);
        let fa = store.skolem(f, &[ca]);
        assert!(ca.index() < fa.index());
    }
}
