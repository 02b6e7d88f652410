//! String interning.
//!
//! Predicate, constant, function and variable *names* are interned once into
//! a [`SymbolTable`] and from then on handled as copyable 4-byte [`Symbol`]
//! ids. All hot-path structures (terms, atoms, rules) store symbols, never
//! strings.
//!
//! Symbols are dense and numbered in first-intern order. The table keeps
//! every name once, back to back in one `String`, with an end offset per
//! symbol and an open-addressing id table probed by `&str`
//! (see `intern.rs`). Interning a known name allocates nothing, and
//! cloning the table copies three flat buffers.

use crate::fxhash::FxHasher;
use crate::intern::{span, IdTable};
use std::fmt;
use std::hash::Hasher;

/// An interned string.
///
/// Symbols are only meaningful relative to the [`SymbolTable`] that produced
/// them; resolving a symbol from a different table is a logic error (caught
/// by the table's bounds check in debug builds).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// Bidirectional string ↔ [`Symbol`] map over one flat text buffer.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    /// Every interned name, concatenated in symbol order.
    text: String,
    /// End offset of each symbol's name in `text`.
    ends: Vec<u32>,
    table: IdTable,
}

fn hash_name(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (stable across repeated calls).
    pub fn intern(&mut self, name: &str) -> Symbol {
        let hash = hash_name(name);
        if let Some(sym) = self.find(hash, name) {
            return sym;
        }
        let id = crate::dense_u32(self.ends.len(), "symbol table");
        self.text.push_str(name);
        self.ends
            .push(crate::dense_u32(self.text.len(), "symbol text"));
        self.table.insert_new(hash, id);
        Symbol(id)
    }

    /// Looks up an already-interned name without inserting.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.find(hash_name(name), name)
    }

    fn find(&self, hash: u64, name: &str) -> Option<Symbol> {
        self.table
            .find(hash, |id| self.resolve(Symbol(id)) == name)
            .map(Symbol)
    }

    /// Resolves a symbol back to its string.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.text[span(&self.ends, sym.index())]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("edge");
        let b = t.intern("edge");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = SymbolTable::new();
        let names = ["p", "q", "isAuthorOf", "f#0_Y"];
        let syms: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(t.resolve(*sym), *name);
        }
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("missing"), None);
        let s = t.intern("present");
        assert_eq!(t.lookup("present"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
    }
}
