//! Typed, parser-free bulk-fact ingestion.
//!
//! The paper's setting is an ontological KB = extensional database +
//! rules, and the database is by far the larger, faster-changing half.
//! Feeding it through the datalog *parser* pays lexing, AST construction
//! and per-statement lowering for every fact. A [`FactBatch`] skips all of
//! that: a [`RelationWriter`] resolves the predicate and checks the arity
//! **once**, then every [`RelationWriter::push`] interns the row's
//! constants straight into the [`Universe`] and records the ground atom —
//! the same hash-consing fast path the chase uses, with no text in sight.
//!
//! ```
//! use wfdl_core::{FactBatch, Universe};
//! let mut universe = Universe::new();
//! let mut batch = FactBatch::new();
//! {
//!     let mut edges = batch.relation(&mut universe, "edge", 2).unwrap();
//!     edges.push(&["a", "b"]).unwrap();
//!     edges.push(&["b", "c"]).unwrap();
//! }
//! assert_eq!(batch.len(), 2);
//! ```
//!
//! A batch is only meaningful against the universe it was built with;
//! consumers (e.g. `KnowledgeBase::insert`) document that contract.

use crate::atom::AtomId;
use crate::error::{CoreError, Result};
use crate::schema::PredId;
use crate::term::TermId;
use crate::universe::Universe;

/// An ordered batch of ground, null-free facts, built against a
/// [`Universe`] without going anywhere near the parser.
///
/// Duplicate rows are kept (the database deduplicates on insert); order is
/// preserved so ingestion is reproducible.
#[derive(Clone, Debug, Default)]
pub struct FactBatch {
    atoms: Vec<AtomId>,
}

impl FactBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a typed writer for one relation: the predicate is declared
    /// (or re-found) and its arity checked **once**; every subsequent row
    /// append is a straight intern.
    ///
    /// Errors with [`CoreError::ArityMismatch`] if `name` was previously
    /// declared with a different arity.
    pub fn relation<'a>(
        &'a mut self,
        universe: &'a mut Universe,
        name: &str,
        arity: usize,
    ) -> Result<RelationWriter<'a>> {
        let pred = universe.pred(name, arity)?;
        Ok(RelationWriter {
            universe,
            rows: &mut self.atoms,
            pred,
            arity,
        })
    }

    /// Appends an already-interned ground atom, validating that it is
    /// null-free (database facts range over data constants only).
    pub fn push_atom(&mut self, universe: &Universe, atom: AtomId) -> Result<()> {
        if !universe.atom_is_constant_free_of_nulls(atom) {
            return Err(CoreError::NonGroundFact {
                atom: universe.display_atom(atom).to_string(),
            });
        }
        self.atoms.push(atom);
        Ok(())
    }

    /// The batched atoms, in append order.
    #[inline]
    pub fn atoms(&self) -> &[AtomId] {
        &self.atoms
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True iff no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// A typed row writer for one relation of a [`FactBatch`].
///
/// Created by [`FactBatch::relation`]; holds the resolved [`PredId`] and
/// arity so per-row work is constant interning only.
pub struct RelationWriter<'a> {
    universe: &'a mut Universe,
    rows: &'a mut Vec<AtomId>,
    pred: PredId,
    arity: usize,
}

impl RelationWriter<'_> {
    /// The resolved predicate this writer appends to.
    pub fn pred(&self) -> PredId {
        self.pred
    }

    /// The checked arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Appends one row of constant names, interning each constant (a
    /// no-op hash probe for names seen before) and the resulting atom.
    ///
    /// Errors with [`CoreError::ArityMismatch`] if the row width differs
    /// from the relation's arity — the same error the typed lookup path
    /// reports, so callers can distinguish a schema bug from a mere miss.
    pub fn push(&mut self, row: &[&str]) -> Result<AtomId> {
        self.check_width(row.len())?;
        let mut args = [TermId::from_index(0); 16];
        if row.len() <= args.len() {
            for (slot, name) in args.iter_mut().zip(row) {
                *slot = self.universe.constant(name);
            }
            let atom = self.universe.atoms.intern(self.pred, &args[..row.len()]);
            self.rows.push(atom);
            Ok(atom)
        } else {
            let args: Vec<TermId> = row.iter().map(|c| self.universe.constant(c)).collect();
            let atom = self.universe.atoms.intern(self.pred, &args);
            self.rows.push(atom);
            Ok(atom)
        }
    }

    /// Appends one row of already-interned constants. Each term must be a
    /// data constant of this universe (nulls are rejected, as database
    /// facts must be null-free).
    pub fn push_ids(&mut self, row: &[TermId]) -> Result<AtomId> {
        self.check_width(row.len())?;
        for &t in row {
            if !self.universe.terms.is_constant(t) {
                let rendered = self.universe.display_term(t).to_string();
                return Err(CoreError::NonGroundFact {
                    atom: format!("{}(…{rendered}…)", self.universe.pred_name(self.pred)),
                });
            }
        }
        let atom = self.universe.atoms.intern(self.pred, row);
        self.rows.push(atom);
        Ok(atom)
    }

    #[inline]
    fn check_width(&self, used: usize) -> Result<()> {
        if used != self.arity {
            return Err(CoreError::ArityMismatch {
                predicate: self.universe.pred_name(self.pred).to_owned(),
                declared: self.arity,
                used,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_interns_rows_and_checks_arity_once() {
        let mut u = Universe::new();
        let mut batch = FactBatch::new();
        {
            let mut w = batch.relation(&mut u, "edge", 2).unwrap();
            let ab = w.push(&["a", "b"]).unwrap();
            let ab2 = w.push(&["a", "b"]).unwrap();
            assert_eq!(ab, ab2, "hash-consed");
            assert!(matches!(
                w.push(&["a"]),
                Err(CoreError::ArityMismatch {
                    declared: 2,
                    used: 1,
                    ..
                })
            ));
        }
        assert_eq!(batch.len(), 2);
        // The predicate and constants really landed in the universe.
        let p = u.lookup_pred("edge").unwrap();
        assert_eq!(u.pred_arity(p), 2);
        assert!(u.lookup_constant("a").is_some());
    }

    #[test]
    fn relation_rejects_conflicting_arity() {
        let mut u = Universe::new();
        u.pred("p", 3).unwrap();
        let mut batch = FactBatch::new();
        assert!(matches!(
            batch.relation(&mut u, "p", 2),
            Err(CoreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn push_ids_requires_constants() {
        let mut u = Universe::new();
        let c = u.constant("c");
        let f = u.skolem_fn("f", 1).unwrap();
        let null = u.skolem_term(f, vec![c]).unwrap();
        let mut batch = FactBatch::new();
        let mut w = batch.relation(&mut u, "p", 1).unwrap();
        assert!(w.push_ids(&[c]).is_ok());
        assert!(matches!(
            w.push_ids(&[null]),
            Err(CoreError::NonGroundFact { .. })
        ));
    }

    #[test]
    fn push_atom_validates_null_freeness() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let f = u.skolem_fn("f", 0).unwrap();
        let null = u.skolem_term(f, vec![]).unwrap();
        let pn = u.atom(p, vec![null]).unwrap();
        let mut batch = FactBatch::new();
        batch.push_atom(&u, pc).unwrap();
        assert!(matches!(
            batch.push_atom(&u, pn),
            Err(CoreError::NonGroundFact { .. })
        ));
        assert_eq!(batch.atoms(), &[pc]);
    }

    #[test]
    fn wide_rows_take_the_spill_path() {
        let mut u = Universe::new();
        let mut batch = FactBatch::new();
        let names: Vec<String> = (0..20).map(|i| format!("c{i}")).collect();
        let row: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut w = batch.relation(&mut u, "wide", 20).unwrap();
        let atom = w.push(&row).unwrap();
        assert_eq!(u.atoms.args(atom).len(), 20);
    }
}
