//! Flat-arena building blocks shared by the three interners
//! ([`SymbolTable`](crate::symbol::SymbolTable),
//! [`TermStore`](crate::term::TermStore),
//! [`AtomStore`](crate::atom::AtomStore)).
//!
//! Each interner stores every key exactly once, in flat arenas indexed by
//! its dense `u32` id, and finds keys through an [`IdTable`]: an
//! open-addressing table that holds only `(cached hash, id)` pairs and
//! compares a probe against the arena entry of a candidate id. Nothing is
//! boxed per key, so an interning hit allocates nothing, and cloning an
//! interner copies a handful of flat `Vec`s.

use crate::fxhash::mix64;
use std::fmt;
use std::ops::Range;

/// One table slot: the upper half of the key's hash and its id.
#[derive(Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// Marks an unused slot. Id `u32::MAX` would be the `2^32`-th entry of an
/// interner; [`IdTable::insert_new`] refuses it.
const EMPTY: u32 = u32::MAX;

/// Smallest non-empty table size.
const MIN_SLOTS: usize = 16;

/// Open-addressing (linear probing) map from key hashes to dense ids.
///
/// The table never sees a key: callers pass the key's hash and an `eq`
/// closure that compares the probe with the key stored under a candidate
/// id. Growth rehashes from the cached hashes alone. The load stays at or
/// below one half, so probes are short and a hit never grows the table.
#[derive(Clone, Default)]
pub(crate) struct IdTable {
    slots: Vec<Slot>,
    len: usize,
}

impl IdTable {
    /// The id whose key satisfies `eq`, among those hashed to `hash`.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let h = fold(hash);
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.hash == h && eq(slot.id) {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `id` under `hash`. The key must not be present already
    /// (callers [`find`](Self::find) first).
    pub(crate) fn insert_new(&mut self, hash: u64, id: u32) {
        assert_ne!(id, EMPTY, "interner overflow: the u32 id space is full");
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        place(&mut self.slots, fold(hash), id);
        self.len += 1;
    }

    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(MIN_SLOTS);
        let mut slots = vec![Slot { hash: 0, id: EMPTY }; size];
        for s in self.slots.iter().filter(|s| s.id != EMPTY) {
            place(&mut slots, s.hash, s.id);
        }
        self.slots = slots;
    }
}

impl fmt::Debug for IdTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdTable")
            .field("len", &self.len)
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// Puts `id` into the first free slot of its probe sequence.
#[inline]
fn place(slots: &mut [Slot], hash: u32, id: u32) {
    let mask = slots.len() - 1;
    let mut i = hash as usize & mask;
    while slots[i].id != EMPTY {
        i = (i + 1) & mask;
    }
    slots[i] = Slot { hash, id };
}

/// The cached part of a hash. Fx mixing ends in a multiply, which leaves
/// the low bits weak, so the table keys on the upper half.
#[inline]
fn fold(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// Hash of a `(head, args)` key: atoms hash their predicate, terms a
/// tagged head (see [`crate::term`]).
#[inline]
pub(crate) fn hash_key(head: u64, args: &[crate::term::TermId]) -> u64 {
    args.iter()
        .fold(mix64(0, head), |h, a| mix64(h, a.index() as u64))
}

/// A flat arena of variable-length slices: slice `i` is
/// `items[ends[i - 1]..ends[i]]`, with an implicit `0` before the first.
#[derive(Clone, Debug)]
pub(crate) struct SliceArena<T> {
    items: Vec<T>,
    ends: Vec<u32>,
}

impl<T> Default for SliceArena<T> {
    fn default() -> Self {
        SliceArena {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T: Copy> SliceArena<T> {
    /// Appends a slice as the next entry.
    #[inline]
    pub(crate) fn push(&mut self, slice: &[T], what: &str) {
        self.items.extend_from_slice(slice);
        self.ends.push(crate::dense_u32(self.items.len(), what));
    }

    /// Slice `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[T] {
        &self.items[span(&self.ends, i)]
    }
}

/// Where entry `i` of a flat buffer lies, given each entry's end offset:
/// it starts where entry `i - 1` ends (or at `0`).
#[inline]
pub(crate) fn span(ends: &[u32], i: usize) -> Range<usize> {
    let start = match i {
        0 => 0,
        _ => ends[i - 1] as usize,
    };
    start..ends[i] as usize
}
