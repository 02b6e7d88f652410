//! Heap-allocation counts of the flat-arena interners, measured with a
//! counting global allocator:
//!
//! * re-interning existing symbols, terms and atoms allocates nothing;
//! * the chase merge allocates nothing per instance beyond amortized arena
//!   growth, so a chase's allocation count grows sub-linearly in its
//!   instances;
//! * cloning a `Universe` costs the same few allocations at any size.
//!
//! The file holds a single test function, so no other test thread
//! allocates while a region is being counted.

// Test code: panicking on a broken invariant IS the failure signal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wfdatalog::chase::{ChaseBudget, ChaseSegment};
use wfdatalog::core::{TermId, Universe};
use wfdl_gen::{chain_database, example4_sigma};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic, which neither allocates nor blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations (including
/// reallocations) it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const KEYS: usize = 10_000;

/// A universe holding `KEYS` constants, Skolem terms and atoms, plus the
/// names and ids needed to intern them all again.
fn populated() -> (Universe, Vec<String>, Vec<[TermId; 2]>) {
    let mut u = Universe::new();
    let p = u.pred("p", 2).unwrap();
    let f = u.skolem_fn("f", 2).unwrap();
    let names: Vec<String> = (0..KEYS).map(|i| format!("const_{i}")).collect();
    let consts: Vec<TermId> = names.iter().map(|n| u.constant(n)).collect();
    let pairs: Vec<[TermId; 2]> = (0..KEYS)
        .map(|i| [consts[i], consts[(i * 7 + 1) % KEYS]])
        .collect();
    for pair in &pairs {
        let null = u.skolem_term(f, pair).unwrap();
        u.atom(p, pair).unwrap();
        u.atom(p, [pair[0], null]).unwrap();
    }
    (u, names, pairs)
}

fn reinterning_allocates_nothing() {
    let (mut u, names, pairs) = populated();
    let p = u.lookup_pred("p").unwrap();
    let f = u.lookup_skolem("f").unwrap();
    let sizes = (u.symbols.len(), u.terms.len(), u.atoms.len());
    let ((), allocations) = counted(|| {
        for (name, pair) in names.iter().zip(&pairs) {
            let sym = u.symbols.intern(name);
            let c = u.terms.constant(sym);
            assert_eq!(u.constant(name), c);
            let null = u.terms.skolem(f, pair);
            assert_eq!(u.skolem_term(f, pair).unwrap(), null);
            let atom = u.atoms.intern(p, pair);
            assert_eq!(u.atom(p, pair).unwrap(), atom);
            u.atoms.intern(p, &[pair[0], null]);
            assert_eq!(u.terms.lookup_skolem(f, pair), Some(null));
            assert_eq!(u.atoms.lookup(p, pair), Some(atom));
        }
    });
    assert_eq!(
        (u.symbols.len(), u.terms.len(), u.atoms.len()),
        sizes,
        "everything was already interned"
    );
    assert_eq!(allocations, 0, "re-interning {KEYS} keys allocated");
}

/// Allocations and instances of a serial depth-8 chase over `seeds`
/// Example 4 chains.
fn chase_allocations(seeds: usize) -> (usize, usize) {
    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, seeds);
    let budget = ChaseBudget::depth(8);
    let (segment, allocations) = counted(|| ChaseSegment::build(&mut u, &db, &sigma, budget));
    (allocations, segment.num_instances())
}

fn chase_merge_allocates_per_round_not_per_instance() {
    let (small_allocs, small_instances) = chase_allocations(64);
    let (large_allocs, large_instances) = chase_allocations(1024);
    assert_eq!(large_instances, 16 * small_instances);
    // Amortized growth adds a few reallocations per doubling of each
    // arena: 16x the instances may cost a small constant factor more
    // allocations, never 16x.
    assert!(
        large_allocs < 2 * small_allocs,
        "allocations grew with instances: {small_allocs} for {small_instances} \
         instances, {large_allocs} for {large_instances}"
    );
}

fn universe_clone_is_constant() {
    let (big, _, _) = populated();
    let mut small = Universe::new();
    let p = small.pred("p", 2).unwrap();
    let f = small.skolem_fn("f", 2).unwrap();
    let c = small.constant("c");
    let null = small.skolem_term(f, [c, c]).unwrap();
    small.atom(p, [c, null]).unwrap();
    let (small_copy, small_allocs) = counted(|| small.clone());
    let (big_copy, big_allocs) = counted(|| big.clone());
    assert_eq!(big_copy.atoms.len(), big.atoms.len());
    assert_eq!(small_copy.atoms.len(), small.atoms.len());
    assert_eq!(
        small_allocs, big_allocs,
        "a clone's allocations depend on the universe's size"
    );
    assert!(big_allocs <= 16, "{big_allocs} allocations per clone");
}

#[test]
fn interning_allocation_counts() {
    reinterning_allocates_nothing();
    chase_merge_allocates_per_round_not_per_instance();
    universe_clone_is_constant();
}
