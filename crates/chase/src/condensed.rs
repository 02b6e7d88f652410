//! Condensed chase segments: a finite, depth-bounded materialization of the
//! guarded chase forest `F⁺(P)` for `P = D ∪ Σf`.
//!
//! ## Why "condensed"
//!
//! The forest of Section 2.5 attaches a child for a ground rule `r` under
//! *every* node labelled `guard(r)`, so identical subtrees repeat (in the
//! paper's Example 6 figure, `S(0)` and `T(0)` appear under every `R`-node).
//! For computation only two things matter, and both are per-*atom*, not
//! per-node:
//!
//! 1. the set of ground rule instances discovered (they form the finite
//!    ground normal program the WFS engines run on), and
//! 2. each atom's minimal forest depth and minimal derivation level
//!    (`level_P(a)`, Section 2.5), which the forward-proof machinery of
//!    Section 3 consumes.
//!
//! A [`ChaseSegment`] therefore stores one record per distinct atom plus the
//! deduplicated rule instances. The faithful node-per-occurrence forest is
//! available separately in [`crate::explicit`] and is proven equivalent (in
//! labels, edges, depths and levels) by integration tests.
//!
//! ## Saturation
//!
//! Guardedness makes saturation join-free: matching a rule's guard against a
//! concrete atom binds *all* universal variables, so the remaining positive
//! body atoms are ground "side conditions". Instances whose side conditions
//! are not yet present wait in a pending list with Dowling–Gallier-style
//! watch counters. Atom depths/levels are maintained as minima by a
//! relaxation worklist, because a later-discovered derivation may be
//! shallower than the first one.
//!
//! ## Hash-free memory layout
//!
//! Saturation runs entirely on **dense indexes and flat pools** — after the
//! one unavoidable hash per *newly interned* term/atom in the universe, no
//! hot-path step hashes anything:
//!
//! * every discovered atom gets a dense [`SegAtomId`] **once** in
//!   `add_atom`; the reverse map `seg_of` is a flat array indexed by the
//!   universe's (equally dense) [`AtomId`], so membership tests and id
//!   conversion are single array reads;
//! * instance bodies live in shared arena pools (`pos_seg` / `neg_atoms`)
//!   addressed by CSR offsets — zero per-instance boxes;
//! * the Dowling–Gallier watch lists and the depth/level relaxation index
//!   (`instances-with-atom-in-body`) are intrusive linked lists over flat
//!   entry pools with per-atom head/tail cursors;
//! * the "did this (rule, atom) pair instantiate already?" set collapses to
//!   one bit per segment atom, because expansion always attempts every rule
//!   guarded by the atom's predicate in one sweep;
//! * guard/head/body occurrence indexes are finalized into CSR arrays
//!   (counting sort) mirroring [`GroundProgram`]'s layout, and
//!   [`ChaseSegment::to_ground_program`] hands the segment off as a
//!   straight array translation — no per-atom hash lookups.

use crate::budget::ChaseBudget;
use crate::instance::{InstanceId, RuleInstance, SegAtomId};
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;
use wfdl_core::budget::FaultSite;
use wfdl_core::{
    match_atom, subst::instantiate_atom_into, AtomId, Binding, BitSet, SkolemProgram, SolveBudget,
    TermId, TruncationReason, Universe,
};
use wfdl_storage::{Database, GroundProgram, GroundRule};

/// Sentinel for "no entry" in the flat index arrays.
const NONE: u32 = u32::MAX;

/// Per-build counters for the saturation loop, exposed as
/// [`ChaseSegment::stats`] and printed by `wfdl run --stats`.
///
/// Timings cover the two halves of each round: the read-only match phase
/// and the interning merge. These counters are diagnostics only — nothing
/// downstream may depend on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Always `1`: kept only for `perfbench/`; solves are serial.
    pub threads: usize,
    /// Always `1`: kept only for `perfbench/`; solves are serial.
    pub effective_threads: usize,
    /// Saturation rounds (frontier batches) executed.
    pub rounds: u64,
    /// Always `0`: kept only for `perfbench/`; solves are serial.
    pub parallel_rounds: u64,
    /// Total atoms expanded through the frontier.
    pub frontier_atoms: u64,
    /// Nanoseconds spent in the match phase (wall clock, all rounds).
    pub match_ns: u64,
    /// Nanoseconds spent in the serial merge phase (all rounds).
    pub merge_ns: u64,
}

/// Per-atom metadata within a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentAtom {
    /// The interned atom.
    pub atom: AtomId,
    /// Minimal depth of a node labelled with this atom in `F⁺(P)`.
    pub depth: u32,
    /// Minimal derivation level `level_P(a)` (Section 2.5).
    pub level: u32,
}

/// A finite segment of the condensed guarded chase forest.
///
/// Atoms are identified by dense [`SegAtomId`]s (positions in
/// [`ChaseSegment::atoms`]); rule instances by dense [`InstanceId`]s. All
/// per-instance and per-atom indexes are flat CSR arrays — see the module
/// docs for the layout.
#[derive(Clone, Debug)]
pub struct ChaseSegment {
    atoms: Vec<SegmentAtom>,
    /// `seg_of[AtomId::index()]` = the atom's [`SegAtomId`] (or `NONE`).
    seg_of: Vec<u32>,
    /// Fact atoms as segment ids, in database insertion order. Fresh
    /// builds place them first (`0..num_facts()`); resumed builds append
    /// delta facts wherever discovery put them.
    fact_seg: Vec<SegAtomId>,
    /// Originating rule per instance.
    inst_src_rule: Vec<u32>,
    /// Guard atom per instance.
    inst_guard: Vec<SegAtomId>,
    /// Head atom per instance (always a segment atom).
    inst_head: Vec<SegAtomId>,
    /// Positive bodies (guard included, rule order), pooled; CSR over
    /// instances.
    pos_off: Vec<u32>,
    pos_seg: Vec<SegAtomId>,
    /// Distinct positive-body size per instance (bodies may repeat an atom
    /// after instantiation).
    pos_distinct: Vec<u32>,
    /// Negative bodies (rule order), pooled; CSR over instances. Kept as
    /// universe ids because hypotheses need not occur in the segment.
    neg_off: Vec<u32>,
    neg_atoms: Vec<AtomId>,
    /// Instances guarded by each segment atom; CSR over [`SegAtomId`].
    guard_occ_off: Vec<u32>,
    guard_occ: Vec<InstanceId>,
    /// Instances deriving each segment atom; CSR over [`SegAtomId`].
    head_occ_off: Vec<u32>,
    head_occ: Vec<InstanceId>,
    /// Instances with each segment atom in their positive body
    /// (deduplicated per instance); CSR over [`SegAtomId`].
    body_occ_off: Vec<u32>,
    body_occ: Vec<InstanceId>,
    /// True iff saturation quiesced with no budget limit hit: the segment
    /// *is* the full chase (always the case for non-existential programs).
    pub complete: bool,
    /// Number of instances still waiting for side atoms when saturation
    /// stopped (diagnostic; nonzero is normal for truncated segments).
    pub pending_at_end: usize,
    budget: ChaseBudget,
    /// Number of instances inherited from the segment this one was resumed
    /// from (`0` for fresh builds): instances `inherited_instances..` are
    /// the ones discovered by the resume, the basis for incremental
    /// grounding ([`ChaseSegment::to_ground_program_from`]).
    inherited_instances: usize,
    /// Counters for the saturation run that produced this segment (for a
    /// resumed segment: the resume run only).
    stats: ChaseStats,
    /// Saturation state retained for [`ChaseSegment::resume_with`].
    resume: ResumeState,
}

/// Saturation state that `finish` would otherwise discard, retained so
/// [`ChaseSegment::resume_with`] can continue exactly where the build
/// stopped: parked instances with their watch lists, the per-atom
/// expansion bits, the uncollected expansion queue (non-empty only when a
/// runtime budget stopped the build mid-saturation), and the structured
/// truncation reason.
#[derive(Clone, Debug)]
struct ResumeState {
    expanded: Vec<bool>,
    pending: Vec<Pending>,
    pend_pos: Vec<AtomId>,
    pend_neg: Vec<AtomId>,
    watch_head: Vec<u32>,
    watch_tail: Vec<u32>,
    watch_next: Vec<u32>,
    watch_pend: Vec<u32>,
    expand_queue: Vec<u32>,
    truncation: Option<TruncationReason>,
}

/// Error returned by [`ChaseSegment::resume_with`] when a segment cannot
/// be resumed: cap-truncated saturation is discovery-order dependent, so
/// continuing it could diverge from a fresh build. Callers should re-chase
/// from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeError {
    /// Why the original build was truncated.
    pub reason: TruncationReason,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment was truncated by the {}; re-chase from scratch",
            self.reason
        )
    }
}

impl std::error::Error for ResumeError {}

impl ChaseSegment {
    /// Saturates the chase of `D ∪ Σf` within `budget`, with no runtime
    /// resource limits.
    pub fn build(
        universe: &mut Universe,
        db: &Database,
        program: &SkolemProgram,
        budget: ChaseBudget,
    ) -> ChaseSegment {
        Self::build_budgeted(universe, db, program, budget, &SolveBudget::unlimited())
    }

    /// Saturates the chase of `D ∪ Σf` within `budget`, polling `solve`
    /// (deadline / cancellation / memory budget) at every round boundary.
    /// A trip stops saturation at a clean boundary: the produced segment
    /// is truncated ([`ChaseSegment::truncation`] reports why) but fully
    /// coherent and **resumable** — a later
    /// [`ChaseSegment::resume_with`] continues exactly where this build
    /// stopped.
    pub fn build_budgeted(
        universe: &mut Universe,
        db: &Database,
        program: &SkolemProgram,
        budget: ChaseBudget,
        solve: &SolveBudget,
    ) -> ChaseSegment {
        Builder::new(universe, program, budget, solve.clone()).run(db)
    }

    /// [`ChaseSegment::build_budgeted`] restricted to the predicates of
    /// `mask` (indexed by [`wfdl_core::PredId`], `true` = in slice):
    /// only facts over in-mask predicates are seeded and only rules with
    /// in-mask heads fire. `mask` must be **relevance-closed** — every
    /// body predicate (positive or negative) of every rule whose head is
    /// in the mask must itself be in the mask — which is exactly what
    /// `wfdl-analyze`'s `ProgramSlice` computes. Under that closure the
    /// restricted saturation derives the same atoms, at the same
    /// depth/level minima, as the full chase restricted to those
    /// predicates, so downstream verdicts over in-mask atoms agree
    /// bit-for-bit with the full solve.
    pub fn build_restricted_budgeted(
        universe: &mut Universe,
        db: &Database,
        program: &SkolemProgram,
        budget: ChaseBudget,
        solve: &SolveBudget,
        mask: &[bool],
    ) -> ChaseSegment {
        let mut b = Builder::new(universe, program, budget, solve.clone());
        b.restrict_to(mask);
        b.run(db)
    }

    /// All segment atoms with metadata, in discovery order. Facts are the
    /// first entries for fresh builds; resumed builds interleave delta
    /// facts, so iterate [`ChaseSegment::fact_segs`] to find them.
    #[inline]
    pub fn atoms(&self) -> &[SegmentAtom] {
        &self.atoms
    }

    /// Number of database facts in the segment.
    #[inline]
    pub fn num_facts(&self) -> usize {
        self.fact_seg.len()
    }

    /// The database facts as segment ids, in database insertion order.
    #[inline]
    pub fn fact_segs(&self) -> &[SegAtomId] {
        &self.fact_seg
    }

    /// True iff this segment can be resumed with additional facts: the
    /// original saturation must not have been truncated by the atom or
    /// instance caps (cap truncation is discovery-order dependent, so a
    /// resumed run could diverge from a fresh one). Depth truncation is
    /// fine — the depth gate is a per-atom property of the final minima —
    /// and so are runtime budget trips (deadline / cancellation / memory),
    /// which stop at a round boundary with the full saturation state
    /// retained.
    pub fn can_resume(&self) -> bool {
        !matches!(
            self.resume.truncation,
            Some(TruncationReason::AtomCap | TruncationReason::InstanceCap)
        )
    }

    /// Why saturation stopped short, if it did: the recorded budget or cap
    /// trip, or [`TruncationReason::DepthCap`] when only the depth bound
    /// blocked further expansion. `None` iff [`ChaseSegment::complete`].
    pub fn truncation(&self) -> Option<TruncationReason> {
        if self.complete {
            None
        } else {
            self.resume.truncation.or(Some(TruncationReason::DepthCap))
        }
    }

    /// Continues saturation after `new_facts` join the database, reusing
    /// every atom, rule instance and parked instance of this segment
    /// instead of re-chasing from scratch.
    ///
    /// `program` must be the program this segment was built with (same
    /// rules, same order) and `new_facts` must be ground, null-free,
    /// interned in `universe` and not already database facts; the budget
    /// is inherited. As long as [`ChaseSegment::can_resume`] holds, the
    /// resumed segment contains exactly what a fresh
    /// [`ChaseSegment::build`] over the grown database would — the same
    /// atoms, instances, minimal depths and minimal levels — while doing
    /// saturation work proportional to the *new* derivations only (plus
    /// one linear pass to re-finalize the occurrence CSRs). A fact that
    /// was previously derived at positive depth is relaxed to depth and
    /// level 0 and the improvement propagated to its consequences.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError`] (instead of resuming) if the segment was
    /// cap-truncated (`!can_resume()`); the caller should re-chase from
    /// scratch.
    pub fn resume_with(
        &self,
        universe: &mut Universe,
        program: &SkolemProgram,
        new_facts: &[AtomId],
    ) -> Result<ChaseSegment, ResumeError> {
        self.resume_budgeted(universe, program, new_facts, &SolveBudget::unlimited())
    }

    /// [`ChaseSegment::resume_with`] with runtime resource limits, polled
    /// at every round boundary of the resumed saturation.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError`] if the segment was cap-truncated.
    pub fn resume_budgeted(
        &self,
        universe: &mut Universe,
        program: &SkolemProgram,
        new_facts: &[AtomId],
        solve: &SolveBudget,
    ) -> Result<ChaseSegment, ResumeError> {
        if !self.can_resume() {
            return Err(ResumeError {
                reason: self.resume.truncation.unwrap_or(TruncationReason::AtomCap),
            });
        }
        Ok(Builder::from_segment(universe, program, self, solve.clone()).run_delta(new_facts))
    }

    /// Number of discovered rule instances.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.inst_src_rule.len()
    }

    /// Iterates over all instance ids in discovery order.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> {
        (0..self.inst_src_rule.len()).map(InstanceId::from_index)
    }

    /// The dense segment id of `atom`, if it occurs in the segment. One
    /// array read — no hashing.
    #[inline]
    pub fn seg_id(&self, atom: AtomId) -> Option<SegAtomId> {
        match self.seg_of.get(atom.index()) {
            Some(&s) if s != NONE => Some(SegAtomId::from_index(s as usize)),
            _ => None,
        }
    }

    /// The universe atom with segment id `id`.
    #[inline]
    pub fn atom_of(&self, id: SegAtomId) -> AtomId {
        self.atoms[id.index()].atom
    }

    /// Metadata for a segment id.
    #[inline]
    pub fn meta_of(&self, id: SegAtomId) -> SegmentAtom {
        self.atoms[id.index()]
    }

    /// Metadata for `atom`, if it occurs in the segment.
    pub fn meta(&self, atom: AtomId) -> Option<SegmentAtom> {
        self.seg_id(atom).map(|s| self.atoms[s.index()])
    }

    /// True iff `atom` occurs in the segment (i.e. in `label(F⁺(P))`, up to
    /// truncation).
    #[inline]
    pub fn contains(&self, atom: AtomId) -> bool {
        self.seg_id(atom).is_some()
    }

    /// Originating skolemized-program rule of an instance.
    #[inline]
    pub fn src_rule(&self, id: InstanceId) -> u32 {
        self.inst_src_rule[id.index()]
    }

    /// Guard atom of an instance, as a segment id.
    #[inline]
    pub fn guard_seg(&self, id: InstanceId) -> SegAtomId {
        self.inst_guard[id.index()]
    }

    /// Guard atom of an instance, as a universe id.
    #[inline]
    pub fn guard_atom(&self, id: InstanceId) -> AtomId {
        self.atom_of(self.inst_guard[id.index()])
    }

    /// Head atom of an instance, as a segment id.
    #[inline]
    pub fn head_seg(&self, id: InstanceId) -> SegAtomId {
        self.inst_head[id.index()]
    }

    /// Head atom of an instance, as a universe id.
    #[inline]
    pub fn head_atom(&self, id: InstanceId) -> AtomId {
        self.atom_of(self.inst_head[id.index()])
    }

    /// Positive body of an instance (guard included, rule order) as
    /// segment ids. Fired instances only reference segment atoms, so this
    /// is total.
    #[inline]
    pub fn pos_seg(&self, id: InstanceId) -> &[SegAtomId] {
        let i = id.index();
        &self.pos_seg[self.pos_off[i] as usize..self.pos_off[i + 1] as usize]
    }

    /// Number of **distinct** atoms in an instance's positive body.
    #[inline]
    pub fn num_distinct_pos(&self, id: InstanceId) -> u32 {
        self.pos_distinct[id.index()]
    }

    /// Negative body of an instance (rule order), as universe ids —
    /// hypotheses may lie outside the segment.
    #[inline]
    pub fn neg_atoms(&self, id: InstanceId) -> &[AtomId] {
        let i = id.index();
        &self.neg_atoms[self.neg_off[i] as usize..self.neg_off[i + 1] as usize]
    }

    /// Materializes an instance as an owned [`RuleInstance`] (allocates two
    /// boxes; display/test convenience, not a hot-path API).
    pub fn instance(&self, id: InstanceId) -> RuleInstance {
        RuleInstance {
            src_rule: self.src_rule(id),
            guard_atom: self.guard_atom(id),
            pos: self.pos_seg(id).iter().map(|&s| self.atom_of(s)).collect(),
            neg: self.neg_atoms(id).into(),
            head: self.head_atom(id),
        }
    }

    /// Instances whose guard matched the segment atom `id`.
    #[inline]
    pub fn instances_with_guard_seg(&self, id: SegAtomId) -> &[InstanceId] {
        debug_assert!(id.index() < self.atoms.len(), "segment id out of range");
        let a = id.index();
        &self.guard_occ[self.guard_occ_off[a] as usize..self.guard_occ_off[a + 1] as usize]
    }

    /// Instances deriving the segment atom `id`.
    #[inline]
    pub fn instances_with_head_seg(&self, id: SegAtomId) -> &[InstanceId] {
        debug_assert!(id.index() < self.atoms.len(), "segment id out of range");
        let a = id.index();
        &self.head_occ[self.head_occ_off[a] as usize..self.head_occ_off[a + 1] as usize]
    }

    /// Instances with the segment atom `id` in their positive body
    /// (deduplicated per instance).
    #[inline]
    pub fn instances_with_body_seg(&self, id: SegAtomId) -> &[InstanceId] {
        debug_assert!(id.index() < self.atoms.len(), "segment id out of range");
        let a = id.index();
        &self.body_occ[self.body_occ_off[a] as usize..self.body_occ_off[a + 1] as usize]
    }

    /// Instances whose guard matched `atom`. Atoms outside the segment
    /// guard nothing, so unknown atoms yield an empty slice.
    pub fn instances_with_guard(&self, atom: AtomId) -> &[InstanceId] {
        match self.seg_id(atom) {
            Some(s) => self.instances_with_guard_seg(s),
            None => &[],
        }
    }

    /// Instances deriving `atom`; empty for atoms outside the segment.
    pub fn instances_with_head(&self, atom: AtomId) -> &[InstanceId] {
        match self.seg_id(atom) {
            Some(s) => self.instances_with_head_seg(s),
            None => &[],
        }
    }

    /// The budget the segment was built with.
    pub fn budget(&self) -> ChaseBudget {
        self.budget
    }

    /// Counters for the saturation run that produced this segment. For a
    /// resumed segment these cover the resume run only — the inherited
    /// bulk did its work in the previous build.
    pub fn stats(&self) -> ChaseStats {
        self.stats
    }

    /// Largest atom depth materialized.
    pub fn max_depth_reached(&self) -> u32 {
        self.atoms.iter().map(|a| a.depth).max().unwrap_or(0)
    }

    /// Largest derivation level materialized.
    pub fn max_level_reached(&self) -> u32 {
        self.atoms.iter().map(|a| a.level).max().unwrap_or(0)
    }

    /// Extracts the finite ground normal program (facts + instances) that
    /// the WFS fixpoint engines evaluate.
    ///
    /// This is a **straight array translation**: the ground program's local
    /// atom ids are assigned by scanning a bitmap of mentioned universe ids
    /// in increasing order (universe ids are dense, so the scan yields the
    /// sorted atom list directly), every body atom is mapped through flat
    /// arrays, and duplicate rules are removed by a sort of rule indexes —
    /// no hash probe and no binary search per atom anywhere on this path.
    pub fn to_ground_program(&self) -> GroundProgram {
        let num_inst = self.num_instances();

        // 1. Mentioned universe atoms: facts ∪ instance heads/bodies.
        let mut mentioned = BitSet::new();
        for &fs in &self.fact_seg {
            mentioned.insert(self.atoms[fs.index()].atom.index());
        }
        for i in 0..num_inst {
            mentioned.insert(self.atoms[self.inst_head[i].index()].atom.index());
            for k in self.pos_off[i]..self.pos_off[i + 1] {
                mentioned.insert(self.atoms[self.pos_seg[k as usize].index()].atom.index());
            }
            for k in self.neg_off[i]..self.neg_off[i + 1] {
                mentioned.insert(self.neg_atoms[k as usize].index());
            }
        }

        // 2. Sorted atom list + flat universe-id → local-id map. Iterating
        // the bitmap visits universe ids in increasing order, which *is*
        // AtomId order.
        let mut atoms: Vec<AtomId> = Vec::with_capacity(mentioned.len());
        let mut local_of = vec![NONE; mentioned.iter().last().map_or(0, |m| m + 1)];
        for uid in mentioned.iter() {
            local_of[uid] = atoms.len() as u32;
            atoms.push(AtomId::from_index(uid));
        }
        let local_of_seg = |s: SegAtomId| local_of[self.atoms[s.index()].atom.index()];

        // 3. Rule arrays in local ids, bodies sorted + deduplicated (the
        // GroundRule normal form; local-id order equals AtomId order).
        let mut head_local = Vec::with_capacity(num_inst);
        let mut pos_off = Vec::with_capacity(num_inst + 1);
        let mut neg_off = Vec::with_capacity(num_inst + 1);
        let mut pos_local: Vec<u32> = Vec::with_capacity(self.pos_seg.len());
        let mut neg_local: Vec<u32> = Vec::with_capacity(self.neg_atoms.len());
        pos_off.push(0u32);
        neg_off.push(0u32);
        for i in 0..num_inst {
            head_local.push(local_of_seg(self.inst_head[i]));
            let start = pos_local.len();
            pos_local.extend(
                self.pos_seg[self.pos_off[i] as usize..self.pos_off[i + 1] as usize]
                    .iter()
                    .map(|&s| local_of_seg(s)),
            );
            pos_local[start..].sort_unstable();
            dedup_tail(&mut pos_local, start);
            pos_off.push(pos_local.len() as u32);
            let start = neg_local.len();
            neg_local.extend(
                self.neg_atoms[self.neg_off[i] as usize..self.neg_off[i + 1] as usize]
                    .iter()
                    .map(|&a| local_of[a.index()]),
            );
            neg_local[start..].sort_unstable();
            dedup_tail(&mut neg_local, start);
            neg_off.push(neg_local.len() as u32);
        }

        // 4. Drop duplicate rules, keeping first occurrences in discovery
        // order (the historical builder semantics). Equal rules have equal
        // 64-bit digests, so hash first: when every digest is distinct —
        // the overwhelmingly common case — there is nothing to drop and
        // the expensive slice-comparison sort is skipped entirely; only
        // colliding digests fall back to sorting (u64 keys, ties broken by
        // index so the first occurrence survives) plus full-key checks.
        let rule_key = |r: usize| {
            (
                head_local[r],
                &pos_local[pos_off[r] as usize..pos_off[r + 1] as usize],
                &neg_local[neg_off[r] as usize..neg_off[r + 1] as usize],
            )
        };
        let mix = wfdl_core::fxhash::mix64;
        let digest = |r: usize| {
            let (head, pos, neg) = rule_key(r);
            let mut h = mix(0, head as u64);
            h = mix(h, pos.len() as u64);
            for &b in pos {
                h = mix(h, b as u64);
            }
            for &b in neg {
                h = mix(h, b as u64);
            }
            h
        };
        let digests: Vec<u64> = (0..num_inst).map(digest).collect();
        let mut sorted_digests = digests.clone();
        sorted_digests.sort_unstable();
        let any_collision = sorted_digests.windows(2).any(|w| w[0] == w[1]);
        let mut keep = vec![true; num_inst];
        let mut dups = 0usize;
        if any_collision {
            let mut order: Vec<u32> = (0..num_inst as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                digests[a as usize]
                    .cmp(&digests[b as usize])
                    .then(a.cmp(&b))
            });
            // Within each equal-digest run (indexes ascending, so the
            // first occurrence wins), drop every rule equal to an earlier
            // kept one. A run of k copies of one rule costs O(k); only
            // genuine digest collisions between distinct rules cost more.
            let mut i = 0usize;
            while i < order.len() {
                let mut j = i + 1;
                while j < order.len() && digests[order[j] as usize] == digests[order[i] as usize] {
                    j += 1;
                }
                for x in i..j {
                    let rx = order[x] as usize;
                    if !keep[rx] {
                        continue;
                    }
                    for &oy in &order[x + 1..j] {
                        let ry = oy as usize;
                        if keep[ry] && rule_key(rx) == rule_key(ry) {
                            keep[ry] = false;
                            dups += 1;
                        }
                    }
                }
                i = j;
            }
        }
        if dups > 0 {
            let mut h = Vec::with_capacity(num_inst - dups);
            let mut po = vec![0u32];
            let mut pl = Vec::new();
            let mut no = vec![0u32];
            let mut nl = Vec::new();
            for r in 0..num_inst {
                if !keep[r] {
                    continue;
                }
                h.push(head_local[r]);
                pl.extend_from_slice(&pos_local[pos_off[r] as usize..pos_off[r + 1] as usize]);
                po.push(pl.len() as u32);
                nl.extend_from_slice(&neg_local[neg_off[r] as usize..neg_off[r + 1] as usize]);
                no.push(nl.len() as u32);
            }
            head_local = h;
            pos_off = po;
            pos_local = pl;
            neg_off = no;
            neg_local = nl;
        }

        // 5. Facts (unique by construction) and handoff.
        let facts: Vec<AtomId> = self
            .fact_seg
            .iter()
            .map(|&fs| self.atoms[fs.index()].atom)
            .collect();
        let facts_local: Vec<u32> = facts.iter().map(|f| local_of[f.index()]).collect();
        GroundProgram::from_dense_parts(
            atoms,
            facts,
            facts_local,
            head_local,
            pos_off,
            pos_local,
            neg_off,
            neg_local,
        )
    }

    /// Extracts the ground program of a **resumed** segment by extending
    /// `prev` — the program extracted from the segment this one was
    /// resumed from — with only the delta's facts, atoms and instances.
    ///
    /// Produces exactly what [`ChaseSegment::to_ground_program`] would
    /// (same atoms, facts, rules, in the same order), but the translation
    /// work for the inherited bulk collapses to flat remap passes — no
    /// per-instance sorting or deduplication outside the delta.
    pub fn to_ground_program_from(&self, prev: &GroundProgram) -> GroundProgram {
        let first_new_inst = self.inherited_instances;
        let first_new_fact = prev.facts().len();
        debug_assert!(first_new_inst <= self.num_instances());
        debug_assert!(first_new_fact <= self.fact_seg.len());

        let new_facts: Vec<AtomId> = self.fact_seg[first_new_fact..]
            .iter()
            .map(|&fs| self.atom_of(fs))
            .collect();
        let mut new_rules = Vec::with_capacity(self.num_instances() - first_new_inst);
        for i in first_new_inst..self.num_instances() {
            let head = self.atoms[self.inst_head[i].index()].atom;
            let pos: Vec<AtomId> = self.pos_seg
                [self.pos_off[i] as usize..self.pos_off[i + 1] as usize]
                .iter()
                .map(|&s| self.atoms[s.index()].atom)
                .collect();
            let neg: Vec<AtomId> =
                self.neg_atoms[self.neg_off[i] as usize..self.neg_off[i + 1] as usize].to_vec();
            new_rules.push(GroundRule::new(head, pos, neg));
        }

        let mut new_atoms: Vec<AtomId> = Vec::new();
        {
            let push = |a: AtomId, out: &mut Vec<AtomId>| {
                if !prev.mentions(a) {
                    out.push(a);
                }
            };
            for &f in &new_facts {
                push(f, &mut new_atoms);
            }
            for r in &new_rules {
                push(r.head, &mut new_atoms);
                for &b in r.pos.iter().chain(r.neg.iter()) {
                    push(b, &mut new_atoms);
                }
            }
        }
        new_atoms.sort_unstable();
        new_atoms.dedup();
        prev.extend_with(&new_atoms, &new_facts, &new_rules)
    }
}

/// Removes adjacent duplicates in `v[start..]` (which must be sorted).
fn dedup_tail(v: &mut Vec<u32>, start: usize) {
    let mut w = start;
    for r in start..v.len() {
        if r == start || v[r] != v[w - 1] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

/// An instance parked until its side atoms appear, with its body spans in
/// the pending arenas.
#[derive(Clone, Copy, Debug)]
struct Pending {
    src_rule: u32,
    guard: u32,
    head: AtomId,
    pos_off: u32,
    pos_len: u32,
    neg_off: u32,
    neg_len: u32,
    missing: u32,
}

struct Builder<'a> {
    universe: &'a mut Universe,
    program: &'a SkolemProgram,
    budget: ChaseBudget,
    /// Runtime limits (deadline / cancellation / memory), polled at round
    /// boundaries. Unlimited budgets cost one branch per round.
    solve: SolveBudget,
    /// Rule indexes per guard predicate (flat, [`wfdl_core::PredId`]-indexed).
    rules_by_guard_pred: Vec<Vec<u32>>,
    /// Predicate restriction for goal-directed builds: when set, only
    /// facts whose predicate is in the mask are seeded, and only rules
    /// whose head predicate is in the mask fire (the mask's relevance
    /// closure guarantees those rules read in-mask bodies only).
    restrict: Option<&'a [bool]>,

    /// The segment being resumed, if any: depth/level relaxation over its
    /// instances walks the finalized body-occurrence CSR instead of the
    /// (empty for old instances) intrusive lists.
    old: Option<&'a ChaseSegment>,

    // --- final segment state, built in place ---
    atoms: Vec<SegmentAtom>,
    seg_of: Vec<u32>,
    fact_seg: Vec<SegAtomId>,
    fact_set: BitSet,
    inst_src_rule: Vec<u32>,
    inst_guard: Vec<SegAtomId>,
    inst_head: Vec<SegAtomId>,
    pos_off: Vec<u32>,
    pos_seg: Vec<SegAtomId>,
    neg_off: Vec<u32>,
    neg_atoms: Vec<AtomId>,

    /// One bit per segment atom: its (predicate's) rules were instantiated.
    /// Replaces a hash set of `(rule, atom)` pairs — expansion attempts
    /// every rule of the guard predicate in one sweep, so pair granularity
    /// is never needed.
    expanded: Vec<bool>,
    /// Intrusive per-segment-atom lists of instances whose positive body
    /// mentions the atom (drives depth/level relaxation). `body_head`/
    /// `body_tail` are cursors per atom; entries are appended, never freed.
    body_head: Vec<u32>,
    body_tail: Vec<u32>,
    body_next: Vec<u32>,
    body_inst: Vec<u32>,
    /// Intrusive watch lists per **universe** atom id (missing side atoms
    /// are not yet segment atoms), same entry-pool shape.
    watch_head: Vec<u32>,
    watch_tail: Vec<u32>,
    watch_next: Vec<u32>,
    watch_pend: Vec<u32>,
    /// Parked instances plus the arenas their body spans point into.
    pending: Vec<Pending>,
    pend_pos: Vec<AtomId>,
    pend_neg: Vec<AtomId>,

    expand_queue: VecDeque<u32>,
    relax_queue: VecDeque<u32>,

    /// Current round's expansion frontier, in expand-queue (= discovery)
    /// order; reused across rounds.
    frontier: Vec<u32>,
    /// The round's match staging area, reused across rounds.
    matches: MatchBuffer,
    stats: ChaseStats,

    // --- reusable scratch buffers (zero steady-state allocation) ---
    scratch_args: Vec<TermId>,
    scratch_pos: Vec<AtomId>,
    scratch_neg: Vec<AtomId>,
    scratch_missing: Vec<AtomId>,

    /// First structural cap or runtime budget trip observed, if any.
    truncation: Option<TruncationReason>,
}

/// Staging area for one round's match phase: every guard match found in
/// the frontier, with the total substitution it bound, in frontier order.
/// Matching is read-only on the universe; the merge then applies the
/// matches in exactly this order, which is what makes all interning
/// order-canonical.
struct MatchBuffer {
    /// `(frontier atom, rule, offset, len)`; the span indexes `totals`.
    results: Vec<(u32, u32, u32, u32)>,
    /// Pooled total substitutions for the round's matches.
    totals: Vec<TermId>,
    binding: Binding,
    scratch_total: Vec<TermId>,
}

impl<'a> Builder<'a> {
    fn new(
        universe: &'a mut Universe,
        program: &'a SkolemProgram,
        budget: ChaseBudget,
        solve: SolveBudget,
    ) -> Self {
        let mut rules_by_guard_pred: Vec<Vec<u32>> = Vec::new();
        for (i, rule) in program.rules.iter().enumerate() {
            let p = rule.guard_atom().pred.index();
            if rules_by_guard_pred.len() <= p {
                rules_by_guard_pred.resize_with(p + 1, Vec::new);
            }
            rules_by_guard_pred[p].push(i as u32);
        }
        let seg_of = vec![NONE; universe.atoms.len()];
        Builder {
            universe,
            program,
            budget,
            solve,
            rules_by_guard_pred,
            restrict: None,
            old: None,
            atoms: Vec::new(),
            seg_of,
            fact_seg: Vec::new(),
            fact_set: BitSet::new(),
            inst_src_rule: Vec::new(),
            inst_guard: Vec::new(),
            inst_head: Vec::new(),
            pos_off: vec![0],
            pos_seg: Vec::new(),
            neg_off: vec![0],
            neg_atoms: Vec::new(),
            expanded: Vec::new(),
            body_head: Vec::new(),
            body_tail: Vec::new(),
            body_next: Vec::new(),
            body_inst: Vec::new(),
            watch_head: Vec::new(),
            watch_tail: Vec::new(),
            watch_next: Vec::new(),
            watch_pend: Vec::new(),
            pending: Vec::new(),
            pend_pos: Vec::new(),
            pend_neg: Vec::new(),
            expand_queue: VecDeque::new(),
            relax_queue: VecDeque::new(),
            frontier: Vec::new(),
            matches: MatchBuffer {
                results: Vec::new(),
                totals: Vec::new(),
                binding: Binding::new(0),
                scratch_total: Vec::new(),
            },
            stats: ChaseStats {
                threads: 1,
                effective_threads: 1,
                ..ChaseStats::default()
            },
            scratch_args: Vec::new(),
            scratch_pos: Vec::new(),
            scratch_neg: Vec::new(),
            scratch_missing: Vec::new(),
            truncation: None,
        }
    }

    /// Seeds a builder with the full state of an already-saturated
    /// segment, so saturation can continue from its frontier.
    fn from_segment(
        universe: &'a mut Universe,
        program: &'a SkolemProgram,
        old: &'a ChaseSegment,
        solve: SolveBudget,
    ) -> Self {
        let mut b = Builder::new(universe, program, old.budget, solve);
        b.atoms = old.atoms.clone();
        b.seg_of = old.seg_of.clone();
        b.fact_seg = old.fact_seg.clone();
        for &fs in &b.fact_seg {
            b.fact_set.insert(fs.index());
        }
        b.inst_src_rule = old.inst_src_rule.clone();
        b.inst_guard = old.inst_guard.clone();
        b.inst_head = old.inst_head.clone();
        b.pos_off = old.pos_off.clone();
        b.pos_seg = old.pos_seg.clone();
        b.neg_off = old.neg_off.clone();
        b.neg_atoms = old.neg_atoms.clone();
        let r = &old.resume;
        b.expanded = r.expanded.clone();
        b.pending = r.pending.clone();
        b.pend_pos = r.pend_pos.clone();
        b.pend_neg = r.pend_neg.clone();
        b.watch_head = r.watch_head.clone();
        b.watch_tail = r.watch_tail.clone();
        b.watch_next = r.watch_next.clone();
        b.watch_pend = r.watch_pend.clone();
        // Uncollected expansion work from a budget-tripped build: restoring
        // the queue makes the resume continue exactly where the tripped run
        // stopped. A cleanly quiesced build always leaves it empty.
        b.expand_queue = r.expand_queue.iter().copied().collect();
        // A previous run's budget trip belongs to that run — the resume
        // polls its own budget. Cap truncation never reaches this point
        // (`resume_budgeted` refuses those segments).
        b.truncation = None;
        // Intrusive body lists start empty for old atoms: relaxation over
        // old instances walks `old`'s finalized CSR; only instances fired
        // during the resume append entries here.
        b.body_head = vec![NONE; old.atoms.len()];
        b.body_tail = vec![NONE; old.atoms.len()];
        b.old = Some(old);
        b
    }

    /// Restricts this (fresh) builder to the predicates of `mask`:
    /// rules with out-of-mask heads never fire, out-of-mask facts are
    /// never seeded. The caller must pass a relevance-closed mask (every
    /// body predicate of every in-mask-headed rule is itself in-mask) —
    /// `wfdl-analyze`'s `ProgramSlice` computes exactly that — so the
    /// restricted saturation derives the same atoms at the same depths
    /// as the full chase would over the mask's predicates.
    fn restrict_to(&mut self, mask: &'a [bool]) {
        let program = self.program;
        for rules in &mut self.rules_by_guard_pred {
            rules.retain(|&ri| {
                let head = program.rules[ri as usize].head_pred.index();
                mask.get(head).copied().unwrap_or(false)
            });
        }
        self.restrict = Some(mask);
    }

    fn run(mut self, db: &Database) -> ChaseSegment {
        for &fact in db.facts() {
            if let Some(mask) = self.restrict {
                let pred = self.universe.atoms.pred(fact);
                if !mask.get(pred.index()).copied().unwrap_or(false) {
                    continue;
                }
            }
            self.add_fact(fact);
        }
        self.drain();
        let pending_at_end = self.pending.iter().filter(|p| p.missing > 0).count();
        let complete = self.truncation.is_none() && !self.blocked_by_depth();
        self.finish(pending_at_end, complete)
    }

    /// Continues a resumed build with the delta facts.
    fn run_delta(mut self, new_facts: &[AtomId]) -> ChaseSegment {
        // Resume-boundary fault injection: trip kinds stop the resumed
        // saturation at its first round boundary (delta facts registered
        // and relaxed, expansions deferred to the next resume).
        if let Some(r) = self.solve.fire_fault(FaultSite::ResumeBoundary) {
            self.trip(r);
        }
        for &fact in new_facts {
            self.add_fact(fact);
        }
        self.drain();
        let pending_at_end = self.pending.iter().filter(|p| p.missing > 0).count();
        let complete = self.truncation.is_none() && !self.blocked_by_depth();
        self.finish(pending_at_end, complete)
    }

    /// True iff some atom with applicable rules sits at the depth budget
    /// unexpanded — it could have children beyond the budgeted depth, so
    /// the segment is a truncation. Computed from the final depth minima
    /// (not a sticky in-run flag) so a resume that relaxes a previously
    /// gated atom below the budget reports completeness exactly.
    fn blocked_by_depth(&self) -> bool {
        if self.budget.max_depth == u32::MAX {
            return false;
        }
        self.atoms.iter().enumerate().any(|(i, sa)| {
            !self.expanded[i]
                && sa.depth >= self.budget.max_depth
                && self
                    .rules_by_guard_pred
                    .get(self.universe.atoms.pred(sa.atom).index())
                    .is_some_and(|r| !r.is_empty())
        })
    }

    /// The saturation work loop: rounds of *relax to fixpoint → collect
    /// the expansion frontier → match → merge*.
    ///
    /// The frontier is consumed in expand-queue order and matching is
    /// read-only, so the merge applies the matches in frontier order —
    /// `SegAtomId` assignment, depth/level minima, instance order, cap
    /// behavior and universe interning order are all canonical.
    fn drain(&mut self) {
        let budgeted = !self.solve.is_unlimited();
        loop {
            while let Some(ai) = self.relax_queue.pop_front() {
                self.relax(ai);
            }
            // Round boundary: relaxation is at fixpoint and every merge has
            // been applied, so stopping here leaves the saturation state
            // fully coherent (the uncollected expand queue is retained for
            // resume). Only runtime budget trips stop the loop; the
            // structural caps keep their historical peter-out semantics.
            if budgeted && self.trip_at_round_boundary() {
                break;
            }
            self.collect_frontier();
            if self.frontier.is_empty() {
                // Nothing passed the gates; relaxation cannot have run
                // since the queue was drained above, so saturation is done.
                break;
            }
            self.stats.rounds += 1;
            self.stats.frontier_atoms += self.frontier.len() as u64;

            let match_start = Instant::now();
            self.match_frontier();
            self.stats.match_ns += match_start.elapsed().as_nanos() as u64;

            let merge_start = Instant::now();
            let results = std::mem::take(&mut self.matches.results);
            let totals = std::mem::take(&mut self.matches.totals);
            for &(ai, ri, off, len) in &results {
                self.apply_match(ai, ri, &totals[off as usize..(off + len) as usize]);
            }
            self.matches.results = results;
            self.matches.totals = totals;
            self.stats.merge_ns += merge_start.elapsed().as_nanos() as u64;

            // Merge-phase fault injection (after the round's merge has been
            // applied, so trip kinds still stop at a coherent boundary).
            if budgeted {
                if let Some(r) = self
                    .solve
                    .fire_fault(FaultSite::ChaseMerge(self.stats.rounds))
                {
                    while let Some(ai) = self.relax_queue.pop_front() {
                        self.relax(ai);
                    }
                    self.trip(r);
                    break;
                }
            }
        }
    }

    /// Polls the fault plan and the runtime budget at a round boundary;
    /// records the first trip and reports whether saturation must stop.
    fn trip_at_round_boundary(&mut self) -> bool {
        if self
            .truncation
            .is_some_and(TruncationReason::is_budget_trip)
        {
            // Tripped before the loop (resume-boundary fault injection).
            return true;
        }
        if let Some(r) = self
            .solve
            .fire_fault(FaultSite::ChaseRound(self.stats.rounds))
        {
            self.trip(r);
            return true;
        }
        let mem = if self.solve.wants_mem() {
            self.mem_bytes()
        } else {
            0
        };
        if let Some(r) = self.solve.check(mem) {
            self.trip(r);
            return true;
        }
        false
    }

    /// Records the first truncation reason; later trips never overwrite it.
    fn trip(&mut self, reason: TruncationReason) {
        if self.truncation.is_none() {
            self.truncation = Some(reason);
        }
    }

    /// Estimate of the builder's pool footprint in bytes — capacities of
    /// the major flat arrays, O(1) to compute. This is what the memory
    /// budget is accounted against.
    fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let u32s = self.seg_of.capacity()
            + self.inst_src_rule.capacity()
            + self.inst_guard.capacity()
            + self.inst_head.capacity()
            + self.pos_off.capacity()
            + self.pos_seg.capacity()
            + self.neg_off.capacity()
            + self.neg_atoms.capacity()
            + self.pend_pos.capacity()
            + self.pend_neg.capacity()
            + self.watch_head.capacity()
            + self.watch_tail.capacity()
            + self.watch_next.capacity()
            + self.watch_pend.capacity()
            + self.body_head.capacity()
            + self.body_tail.capacity()
            + self.body_next.capacity()
            + self.body_inst.capacity();
        self.atoms.capacity() * size_of::<SegmentAtom>()
            + self.pending.capacity() * size_of::<Pending>()
            + u32s * size_of::<u32>()
            + self.expanded.capacity()
    }

    /// Drains the expand queue through the expansion gates into
    /// `frontier`, marking collected atoms expanded. Gate order matches
    /// the historical per-atom expansion exactly: rule-less and
    /// depth-gated atoms stay **unmarked** so `blocked_by_depth` and the
    /// resume path still see them.
    fn collect_frontier(&mut self) {
        self.frontier.clear();
        while let Some(ai) = self.expand_queue.pop_front() {
            let SegmentAtom { atom, depth, .. } = self.atoms[ai as usize];
            let pred = self.universe.atoms.pred(atom).index();
            match self.rules_by_guard_pred.get(pred) {
                Some(rules) if !rules.is_empty() => {}
                _ => continue,
            }
            if depth >= self.budget.max_depth {
                // Could have children beyond the budgeted depth;
                // `blocked_by_depth` reads the truncation off the final
                // minima, and a later relaxation re-queues the atom.
                continue;
            }
            if self.expanded[ai as usize] {
                // Re-queued by relaxation after its rules already
                // instantiated — nothing new can fire.
                continue;
            }
            self.expanded[ai as usize] = true;
            self.frontier.push(ai);
        }
    }

    /// Runs the match phase over the current frontier: matches every rule
    /// guarded by each frontier atom's predicate against the atom, staging
    /// the results in frontier order. Interns nothing (guard matching
    /// binds variables against an already-interned atom).
    fn match_frontier(&mut self) {
        let Builder {
            universe,
            program,
            rules_by_guard_pred,
            atoms,
            frontier,
            matches,
            ..
        } = self;
        let universe: &Universe = universe;
        matches.results.clear();
        matches.totals.clear();
        for &ai in frontier.iter() {
            let atom = atoms[ai as usize].atom;
            let pred = universe.atoms.pred(atom).index();
            // The frontier gate only admits atoms with at least one rule.
            for &ri in &rules_by_guard_pred[pred] {
                let rule = &program.rules[ri as usize];
                matches.binding.reset(rule.num_vars());
                if !match_atom(universe, rule.guard_atom(), atom, &mut matches.binding) {
                    continue;
                }
                let off = matches.totals.len() as u32;
                matches
                    .binding
                    .write_total(rule.num_vars(), &mut matches.scratch_total);
                matches.totals.extend_from_slice(&matches.scratch_total);
                matches
                    .results
                    .push((ai, ri, off, matches.scratch_total.len() as u32));
            }
        }
    }

    /// Registers a database fact: a brand-new atom enters at depth and
    /// level 0; an atom previously *derived* at positive depth is relaxed
    /// to 0 and the improvement propagated.
    fn add_fact(&mut self, fact: AtomId) {
        match self.lookup_seg(fact) {
            None => {
                let idx = self.atoms.len();
                self.add_atom(fact, 0, 0);
                self.mark_fact(idx);
            }
            Some(s) => {
                self.mark_fact(s as usize);
                let meta = &mut self.atoms[s as usize];
                if meta.depth > 0 || meta.level > 0 {
                    meta.depth = 0;
                    meta.level = 0;
                    self.relax_queue.push_back(s);
                }
            }
        }
    }

    fn mark_fact(&mut self, seg: usize) {
        if self.fact_set.insert(seg) {
            self.fact_seg.push(SegAtomId::from_index(seg));
        }
    }

    /// Finalizes the occurrence CSRs (counting sort over the instance
    /// arrays) and assembles the segment.
    fn finish(mut self, pending_at_end: usize, complete: bool) -> ChaseSegment {
        let n = self.atoms.len();
        let num_inst = self.inst_src_rule.len();

        let mut guard_counts = vec![0u32; n];
        let mut head_counts = vec![0u32; n];
        let mut body_counts = vec![0u32; n];
        let mut pos_distinct = vec![0u32; num_inst];
        for i in 0..num_inst {
            guard_counts[self.inst_guard[i].index()] += 1;
            head_counts[self.inst_head[i].index()] += 1;
            let span = self.pos_off[i] as usize..self.pos_off[i + 1] as usize;
            for k in span.clone() {
                let s = self.pos_seg[k];
                // Count each distinct body atom once per instance (bodies
                // are short; a linear prior-occurrence scan beats any set).
                if self.pos_seg[span.start..k].contains(&s) {
                    continue;
                }
                body_counts[s.index()] += 1;
                pos_distinct[i] += 1;
            }
        }
        let prefix_sum = |counts: &[u32]| -> Vec<u32> {
            let mut off = Vec::with_capacity(counts.len() + 1);
            let mut acc = 0u32;
            off.push(0);
            for &c in counts {
                acc += c;
                off.push(acc);
            }
            off
        };
        let guard_occ_off = prefix_sum(&guard_counts);
        let head_occ_off = prefix_sum(&head_counts);
        let body_occ_off = prefix_sum(&body_counts);
        let zero = InstanceId::from_index(0);
        let mut guard_occ = vec![zero; guard_occ_off[n] as usize];
        let mut head_occ = vec![zero; head_occ_off[n] as usize];
        let mut body_occ = vec![zero; body_occ_off[n] as usize];
        let mut guard_fill: Vec<u32> = guard_occ_off[..n].to_vec();
        let mut head_fill: Vec<u32> = head_occ_off[..n].to_vec();
        let mut body_fill: Vec<u32> = body_occ_off[..n].to_vec();
        for i in 0..num_inst {
            let id = InstanceId::from_index(i);
            let g = self.inst_guard[i].index();
            guard_occ[guard_fill[g] as usize] = id;
            guard_fill[g] += 1;
            let h = self.inst_head[i].index();
            head_occ[head_fill[h] as usize] = id;
            head_fill[h] += 1;
            let span = self.pos_off[i] as usize..self.pos_off[i + 1] as usize;
            for k in span.clone() {
                let s = self.pos_seg[k];
                if self.pos_seg[span.start..k].contains(&s) {
                    continue;
                }
                body_occ[body_fill[s.index()] as usize] = id;
                body_fill[s.index()] += 1;
            }
        }

        self.atoms.shrink_to_fit();
        self.seg_of.shrink_to_fit();
        self.inst_src_rule.shrink_to_fit();
        self.inst_guard.shrink_to_fit();
        self.inst_head.shrink_to_fit();
        self.pos_off.shrink_to_fit();
        self.pos_seg.shrink_to_fit();
        self.neg_off.shrink_to_fit();
        self.neg_atoms.shrink_to_fit();

        ChaseSegment {
            atoms: self.atoms,
            seg_of: self.seg_of,
            fact_seg: self.fact_seg,
            inst_src_rule: self.inst_src_rule,
            inst_guard: self.inst_guard,
            inst_head: self.inst_head,
            pos_off: self.pos_off,
            pos_seg: self.pos_seg,
            pos_distinct,
            neg_off: self.neg_off,
            neg_atoms: self.neg_atoms,
            guard_occ_off,
            guard_occ,
            head_occ_off,
            head_occ,
            body_occ_off,
            body_occ,
            complete,
            pending_at_end,
            budget: self.budget,
            inherited_instances: self.old.map_or(0, |o| o.num_instances()),
            stats: self.stats,
            resume: ResumeState {
                expanded: self.expanded,
                pending: self.pending,
                pend_pos: self.pend_pos,
                pend_neg: self.pend_neg,
                watch_head: self.watch_head,
                watch_tail: self.watch_tail,
                watch_next: self.watch_next,
                watch_pend: self.watch_pend,
                expand_queue: self.expand_queue.into_iter().collect(),
                truncation: self.truncation,
            },
        }
    }

    /// Segment id of an interned atom, if materialized.
    #[inline]
    fn lookup_seg(&self, atom: AtomId) -> Option<u32> {
        match self.seg_of.get(atom.index()) {
            Some(&s) if s != NONE => Some(s),
            _ => None,
        }
    }

    /// Registers a new atom, queuing it for expansion and firing pending
    /// instances that were waiting for it. Assumes not present.
    fn add_atom(&mut self, atom: AtomId, depth: u32, level: u32) {
        let uid = atom.index();
        if self.seg_of.len() <= uid {
            self.seg_of.resize(uid + 1, NONE);
        }
        debug_assert_eq!(self.seg_of[uid], NONE, "atom already in segment");
        let idx = self.atoms.len() as u32;
        self.atoms.push(SegmentAtom { atom, depth, level });
        self.seg_of[uid] = idx;
        self.expanded.push(false);
        self.body_head.push(NONE);
        self.body_tail.push(NONE);
        self.expand_queue.push_back(idx);
        // Wake pending instances watching this atom. Detach the list first;
        // entries are append-only, so traversal stays valid while nested
        // fires push new entries for *other* atoms.
        if uid < self.watch_head.len() {
            let mut e = self.watch_head[uid];
            self.watch_head[uid] = NONE;
            self.watch_tail[uid] = NONE;
            while e != NONE {
                let next = self.watch_next[e as usize];
                let p = self.watch_pend[e as usize] as usize;
                self.pending[p].missing -= 1;
                if self.pending[p].missing == 0 {
                    self.fire_pending(p);
                }
                e = next;
            }
        }
    }

    /// Appends a watch-list entry for `uid` → pending instance `pend`.
    fn watch_push(&mut self, uid: usize, pend: u32) {
        if self.watch_head.len() <= uid {
            self.watch_head.resize(uid + 1, NONE);
            self.watch_tail.resize(uid + 1, NONE);
        }
        let e = self.watch_next.len() as u32;
        self.watch_next.push(NONE);
        self.watch_pend.push(pend);
        let tail = self.watch_tail[uid];
        if tail == NONE {
            self.watch_head[uid] = e;
        } else {
            self.watch_next[tail as usize] = e;
        }
        self.watch_tail[uid] = e;
    }

    /// Appends a body-occurrence entry for segment atom `s` → instance.
    fn body_link(&mut self, s: u32, inst: u32) {
        let e = self.body_next.len() as u32;
        self.body_next.push(NONE);
        self.body_inst.push(inst);
        let tail = self.body_tail[s as usize];
        if tail == NONE {
            self.body_head[s as usize] = e;
        } else {
            self.body_next[tail as usize] = e;
        }
        self.body_tail[s as usize] = e;
    }

    /// Applies one staged guard match: instantiates rule
    /// `ri`'s body and head under the total substitution, then fires the
    /// instance or parks it on its missing side atoms. This is the serial
    /// half of expansion — it interns new atoms and skolem terms, which
    /// is exactly why it must run in canonical (frontier) order.
    fn apply_match(&mut self, ai: u32, ri: u32, total: &[TermId]) {
        let program = self.program;
        let rule = &program.rules[ri as usize];
        self.scratch_pos.clear();
        for a in &rule.body_pos {
            let id = instantiate_atom_into(self.universe, a, total, &mut self.scratch_args);
            self.scratch_pos.push(id);
        }
        self.scratch_neg.clear();
        for a in &rule.body_neg {
            let id = instantiate_atom_into(self.universe, a, total, &mut self.scratch_args);
            self.scratch_neg.push(id);
        }
        let head = rule.instantiate_head_into(self.universe, total, &mut self.scratch_args);

        self.scratch_missing.clear();
        for i in 0..self.scratch_pos.len() {
            let a = self.scratch_pos[i];
            if self.lookup_seg(a).is_none() {
                self.scratch_missing.push(a);
            }
        }
        self.scratch_missing.sort_unstable();
        self.scratch_missing.dedup();
        if self.scratch_missing.is_empty() {
            self.fire(ri, ai, head);
        } else {
            let pidx = self.pending.len() as u32;
            let pend = Pending {
                src_rule: ri,
                guard: ai,
                head,
                pos_off: self.pend_pos.len() as u32,
                pos_len: self.scratch_pos.len() as u32,
                neg_off: self.pend_neg.len() as u32,
                neg_len: self.scratch_neg.len() as u32,
                missing: self.scratch_missing.len() as u32,
            };
            self.pend_pos.extend_from_slice(&self.scratch_pos);
            self.pend_neg.extend_from_slice(&self.scratch_neg);
            self.pending.push(pend);
            for i in 0..self.scratch_missing.len() {
                let m = self.scratch_missing[i];
                self.watch_push(m.index(), pidx);
            }
        }
    }

    /// Fires a parked instance whose last missing side atom just appeared:
    /// stages its body spans back into the scratch buffers and records it.
    fn fire_pending(&mut self, p: usize) {
        let pd = self.pending[p];
        self.scratch_pos.clear();
        self.scratch_pos.extend_from_slice(
            &self.pend_pos[pd.pos_off as usize..(pd.pos_off + pd.pos_len) as usize],
        );
        self.scratch_neg.clear();
        self.scratch_neg.extend_from_slice(
            &self.pend_neg[pd.neg_off as usize..(pd.neg_off + pd.neg_len) as usize],
        );
        self.fire(pd.src_rule, pd.guard, pd.head);
    }

    /// Records a fired instance (positive body in `scratch_pos`, negative
    /// in `scratch_neg`, all positive atoms present) and derives its head.
    /// The scratch buffers are fully consumed before the head derivation
    /// can recurse into nested fires.
    fn fire(&mut self, src_rule: u32, guard: u32, head: AtomId) {
        if self.inst_src_rule.len() >= self.budget.max_instances {
            self.trip(TruncationReason::InstanceCap);
            return;
        }
        let head_seg = self.lookup_seg(head);
        if head_seg.is_none() && self.atoms.len() >= self.budget.max_atoms {
            // The head would exceed the atom cap; drop the instance whole
            // so every recorded instance's head is a segment atom.
            self.trip(TruncationReason::AtomCap);
            return;
        }

        let child_depth = self.atoms[guard as usize].depth + 1;
        let mut child_level = 0u32;
        for i in 0..self.scratch_pos.len() {
            let s = self.seg_of[self.scratch_pos[i].index()];
            debug_assert_ne!(s, NONE, "fired instance has a missing body atom");
            child_level = child_level.max(self.atoms[s as usize].level);
        }
        let child_level = child_level + 1;

        let iid = self.inst_src_rule.len() as u32;
        self.inst_src_rule.push(src_rule);
        self.inst_guard.push(SegAtomId::from_index(guard as usize));
        let hseg = head_seg.unwrap_or(self.atoms.len() as u32);
        self.inst_head.push(SegAtomId::from_index(hseg as usize));
        for i in 0..self.scratch_pos.len() {
            let s = self.seg_of[self.scratch_pos[i].index()];
            self.pos_seg.push(SegAtomId::from_index(s as usize));
            self.body_link(s, iid);
        }
        self.pos_off.push(self.pos_seg.len() as u32);
        self.neg_atoms.extend_from_slice(&self.scratch_neg);
        self.neg_off.push(self.neg_atoms.len() as u32);

        match head_seg {
            None => self.add_atom(head, child_depth, child_level),
            Some(hi) => {
                let meta = &mut self.atoms[hi as usize];
                if child_depth < meta.depth || child_level < meta.level {
                    meta.depth = meta.depth.min(child_depth);
                    meta.level = meta.level.min(child_level);
                    self.relax_queue.push_back(hi);
                }
            }
        }
    }

    /// Propagates a depth/level improvement of `atoms[ai]` to the heads of
    /// every instance whose body mentions it, and re-checks the depth gate.
    fn relax(&mut self, ai: u32) {
        let depth = self.atoms[ai as usize].depth;
        // The atom may now be allowed to expand where it previously hit the
        // depth gate.
        if depth < self.budget.max_depth {
            self.expand_queue.push_back(ai);
        }
        // Instances inherited from a resumed segment: their body
        // occurrences live in the old segment's finalized CSR (the
        // intrusive lists below only cover instances fired this run).
        if let Some(old) = self.old {
            if (ai as usize) < old.atoms.len() {
                for &iid in old.instances_with_body_seg(SegAtomId::from_index(ai as usize)) {
                    self.relax_instance(iid.index());
                }
            }
        }
        let mut e = self.body_head[ai as usize];
        while e != NONE {
            let iid = self.body_inst[e as usize] as usize;
            e = self.body_next[e as usize];
            self.relax_instance(iid);
        }
    }

    /// Re-derives instance `iid`'s head depth/level from its current body
    /// minima, queueing the head if it improved.
    fn relax_instance(&mut self, iid: usize) {
        let child_depth = self.atoms[self.inst_guard[iid].index()].depth + 1;
        let mut child_level = 0u32;
        for k in self.pos_off[iid] as usize..self.pos_off[iid + 1] as usize {
            child_level = child_level.max(self.atoms[self.pos_seg[k].index()].level);
        }
        let child_level = child_level + 1;
        let hi = self.inst_head[iid].index();
        let meta = &mut self.atoms[hi];
        if child_depth < meta.depth || child_level < meta.level {
            meta.depth = meta.depth.min(child_depth);
            meta.level = meta.level.min(child_level);
            self.relax_queue.push_back(hi as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example4;
    use wfdl_core::{Program, RTerm, RuleAtom, Tgd, Var};

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    #[test]
    fn example4_segment_depth3_matches_figure() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        // The figure shows, up to depth 3: R-chain R(0,0,1), R(0,1,a),
        // R(0,a,b), R(0,b,c); P(0,0), P(0,1), P(0,a), P(0,b);
        // Q(1), Q(a), Q(b); S(0); T(0).
        let labels: Vec<String> = seg
            .atoms()
            .iter()
            .map(|sa| u.display_atom(sa.atom).to_string())
            .collect();
        for expected in ["R(0,0,1)", "P(0,0)", "P(0,1)", "Q(1)", "S(0)", "T(0)"] {
            assert!(
                labels.iter().any(|l| l == expected),
                "missing {expected}; got {labels:?}"
            );
        }
        // The R-chain reaches depth 3.
        assert_eq!(seg.max_depth_reached(), 3);
        // Depth was capped, so the segment must report truncation.
        assert!(!seg.complete);
        // Counts: R: 4 atoms (depths 0..3); P: 4 (0 and children of R-chain
        // at depths 1..3); Q: 3 (depths 1..3); S: 1; T: 1.
        assert_eq!(seg.atoms().len(), 13, "{labels:?}");
    }

    #[test]
    fn example4_levels_and_depths() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(2));
        let r = u.lookup_pred("R").unwrap();
        let p = u.lookup_pred("P").unwrap();
        let zero = u.constant("0");
        let one = u.constant("1");
        let r001 = u.atom(r, vec![zero, zero, one]).unwrap();
        let m = seg.meta(r001).unwrap();
        assert_eq!((m.depth, m.level), (0, 0));
        // P(0,1) is derived from R(0,0,1) and P(0,0): depth 1, level 1.
        let p01 = u.atom(p, vec![zero, one]).unwrap();
        let m = seg.meta(p01).unwrap();
        assert_eq!((m.depth, m.level), (1, 1));
        // a = f(0,0,1); P(0,a) needs P(0,1) (level 1) and R(0,1,a) (level 1)
        // so its level is 2, depth 2.
        let f = u
            .lookup_skolem("sk_r1_0")
            .expect("skolem fn named after rule label");
        let a_term = u.skolem_term(f, vec![zero, zero, one]).unwrap();
        let p0a = u.atom(p, vec![zero, a_term]).unwrap();
        let m = seg.meta(p0a).unwrap();
        assert_eq!((m.depth, m.level), (2, 2));
    }

    #[test]
    fn nonexistential_program_completes_unbounded() {
        let mut u = Universe::new();
        let e = u.pred("edge", 2).unwrap();
        let rch = u.pred("reach", 2).unwrap();
        // edge(X,Y) -> reach(X,Y)
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(e, vec![v(0), v(1)])],
                vec![],
                vec![RuleAtom::new(rch, vec![v(0), v(1)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let mut db = Database::new();
        let a = u.constant("a");
        let b = u.constant("b");
        let eab = u.atom(e, vec![a, b]).unwrap();
        db.insert(&u, eab).unwrap();
        let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        assert!(seg.complete);
        assert_eq!(seg.atoms().len(), 2);
        assert_eq!(seg.num_instances(), 1);
        let gp = seg.to_ground_program();
        assert_eq!(gp.num_rules(), 1);
        assert_eq!(gp.facts().len(), 1);
    }

    #[test]
    fn side_conditions_fire_late() {
        // p(X) -> q(X); q(X), r(X) ... r arrives only via another rule.
        // s(X) -> r(X); q(X) with side condition r(X): use a rule
        // q2(X) guard q(X) with side r(X).
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let s = u.pred("s", 1).unwrap();
        let done = u.pred("done", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(s, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(rr, vec![v(0)])],
            )
            .unwrap(),
        );
        // guard q(X), side r(X) -> done(X)
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)]), RuleAtom::new(rr, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(done, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let mut db = Database::new();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let sc = u.atom(s, vec![c]).unwrap();
        db.insert(&u, pc).unwrap();
        db.insert(&u, sc).unwrap();
        let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        let donec = u.atom(done, vec![c]).unwrap();
        assert!(seg.contains(donec), "pending side condition must fire");
        assert!(seg.complete);
        assert_eq!(seg.pending_at_end, 0);
    }

    #[test]
    fn pending_that_never_fires_keeps_segment_complete() {
        let mut u = Universe::new();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let done = u.pred("done", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)]), RuleAtom::new(rr, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(done, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let mut db = Database::new();
        let c = u.constant("c");
        let qc = u.atom(q, vec![c]).unwrap();
        db.insert(&u, qc).unwrap();
        let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        // r(c) never exists, so the instance never fires — but the chase is
        // still complete (nothing was cut off by a budget).
        assert!(seg.complete);
        assert_eq!(seg.pending_at_end, 1);
        assert_eq!(seg.num_instances(), 0);
    }

    /// A discovery-order-sensitive digest: segment atoms in `SegAtomId`
    /// order with metadata, instances in `InstanceId` order with raw body
    /// spans. Any divergence in interning or merge order shows up here.
    fn ordered_digest(u: &Universe, seg: &ChaseSegment) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for sa in seg.atoms() {
            writeln!(
                out,
                "{} d{} l{}",
                u.display_atom(sa.atom),
                sa.depth,
                sa.level
            )
            .unwrap();
        }
        for iid in seg.instance_ids() {
            let pos: Vec<String> = seg
                .pos_seg(iid)
                .iter()
                .map(|&s| s.index().to_string())
                .collect();
            let neg: Vec<String> = seg
                .neg_atoms(iid)
                .iter()
                .map(|&a| u.display_atom(a).to_string())
                .collect();
            writeln!(
                out,
                "r{} g{} h{} [{}] [{}]",
                seg.src_rule(iid),
                seg.guard_seg(iid).index(),
                seg.head_seg(iid).index(),
                pos.join(","),
                neg.join(",")
            )
            .unwrap();
        }
        writeln!(
            out,
            "complete={} pending={}",
            seg.complete, seg.pending_at_end
        )
        .unwrap();
        out
    }

    #[test]
    fn stats_count_rounds_and_frontier() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        let s = seg.stats();
        assert_eq!(
            (s.threads, s.effective_threads, s.parallel_rounds),
            (1, 1, 0)
        );
        assert!(s.rounds > 0);
        // Every expanded atom crossed the frontier exactly once.
        assert!(s.frontier_atoms as usize <= seg.atoms().len());
        assert!(s.frontier_atoms > 0);
    }

    #[test]
    fn atom_cap_marks_incomplete() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(
            &mut u,
            &db,
            &prog,
            ChaseBudget::depth(64).with_max_atoms(10),
        );
        assert!(!seg.complete);
        assert!(seg.atoms().len() <= 10);
        // The dense invariant: every recorded instance's head is a segment
        // atom even when the atom cap truncated the chase.
        for iid in seg.instance_ids() {
            assert!(seg.head_seg(iid).index() < seg.atoms().len());
        }
    }

    /// Asserts two segments are equal up to discovery order: same atom set
    /// with identical depth/level minima, same fact set, same instance
    /// multiset, same completeness.
    type InstKey = (u32, AtomId, Vec<AtomId>, Vec<AtomId>, AtomId);

    fn assert_segments_equivalent(u: &Universe, a: &ChaseSegment, b: &ChaseSegment) {
        let key = |seg: &ChaseSegment| {
            let mut atoms: Vec<(AtomId, u32, u32)> = seg
                .atoms()
                .iter()
                .map(|sa| (sa.atom, sa.depth, sa.level))
                .collect();
            atoms.sort_unstable();
            let mut facts: Vec<AtomId> = seg.fact_segs().iter().map(|&f| seg.atom_of(f)).collect();
            facts.sort_unstable();
            let mut insts: Vec<InstKey> = seg
                .instance_ids()
                .map(|i| {
                    let inst = seg.instance(i);
                    let mut pos: Vec<AtomId> = inst.pos.to_vec();
                    pos.sort_unstable();
                    let mut neg: Vec<AtomId> = inst.neg.to_vec();
                    neg.sort_unstable();
                    (inst.src_rule, inst.guard_atom, pos, neg, inst.head)
                })
                .collect();
            insts.sort();
            (atoms, facts, insts, seg.complete)
        };
        let (ka, kb) = (key(a), key(b));
        assert_eq!(ka.0, kb.0, "atom depth/level minima differ");
        assert_eq!(ka.1, kb.1, "fact sets differ");
        assert_eq!(ka.2.len(), kb.2.len(), "instance counts differ");
        assert_eq!(ka.2, kb.2, "instance multisets differ");
        assert_eq!(ka.3, kb.3, "completeness differs");
        let _ = u;
    }

    #[test]
    fn resume_equals_fresh_build_on_example4() {
        // Build with half the seeds, resume with the rest; compare to a
        // fresh chase over the union (shared universe, so atom ids align).
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let budget = ChaseBudget::depth(4);
        let base = ChaseSegment::build(&mut u, &db, &prog, budget);
        assert!(base.can_resume());

        // Delta: a second independent chain seed plus its P-base.
        let r = u.lookup_pred("R").unwrap();
        let p = u.lookup_pred("P").unwrap();
        let c = u.constant("c9");
        let d = u.constant("d9");
        let rcd = u.atom(r, vec![c, c, d]).unwrap();
        let pcc = u.atom(p, vec![c, c]).unwrap();

        let resumed = base
            .resume_with(&mut u, &prog, &[rcd, pcc])
            .expect("resumable");

        let mut union_db = db.clone();
        union_db.insert(&u, rcd).unwrap();
        union_db.insert(&u, pcc).unwrap();
        let fresh = ChaseSegment::build(&mut u, &union_db, &prog, budget);
        assert_segments_equivalent(&u, &fresh, &resumed);
        assert!(resumed.num_instances() > base.num_instances());
    }

    #[test]
    fn resume_relaxes_previously_derived_atom_to_fact_depth() {
        // q(c) is first derived at depth 1; inserting it as a fact must
        // relax it (and its consequences) to depth 0 — matching a fresh
        // chase over the union.
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(rr, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let qc = u.atom(q, vec![c]).unwrap();
        let rc = u.atom(rr, vec![c]).unwrap();
        let mut db = Database::new();
        db.insert(&u, pc).unwrap();
        let base = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        assert_eq!(base.meta(qc).unwrap().depth, 1);
        assert_eq!(base.meta(rc).unwrap().depth, 2);

        let resumed = base.resume_with(&mut u, &sk, &[qc]).expect("resumable");
        assert_eq!(resumed.meta(qc).unwrap().depth, 0);
        assert_eq!(resumed.meta(qc).unwrap().level, 0);
        assert_eq!(resumed.meta(rc).unwrap().depth, 1);
        assert_eq!(resumed.num_facts(), 2);

        let mut union_db = db.clone();
        union_db.insert(&u, qc).unwrap();
        let fresh = ChaseSegment::build(&mut u, &union_db, &sk, ChaseBudget::unbounded());
        assert_segments_equivalent(&u, &fresh, &resumed);
    }

    #[test]
    fn resume_fires_parked_side_conditions() {
        // guard q(X), side r(X) -> done(X): the instance parks during the
        // base build and must fire when the resume delivers r(c).
        let mut u = Universe::new();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let done = u.pred("done", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)]), RuleAtom::new(rr, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(done, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let c = u.constant("c");
        let qc = u.atom(q, vec![c]).unwrap();
        let rc = u.atom(rr, vec![c]).unwrap();
        let donec = u.atom(done, vec![c]).unwrap();
        let mut db = Database::new();
        db.insert(&u, qc).unwrap();
        let base = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        assert_eq!(base.pending_at_end, 1);
        assert!(!base.contains(donec));

        let resumed = base.resume_with(&mut u, &sk, &[rc]).expect("resumable");
        assert!(resumed.contains(donec), "parked instance fired on resume");
        assert_eq!(resumed.pending_at_end, 0);
        assert!(resumed.complete);
    }

    #[test]
    fn resume_can_unblock_depth_truncation() {
        // Base: p(c) at depth limit 1 derives q(c) which sits gated at the
        // budget boundary (q guards a rule), so the base is truncated.
        // Inserting q(c) as a fact relaxes it to depth 0, the gate opens,
        // and the resumed segment is complete — exactly like a fresh build.
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(rr, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let qc = u.atom(q, vec![c]).unwrap();
        let rc = u.atom(rr, vec![c]).unwrap();
        let mut db = Database::new();
        db.insert(&u, pc).unwrap();
        let base = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::depth(1));
        assert!(!base.complete, "q(c) is gated at depth 1");
        assert!(!base.contains(rc));

        let resumed = base.resume_with(&mut u, &sk, &[qc]).expect("resumable");
        assert!(resumed.contains(rc));
        assert!(resumed.complete, "no atom is gated after the relaxation");
        let mut union_db = db.clone();
        union_db.insert(&u, qc).unwrap();
        let fresh = ChaseSegment::build(&mut u, &union_db, &sk, ChaseBudget::depth(1));
        assert_segments_equivalent(&u, &fresh, &resumed);
    }

    #[test]
    fn incremental_grounding_equals_from_scratch() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let budget = ChaseBudget::depth(4);
        let base = ChaseSegment::build(&mut u, &db, &prog, budget);
        let base_ground = base.to_ground_program();

        let r = u.lookup_pred("R").unwrap();
        let p = u.lookup_pred("P").unwrap();
        let c = u.constant("c9");
        let d = u.constant("d9");
        let rcd = u.atom(r, vec![c, c, d]).unwrap();
        let pcc = u.atom(p, vec![c, c]).unwrap();
        let resumed = base
            .resume_with(&mut u, &prog, &[rcd, pcc])
            .expect("resumable");

        let scratch = resumed.to_ground_program();
        let extended = resumed.to_ground_program_from(&base_ground);
        assert_eq!(scratch.atoms(), extended.atoms());
        assert_eq!(scratch.facts(), extended.facts());
        assert_eq!(scratch.facts_local(), extended.facts_local());
        assert_eq!(scratch.num_rules(), extended.num_rules());
        for r in 0..scratch.num_rules() {
            assert_eq!(scratch.head_local(r), extended.head_local(r), "rule {r}");
            assert_eq!(scratch.pos_local(r), extended.pos_local(r), "rule {r}");
            assert_eq!(scratch.neg_local(r), extended.neg_local(r), "rule {r}");
        }
        for l in 0..scratch.num_atoms() as u32 {
            assert_eq!(
                scratch.rules_with_head_local(l),
                extended.rules_with_head_local(l)
            );
            assert_eq!(
                scratch.rules_with_pos_local(l),
                extended.rules_with_pos_local(l)
            );
            assert_eq!(
                scratch.rules_with_neg_local(l),
                extended.rules_with_neg_local(l)
            );
        }
    }

    #[test]
    fn cap_truncated_segments_refuse_resume() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(
            &mut u,
            &db,
            &prog,
            ChaseBudget::depth(64).with_max_atoms(10),
        );
        assert!(!seg.can_resume());
        assert_eq!(seg.truncation(), Some(TruncationReason::AtomCap));
        let err = seg
            .resume_with(&mut u, &prog, &[])
            .expect_err("cap-truncated segments must refuse resume");
        assert_eq!(err.reason, TruncationReason::AtomCap);
    }

    #[test]
    fn depth_truncation_reports_depth_cap() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        assert!(!seg.complete);
        assert_eq!(seg.truncation(), Some(TruncationReason::DepthCap));
        assert!(seg.can_resume(), "depth truncation stays resumable");
    }

    #[test]
    fn expired_deadline_trips_before_first_round() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let solve = SolveBudget::unlimited()
            .with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
        assert!(!seg.complete);
        assert_eq!(seg.truncation(), Some(TruncationReason::Deadline));
        assert_eq!(seg.stats().rounds, 0, "tripped before any round ran");
        // Facts are registered even when the deadline trips immediately.
        assert_eq!(seg.num_facts(), db.facts().len());
        assert!(seg.can_resume(), "deadline trips stop at a clean boundary");
    }

    #[test]
    fn budget_trip_resume_reaches_exactly_the_uninterrupted_segment() {
        use wfdl_core::budget::{FaultKind, FaultPlan};
        // Uninterrupted reference.
        let reference = {
            let mut u = Universe::new();
            let (db, prog) = example4(&mut u);
            let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(4));
            ordered_digest(&u, &seg)
        };
        for round in [0u64, 1, 2] {
            for kind in [
                FaultKind::TripDeadline,
                FaultKind::TripMem,
                FaultKind::TripCancel,
            ] {
                let mut u = Universe::new();
                let (db, prog) = example4(&mut u);
                let solve = SolveBudget::unlimited().with_fault(FaultPlan {
                    site: FaultSite::ChaseRound(round),
                    kind,
                });
                let seg =
                    ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
                assert!(!seg.complete, "round {round} {kind:?}");
                assert!(seg.truncation().unwrap().is_budget_trip());
                assert!(seg.can_resume());
                // Resuming with an empty delta continues exactly where the
                // tripped run stopped — bit-identical to never tripping.
                let resumed = seg.resume_with(&mut u, &prog, &[]).expect("resumable");
                assert_eq!(
                    ordered_digest(&u, &resumed),
                    reference,
                    "resume after {kind:?} at round {round} diverged"
                );
            }
        }
    }

    #[test]
    fn merge_phase_trip_keeps_round_coherent() {
        use wfdl_core::budget::{FaultKind, FaultPlan};
        let reference = {
            let mut u = Universe::new();
            let (db, prog) = example4(&mut u);
            let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(4));
            ordered_digest(&u, &seg)
        };
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let solve = SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ChaseMerge(1),
            kind: FaultKind::TripDeadline,
        });
        let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
        assert!(!seg.complete);
        assert_eq!(seg.stats().rounds, 1, "stopped right after round 1's merge");
        let resumed = seg.resume_with(&mut u, &prog, &[]).expect("resumable");
        assert_eq!(ordered_digest(&u, &resumed), reference);
    }

    #[test]
    fn mem_budget_trips_on_tiny_limit() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let solve = SolveBudget::unlimited().with_mem_limit(1);
        let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
        assert!(!seg.complete);
        assert_eq!(seg.truncation(), Some(TruncationReason::MemBudget));
        assert!(seg.can_resume());
    }

    #[test]
    fn unknown_atom_queries_return_empty_slices() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        // An atom interned after the chase — never part of the segment.
        let fresh_pred = u.pred("fresh", 1).unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let foreign = u.atom(fresh_pred, vec![zero]).unwrap();
        assert!(!seg.contains(foreign));
        assert_eq!(seg.seg_id(foreign), None);
        assert!(seg.meta(foreign).is_none());
        assert!(seg.instances_with_guard(foreign).is_empty());
        assert!(seg.instances_with_head(foreign).is_empty());
        // A segment atom that heads nothing / guards nothing still answers
        // with (possibly empty) slices rather than a miss.
        let t = u.lookup_pred("T").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        assert!(seg.contains(t0));
        assert!(seg.instances_with_guard(t0).is_empty(), "T guards no rule");
        assert!(!seg.instances_with_head(t0).is_empty());
    }

    #[test]
    fn csr_accessors_mirror_instance_arrays() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(4));
        assert!(seg.num_instances() > 0);
        for iid in seg.instance_ids() {
            let inst = seg.instance(iid);
            // Dense accessors agree with the materialized view.
            assert_eq!(seg.guard_atom(iid), inst.guard_atom);
            assert_eq!(seg.head_atom(iid), inst.head);
            assert_eq!(seg.src_rule(iid), inst.src_rule);
            let pos: Vec<AtomId> = seg.pos_seg(iid).iter().map(|&s| seg.atom_of(s)).collect();
            assert_eq!(pos.as_slice(), inst.pos.as_ref());
            assert_eq!(seg.neg_atoms(iid), inst.neg.as_ref());
            // Occurrence rows contain the instance.
            assert!(seg
                .instances_with_guard_seg(seg.guard_seg(iid))
                .contains(&iid));
            assert!(seg
                .instances_with_head_seg(seg.head_seg(iid))
                .contains(&iid));
            for &s in seg.pos_seg(iid) {
                assert!(seg.instances_with_body_seg(s).contains(&iid));
            }
            // Distinct-count matches a naive dedup.
            let mut dedup = pos.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(seg.num_distinct_pos(iid) as usize, dedup.len());
        }
        // Round-trip seg ids.
        for (i, sa) in seg.atoms().iter().enumerate() {
            let sid = seg.seg_id(sa.atom).expect("segment atom has a seg id");
            assert_eq!(sid.index(), i);
            assert_eq!(seg.atom_of(sid), sa.atom);
        }
    }
}
