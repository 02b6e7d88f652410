//! SCC-modular well-founded evaluation.
//!
//! The global fixpoint engines ([`crate::wp`], [`crate::alternating`])
//! re-solve the entire ground program every stage, even when negation is
//! confined to a tiny subcomponent. This module exploits the classical
//! modularity (splitting) property of the well-founded semantics instead:
//!
//! 1. build the **atom dependency graph** (an edge `head → body atom` for
//!    every rule, positive and negative alike) over the program's dense
//!    local atom ids;
//! 2. run Tarjan's algorithm; its emission order visits every strongly
//!    connected component **after** all components it depends on;
//! 3. evaluate components bottom-up, substituting the verdicts of lower
//!    components into each rule as it is considered:
//!    * a component with no internal negative edge and no undefined lower
//!      verdict in reach is **definite**: one flat semi-naive pass derives
//!      its true atoms and everything else in it is false — no unfounded-set
//!      computation at all;
//!    * otherwise the component is **recursive**: the `W_P` machinery runs
//!      on the (usually tiny) subprogram of the component's own rules, with
//!      undefined lower atoms carried as *assumed-unknown* inputs.
//!
//! On stratified-heavy workloads almost every component is definite, so the
//! whole model is computed in a single linear sweep — the measured speedups
//! in `benches/modular_vs_global.rs` come from exactly this.
//!
//! The per-atom decision *stage* reported by this engine is the 1-based
//! ordinal of the component that decided it, which preserves the invariant
//! that stages are monotone along derivations but is **not** comparable to
//! the `W_P` stage arithmetic of Example 9 — use `EngineKind::WpLiteral`
//! for stage-faithful traces.

use crate::result::EngineResult;
use crate::wp::{StepMode, WpEngine};
use wfdl_core::budget::FaultSite;
use wfdl_core::fxhash::mix64 as mix;
use wfdl_core::{BitSet, Interp, SolveBudget, TruncationReason, Truth};
use wfdl_storage::{GroundProgram, GroundRule};

/// Per-run statistics of the modular evaluation, exposed through
/// [`EngineResult::stats`] and the `wfdl` CLI's `--stats` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModularStats {
    /// Number of strongly connected components of the dependency graph.
    pub components: usize,
    /// Components evaluated by the flat semi-naive pass.
    pub definite_components: usize,
    /// Components handed to the `W_P` subsolver.
    pub recursive_components: usize,
    /// Atoms in the largest component.
    pub largest_component: usize,
    /// Atoms evaluated inside recursive components.
    pub atoms_in_recursive: usize,
    /// Atoms left undefined by the run.
    pub unknown_atoms: usize,
    /// Components whose verdicts were copied from a previous solve
    /// (incremental runs only; see [`ModularMemo`]).
    pub components_reused: usize,
    /// Always `1`: kept only for `perfbench/`; solves are serial.
    pub threads: usize,
    /// Always `0`: kept only for `perfbench/`; solves are serial.
    pub wavefronts: usize,
    /// Always `0`: kept only for `perfbench/`; solves are serial.
    pub chunks: usize,
    /// Always `0`: kept only for `perfbench/`; solves are serial.
    pub queued_chunks: usize,
}

/// The condensation and per-component **input fingerprints** of one
/// modular solve, retained inside [`EngineResult::memo`] so the *next*
/// solve over a grown program can recognize unchanged components and copy
/// their verdicts instead of re-evaluating them.
///
/// A component's fingerprint digests everything its verdicts depend on:
/// its atom set (as universe [`wfdl_core::AtomId`]s, which are stable
/// across solves), fact membership, every rule heading one of its atoms
/// (bodies in atom-id space), and — for body atoms outside the component —
/// their already-decided truth values. Verdict reuse additionally requires
/// the exact atom sets to coincide, so a 64-bit collision can only confuse
/// two states of the *same* component's rules or inputs.
#[derive(Clone, Debug)]
pub struct ModularMemo {
    /// The condensation the solve ran over.
    pub condensation: Condensation,
    /// Per-component input fingerprint, indexed by emission ordinal.
    pub fingerprints: Vec<u64>,
}

/// Scratch buffers, reused across components (most components
/// are singletons, so per-component allocation would dominate).
struct Scratch {
    /// rule id → slot in `missing` while a component is evaluated;
    /// `u32::MAX` elsewhere (reset after each component).
    rule_slot: Vec<u32>,
    rules: Vec<u32>,
    missing: Vec<u32>,
    queue: Vec<u32>,
    sorted_comp: Vec<u32>,
}

impl Scratch {
    fn new(num_rules: usize) -> Self {
        Scratch {
            rule_slot: vec![u32::MAX; num_rules],
            rules: Vec::new(),
            missing: Vec::new(),
            queue: Vec::new(),
            sorted_comp: Vec::new(),
        }
    }
}

/// The previous solve's artifacts, prepared for constant-time reuse
/// probes.
struct PrevSolve<'a> {
    result: &'a EngineResult,
    memo: &'a ModularMemo,
    /// Dense AtomId → previous-local-id map (`u32::MAX` = absent), built
    /// once so reuse probes are single array reads.
    local: Vec<u32>,
}

/// The state of one sweep: the read-only program and condensation, plus
/// the per-atom verdicts and per-component fingerprints filled in as the
/// sweep goes. `Truth::Unknown` doubles as "not yet decided" (sound
/// because components are decided strictly bottom-up).
struct EvalCtx<'a> {
    prog: &'a GroundProgram,
    cond: &'a Condensation,
    is_fact: &'a BitSet,
    truth: Vec<Truth>,
    /// Input fingerprint per component, indexed by emission ordinal.
    fingerprints: Vec<u64>,
    prev: Option<PrevSolve<'a>>,
    /// Resource budget of the run. Component-ordinal fault-injection sites
    /// ([`FaultSite::WfsComponent`]) fire here, and budget trips stop the
    /// sweep at a component boundary.
    budget: &'a SolveBudget,
    /// Fixed estimate of the run's working-set bytes (truth slots,
    /// fingerprints, condensation arrays), charged against
    /// [`SolveBudget::mem_limit`].
    mem_estimate: usize,
}

/// The SCC-modular WFS engine.
pub struct ModularEngine<'a> {
    prog: &'a GroundProgram,
    /// Deadline / cancellation / memory budget, checked at component
    /// boundaries.
    budget: SolveBudget,
}

impl<'a> ModularEngine<'a> {
    /// Prepares the engine for a ground program.
    pub fn new(prog: &'a GroundProgram) -> Self {
        ModularEngine {
            prog,
            budget: SolveBudget::unlimited(),
        }
    }

    /// Attaches a resource budget. On a trip the sweep stops at a component
    /// boundary: verdicts already published stay, every unevaluated atom
    /// reads [`Truth::Unknown`], and [`EngineResult::truncation`] records
    /// the reason. A truncated result carries no memo — its partial
    /// verdicts must never seed an incremental reuse.
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns `self` unchanged: kept only for `perfbench/`; solves are
    /// serial.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Computes the well-founded model component by component.
    pub fn solve(&self) -> EngineResult {
        self.solve_incremental(None)
    }

    /// Computes the well-founded model, reusing verdicts from a previous
    /// solve where possible.
    ///
    /// `prev` is the ground program and engine result of the previous
    /// solve over the **same universe** (so atom ids align); it must carry
    /// a [`ModularMemo`] (i.e. come from this engine) for any reuse to
    /// happen. A component of the current program whose input fingerprint
    /// and atom set match a previous component has, by the modularity
    /// (splitting) property of the well-founded semantics, the same
    /// verdicts — they are copied and the component's evaluation skipped
    /// entirely. Everything else (new components, components with new
    /// rules or facts, components whose lower inputs changed) is evaluated
    /// normally. The number of reused components is reported in
    /// [`ModularStats::components_reused`].
    pub fn solve_incremental(&self, prev: Option<(&GroundProgram, &EngineResult)>) -> EngineResult {
        let prog = self.prog;
        let n = prog.num_atoms();
        let cond = condensation(prog);
        let num_components = cond.num_components();

        const ABSENT: u32 = u32::MAX;
        let prev = prev.and_then(|(pg, pr)| {
            let memo = pr.memo.as_ref()?;
            let size = pg.atoms().last().map_or(0, |a| a.index() + 1);
            let mut local = vec![ABSENT; size];
            for (i, &a) in pg.atoms().iter().enumerate() {
                local[a.index()] = i as u32;
            }
            Some(PrevSolve {
                result: pr,
                memo,
                local,
            })
        });

        let mut is_fact = BitSet::with_capacity(n);
        for &f in prog.facts_local() {
            is_fact.insert(f as usize);
        }

        // Working-set estimate for the memory budget: one verdict byte per
        // atom, one fingerprint word per component, and the condensation's
        // three u32 arrays. Fixed for the whole run, so it is computed once.
        let mem_estimate = n
            + num_components * std::mem::size_of::<u64>()
            + (cond.comp_of.len() + cond.comp_atoms.len() + cond.comp_off.len())
                * std::mem::size_of::<u32>();

        let mut ctx = EvalCtx {
            prog,
            cond: &cond,
            is_fact: &is_fact,
            truth: vec![Truth::Unknown; n],
            fingerprints: vec![0; num_components],
            prev,
            budget: &self.budget,
            mem_estimate,
        };
        let mut stats = ModularStats {
            components: num_components,
            largest_component: cond.iter().map(<[u32]>::len).max().unwrap_or(0),
            threads: 1,
            ..Default::default()
        };

        // Emission order visits dependencies first, so a plain sweep needs
        // no scheduling state at all. An unbudgeted run pays one branch per
        // component; a budgeted one polls the clock every
        // `BUDGET_POLL_STRIDE` components.
        let mut truncation: Option<TruncationReason> = None;
        let mut scratch = Scratch::new(prog.num_rules());
        let budgeted = !self.budget.is_unlimited();
        for ord in 0..num_components as u32 {
            if budgeted {
                if let Some(r) = trip_at_component(&ctx, ord) {
                    truncation = Some(r);
                    break;
                }
            }
            process_component(&mut ctx, ord, &mut scratch, &mut stats);
        }
        let EvalCtx {
            truth,
            fingerprints,
            ..
        } = ctx;

        // Assemble the EngineResult over original atom ids. The decision
        // stage of a decided atom is its component's 1-based emission
        // ordinal — a function of the condensation alone.
        let mut interp = Interp::with_capacity(n);
        let cap = prog.atoms().last().map_or(0, |a| a.index() + 1);
        let mut decided_stage = crate::result::StageMap::with_capacity(cap);
        for (a, &t) in truth.iter().enumerate() {
            let atom = prog.atom_of_local(a as u32);
            match t {
                Truth::True => {
                    interp.set_true(atom);
                    decided_stage.insert(atom, cond.comp_of[a] + 1);
                }
                Truth::False => {
                    interp.set_false(atom);
                    decided_stage.insert(atom, cond.comp_of[a] + 1);
                }
                Truth::Unknown => stats.unknown_atoms += 1,
            }
        }
        // A truncated run publishes no memo: its fingerprints describe only
        // the components that actually ran, and letting a later incremental
        // solve copy verdicts from a partial sweep would be unsound.
        let memo = if truncation.is_some() {
            None
        } else {
            Some(ModularMemo {
                condensation: cond,
                fingerprints,
            })
        };
        EngineResult {
            interp,
            decided_stage,
            stages: num_components as u32,
            stats: Some(stats),
            memo,
            truncation,
        }
    }
}

/// How often the sweep polls the wall clock and memory budget, in
/// components. Fault sites still fire on every ordinal — injection points
/// must be exact — but `Instant::now` per singleton component would cost
/// more than evaluating the component.
const BUDGET_POLL_STRIDE: u32 = 64;

/// Budget check at the boundary before component `ord`:
/// fault-injection sites fire first (every ordinal), then the real budget
/// is polled every [`BUDGET_POLL_STRIDE`] components.
fn trip_at_component(ctx: &EvalCtx<'_>, ord: u32) -> Option<TruncationReason> {
    if let Some(r) = ctx.budget.fire_fault(FaultSite::WfsComponent(ord)) {
        return Some(r);
    }
    if ord % BUDGET_POLL_STRIDE == 0 {
        return ctx.budget.check(ctx.mem_estimate);
    }
    None
}

/// Evaluates one component whose dependencies are all decided: classify,
/// fingerprint, try memo reuse, then run the definite or recursive
/// evaluator. Publishes verdicts into `ctx.truth`, the fingerprint into
/// the component's slot, and the component's classification into `stats`.
fn process_component(
    ctx: &mut EvalCtx<'_>,
    ord: u32,
    scratch: &mut Scratch,
    stats: &mut ModularStats,
) {
    let (prog, is_fact) = (ctx.prog, ctx.is_fact);
    let comp_of = &ctx.cond.comp_of;
    let comp = ctx.cond.component(ord as usize);
    let truth = &mut ctx.truth;

    // Collect the component's rules and classify the component. Tarjan
    // assigned component ordinals in emission order, so `comp_of[b] == ord`
    // tests membership in this component.
    scratch.rules.clear();
    let mut definite = true;
    for &a in comp {
        for &rid in prog.rules_with_head_local(a) {
            let r = rid.index();
            scratch.rules.push(r as u32);
            for &b in prog.neg_local(r) {
                if comp_of[b as usize] == ord {
                    definite = false; // internal negation
                } else if truth[b as usize] == Truth::Unknown {
                    definite = false; // undefined lower input
                }
            }
            for &b in prog.pos_local(r) {
                if comp_of[b as usize] != ord && truth[b as usize] == Truth::Unknown {
                    definite = false; // undefined lower input
                }
            }
        }
    }
    if definite {
        stats.definite_components += 1;
    } else {
        stats.recursive_components += 1;
        stats.atoms_in_recursive += comp.len();
    }

    // Fingerprint this component's inputs; try to reuse the previous
    // solve's verdicts before evaluating anything.
    let fp = fingerprint_component(
        prog,
        comp,
        ord,
        comp_of,
        truth,
        is_fact,
        &mut scratch.sorted_comp,
    );
    ctx.fingerprints[ord as usize] = fp;
    if let Some(prev) = &ctx.prev {
        if try_reuse(prog, comp, fp, prev, truth) {
            stats.components_reused += 1;
            return;
        }
    }

    if definite {
        eval_definite(prog, comp, ord, comp_of, is_fact, truth, scratch);
    } else {
        eval_recursive(prog, comp, ord, comp_of, is_fact, truth, &scratch.rules);
    }
}

/// Flat semi-naive evaluation of a negation-free (after substitution)
/// component: derivable atoms are true, the rest are false.
fn eval_definite(
    prog: &GroundProgram,
    comp: &[u32],
    ordinal: u32,
    comp_of: &[u32],
    is_fact: &BitSet,
    truth: &mut [Truth],
    scratch: &mut Scratch,
) {
    // missing[i] = internal positive atoms of rules[i] not yet true;
    // u32::MAX marks a dead rule (an external literal is unsatisfied).
    let Scratch {
        rule_slot,
        rules,
        missing,
        queue,
        ..
    } = scratch;
    missing.clear();
    queue.clear();

    fn derive(truth: &mut [Truth], a: u32, queue: &mut Vec<u32>) {
        if truth[a as usize] != Truth::True {
            truth[a as usize] = Truth::True;
            queue.push(a);
        }
    }

    // Phase 1: count every rule's missing internal atoms BEFORE any
    // derivation. Internal atoms are all undecided at this point, so
    // the counts are consistent; firing while counting would let a
    // later rule see an already-derived atom and then receive a queue
    // decrement for the same atom — deriving unfounded atoms.
    for (i, &r) in rules.iter().enumerate() {
        rule_slot[r as usize] = i as u32;
        let r = r as usize;
        let mut m = 0u32;
        let mut dead = false;
        for &b in prog.pos_local(r) {
            if comp_of[b as usize] == ordinal {
                m += 1; // internal: wait for derivation
            } else if truth[b as usize] != Truth::True {
                dead = true; // external and not true ⇒ false here
            }
        }
        // All negative atoms are external (definite components have no
        // internal negation) and decided: true kills the rule.
        if prog
            .neg_local(r)
            .iter()
            .any(|&b| truth[b as usize] == Truth::True)
        {
            dead = true;
        }
        missing.push(if dead { u32::MAX } else { m });
    }
    // Phase 2: fire rules with no internal prerequisites, seed facts,
    // then propagate.
    for (i, &r) in rules.iter().enumerate() {
        if missing[i] == 0 {
            derive(truth, prog.head_local(r as usize), queue);
        }
    }
    for &a in comp {
        if is_fact.contains(a as usize) {
            derive(truth, a, queue);
        }
    }
    while let Some(a) = queue.pop() {
        for &rid in prog.rules_with_pos_local(a) {
            let slot = rule_slot[rid.index()];
            if slot == u32::MAX {
                continue; // rule belongs to a different component
            }
            let m = &mut missing[slot as usize];
            if *m == u32::MAX || *m == 0 {
                continue;
            }
            // An atom may occur only once per body (GroundRule dedups).
            *m -= 1;
            if *m == 0 {
                derive(truth, prog.head_local(rid.index()), queue);
            }
        }
    }
    for &a in comp {
        if truth[a as usize] != Truth::True {
            truth[a as usize] = Truth::False;
        }
    }
    for &r in rules.iter() {
        rule_slot[r as usize] = u32::MAX;
    }
}

/// Full `W_P` evaluation of a component whose verdicts may be mutually
/// recursive through negation (or depend on undefined lower atoms).
fn eval_recursive(
    prog: &GroundProgram,
    comp: &[u32],
    ordinal: u32,
    comp_of: &[u32],
    is_fact: &BitSet,
    truth: &mut [Truth],
    rules: &[u32],
) {
    // Subprogram atoms: the component plus every undefined external
    // atom its rules mention (carried as assumed-unknown inputs).
    // Local ids are sorted, so sorting them sorts the atom ids too.
    let mut sub_atoms: Vec<u32> = comp.to_vec();
    for &r in rules {
        let r = r as usize;
        for &b in prog.pos_local(r).iter().chain(prog.neg_local(r)) {
            if comp_of[b as usize] != ordinal && truth[b as usize] == Truth::Unknown {
                sub_atoms.push(b);
            }
        }
    }
    sub_atoms.sort_unstable();
    sub_atoms.dedup();

    // Partially evaluate the component's rules against the decided
    // lower verdicts, building a standalone sub-GroundProgram whose
    // atom universe is `sub_atoms` (local ids are ascending, so the
    // sub program's local numbering is the position in `sub_atoms`).
    let atom_id = |b: u32| prog.atom_of_local(b);
    let mut sub_rules: Vec<GroundRule> = Vec::with_capacity(rules.len());
    'rules: for &r in rules {
        let r = r as usize;
        let mut pos = Vec::new();
        for &b in prog.pos_local(r) {
            if comp_of[b as usize] == ordinal {
                pos.push(atom_id(b));
            } else {
                match truth[b as usize] {
                    Truth::True => {}                       // satisfied: drop
                    Truth::False => continue 'rules,        // dead rule
                    Truth::Unknown => pos.push(atom_id(b)), // assumed input
                }
            }
        }
        let mut neg = Vec::new();
        for &b in prog.neg_local(r) {
            if comp_of[b as usize] == ordinal {
                neg.push(atom_id(b));
            } else {
                match truth[b as usize] {
                    Truth::False => {}                      // satisfied: drop
                    Truth::True => continue 'rules,         // dead rule
                    Truth::Unknown => neg.push(atom_id(b)), // assumed input
                }
            }
        }
        sub_rules.push(GroundRule::new(atom_id(prog.head_local(r)), pos, neg));
    }

    let fact_ids: Vec<_> = comp
        .iter()
        .filter(|&&a| is_fact.contains(a as usize))
        .map(|&a| atom_id(a))
        .collect();
    let assumed: Vec<u32> = sub_atoms
        .iter()
        .enumerate()
        .filter(|&(_, &b)| comp_of[b as usize] != ordinal)
        .map(|(i, _)| i as u32)
        .collect();

    let atom_ids: Vec<_> = sub_atoms.iter().map(|&b| atom_id(b)).collect();
    let sub = GroundProgram::build_with_atom_universe(sub_rules, fact_ids, atom_ids);
    let result = WpEngine::new(&sub)
        .with_assumed_unknown(assumed)
        .solve(StepMode::Accelerated);

    for &a in comp {
        truth[a as usize] = result.value(prog.atom_of_local(a));
    }
}

/// Digests a component's inputs into a 64-bit fingerprint: atom ids and
/// fact bits in ascending-id order, every rule heading a component atom
/// (bodies in atom-id space), and the decided truth of each external body
/// atom. Deterministic across solves because universe atom ids are stable
/// and ground-rule bodies are stored sorted.
fn fingerprint_component(
    prog: &GroundProgram,
    comp: &[u32],
    ord: u32,
    comp_of: &[u32],
    truth: &[Truth],
    is_fact: &BitSet,
    sorted_comp: &mut Vec<u32>,
) -> u64 {
    sorted_comp.clear();
    sorted_comp.extend_from_slice(comp);
    // Local ids increase with atom ids, so this visits atoms in a
    // solve-independent order even though Tarjan's emission order within
    // the component is not.
    sorted_comp.sort_unstable();
    let mut h = mix(0, comp.len() as u64);
    let body = |mut h: u64, atoms: &[u32]| {
        h = mix(h, atoms.len() as u64);
        for &b in atoms {
            h = mix(h, prog.atom_of_local(b).index() as u64);
            let tag = if comp_of[b as usize] == ord {
                3 // internal: undecided by construction
            } else {
                match truth[b as usize] {
                    Truth::False => 0,
                    Truth::Unknown => 1,
                    Truth::True => 2,
                }
            };
            h = mix(h, tag);
        }
        h
    };
    for &a in sorted_comp.iter() {
        h = mix(h, prog.atom_of_local(a).index() as u64);
        h = mix(h, is_fact.contains(a as usize) as u64);
        let heading = prog.rules_with_head_local(a);
        h = mix(h, heading.len() as u64);
        for &rid in heading {
            let r = rid.index();
            h = body(h, prog.pos_local(r));
            h = body(h, prog.neg_local(r));
        }
    }
    h
}

/// Copies the previous solve's verdicts for `comp` if it is provably the
/// same component with the same inputs: every atom must map into one
/// previous component of identical size, and the input fingerprints must
/// agree. Returns whether the reuse happened.
fn try_reuse(
    prog: &GroundProgram,
    comp: &[u32],
    fp: u64,
    prev: &PrevSolve<'_>,
    truth: &mut [Truth],
) -> bool {
    const ABSENT: u32 = u32::MAX;
    let memo = prev.memo;
    let lookup = |local: u32| -> Option<u32> {
        match prev.local.get(prog.atom_of_local(local).index()) {
            Some(&l) if l != ABSENT => Some(l),
            _ => None,
        }
    };
    let Some(first_old) = lookup(comp[0]) else {
        return false; // atom is new: the component cannot be a reuse
    };
    let old_ord = memo.condensation.comp_of[first_old as usize] as usize;
    if memo.fingerprints[old_ord] != fp || memo.condensation.component(old_ord).len() != comp.len()
    {
        return false;
    }
    for &a in comp {
        match lookup(a) {
            Some(l) if memo.condensation.comp_of[l as usize] as usize == old_ord => {}
            _ => return false,
        }
    }
    for &a in comp {
        truth[a as usize] = prev.result.value(prog.atom_of_local(a));
    }
    true
}

/// Tarjan's strongly-connected-components algorithm (iterative) over the
/// atom dependency graph `head → body atom`. Components are stored in
/// **emission order**, which visits each component after everything it
/// depends on (reverse topological order of the condensation), in a flat
/// CSR layout — no per-component allocation even when every component is
/// a singleton (the common case on stratified workloads).
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Local atom id → component ordinal (emission order).
    pub comp_of: Vec<u32>,
    /// Component atoms, concatenated in emission order.
    comp_atoms: Vec<u32>,
    /// CSR offsets into `comp_atoms`, `num_components() + 1` entries.
    comp_off: Vec<u32>,
}

impl Condensation {
    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.comp_off.len() - 1
    }

    /// The atoms of component `c` (emission order within the component).
    pub fn component(&self, c: usize) -> &[u32] {
        &self.comp_atoms[self.comp_off[c] as usize..self.comp_off[c + 1] as usize]
    }

    /// Iterates components in emission (dependencies-first) order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_components()).map(|c| self.component(c))
    }
}

/// Computes the [`Condensation`] of a ground program's dependency graph.
pub fn condensation(prog: &GroundProgram) -> Condensation {
    let n = prog.num_atoms();

    // Flat adjacency CSR: successors of an atom are the body atoms of the
    // rules it heads.
    let mut counts = vec![0u32; n];
    for a in 0..n as u32 {
        let deg: usize = prog
            .rules_with_head_local(a)
            .iter()
            .map(|rid| prog.pos_local(rid.index()).len() + prog.neg_local(rid.index()).len())
            .sum();
        counts[a as usize] = deg as u32;
    }
    let mut adj_off = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    adj_off.push(0);
    for &c in &counts {
        acc += c;
        adj_off.push(acc);
    }
    let mut adj = vec![0u32; acc as usize];
    {
        let mut fill: Vec<u32> = adj_off[..n].to_vec();
        for a in 0..n as u32 {
            for &rid in prog.rules_with_head_local(a) {
                let r = rid.index();
                for &b in prog.pos_local(r).iter().chain(prog.neg_local(r)) {
                    adj[fill[a as usize] as usize] = b;
                    fill[a as usize] += 1;
                }
            }
        }
    }

    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = BitSet::with_capacity(n);
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![UNVISITED; n];
    let mut comp_atoms: Vec<u32> = Vec::with_capacity(n);
    let mut comp_off: Vec<u32> = vec![0];
    let mut next_index = 0u32;
    // Explicit DFS frames: (node, cursor into adj).
    let mut frames: Vec<(u32, u32)> = Vec::new();

    for v0 in 0..n as u32 {
        if index[v0 as usize] != UNVISITED {
            continue;
        }
        index[v0 as usize] = next_index;
        low[v0 as usize] = next_index;
        next_index += 1;
        stack.push(v0);
        on_stack.insert(v0 as usize);
        frames.push((v0, adj_off[v0 as usize]));

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < adj_off[v as usize + 1] {
                let w = adj[*cursor as usize];
                *cursor += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack.insert(w as usize);
                    frames.push((w, adj_off[w as usize]));
                } else if on_stack.contains(w as usize) {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let ordinal = (comp_off.len() - 1) as u32;
                    loop {
                        // Tarjan invariant: `v` stays on the stack
                        // until its own SCC is emitted right here.
                        #[allow(clippy::expect_used)]
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack.remove(w as usize);
                        comp_of[w as usize] = ordinal;
                        comp_atoms.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp_off.push(comp_atoms.len() as u32);
                }
            }
        }
    }

    Condensation {
        comp_of,
        comp_atoms,
        comp_off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternating::AlternatingEngine;
    use crate::wp::{StepMode, WpEngine};
    use wfdl_core::AtomId;
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    fn agree_with_global(b: &GroundProgramBuilder) {
        let p = b.clone().finish();
        let modular = ModularEngine::new(&p).solve();
        let wp = WpEngine::new(&p).solve(StepMode::Accelerated);
        let alt = AlternatingEngine::new(&p).solve();
        for &atom in p.atoms() {
            assert_eq!(modular.value(atom), wp.value(atom), "vs Wp on {atom:?}");
            assert_eq!(modular.value(atom), alt.value(atom), "vs Alt on {atom:?}");
        }
    }

    #[test]
    fn condensation_orders_dependencies_first() {
        // a2 ← a1 ← a0(fact); a3 ↔ a4 cycle above a2.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(3), vec![a(4), a(2)], vec![]));
        b.add_rule(GroundRule::new(a(4), vec![a(3)], vec![]));
        let p = b.finish();
        let cond = condensation(&p);
        // The 3/4 cycle is one component; every dependency is emitted
        // before its dependents.
        assert_eq!(cond.comp_of[3], cond.comp_of[4]);
        let pos = |l: u32| cond.iter().position(|c| c.contains(&l)).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
        assert_eq!(cond.iter().map(<[u32]>::len).sum::<usize>(), p.num_atoms());
        // comp_of ordinals match the CSR component rows.
        for c in 0..cond.num_components() {
            for &atom in cond.component(c) {
                assert_eq!(cond.comp_of[atom as usize] as usize, c);
            }
        }
    }

    #[test]
    fn stratified_chain_is_all_definite() {
        // Pure positive chain plus stratified negation: every component is
        // definite, nothing is unknown.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![a(1)]));
        b.add_rule(GroundRule::new(a(3), vec![a(0)], vec![a(2)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        let stats = res.stats.unwrap();
        assert_eq!(stats.recursive_components, 0);
        assert_eq!(stats.unknown_atoms, 0);
        agree_with_global(&b);
    }

    #[test]
    fn negative_cycle_goes_recursive_and_stays_unknown() {
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        b.add_rule(GroundRule::new(a(2), vec![], vec![a(0)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        let stats = res.stats.unwrap();
        assert!(stats.recursive_components >= 1);
        assert_eq!(stats.unknown_atoms, 3);
        agree_with_global(&b);
    }

    #[test]
    fn unknown_inputs_propagate_through_higher_components() {
        // a0/a1 draw cycle (unknown); a2 ← a0 positively; a3 ← ¬a2;
        // a4 ← a3, and a5 ← ¬a4: everything above the cycle is unknown,
        // and none of it may collapse to false.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(2)]));
        b.add_rule(GroundRule::new(a(4), vec![a(3)], vec![]));
        b.add_rule(GroundRule::new(a(5), vec![], vec![a(4)]));
        agree_with_global(&b);
    }

    #[test]
    fn win_move_path_and_cycle() {
        // win chain 0→1→2 plus a 3⇄4 draw; mirrors the wp.rs tests.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(2)]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(4)]));
        b.add_rule(GroundRule::new(a(4), vec![], vec![a(3)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.value(a(2)), Truth::False);
        assert_eq!(res.value(a(1)), Truth::True);
        assert_eq!(res.value(a(0)), Truth::False);
        assert_eq!(res.value(a(3)), Truth::Unknown);
        assert_eq!(res.value(a(4)), Truth::Unknown);
        agree_with_global(&b);
    }

    #[test]
    fn zero_missing_rule_does_not_double_credit_later_rules() {
        // Regression: `h ← ∅` fires during setup; the rule `y ← h, x`
        // (initialized afterwards) must not see h as already satisfied AND
        // receive a propagation decrement for it — that double credit let
        // the unfounded y/x positive cycle come out true. All of y, x must
        // be false; h is true.
        let (y, h, x) = (a(0), a(1), a(2));
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(y, vec![h, x], vec![]));
        b.add_rule(GroundRule::new(h, vec![], vec![]));
        b.add_rule(GroundRule::new(x, vec![y], vec![]));
        b.add_rule(GroundRule::new(h, vec![y], vec![]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.value(h), Truth::True);
        assert_eq!(res.value(y), Truth::False);
        assert_eq!(res.value(x), Truth::False);
        agree_with_global(&b);
    }

    #[test]
    fn positive_loops_are_unfounded_in_definite_components() {
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_fact(a(2));
        b.add_rule(GroundRule::new(a(3), vec![a(2), a(0)], vec![]));
        agree_with_global(&b);
    }

    #[test]
    fn facts_inside_recursive_components_are_true() {
        // a0 is a fact and also on a negative cycle with a1.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.value(a(0)), Truth::True);
        assert_eq!(res.value(a(1)), Truth::False);
        agree_with_global(&b);
    }

    #[test]
    fn incremental_reuse_copies_unchanged_component_verdicts() {
        // Base: a fact chain plus a draw cycle (genuinely unknown). Grow
        // the program with an independent chain; every untouched component
        // must be reused verbatim and the model must agree with a fresh
        // solve — including the reused Unknowns.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![], vec![a(3)]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(2)]));
        let base = b.clone().finish();
        let base_res = ModularEngine::new(&base).solve();
        assert!(base_res.memo.is_some(), "modular solves carry a memo");

        b.add_fact(a(4));
        b.add_rule(GroundRule::new(a(5), vec![a(4)], vec![a(1)]));
        let grown = b.finish();
        let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
        let fresh = ModularEngine::new(&grown).solve();
        for &atom in grown.atoms() {
            assert_eq!(inc.value(atom), fresh.value(atom), "on {atom:?}");
        }
        // {a0}, {a1} and the {a2,a3} cycle are untouched: all reused.
        let stats = inc.stats.unwrap();
        assert_eq!(stats.components_reused, 3, "{stats:?}");
        assert_eq!(inc.value(a(2)), Truth::Unknown, "reused unknown survives");
        assert_eq!(inc.value(a(5)), Truth::False, "new rule evaluated fresh");
    }

    #[test]
    fn incremental_reuse_rejects_components_with_changed_inputs() {
        // Base (no facts): a(1) ← a(0) ← a(2), everything false. Growing
        // the program with the fact a(0) changes a(0)'s own fingerprint
        // (fact bit) and a(1)'s external input — neither may be reused.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(0), vec![a(2)], vec![]));
        let base = b.clone().finish();
        let base_res = ModularEngine::new(&base).solve();
        assert_eq!(base_res.value(a(1)), Truth::False);

        b.add_fact(a(0));
        let grown = b.finish();
        let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
        assert_eq!(inc.value(a(0)), Truth::True);
        assert_eq!(inc.value(a(1)), Truth::True, "stale False must not leak");
        // Only {a2} (no rules, no facts, unchanged) can be reused.
        assert_eq!(inc.stats.unwrap().components_reused, 1);
    }

    #[test]
    fn budget_trip_truncates_to_a_sound_under_approximation() {
        // A trip fault at a mid-sweep component stops evaluation at a
        // component boundary: the result reports the reason, carries
        // no memo, and every decided atom agrees with the complete model
        // (nothing flips — undecided atoms only degrade to Unknown).
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        for i in 1..64 {
            b.add_rule(GroundRule::new(a(i), vec![a(0)], vec![]));
            b.add_rule(GroundRule::new(a(64 + i), vec![a(i)], vec![]));
        }
        let p = b.finish();
        let full = ModularEngine::new(&p).solve();
        assert_eq!(full.truncation, None);
        assert!(full.memo.is_some());
        let victim = condensation(&p).num_components() as u32 / 2;
        let plan = wfdl_core::budget::FaultPlan {
            site: FaultSite::WfsComponent(victim),
            kind: wfdl_core::budget::FaultKind::TripCancel,
        };
        let res = ModularEngine::new(&p)
            .with_budget(SolveBudget::unlimited().with_fault(plan))
            .solve();
        assert_eq!(res.truncation, Some(TruncationReason::Cancelled));
        assert!(res.memo.is_none(), "truncated result must drop its memo");
        let mut undecided = 0usize;
        for &atom in p.atoms() {
            match res.value(atom) {
                Truth::Unknown => {
                    undecided += 1;
                    // Sound under-approximation: only degrades.
                }
                v => assert_eq!(v, full.value(atom), "decided atom flipped"),
            }
        }
        assert!(
            undecided > 0,
            "trip at {victim} should leave atoms undecided"
        );
    }

    #[test]
    fn pre_cancelled_budget_yields_fully_unknown_model() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        let p = b.finish();
        let token = wfdl_core::CancelToken::new();
        token.cancel();
        let res = ModularEngine::new(&p)
            .with_budget(SolveBudget::unlimited().with_cancel(token))
            .solve();
        assert_eq!(res.truncation, Some(TruncationReason::Cancelled));
        for &atom in p.atoms() {
            assert_eq!(res.value(atom), Truth::Unknown);
        }
    }

    #[test]
    fn empty_program() {
        let p = GroundProgramBuilder::new().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.stages, 0);
        assert_eq!(res.stats.unwrap().components, 0);
    }
}
