//! The top-level solver: chase a segment, run a WFS engine, answer truth
//! queries — `WFS(D, Σ)` of Definition 3, with honest exactness reporting.

use crate::alternating::AlternatingEngine;
use crate::forward::ForwardEngine;
use crate::result::EngineResult;
use crate::scc::{ModularEngine, ModularStats};
use crate::wp::{StepMode, WpEngine};
use wfdl_chase::{ChaseBudget, ChaseSegment};
use wfdl_core::{
    AtomId, CoreError, Interp, PredId, Program, RuleAtom, SkolemProgram, SolveBudget, SolveOutcome,
    Tgd, TruncationReason, Truth, Universe,
};
use wfdl_storage::{Database, GroundProgram};

/// Which fixpoint engine computes the model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// SCC-condensation modular evaluation (default): negation-free
    /// components by a flat semi-naive pass, `W_P` only on components with
    /// internal negation. See [`crate::scc`].
    #[default]
    Modular,
    /// `W_P` with `T_P`-closure acceleration on the whole program.
    Wp,
    /// `W_P` stepped literally per the definition (stage-faithful, slower).
    WpLiteral,
    /// Van Gelder's alternating fixpoint.
    Alternating,
    /// The forward-proof operator `Ŵ_P` on the chase segment (Theorem 8).
    Forward,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WfsOptions {
    /// Chase materialization limits.
    pub budget: ChaseBudget,
    /// Engine selection.
    pub engine: EngineKind,
    /// Read by nothing: kept only for `perfbench/`; solves are serial.
    pub threads: usize,
}

impl WfsOptions {
    /// Options with the given chase depth.
    pub fn depth(depth: u32) -> Self {
        WfsOptions {
            budget: ChaseBudget::depth(depth),
            ..Default::default()
        }
    }

    /// Options with an unbounded chase (terminating programs only).
    pub fn unbounded() -> Self {
        WfsOptions {
            budget: ChaseBudget::unbounded(),
            ..Default::default()
        }
    }

    /// Replaces the engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

/// The well-founded model of `D` under `Σ` restricted to a chase segment.
///
/// Atoms outside the segment have no forward proof within the materialized
/// part of `F⁺(P)` and are reported **false**, which is exact when
/// [`WellFoundedModel::exact`] holds (the chase quiesced within budget) and
/// a depth-`n·δ`-justified approximation otherwise (Proposition 12).
#[derive(Debug)]
pub struct WellFoundedModel {
    /// The materialized chase segment.
    pub segment: ChaseSegment,
    /// The extracted finite ground normal program.
    pub ground: GroundProgram,
    /// Engine output over the segment's atoms.
    pub result: EngineResult,
    /// True iff the chase quiesced within budget, making the model exact.
    pub exact: bool,
    /// The engine that produced the result.
    pub engine: EngineKind,
    /// `Complete` iff both the chase and the engine ran to their natural
    /// fixpoints; otherwise the first truncation on the pipeline (chase
    /// before engine). Note the depth budget counts as a truncation here
    /// (`DepthCap`) even though the depth-bounded model is the paper's
    /// sanctioned approximation — `exact` is the flag for that distinction.
    pub outcome: SolveOutcome,
}

impl WellFoundedModel {
    /// True iff the *chase* was stopped by a runtime budget trip
    /// (deadline / cancellation / memory), in which case atom absence
    /// proves nothing and the model degrades to the sound positive-closure
    /// under-approximation.
    fn chase_budget_tripped(&self) -> bool {
        self.segment
            .truncation()
            .is_some_and(TruncationReason::is_budget_trip)
    }

    /// Truth value of a ground atom under `WFS(D, Σ)`.
    ///
    /// Atoms outside the segment are **false** (no forward proof within the
    /// materialized part of `F⁺(P)`, exact or depth-justified) — unless the
    /// chase was stopped by a budget trip, where an unmaterialized atom
    /// might simply not have been reached yet and reads `Unknown`.
    pub fn value(&self, atom: AtomId) -> Truth {
        if self.segment.contains(atom) {
            self.result.value(atom)
        } else if self.chase_budget_tripped() {
            Truth::Unknown
        } else {
            Truth::False
        }
    }

    /// `atom ∈ WFS(D,Σ)`.
    pub fn is_true(&self, atom: AtomId) -> bool {
        self.value(atom).is_true()
    }

    /// `¬atom ∈ WFS(D,Σ)`.
    pub fn is_false(&self, atom: AtomId) -> bool {
        self.value(atom).is_false()
    }

    /// Number of engine stages to the fixpoint. For [`EngineKind::Modular`]
    /// this is the number of dependency components processed.
    pub fn stages(&self) -> u32 {
        self.result.stages
    }

    /// Per-component statistics, when the modular engine produced the
    /// result (`None` for the global engines).
    pub fn component_stats(&self) -> Option<ModularStats> {
        self.result.stats
    }

    /// Iterates over the true atoms of the model.
    pub fn true_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.result.interp.true_atoms()
    }

    /// Iterates over segment atoms whose value is unknown (undefined).
    pub fn unknown_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.segment
            .atoms()
            .iter()
            .map(|sa| sa.atom)
            .filter(|&a| self.result.value(a).is_unknown())
    }

    /// Counts `(true, false-in-segment, unknown)` over segment atoms.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut t = 0;
        let mut f = 0;
        let mut u = 0;
        for sa in self.segment.atoms() {
            match self.result.value(sa.atom) {
                Truth::True => t += 1,
                Truth::False => f += 1,
                Truth::Unknown => u += 1,
            }
        }
        (t, f, u)
    }

    /// Renders the true atoms (non-auxiliary predicates) sorted, one per
    /// line — handy in examples and tests.
    pub fn render_true(&self, universe: &Universe) -> String {
        let mut lines: Vec<String> = self
            .true_atoms()
            .filter(|&a| !universe.pred_info(universe.atoms.pred(a)).auxiliary)
            .map(|a| universe.display_atom(a).to_string())
            .collect();
        lines.sort();
        lines.join("\n")
    }
}

impl wfdl_query::TruthSource for WellFoundedModel {
    fn value(&self, atom: AtomId) -> Truth {
        WellFoundedModel::value(self, atom)
    }

    fn certain_atoms(&self) -> Vec<AtomId> {
        self.true_atoms().collect()
    }

    fn possible_atoms(&self) -> Vec<AtomId> {
        self.segment
            .atoms()
            .iter()
            .map(|sa| sa.atom)
            .filter(|&a| !self.result.value(a).is_false())
            .collect()
    }
}

/// How a solve was produced — observability for the incremental re-solve
/// path of the compile → solve → serve lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// True iff the chase was resumed from a previous model's segment
    /// instead of rebuilt from scratch.
    pub incremental: bool,
    /// Dependency components whose verdicts were copied from the previous
    /// solve (only [`EngineKind::Modular`] reuses verdicts).
    pub components_reused: usize,
    /// Always `1`: kept only for `perfbench/`; solves are serial.
    pub threads: usize,
    /// True iff the solve was restricted to a query-relevant program
    /// slice ([`SolveRequest::slice`]).
    pub sliced: bool,
    /// Predicate-level dependency components intersecting the slice.
    /// `0` for unsliced solves; filled in by the caller that computed the
    /// slice (the façade's `solve_for`).
    pub slice_components: usize,
    /// Total predicate-level dependency components of the full program,
    /// on the same basis. `0` for unsliced solves.
    pub total_components: usize,
}

/// One solve of `WFS(D, Σf)`: the inputs, the limits, and what an earlier
/// solve may contribute. Full, resumed and sliced solves are three ways
/// to reach the same verdicts, so they share this one request and the
/// one entry point [`solve`].
///
/// ```
/// use wfdl_chase::paper::example4;
/// use wfdl_core::Universe;
/// use wfdl_wfs::{solve, SolveRequest, WfsOptions};
///
/// let mut u = Universe::new();
/// let (db, program) = example4(&mut u);
/// let out = solve(SolveRequest::new(&mut u, &db, &program, WfsOptions::depth(6)));
/// assert!(!out.model.exact, "Example 4 has an infinite chase");
/// assert!(!out.stats.incremental);
/// ```
pub struct SolveRequest<'a> {
    universe: &'a mut Universe,
    db: &'a Database,
    program: &'a SkolemProgram,
    options: WfsOptions,
    budget: SolveBudget,
    violations: &'a [PredId],
    resume: Option<(&'a WellFoundedModel, &'a [AtomId])>,
    memo: Option<&'a WellFoundedModel>,
    slice: Option<&'a [bool]>,
}

impl<'a> SolveRequest<'a> {
    /// A full, unlimited solve of `db` under `program` with `options`, and
    /// no constraints to report.
    pub fn new(
        universe: &'a mut Universe,
        db: &'a Database,
        program: &'a SkolemProgram,
        options: WfsOptions,
    ) -> Self {
        SolveRequest {
            universe,
            db,
            program,
            options,
            budget: SolveBudget::unlimited(),
            violations: &[],
            resume: None,
            memo: None,
            slice: None,
        }
    }

    /// Runs under a [`SolveBudget`]: the chase checks it at round
    /// boundaries and the modular engine at component boundaries.
    /// On a trip the model reports a truncated
    /// [`WellFoundedModel::outcome`] and degrades soundly (see
    /// [`WellFoundedModel::value`]).
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Reports the truth of each lowered constraint's violation marker
    /// (see [`lower_with_constraints`]) in
    /// [`SolveOutput::constraint_status`], in this order.
    pub fn violations(mut self, violations: &'a [PredId]) -> Self {
        self.violations = violations;
        self
    }

    /// Computes `WFS(D ∪ Δ, Σf)` by **resuming** `prev`'s chase segment
    /// with the new facts `delta` instead of re-chasing from scratch, and
    /// (for [`EngineKind::Modular`]) reusing `prev`'s verdicts for every
    /// dependency component whose inputs did not change.
    ///
    /// Preconditions (the façade's `KnowledgeBase` enforces them): `prev`
    /// was solved over the same universe with the same program and
    /// options, the delta is insert-only (`delta` facts are ground,
    /// null-free and were not database facts before), and `db` already
    /// holds them. When `prev`'s segment cannot resume (it was
    /// cap-truncated, so a continuation would not equal a from-scratch
    /// chase), [`solve`] re-chases `db` in full instead. Ignored by a
    /// sliced request.
    pub fn resume(mut self, prev: &'a WellFoundedModel, delta: &'a [AtomId]) -> Self {
        self.resume = Some((prev, delta));
        self
    }

    /// Composes with an earlier **modular** solve over the same universe
    /// (typically the last full solve): components whose input
    /// fingerprints and atom sets coincide with one of `prev`'s reuse its
    /// verdicts instead of re-solving. A resumed request uses the model it
    /// resumes from unless this names another.
    pub fn memo(mut self, prev: &'a WellFoundedModel) -> Self {
        self.memo = Some(prev);
        self
    }

    /// Goal-directed solve restricted to a **relevance-closed** predicate
    /// slice (`pred_mask`, indexed by [`PredId`]), as computed by
    /// `wfdl-analyze`'s `ProgramSlice` from a query's goal predicates.
    ///
    /// The chase seeds only in-slice facts and fires only rules with
    /// in-slice heads; the engine then runs on the restricted ground
    /// program. Because the mask is relevance-closed (it follows both
    /// positive and negative dependency edges), every in-slice atom gets
    /// the **same verdict the full solve would assign** — with the same
    /// `options.budget`, derivation depths coincide, so even
    /// depth-truncation semantics match bit-for-bit.
    ///
    /// Two sliced-model caveats the caller must enforce (the façade's
    /// `SolvedModel` slice guard does):
    ///
    /// * atoms over **out-of-slice** predicates were never chased — the
    ///   model's `value()` reads them `False`, which is only meaningful for
    ///   in-slice atoms. Queries must be checked against the mask.
    /// * constraints are not goal-directed: a violation predicate outside
    ///   the slice reports [`Truth::Unknown`] (its rules never fired, so
    ///   neither verdict would be sound). Violation predicates are nullary
    ///   markers no rule body reads, so in practice every constraint is
    ///   `Unknown` under a sliced solve unless its marker was named a goal.
    ///
    /// `stats.sliced` is set; the component-count fields are left `0` for
    /// the slice-computing caller to fill.
    pub fn slice(mut self, pred_mask: &'a [bool]) -> Self {
        self.slice = Some(pred_mask);
        self
    }
}

/// Everything one solve produces, packaged for the serve stage: the model
/// plus the truth of each lowered constraint's violation marker, computed
/// while the universe is still mutable (the markers are nullary atoms that
/// may need interning). After this returns, nothing on the serving path
/// needs `&mut Universe` again.
#[derive(Debug)]
pub struct SolveOutput {
    /// The well-founded model.
    pub model: WellFoundedModel,
    /// Truth of each constraint's violation marker, in
    /// [`SolveRequest::violations`] order.
    pub constraint_status: Vec<Truth>,
    /// How the model was produced (full, incremental or sliced).
    pub stats: SolveStats,
}

/// Computes `WFS(D, Σf)` on a chase segment — the solve stage of the
/// compile → solve → serve lifecycle. The request decides where the
/// segment comes from: a full chase, a resumed one, or one restricted to a
/// slice (see [`SolveRequest`]).
///
/// A chase stopped by a *budget trip* never sees the full engine: over an
/// arbitrarily interrupted segment, "no deriving instance" proves nothing
/// (the missing derivations may simply not have been chased yet), so the
/// well-founded negation-as-failure step would be unsound in both
/// directions. The model degrades to the **positive closure** — atoms
/// derivable through negation-free instances from the facts, which are true
/// in *every* completion of the chase — and everything else reads
/// `Unknown`. Depth/cap truncations keep the historical depth-approximation
/// semantics (full engine run, `exact == false`).
pub fn solve(req: SolveRequest<'_>) -> SolveOutput {
    let SolveRequest {
        universe,
        db,
        program,
        options,
        budget,
        violations,
        resume,
        memo,
        slice,
    } = req;
    let resumed = match (slice, resume) {
        (None, Some((prev, delta))) => prev
            .segment
            .resume_budgeted(universe, program, delta, &budget)
            .ok()
            .map(|segment| (segment, prev)),
        _ => None,
    };
    let (segment, resumed_from) = match resumed {
        Some((segment, prev)) => (segment, Some(prev)),
        None => {
            let segment = match slice {
                Some(mask) => ChaseSegment::build_restricted_budgeted(
                    universe,
                    db,
                    program,
                    options.budget,
                    &budget,
                    mask,
                ),
                None => {
                    ChaseSegment::build_budgeted(universe, db, program, options.budget, &budget)
                }
            };
            (segment, None)
        }
    };
    // Resumed solves ground incrementally: the previous program is
    // extended with the delta's atoms/facts/instances instead of
    // re-translating the inherited bulk.
    let ground = match resumed_from {
        Some(p) => segment.to_ground_program_from(&p.ground),
        None => segment.to_ground_program(),
    };
    let chase_trunc = segment.truncation();
    let result = if chase_trunc.is_some_and(TruncationReason::is_budget_trip) {
        positive_closure_result(&ground)
    } else {
        let memo = memo.or(resumed_from);
        run_engine(&segment, &ground, options, memo, &budget)
    };
    let exact = segment.complete;
    let outcome = match chase_trunc
        .filter(|r| r.is_budget_trip())
        .or(result.truncation)
    {
        Some(r) => SolveOutcome::Truncated(r),
        None if exact => SolveOutcome::Complete,
        None => SolveOutcome::Truncated(chase_trunc.unwrap_or(TruncationReason::DepthCap)),
    };
    let model = WellFoundedModel {
        segment,
        ground,
        result,
        exact,
        engine: options.engine,
        outcome,
    };
    let constraint_status = violations
        .iter()
        .map(|&p| match slice {
            // Outside the slice the violation rules never fired: reading
            // the model would yield a spurious `False`.
            Some(mask) if !mask.get(p.index()).copied().unwrap_or(false) => Truth::Unknown,
            _ => violation_value(universe, &model, p),
        })
        .collect();
    let stats = SolveStats {
        incremental: resumed_from.is_some(),
        components_reused: model.result.stats.map_or(0, |s| s.components_reused),
        threads: 1,
        sliced: slice.is_some(),
        ..SolveStats::default()
    };
    SolveOutput {
        model,
        constraint_status,
        stats,
    }
}

/// Runs the selected engine over a segment the chase did not stop by a
/// budget trip. `memo` drives per-component verdict reuse in the modular
/// engine (valid for any previous modular solve over the same universe —
/// the fingerprint check rejects components whose inputs differ).
fn run_engine(
    segment: &ChaseSegment,
    ground: &GroundProgram,
    options: WfsOptions,
    memo: Option<&WellFoundedModel>,
    budget: &SolveBudget,
) -> EngineResult {
    match options.engine {
        EngineKind::Modular => ModularEngine::new(ground)
            .with_budget(budget.clone())
            .solve_incremental(memo.map(|p| (&p.ground, &p.result))),
        // The global engines have no internal trip points: under a budget
        // they either start (and run to completion) or refuse at the door.
        EngineKind::Wp | EngineKind::WpLiteral | EngineKind::Alternating
            if budget.check(0).is_some() =>
        {
            let mut r = positive_closure_result(ground);
            r.truncation = budget.check(0);
            r
        }
        EngineKind::Wp => WpEngine::new(ground).solve(StepMode::Accelerated),
        EngineKind::WpLiteral => WpEngine::new(ground).solve(StepMode::Literal),
        EngineKind::Alternating => AlternatingEngine::new(ground).solve(),
        EngineKind::Forward => ForwardEngine::new(segment).solve(),
    }
}

/// Least fixpoint of the **negation-free** ground instances from the facts:
/// the atoms certainly true in every extension of a budget-interrupted
/// chase. Everything else is left `Unknown` — the sound degraded model.
fn positive_closure_result(ground: &GroundProgram) -> EngineResult {
    let n = ground.num_atoms();
    let mut tru = vec![false; n];
    let mut queue: Vec<u32> = Vec::new();
    for &f in ground.facts_local() {
        if !std::mem::replace(&mut tru[f as usize], true) {
            queue.push(f);
        }
    }
    // Countdown of undecided positive-body literals per negation-free rule;
    // a rule fires when it reaches zero. Rules with negative literals never
    // fire here by construction.
    let nrules = ground.num_rules();
    let mut missing: Vec<u32> = Vec::with_capacity(nrules);
    for r in 0..nrules {
        if ground.neg_local(r).is_empty() {
            missing.push(ground.pos_local(r).len() as u32);
        } else {
            missing.push(u32::MAX);
        }
    }
    // Empty-body rules fire immediately.
    for (r, m) in missing.iter().enumerate() {
        if *m == 0 {
            let h = ground.head_local(r);
            if !std::mem::replace(&mut tru[h as usize], true) {
                queue.push(h);
            }
        }
    }
    while let Some(a) = queue.pop() {
        for &rid in ground.rules_with_pos_local(a) {
            let r = rid.index();
            if missing[r] == u32::MAX {
                continue;
            }
            // Duplicate body literals are each their own countdown slot, so
            // one decrement per (rule, occurrence) pair keeps the count
            // exact as long as each atom enters the queue once.
            let dups = ground.pos_local(r).iter().filter(|&&b| b == a).count() as u32;
            missing[r] = missing[r].saturating_sub(dups);
            if missing[r] == 0 {
                missing[r] = u32::MAX; // fired
                let h = ground.head_local(r);
                if !std::mem::replace(&mut tru[h as usize], true) {
                    queue.push(h);
                }
            }
        }
    }
    let mut interp = Interp::with_capacity(n);
    let cap = ground.atoms().last().map_or(0, |a| a.index() + 1);
    let mut decided_stage = crate::result::StageMap::with_capacity(cap);
    for (local, &t) in tru.iter().enumerate() {
        if t {
            let atom = ground.atom_of_local(local as u32);
            interp.set_true(atom);
            decided_stage.insert(atom, 1);
        }
    }
    EngineResult {
        interp,
        decided_stage,
        stages: 1,
        stats: None,
        memo: None,
        truncation: None,
    }
}

/// Computes the **conservative no-UNA approximation** used in the paper's
/// Example 2 discussion: labelled nulls might denote equal values, so a
/// null-containing atom that merely fails to be derived cannot be declared
/// false, and rules negating such atoms never fire. The equality-friendly
/// WFS of \[4\] is a different (and co-NP-hard) semantics; this
/// approximation suffices to reproduce the qualitative separation the paper
/// draws (`ValidID(f(a))` is derived under UNA, withheld without it).
pub fn solve_no_una(
    universe: &mut Universe,
    db: &Database,
    program: &SkolemProgram,
    budget: ChaseBudget,
) -> WellFoundedModel {
    let segment = ChaseSegment::build(universe, db, program, budget);
    let ground = segment.to_ground_program();
    let frozen: Vec<AtomId> = ground
        .atoms()
        .iter()
        .copied()
        .filter(|&a| !universe.atom_is_constant_free_of_nulls(a))
        .collect();
    let result = WpEngine::new(&ground)
        .with_frozen(frozen)
        .solve(StepMode::Accelerated);
    let exact = segment.complete;
    let outcome = if exact {
        SolveOutcome::Complete
    } else {
        SolveOutcome::Truncated(segment.truncation().unwrap_or(TruncationReason::DepthCap))
    };
    WellFoundedModel {
        segment,
        ground,
        result,
        exact,
        engine: EngineKind::Wp,
        outcome,
    }
}

/// Lowers a [`Program`]'s negative constraints into rules deriving fresh
/// nullary violation predicates, returning the skolemized program together
/// with the violation predicate of each constraint (in order).
pub fn lower_with_constraints(
    universe: &mut Universe,
    program: &Program,
) -> Result<(SkolemProgram, Vec<PredId>), CoreError> {
    let mut combined = Program {
        tgds: program.tgds.clone(),
        constraints: Vec::new(),
    };
    let mut violation_preds = Vec::with_capacity(program.constraints.len());
    for (i, c) in program.constraints.iter().enumerate() {
        let base = match &c.label {
            Some(l) => format!("violated_{l}"),
            None => format!("violated_{i}"),
        };
        let bot = universe.aux_pred(&base, 0);
        violation_preds.push(bot);
        let mut tgd = Tgd::new(
            universe,
            c.body_pos.clone(),
            c.body_neg.clone(),
            vec![RuleAtom::new(bot, Vec::new())],
        )?;
        if let Some(span) = c.span() {
            tgd = tgd.with_span(span);
        }
        combined.tgds.push(tgd);
    }
    let skolemized = combined.skolemize(universe)?;
    Ok((skolemized, violation_preds))
}

/// Truth of each lowered constraint's violation atom in a model:
/// `True` = surely violated, `Unknown` = possibly violated, `False` = safe.
pub fn constraint_status(
    universe: &mut Universe,
    model: &WellFoundedModel,
    violation_preds: &[PredId],
) -> Vec<Truth> {
    violation_preds
        .iter()
        .map(|&p| violation_value(universe, model, p))
        .collect()
}

/// Truth of the violation marker `p()` in `model`.
fn violation_value(universe: &mut Universe, model: &WellFoundedModel, p: PredId) -> Truth {
    // Constraint lowering registers every violation pred as nullary, so
    // the empty-args interning cannot fail.
    #[allow(clippy::expect_used)]
    let atom = universe.atom(p, Vec::new()).expect("nullary");
    model.value(atom)
}

/// Outcome of [`solve_stable`].
#[derive(Clone, Debug)]
pub struct StabilityReport {
    /// Depths at which models were computed.
    pub depths: Vec<u32>,
    /// Whether the final rounds were stable (or the chase completed).
    pub stable: bool,
}

/// Deepening heuristic: solves at increasing depths until either the chase
/// completes (exact) or the truth values of all previously-materialized
/// atoms are unchanged across `required_stable_rounds` consecutive
/// deepenings. Not a proof of exactness for truncated chases — the paper's
/// guarantee needs depth `n·δ` — but exact whenever `exact` is reported and
/// validated against ground truth on the paper's examples.
#[allow(clippy::too_many_arguments)]
pub fn solve_stable(
    universe: &mut Universe,
    db: &Database,
    program: &SkolemProgram,
    start_depth: u32,
    step: u32,
    max_depth: u32,
    required_stable_rounds: u32,
    engine: EngineKind,
) -> (WellFoundedModel, StabilityReport) {
    assert!(step > 0, "deepening step must be positive");
    let mut depth = start_depth;
    let mut report = StabilityReport {
        depths: vec![depth],
        stable: false,
    };
    let mut solve_at = |depth: u32| {
        let options = WfsOptions::depth(depth).with_engine(engine);
        solve(SolveRequest::new(universe, db, program, options)).model
    };
    let mut model = solve_at(depth);
    let mut stable_rounds = 0u32;
    while !model.exact && depth < max_depth {
        depth = (depth + step).min(max_depth);
        report.depths.push(depth);
        let next = solve_at(depth);
        let agree = model
            .segment
            .atoms()
            .iter()
            .all(|sa| model.result.value(sa.atom) == next.value(sa.atom));
        stable_rounds = if agree { stable_rounds + 1 } else { 0 };
        model = next;
        if model.exact || stable_rounds >= required_stable_rounds {
            break;
        }
    }
    report.stable = model.exact || stable_rounds >= required_stable_rounds;
    (model, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_chase::paper::example4;

    #[test]
    fn all_engines_agree_on_example4() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let engines = [
            EngineKind::Modular,
            EngineKind::Wp,
            EngineKind::WpLiteral,
            EngineKind::Alternating,
            EngineKind::Forward,
        ];
        let models: Vec<WellFoundedModel> = engines
            .iter()
            .map(|&e| {
                let options = WfsOptions::depth(6).with_engine(e);
                solve(SolveRequest::new(&mut u, &db, &prog, options)).model
            })
            .collect();
        let reference = &models[0];
        for (m, e) in models.iter().zip(&engines).skip(1) {
            for sa in reference.segment.atoms() {
                assert_eq!(
                    reference.value(sa.atom),
                    m.value(sa.atom),
                    "engine {e:?} disagrees on {}",
                    u.display_atom(sa.atom)
                );
            }
        }
    }

    #[test]
    fn example4_key_verdicts() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(SolveRequest::new(&mut u, &db, &prog, WfsOptions::depth(8))).model;
        let t = u.lookup_pred("T").unwrap();
        let s = u.lookup_pred("S").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        let s0 = u.atom(s, vec![zero]).unwrap();
        assert!(model.is_true(t0));
        assert!(model.is_false(s0));
        // A completely foreign atom is false (no forward proof).
        let q = u.lookup_pred("Q").unwrap();
        let q0 = u.atom(q, vec![zero]).unwrap();
        assert!(model.is_false(q0));
        assert!(!model.exact, "Example 4 chase is infinite");
    }

    #[test]
    fn stability_deepening_on_example4() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let (model, report) = solve_stable(&mut u, &db, &prog, 2, 2, 12, 2, EngineKind::Wp);
        assert!(report.stable, "depths tried: {:?}", report.depths);
        assert!(report.depths.len() >= 2);
        let t = u.lookup_pred("T").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        assert!(model.is_true(t0));
    }

    #[test]
    fn constraints_lowered_and_reported() {
        use wfdl_core::{Constraint, RTerm, Var};
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let x = RTerm::Var(Var::new(0));
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![x])],
                vec![],
                vec![RuleAtom::new(q, vec![x])],
            )
            .unwrap(),
        );
        // Constraint: p(X), q(X) -> ⊥ (will be violated).
        prog.push_constraint(
            Constraint::new(
                &u,
                vec![RuleAtom::new(p, vec![x]), RuleAtom::new(q, vec![x])],
                vec![],
            )
            .unwrap(),
        );
        // Constraint: q(X), not p(X) -> ⊥ (safe).
        prog.push_constraint(
            Constraint::new(
                &u,
                vec![RuleAtom::new(q, vec![x])],
                vec![RuleAtom::new(p, vec![x])],
            )
            .unwrap(),
        );
        let (sk, viols) = lower_with_constraints(&mut u, &prog).unwrap();
        let mut db = Database::new();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        db.insert(&u, pc).unwrap();
        let model = solve(SolveRequest::new(&mut u, &db, &sk, WfsOptions::unbounded())).model;
        let status = constraint_status(&mut u, &model, &viols);
        assert_eq!(status, vec![Truth::True, Truth::False]);
    }

    #[test]
    fn counts_and_render() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(SolveRequest::new(&mut u, &db, &prog, WfsOptions::depth(5))).model;
        let (t, f, unk) = model.counts();
        assert!(t > 0 && f > 0);
        assert_eq!(unk, 0, "example 4 has a total well-founded model");
        let rendered = model.render_true(&u);
        assert!(rendered.contains("T(0)"));
        assert!(!rendered.contains("S(0)"));
    }
}
