//! # wfdatalog — well-founded semantics for guarded normal Datalog±
//!
//! A from-scratch Rust implementation of
//! *"Well-Founded Semantics for Extended Datalog and Ontological
//! Reasoning"* (Hernich, Kupke, Lukasiewicz, Gottlob; PODS 2013): the
//! standard well-founded semantics (WFS) for Datalog with existential rule
//! heads **and** default negation, under the unique name assumption.
//!
//! ## The compile → solve → serve lifecycle
//!
//! The paper's workload shape is an ontological KB = a **large, fast-
//! changing extensional database** + a **small, stable rule set**, queried
//! continuously. The API mirrors that in three stages, with data mutation
//! as a first-class, parser-free citizen:
//!
//! 1. **Compile** — a [`KnowledgeBase`] owns the mutable interning context.
//!    Rules and constraints come from datalog text
//!    ([`KnowledgeBase::from_source`], [`KnowledgeBase::add_source`]) or an
//!    ontology ([`KnowledgeBase::from_ontology`]); *data* goes through the
//!    typed path — build a [`FactBatch`] with per-relation
//!    [`RelationWriter`]s (predicate resolved once, arity checked once,
//!    rows interned directly) and [`KnowledgeBase::insert`] it, or bulk-load
//!    TSV/CSV with [`KnowledgeBase::insert_tsv`]. [`KnowledgeBase::retract`]
//!    removes facts.
//! 2. **Solve** — [`KnowledgeBase::solve`] runs chase + engine and
//!    packages everything the serving path needs (model, constraint verdicts, a
//!    frozen universe snapshot) into an immutable [`SolvedModel`]. Solving
//!    again without mutation returns the cached artifact; solving after an
//!    **insert-only** delta re-solves *incrementally* (see below).
//! 3. **Serve** — [`SolvedModel`] is `Send + Sync` and answers every query
//!    through `&self`: share one model across threads via [`Arc`] and call
//!    [`SolvedModel::ask`]/[`SolvedModel::answers`] freely, or
//!    [`SolvedModel::prepare`] a [`PreparedQuery`] once and re-evaluate it
//!    with [`SolvedModel::ask_prepared`] at index-probe cost.
//!
//! ```
//! use wfdatalog::{FactBatch, KnowledgeBase};
//!
//! // Compile: rules as text, data through the typed path.
//! let mut kb = KnowledgeBase::from_source(r#"
//!     % Example 1 of the paper.
//!     scientist(X) -> isAuthorOf(X, Y).
//!     conferencePaper(X) -> article(X).
//! "#).unwrap();
//! let mut batch = FactBatch::new();
//! batch.relation(kb.universe_mut(), "scientist", 1)
//!     .unwrap()
//!     .push(&["john"])
//!     .unwrap();
//! kb.insert(batch).unwrap();
//! // Solve (once).
//! let model = kb.solve();
//! // Serve (any number of times, from any thread, through &self).
//! // John authors *something* (a labelled null):
//! assert!(model.ask("?- isAuthorOf(john, X).").unwrap());
//! // …but no article is derivable:
//! assert!(!model.ask("?- article(X).").unwrap());
//! // Prepared queries parse/lower once and re-evaluate cheaply:
//! let q = model.prepare("?- isAuthorOf(john, X).").unwrap();
//! assert!(model.ask_prepared(&q));
//! ```
//!
//! ## Incremental re-solve after data changes
//!
//! Inserting facts and solving again does **not** recompute from scratch:
//! the chase resumes from the previous segment's frontier
//! ([`ChaseSegment::resume_with`]), and the SCC-modular engine re-evaluates
//! only dependency components whose inputs changed — unchanged components
//! reuse their verdicts from the previous model via per-component input
//! fingerprints. [`SolvedModel::solve_stats`] reports what happened.
//! Retractions and rule changes fall back to a full recompute.
//!
//! ```
//! use wfdatalog::{FactBatch, KnowledgeBase};
//! let mut kb = KnowledgeBase::from_source("edge(X,Y) -> reach(X,Y). edge(a,b).").unwrap();
//! let first = kb.solve();
//! let mut delta = FactBatch::new();
//! delta.relation(kb.universe_mut(), "edge", 2).unwrap().push(&["b", "c"]).unwrap();
//! kb.insert(delta).unwrap();
//! let second = kb.solve();
//! assert!(second.solve_stats().incremental);
//! assert!(second.ask("?- reach(b, c).").unwrap());
//! ```
//!
//! Prepared queries **survive universe growth**: dense ids are stable, so
//! a query prepared against an older model evaluates unchanged against a
//! newer one, and [`SolvedModel::rebind`] re-resolves any literal that
//! short-circuited on a then-unknown name — a lookup remap, never a
//! re-parse.
//!
//! Queries are resolved against the model's **frozen** universe snapshot:
//! nothing on the serving path interns, so a constant the knowledge base
//! has never seen short-circuits to a definite verdict (the atom can have
//! no forward proof) instead of erroring:
//!
//! ```
//! # use wfdatalog::KnowledgeBase;
//! # let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
//! # let model = kb.solve();
//! assert!(!model.ask("?- p(brand_new_constant).").unwrap());
//! ```
//!
//! ## Goal-directed solving
//!
//! When a query touches only a small cone of a wide program,
//! [`KnowledgeBase::solve_for`] solves just the query's **relevance
//! slice** (backward predicate reachability over the dependency graph,
//! positive and negative edges alike) instead of the whole program —
//! same answers, bit-identical verdicts over in-slice predicates, a
//! fraction of the work. The resulting model guards its boundary
//! ([`SolvedModel::prepare_sliced`], [`Error::OutOfSlice`]) and composes
//! with the incremental memo. On the CLI: `wfdl query --sliced`; over
//! HTTP: `POST /query?mode=sliced`.
//!
//! ## Crate map
//!
//! * [`wfdl_core`] — terms, atoms, rules, programs, interpretations, and
//!   the frozen [`UniverseSnapshot`];
//! * [`wfdl_storage`] — databases, ground programs (dense local atom ids +
//!   CSR occurrence indexes), secondary indexes;
//! * [`wfdl_syntax`] — parser and printer for the surface language, with
//!   both interning (compile) and frozen (serve) query lowering;
//! * [`wfdl_chase`] — the guarded chase forest (condensed segments,
//!   the explicit Example 6 forest, the paper's depth bound `δ`);
//! * [`wfdl_wfs`] — the WFS engines (see below), the stratified
//!   baseline, WCHECK-style membership with certificates;
//! * [`wfdl_query`] — NBCQ evaluation with certain-answer semantics and
//!   [`PreparedQuery`];
//! * [`wfdl_ontology`] — DL-Lite_{R,⊓,not} translation.
//!
//! ## Engine architecture
//!
//! The ground program extracted from a chase segment renumbers its atoms
//! into dense local ids and keeps every occurrence index in flat CSR
//! arrays. On top of that sits a two-level evaluation scheme, selected by
//! [`EngineKind`] in [`WfsOptions`]:
//!
//! * [`EngineKind::Modular`] *(default)* condenses the atom dependency
//!   graph with Tarjan's SCC algorithm and evaluates components bottom-up:
//!   components without internal negation get one flat semi-naive pass,
//!   and only components that are genuinely recursive through negation
//!   (e.g. win–move draw cycles) invoke the `W_P` unfounded-set machinery
//!   on their own (usually tiny) subprogram. The sweep is serial: Tarjan's
//!   emission order already puts every component after its dependencies.
//!   Per-component counters are returned as
//!   [`ModularStats`] via
//!   [`WellFoundedModel::component_stats`](wfdl_wfs::WellFoundedModel::component_stats)
//!   and printed by `wfdl run --stats`.
//! * [`EngineKind::Wp`], [`EngineKind::WpLiteral`],
//!   [`EngineKind::Alternating`] and [`EngineKind::Forward`] run a single
//!   global fixpoint; they remain available for cross-validation,
//!   stage-faithful traces and the chase-level `Ŵ_P` semantics.
//!
//! All engines compute the same three-valued model (enforced by the
//! cross-engine agreement test suite); they differ only in how much work
//! they do to get there.
//!
//! The repo-level `ARCHITECTURE.md` is the full handbook: crate graph,
//! data flow of one solve, determinism and concurrency invariants, and the
//! budget/degradation contract.

pub mod serve;

pub use wfdl_analyze as analysis;
pub use wfdl_chase as chase;
pub use wfdl_core as core;
pub use wfdl_ontology as ontology;
pub use wfdl_query as query;
pub use wfdl_storage as storage;
pub use wfdl_syntax as syntax;
pub use wfdl_wfs as wfs;

pub use wfdl_analyze::{AnalysisReport, Diagnostic, FragmentClass, ProgramSlice, Severity};
pub use wfdl_chase::{ChaseBudget, ChaseSegment, ExplicitForest, ResumeError};
pub use wfdl_core::{
    AtomId, CancelToken, FactBatch, Interp, Program, RelationWriter, SkolemProgram, SolveBudget,
    SolveOutcome, TruncationReason, Truth, Universe, UniverseSnapshot,
};
pub use wfdl_query::{AnswerSet, Nbcq, PreparedQuery, TruthSource};
pub use wfdl_storage::Database;
pub use wfdl_wfs::{EngineKind, ModularStats, SolveStats, WellFoundedModel, WfsOptions};

use std::fmt;
use std::sync::{Arc, OnceLock};
use wfdl_storage::AtomIndex;
use wfdl_wfs::{SolveOutput, SolveRequest};

/// Unified error type for the high-level API.
#[derive(Debug)]
pub enum Error {
    /// Program construction / validation error.
    Core(wfdl_core::CoreError),
    /// Parse or lowering error.
    Syntax(wfdl_syntax::SyntaxError),
    /// Query construction error.
    Query(wfdl_query::QueryError),
    /// An I/O failure while streaming facts ([`fact_batch_from_reader`])
    /// or binding the serving tier's listener ([`serve`]).
    Io(std::io::Error),
    /// A worker panicked inside the solve pipeline. The panic was caught at
    /// the engine boundary ([`KnowledgeBase::try_solve`]); the knowledge
    /// base remains fully usable and the next solve recomputes from
    /// scratch — no poisoned state.
    EnginePanic(String),
    /// A query against a goal-directed (sliced) model mentions predicates
    /// outside the slice ([`KnowledgeBase::solve_for`],
    /// [`SolvedModel::prepare_sliced`]). The sliced model never chased
    /// those predicates, so it has no sound verdict for them; re-run
    /// `solve_for` with the new query, or query a full [`SolvedModel`].
    /// The payload names the offending predicates.
    OutOfSlice(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "program error: {e}"),
            Error::Syntax(e) => write!(f, "syntax error: {e}"),
            Error::Query(e) => write!(f, "query error: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::EnginePanic(msg) => write!(f, "solve worker panicked: {msg}"),
            Error::OutOfSlice(preds) => write!(
                f,
                "query mentions predicates outside the model's slice: {preds} \
                 (re-run `solve_for` with this query, or query a full model)"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<wfdl_core::CoreError> for Error {
    fn from(e: wfdl_core::CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<wfdl_syntax::SyntaxError> for Error {
    fn from(e: wfdl_syntax::SyntaxError) -> Self {
        Error::Syntax(e)
    }
}

impl From<wfdl_query::QueryError> for Error {
    fn from(e: wfdl_query::QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

// ======================================================================
// Compile stage
// ======================================================================

/// The compile stage: owns the mutable universe, database and skolemized
/// program while sources and fact batches accumulate, and produces
/// immutable [`SolvedModel`]s on demand.
///
/// All mutation (interning, fact insertion/retraction, rule lowering)
/// happens here; once [`KnowledgeBase::solve`] returns, the resulting
/// [`SolvedModel`] never needs `&mut` again. Between solves the knowledge
/// base tracks *how* it was mutated: an insert-only fact delta keeps the
/// next [`KnowledgeBase::solve`] incremental (resumed chase + component
/// verdict reuse), while retractions or rule changes force a full
/// recompute.
pub struct KnowledgeBase {
    /// Copy-on-write interning context: shared with every `SolvedModel`
    /// snapshot, cloned lazily (`Arc::make_mut`) on the first mutation
    /// after a solve — so freezing a snapshot is O(1) and re-solves never
    /// pay for a universe copy.
    universe: Arc<Universe>,
    database: Database,
    sigma: SkolemProgram,
    violations: Vec<wfdl_core::PredId>,
    queries: Vec<Nbcq>,
    /// Configured chase budget; `None` = decide from the program at
    /// solve time (so it tracks later `add_source` calls).
    budget: Option<ChaseBudget>,
    /// Configured engine; `None` = the default engine.
    engine: Option<EngineKind>,
    /// Runtime resource limits for the next solves (deadline, cancel
    /// token, memory budget). Deliberately *not* part of the cached-model
    /// key: a budget bounds how much work a solve may do, it does not
    /// change what the complete model is.
    solve_budget: SolveBudget,
    /// Artifact of the most recent solve: the cached fast path when
    /// nothing changed, and the resume basis when only facts were added.
    last: Option<(WfsOptions, Arc<SolvedModel>)>,
    /// Facts inserted since `last` was computed (the insert-only delta).
    delta: Vec<AtomId>,
    /// Rules changed or facts retracted since `last`: resuming would be
    /// unsound, so the next solve recomputes from scratch.
    needs_full: bool,
    /// Queries appeared since `last`: the cached model must be
    /// re-packaged (its `source_queries` are stale) even with no delta.
    queries_dirty: bool,
    /// Epoch of the most recently *computed* model (see
    /// [`SolvedModel::epoch`]): bumped once per solve that actually ran
    /// the engine (full or incremental). Cache hits and queries-only
    /// repackagings keep the epoch — the model content is unchanged.
    epoch: u64,
    /// Cached static-analysis report (see [`KnowledgeBase::analyze`]),
    /// invalidated by any mutation that can change its inputs: new rules
    /// or queries, and fact churn (the EDB predicate set feeds the
    /// dead-code pass).
    analysis: Option<Arc<AnalysisReport>>,
    /// Monotone mutation counter: bumped by every operation that can
    /// change the model (fact insert/retract, new rules). The sliced-solve
    /// cache keys on it — comparing generations is the only staleness
    /// check [`KnowledgeBase::solve_for`] needs, independent of how the
    /// full-solve cache consumed `delta`/`needs_full` in between.
    generation: u64,
    /// Artifact of the most recent [`KnowledgeBase::solve_for`]: served
    /// again while options, goal set and generation all match.
    sliced_last: Option<SlicedCache>,
}

/// Cache entry for [`KnowledgeBase::solve_for`].
struct SlicedCache {
    options: WfsOptions,
    goals: Vec<wfdl_core::PredId>,
    generation: u64,
    model: Arc<SolvedModel>,
}

impl KnowledgeBase {
    /// Compiles a program text (facts, rules, constraints, queries).
    pub fn from_source(src: &str) -> Result<Self, Error> {
        let mut universe = Universe::new();
        let lowered = wfdl_syntax::load(&mut universe, src)?;
        let (mut sigma, violations) =
            wfdl_wfs::lower_with_constraints(&mut universe, &lowered.program)?;
        sigma.rules.extend(lowered.functional.iter().cloned());
        Ok(KnowledgeBase {
            universe: Arc::new(universe),
            database: lowered.database,
            sigma,
            violations,
            queries: lowered.queries,
            budget: None,
            engine: None,
            solve_budget: SolveBudget::unlimited(),
            last: None,
            delta: Vec::new(),
            needs_full: false,
            queries_dirty: false,
            epoch: 0,
            analysis: None,
            generation: 0,
            sliced_last: None,
        })
    }

    /// Compiles a DL-Lite ontology (Examples 1 and 2 of the paper).
    pub fn from_ontology(onto: &wfdl_ontology::Ontology) -> Result<Self, Error> {
        let mut universe = Universe::new();
        let translated = wfdl_ontology::translate(&mut universe, onto)?;
        let (sigma, violations) =
            wfdl_wfs::lower_with_constraints(&mut universe, &translated.program)?;
        Ok(KnowledgeBase {
            universe: Arc::new(universe),
            database: translated.database,
            sigma,
            violations,
            queries: Vec::new(),
            budget: None,
            engine: None,
            solve_budget: SolveBudget::unlimited(),
            last: None,
            delta: Vec::new(),
            needs_full: false,
            queries_dirty: false,
            epoch: 0,
            analysis: None,
            generation: 0,
            sliced_last: None,
        })
    }

    /// Adds more source text (facts/rules/constraints/queries).
    ///
    /// Implemented on top of the typed mutation API: facts in the text go
    /// through the same insert path as [`KnowledgeBase::insert`] (so a
    /// facts-only source keeps the next solve incremental), while rules or
    /// constraints mark the knowledge base for a full recompute.
    pub fn add_source(&mut self, src: &str) -> Result<(), Error> {
        let universe = Arc::make_mut(&mut self.universe);
        let lowered = wfdl_syntax::load(universe, src)?;
        self.analysis = None;
        let has_rules = !lowered.program.tgds.is_empty()
            || !lowered.program.constraints.is_empty()
            || !lowered.functional.is_empty();
        if has_rules {
            let (sigma, violations) = wfdl_wfs::lower_with_constraints(universe, &lowered.program)?;
            self.sigma.rules.extend(sigma.rules);
            self.sigma.rules.extend(lowered.functional.iter().cloned());
            self.violations.extend(violations);
            self.needs_full = true;
            self.generation += 1;
        }
        for &f in lowered.database.facts() {
            if self.database.insert_unchecked(&self.universe, f) {
                self.delta.push(f);
                self.generation += 1;
            }
        }
        if !lowered.queries.is_empty() {
            self.queries.extend(lowered.queries);
            self.queries_dirty = true;
        }
        Ok(())
    }

    // ----- typed, parser-free mutation --------------------------------

    /// The mutable interning context, for building typed [`FactBatch`]es
    /// against this knowledge base:
    ///
    /// ```
    /// # use wfdatalog::{FactBatch, KnowledgeBase};
    /// # let mut kb = KnowledgeBase::from_source("edge(a,b).").unwrap();
    /// let mut batch = FactBatch::new();
    /// batch.relation(kb.universe_mut(), "edge", 2)
    ///     .unwrap()
    ///     .push(&["b", "c"])
    ///     .unwrap();
    /// kb.insert(batch).unwrap();
    /// ```
    ///
    /// Interning alone never changes the model — facts only take effect
    /// through [`KnowledgeBase::insert`] / [`KnowledgeBase::retract`] —
    /// so handing out `&mut Universe` here is safe.
    pub fn universe_mut(&mut self) -> &mut Universe {
        Arc::make_mut(&mut self.universe)
    }

    /// Inserts a batch of typed facts, returning how many were new
    /// (duplicates of existing database facts are ignored).
    ///
    /// The batch must have been built against **this** knowledge base's
    /// universe ([`KnowledgeBase::universe_mut`]). An insert-only delta
    /// keeps the next [`KnowledgeBase::solve`] on the incremental path.
    pub fn insert(&mut self, batch: FactBatch) -> Result<usize, Error> {
        let mut added = 0usize;
        for &atom in batch.atoms() {
            if self.database.insert(&self.universe, atom)? {
                self.delta.push(atom);
                added += 1;
            }
        }
        if added > 0 {
            self.analysis = None;
            self.generation += 1;
        }
        Ok(added)
    }

    /// Retracts a batch of facts, returning how many were actually
    /// present. Retraction invalidates derived consequences wholesale, so
    /// the next [`KnowledgeBase::solve`] recomputes from scratch.
    pub fn retract(&mut self, batch: FactBatch) -> usize {
        let removed = self.database.retract_batch(&self.universe, batch.atoms());
        if removed > 0 {
            self.needs_full = true;
            self.analysis = None;
            self.generation += 1;
            // Inserted-this-epoch facts that were retracted again must not
            // linger in the delta (hygiene; the full solve ignores it).
            self.delta.retain(|a| self.database.contains(*a));
        }
        removed
    }

    /// Bulk-loads facts from the tab/comma-separated text format (see
    /// [`fact_batch_from_separated`]), returning how many were new.
    ///
    /// ```
    /// # use wfdatalog::KnowledgeBase;
    /// let mut kb = KnowledgeBase::from_source("edge(X,Y) -> reach(Y).").unwrap();
    /// let added = kb.insert_tsv("# comma or tab separated\nedge,a,b\nedge,b,c\n").unwrap();
    /// assert_eq!(added, 2);
    /// assert!(kb.solve().ask("?- reach(c).").unwrap());
    /// ```
    pub fn insert_tsv(&mut self, text: &str) -> Result<usize, Error> {
        self.insert_from_reader(text.as_bytes())
    }

    /// Streaming twin of [`KnowledgeBase::insert_tsv`]: bulk-loads the
    /// same format from any [`std::io::BufRead`] (a fact file opened with
    /// a [`std::io::BufReader`], an HTTP request body, …) without holding
    /// the whole input in memory. Errors keep their 1-based line numbers.
    pub fn insert_from_reader(&mut self, reader: impl std::io::BufRead) -> Result<usize, Error> {
        let batch = fact_batch_from_reader(Arc::make_mut(&mut self.universe), reader)?;
        self.insert(batch)
    }

    /// Replaces the solver options used by [`KnowledgeBase::solve`]
    /// (builder style).
    pub fn with_options(mut self, options: WfsOptions) -> Self {
        self.budget = Some(options.budget);
        self.engine = Some(options.engine);
        self
    }

    /// Sets the chase depth, keeping the configured engine.
    pub fn with_depth(mut self, depth: u32) -> Self {
        self.budget = Some(ChaseBudget::depth(depth));
        self
    }

    /// Sets the evaluation engine, keeping the configured budget.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Sets the runtime resource budget (deadline / cancellation / memory)
    /// for subsequent solves, builder style. See
    /// [`KnowledgeBase::set_solve_budget`].
    pub fn with_solve_budget(mut self, budget: SolveBudget) -> Self {
        self.solve_budget = budget;
        self
    }

    /// Replaces the runtime resource budget for subsequent solves.
    ///
    /// A tripped solve stops at the next clean boundary and returns a model
    /// whose [`SolvedModel::outcome`] reports the truncation; the model
    /// stays queryable as a sound under-approximation. The budget is not
    /// part of the cached-model key, but a budget-truncated model is never
    /// served from cache — the next [`KnowledgeBase::solve`] picks the
    /// chase up from where it stopped (under the then-current budget).
    pub fn set_solve_budget(&mut self, budget: SolveBudget) {
        self.solve_budget = budget;
    }

    /// The currently configured runtime resource budget.
    pub fn solve_budget(&self) -> &SolveBudget {
        &self.solve_budget
    }

    /// The options [`KnowledgeBase::solve`] will use: the configured
    /// budget and engine, with unset parts decided **at call time** — the
    /// automatic budget (unbounded chase for programs without
    /// existentials, depth 12 otherwise) tracks rules added after the
    /// builder calls.
    pub fn effective_options(&self) -> WfsOptions {
        WfsOptions {
            budget: self.budget.unwrap_or_else(|| self.auto_budget()),
            engine: self.engine.unwrap_or_default(),
            ..WfsOptions::default()
        }
    }

    fn auto_budget(&self) -> ChaseBudget {
        let has_existentials = self.sigma.rules.iter().any(|r| {
            r.head_args
                .iter()
                .any(|t| matches!(t, wfdl_core::HeadTerm::Skolem(..)))
        });
        if has_existentials {
            ChaseBudget::depth(12)
        } else {
            ChaseBudget::unbounded()
        }
    }

    /// Solves with the effective options, producing an immutable,
    /// thread-shareable [`SolvedModel`].
    ///
    /// Solving twice without intervening mutation returns the cached
    /// artifact (an `Arc` clone). Solving after an **insert-only** fact
    /// delta resumes the previous chase from its frontier and reuses the
    /// verdicts of every dependency component whose inputs did not change
    /// — cost proportional to the delta's consequences, not the database.
    /// Retractions, rule changes, or changed options recompute in full.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic as a clean panic at this boundary (the
    /// knowledge base itself is left reusable). Use
    /// [`KnowledgeBase::try_solve`] to get it as an
    /// [`Error::EnginePanic`] instead.
    pub fn solve(&mut self) -> Arc<SolvedModel> {
        match self.try_solve() {
            Ok(model) => model,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`KnowledgeBase::solve`] with worker panics caught at the engine
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`Error::EnginePanic`] if a solver worker panicked. The knowledge
    /// base is left coherent and reusable: the partial solve is discarded,
    /// and the next solve recomputes from scratch.
    pub fn try_solve(&mut self) -> Result<Arc<SolvedModel>, Error> {
        let options = self.effective_options();
        // The last model is the basis of this solve iff it ran under the
        // same options and no rule changed and no fact was retracted since.
        let basis = match &self.last {
            Some((last_options, model)) if *last_options == options && !self.needs_full => {
                Some(Arc::clone(model))
            }
            _ => None,
        };
        let unchanged = basis
            .as_ref()
            .filter(|m| self.delta.is_empty() && m.servable_from_cache());
        if let Some(model) = unchanged {
            if !self.queries_dirty {
                return Ok(Arc::clone(model));
            }
            // Queries-only change: the model is provably identical — share
            // it and its indexes, and only re-prepare the source queries
            // against a fresh snapshot (query text may have interned new
            // names during `add_source`).
            let snapshot = UniverseSnapshot::from_arc(Arc::clone(&self.universe));
            let model = self.package(snapshot, Arc::clone(&model.solved), None);
            self.last = Some((options, Arc::clone(&model)));
            self.queries_dirty = false;
            return Ok(model);
        }
        // Get sole ownership of the universe before the chase interns its
        // nulls (a no-op clone unless a previous snapshot still shares it
        // and nothing was ingested since — ingestion already unshared it).
        let universe = Arc::make_mut(&mut self.universe);
        // The delta is moved out before the catch_unwind boundary so a
        // panicking solve cannot leave it half-consumed; it is restored on
        // the error path purely for hygiene (the full recompute the next
        // solve takes reads the database, which already contains it).
        let delta = std::mem::take(&mut self.delta);
        let budget = self.solve_budget.clone();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let req = SolveRequest::new(universe, &self.database, &self.sigma, options)
                .budget(budget)
                .violations(&self.violations);
            // Resume the basis with the delta (a budget-truncated basis
            // continues its chase even with an empty one); the solver
            // re-chases in full when the basis segment cannot resume.
            wfdl_wfs::solve(match &basis {
                Some(prev) => req.resume(prev.model(), &delta),
                None => req,
            })
        }));
        let output = match attempt {
            Ok(output) => output,
            Err(panic) => {
                // Leave the knowledge base coherent: drop the cached model,
                // restore the delta, and force the next solve to recompute
                // from scratch. The universe keeps any nulls the partial
                // chase interned; interning is deterministic, so a re-run
                // re-derives the same ids and any extras are unreachable
                // garbage at worst.
                self.delta = delta;
                self.last = None;
                self.needs_full = true;
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                return Err(Error::EnginePanic(msg));
            }
        };
        // Freeze the universe *after* the chase interned its nulls: the
        // snapshot sees every atom the model mentions. Sharing the Arc is
        // O(1); the next mutation will copy-on-write.
        let snapshot = UniverseSnapshot::from_arc(Arc::clone(&self.universe));
        self.epoch += 1;
        let solved = Solved::freeze(&snapshot, output, self.epoch);
        let model = self.package(snapshot, solved, None);
        self.last = Some((options, Arc::clone(&model)));
        self.needs_full = false;
        self.queries_dirty = false;
        Ok(model)
    }

    /// Goal-directed solve: computes the query-relevant **program slice**
    /// (the relevance closure of the query's predicates over the
    /// dependency graph, following positive *and* negative edges) and
    /// solves only that subprogram — chase, grounding and engine all
    /// restricted to the slice.
    ///
    /// The returned model answers any query whose predicates lie inside
    /// the slice **bit-identically** to a full [`KnowledgeBase::solve`]
    /// (same options, same budget semantics); queries that stray outside
    /// the slice are rejected with [`Error::OutOfSlice`] by the model's
    /// [`SolvedModel::prepare`]/[`SolvedModel::prepare_sliced`] guard
    /// rather than silently answered `false`. Constraints are *not*
    /// goal-directed: a constraint whose violation predicate falls outside
    /// the slice reports [`Truth::Unknown`].
    ///
    /// The solve composes with the per-component fingerprint memo: when a
    /// full solve under the same options is cached, sliced components
    /// whose inputs did not change reuse its verdicts
    /// ([`SolveStats::components_reused`]). Slice shape is reported in
    /// [`SolveStats::slice_components`] / [`SolveStats::total_components`].
    /// The knowledge base's own solve state (cached model, pending delta,
    /// resume segment) is left untouched — the sliced solve runs on a
    /// cloned universe — and the sliced artifact is itself cached until
    /// the options, the goal set, or the data change.
    ///
    /// ```
    /// use wfdatalog::{Error, KnowledgeBase};
    /// let mut kb = KnowledgeBase::from_source(r#"
    ///     src(a). src(X), not excl(X) -> out(X).
    ///     pick(b). pick(X), not flop(X) -> flip(X).
    ///     pick(X), not flip(X) -> flop(X).
    /// "#).unwrap();
    /// let model = kb.solve_for("?- out(a).").unwrap();
    /// let stats = model.solve_stats();
    /// assert!(stats.sliced && stats.slice_components < stats.total_components);
    /// assert!(model.ask("?- out(a).").unwrap());
    /// // The flip/flop cone was never solved; querying it is an error,
    /// // not a silent `false`:
    /// assert!(matches!(model.prepare("?- flip(b)."), Err(Error::OutOfSlice(_))));
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::Syntax`] if `query_src` is not a valid query.
    pub fn solve_for(&mut self, query_src: &str) -> Result<Arc<SolvedModel>, Error> {
        let options = self.effective_options();
        // Resolve the query against the current universe (read-only:
        // query preparation looks names up, never interns).
        let prepared = wfdl_syntax::prepare_query(&self.universe, query_src)?;
        let goals = prepared.goal_preds();
        if let Some(c) = &self.sliced_last {
            if c.options == options
                && c.generation == self.generation
                && c.goals == goals
                && c.model.servable_from_cache()
            {
                return Ok(Arc::clone(&c.model));
            }
        }
        let slice = ProgramSlice::compute(self.universe.num_preds(), &self.sigma, &goals);
        // The sliced chase interns its nulls into a *clone* of the
        // universe: the knowledge base's own state (delta, resume segment,
        // cached full model) stays untouched.
        let mut universe = (*self.universe).clone();
        let req = SolveRequest::new(&mut universe, &self.database, &self.sigma, options)
            .budget(self.solve_budget.clone())
            .violations(&self.violations)
            .slice(&slice.pred_mask);
        // Memo compose: offer the last full solve's per-component verdicts
        // under the same options. The engine's fingerprint + atom-set
        // check rejects stale components on its own, so a pending delta
        // only makes the memo less effective, never unsound.
        let mut output = wfdl_wfs::solve(match &self.last {
            Some((last_options, model)) if *last_options == options => req.memo(model.model()),
            _ => req,
        });
        output.stats.slice_components = slice.components_in_slice;
        output.stats.total_components = slice.components_total;
        let snapshot = UniverseSnapshot::from_arc(Arc::new(universe));
        // Sliced models are views of the same data the last full-solve
        // epoch would see; they never advance the epoch counter.
        let solved = Solved::freeze(&snapshot, output, self.epoch);
        let model = self.package(snapshot, solved, Some(slice.pred_mask));
        // A budget-truncated sliced model is served once but never cached:
        // re-solving under a moved deadline may get further.
        if model.servable_from_cache() {
            self.sliced_last = Some(SlicedCache {
                options,
                goals,
                generation: self.generation,
                model: Arc::clone(&model),
            });
        }
        Ok(model)
    }

    /// The one place a [`SolvedModel`] is assembled: wraps a solve's
    /// shared artifact with the universe snapshot it is read against and
    /// the source queries prepared against that snapshot. A sliced model
    /// (`slice` is its predicate mask) carries no source queries — they
    /// may read predicates outside the slice.
    fn package(
        &self,
        universe: UniverseSnapshot,
        solved: Arc<Solved>,
        slice: Option<Vec<bool>>,
    ) -> Arc<SolvedModel> {
        let source_queries = match slice {
            Some(_) => Vec::new(),
            None => self
                .queries
                .iter()
                .cloned()
                .map(PreparedQuery::from_query)
                .collect(),
        };
        Arc::new(SolvedModel {
            universe,
            solved,
            source_queries,
            slice,
        })
    }

    // ----- read-only accessors ----------------------------------------

    /// The interning context (read-only; mutation goes through
    /// [`KnowledgeBase::add_source`]).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The database `D`.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The skolemized program `Σf` (constraints already lowered).
    pub fn sigma(&self) -> &SkolemProgram {
        &self.sigma
    }

    /// Violation predicates of the lowered constraints, in source order.
    pub fn violations(&self) -> &[wfdl_core::PredId] {
        &self.violations
    }

    /// Queries that appeared in the sources, in order.
    pub fn queries(&self) -> &[Nbcq] {
        &self.queries
    }

    /// Runs the static analyzer over the compiled program (stratification,
    /// fragment classification, chase-termination risk, dead-code lints —
    /// see [`wfdl_analyze`]) and caches the report alongside the solve
    /// cache. The cache is invalidated by [`KnowledgeBase::add_source`],
    /// [`KnowledgeBase::insert`] and [`KnowledgeBase::retract`]: rule and
    /// query changes alter the analyzed program, and fact churn alters the
    /// EDB predicate set feeding the dead-code pass.
    pub fn analyze(&mut self) -> Arc<AnalysisReport> {
        if let Some(report) = &self.analysis {
            return Arc::clone(report);
        }
        let mut edb_seen = vec![false; self.universe.num_preds()];
        let mut edb_preds = Vec::new();
        for &f in self.database.facts() {
            let p = self.universe.atoms.pred(f);
            if !edb_seen[p.index()] {
                edb_seen[p.index()] = true;
                edb_preds.push(p);
            }
        }
        let mut queried = Vec::new();
        for q in &self.queries {
            for a in q.pos.iter().chain(q.neg.iter()) {
                if !queried.contains(&a.pred) {
                    queried.push(a.pred);
                }
            }
        }
        // The solver reports every constraint's violation status, so the
        // violation predicates count as consumed.
        for &p in &self.violations {
            if !queried.contains(&p) {
                queried.push(p);
            }
        }
        let report = Arc::new(wfdl_analyze::analyze(&wfdl_analyze::AnalysisInput {
            universe: &self.universe,
            program: &self.sigma,
            edb_preds: &edb_preds,
            queried_preds: &queried,
        }));
        self.analysis = Some(Arc::clone(&report));
        report
    }
}

// ======================================================================
// Solve + serve stages
// ======================================================================

/// The immutable artifact of one solve: chase segment, ground program,
/// well-founded model, constraint verdicts and a frozen universe snapshot.
///
/// `SolvedModel` is `Send + Sync` and every method takes `&self`, so one
/// model behind an [`Arc`] can serve queries from any number of threads.
/// The index over certainly-true atoms is built once at solve time; the
/// index for three-valued [`SolvedModel::ask3`] is built lazily on first
/// use and shared afterwards.
#[derive(Debug)]
pub struct SolvedModel {
    universe: UniverseSnapshot,
    /// Shared with sibling packagings of the same solve: a queries-only
    /// change re-wraps the identical model instead of re-solving.
    solved: Arc<Solved>,
    source_queries: Vec<PreparedQuery>,
    /// `Some(pred_mask)` for goal-directed models
    /// ([`KnowledgeBase::solve_for`]): the relevance-closed predicate
    /// slice this model was solved under. Queries are checked against it
    /// at preparation time — see [`SolvedModel::prepare_sliced`].
    slice: Option<Vec<bool>>,
}

/// What one engine run produced, with its query indexes: the part of a
/// [`SolvedModel`] every packaging of that run shares.
#[derive(Debug)]
struct Solved {
    model: WellFoundedModel,
    constraint_status: Vec<Truth>,
    certain_index: AtomIndex,
    possible_index: OnceLock<AtomIndex>,
    stats: SolveStats,
    epoch: u64,
}

impl Solved {
    /// Builds the index over the certain atoms of `output`'s model (the
    /// three-valued index is built lazily on first use).
    fn freeze(universe: &Universe, output: SolveOutput, epoch: u64) -> Arc<Solved> {
        let certain_index = AtomIndex::build(universe, TruthSource::certain_atoms(&output.model));
        Arc::new(Solved {
            model: output.model,
            constraint_status: output.constraint_status,
            certain_index,
            possible_index: OnceLock::new(),
            stats: output.stats,
            epoch,
        })
    }
}

impl SolvedModel {
    // ----- query serving ----------------------------------------------

    /// Parses and lowers a query against the frozen snapshot, ready for
    /// repeated evaluation. Unknown constants or predicates in the query
    /// short-circuit to a definite verdict instead of erroring (see
    /// [`PreparedQuery`]).
    ///
    /// On a goal-directed model ([`KnowledgeBase::solve_for`]) the query
    /// is additionally checked against the model's slice — see
    /// [`SolvedModel::prepare_sliced`].
    ///
    /// ```
    /// # use wfdatalog::KnowledgeBase;
    /// let mut kb = KnowledgeBase::from_source(
    ///     "edge(a,b). edge(b,c). edge(X,Y), not win(Y) -> win(X).").unwrap();
    /// let model = kb.solve();
    /// // Prepare once, evaluate many times — no parsing per ask.
    /// let q = model.prepare("?- win(X), not win(b).").unwrap();
    /// assert!(!model.ask_prepared(&q)); // the only winner IS b
    /// let wins = model.prepare("?(X) win(X).").unwrap();
    /// assert_eq!(model.answers_prepared(&wins).len(), 1);
    /// ```
    pub fn prepare(&self, query_src: &str) -> Result<PreparedQuery, Error> {
        let query = wfdl_syntax::prepare_query(&self.universe, query_src)?;
        self.check_slice(&query)?;
        Ok(query)
    }

    /// [`SolvedModel::prepare`] with the slice contract spelled out: on a
    /// goal-directed model, every resolved predicate of the query must lie
    /// **inside the slice** the model was solved for, because out-of-slice
    /// atoms were never chased and would silently read `false`.
    ///
    /// Both entry points enforce the check (so a sliced model can never
    /// silently mis-answer a prepared query); this name exists to make the
    /// sliced serving path explicit at call sites. Queries that
    /// short-circuit on an unknown name pass the check — their definite
    /// verdict is slice-independent. Evaluating a [`PreparedQuery`]
    /// prepared against a *different* model bypasses the guard; keep
    /// prepared queries with the model that prepared them.
    ///
    /// ```
    /// # use wfdatalog::{Error, KnowledgeBase};
    /// # let mut kb = KnowledgeBase::from_source(
    /// #     "p(a). p(X) -> q(X). r(X), not q(X) -> s(X).").unwrap();
    /// let model = kb.solve_for("?- q(a).").unwrap();
    /// let q = model.prepare_sliced("?- q(X), p(X).").unwrap();
    /// assert!(model.ask_prepared(&q));
    /// // `s` is outside the q-slice: rejected, not silently false.
    /// assert!(matches!(model.prepare_sliced("?- s(a)."), Err(Error::OutOfSlice(_))));
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::OutOfSlice`] naming the offending predicates, or any
    /// [`SolvedModel::prepare`] error.
    pub fn prepare_sliced(&self, query_src: &str) -> Result<PreparedQuery, Error> {
        self.prepare(query_src)
    }

    /// True iff this model was produced by a goal-directed solve
    /// ([`KnowledgeBase::solve_for`]) and therefore only answers queries
    /// within its slice.
    pub fn is_sliced(&self) -> bool {
        self.slice.is_some()
    }

    /// Rejects queries that read predicates outside a sliced model's
    /// relevance closure. No-op on full models and on short-circuited
    /// queries (their verdict is already definite and slice-independent).
    fn check_slice(&self, query: &PreparedQuery) -> Result<(), Error> {
        let (Some(mask), Some(q)) = (&self.slice, query.query()) else {
            return Ok(());
        };
        let mut missing: Vec<&str> = Vec::new();
        for atom in q.pos.iter().chain(q.neg.iter()) {
            if !mask.get(atom.pred.index()).copied().unwrap_or(false) {
                let name = self.universe.pred_name(atom.pred);
                if !missing.contains(&name) {
                    missing.push(name);
                }
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(Error::OutOfSlice(missing.join(", ")))
        }
    }

    /// Re-resolves a query prepared against an **older** model of the same
    /// knowledge base.
    ///
    /// Dense ids are stable under universe growth, so a fully-resolved
    /// prepared query is returned as a cheap clone; only queries that
    /// short-circuited on a then-unknown predicate or constant re-run
    /// name resolution from their retained shape (a lookup remap — no
    /// parser involved). Errors only if a previously-unknown predicate
    /// has since been declared with a conflicting arity. On a sliced model
    /// the rebound query is checked against the slice, exactly as
    /// [`SolvedModel::prepare`] checks fresh ones.
    ///
    /// ```
    /// # use wfdatalog::KnowledgeBase;
    /// let mut kb = KnowledgeBase::from_source(
    ///     "edge(a,b). edge(X,Y), not win(Y) -> win(X).").unwrap();
    /// let old = kb.solve();
    /// let q = old.prepare("?- win(zeta).").unwrap(); // zeta: unknown, false
    /// assert!(!old.ask_prepared(&q));
    /// kb.insert_tsv("edge,b,zeta\n").unwrap();
    /// let new = kb.solve();
    /// // Rebinding picks up the now-interned constant; zeta loses.
    /// assert!(!new.ask_prepared(&new.rebind(&q).unwrap()));
    /// assert!(new.ask("?- win(b).").unwrap());
    /// ```
    pub fn rebind(&self, query: &PreparedQuery) -> Result<PreparedQuery, Error> {
        let rebound = query.rebind(&self.universe)?;
        self.check_slice(&rebound)?;
        Ok(rebound)
    }

    /// Parses and evaluates a Boolean query (e.g. `"?- p(X), not q(X)."`).
    ///
    /// Convenience for one-off questions; in a serving loop, [`prepare`]
    /// once and [`ask_prepared`] per request.
    ///
    /// [`prepare`]: SolvedModel::prepare
    /// [`ask_prepared`]: SolvedModel::ask_prepared
    pub fn ask(&self, query_src: &str) -> Result<bool, Error> {
        Ok(self.ask_prepared(&self.prepare(query_src)?))
    }

    /// Three-valued satisfaction of a Boolean query.
    pub fn ask3(&self, query_src: &str) -> Result<Truth, Error> {
        Ok(self.ask3_prepared(&self.prepare(query_src)?))
    }

    /// Parses and evaluates a query with answer variables
    /// (e.g. `"?(X) p(X, Y)."`), returning the constant tuples.
    pub fn answers(&self, query_src: &str) -> Result<AnswerSet, Error> {
        Ok(self.answers_prepared(&self.prepare(query_src)?))
    }

    /// Evaluates a prepared Boolean query (certain-answer semantics).
    pub fn ask_prepared(&self, query: &PreparedQuery) -> bool {
        let s = &*self.solved;
        query.holds_with(&self.universe, &s.model, &s.certain_index)
    }

    /// Three-valued evaluation of a prepared query.
    pub fn ask3_prepared(&self, query: &PreparedQuery) -> Truth {
        let s = &*self.solved;
        query.holds3_with(
            &self.universe,
            &s.model,
            &s.certain_index,
            self.possible_index(),
        )
    }

    /// Certain answers of a prepared query.
    pub fn answers_prepared(&self, query: &PreparedQuery) -> AnswerSet {
        let s = &*self.solved;
        query.answers_with(&self.universe, &s.model, &s.certain_index)
    }

    /// Evaluates a batch of prepared queries, returning one answer set per
    /// query (in order).
    pub fn answer_all(&self, queries: &[PreparedQuery]) -> Vec<AnswerSet> {
        queries.iter().map(|q| self.answers_prepared(q)).collect()
    }

    /// The queries that appeared in the compiled sources, prepared against
    /// this model's snapshot, in source order.
    pub fn source_queries(&self) -> &[PreparedQuery] {
        &self.source_queries
    }

    // ----- model inspection -------------------------------------------

    /// The frozen universe snapshot the model was solved under.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The snapshot handle itself (cheap to clone and share).
    pub fn snapshot(&self) -> &UniverseSnapshot {
        &self.universe
    }

    /// The underlying well-founded model (segment, ground program, engine
    /// result).
    pub fn model(&self) -> &WellFoundedModel {
        &self.solved.model
    }

    /// Truth value of a ground atom under `WFS(D, Σ)`.
    pub fn value(&self, atom: AtomId) -> Truth {
        self.solved.model.value(atom)
    }

    /// True iff the chase quiesced within budget, making the model exact.
    pub fn exact(&self) -> bool {
        self.solved.model.exact
    }

    /// Whether the solve ran to its fixpoint or was truncated (and why):
    /// depth/cap bounds, a deadline, a cancellation, or a memory budget.
    pub fn outcome(&self) -> SolveOutcome {
        self.solved.model.outcome
    }

    /// True iff query answers from this model are **under-approximate**:
    /// the solve was truncated, so certain answers remain certain but some
    /// answers the complete model would return may be missing (they read
    /// `Unknown` here).
    pub fn under_approximate(&self) -> bool {
        !self.outcome().is_complete()
    }

    /// False iff a budget trip truncated this model: re-solving may then
    /// get further (the deadline moved, the token was replaced, the limit
    /// was raised), so it is never served from cache. Depth/cap
    /// truncations are deterministic properties of the program and
    /// options, so re-solving those would change nothing.
    fn servable_from_cache(&self) -> bool {
        !self
            .outcome()
            .truncation()
            .is_some_and(TruncationReason::is_budget_trip)
    }

    /// How this model was produced: whether the solve was incremental and
    /// how many dependency components reused their previous verdicts.
    pub fn solve_stats(&self) -> SolveStats {
        self.solved.stats
    }

    /// The model's epoch: a monotonically increasing counter over the
    /// owning [`KnowledgeBase`]'s successful solves, bumped once per solve
    /// that actually ran the engine (full or incremental). Two
    /// `SolvedModel`s of the same knowledge base share an epoch iff they
    /// share the same underlying model content (a cache hit or a
    /// queries-only repackaging). The serving tier uses this to order
    /// hot-swap visibility: a request that pinned epoch `e` answers
    /// exactly as the direct API against the epoch-`e` model.
    pub fn epoch(&self) -> u64 {
        self.solved.epoch
    }

    /// Truth of each constraint's violation marker, in source order:
    /// `True` = surely violated, `Unknown` = possibly violated,
    /// `False` = safe.
    pub fn constraint_status(&self) -> &[Truth] {
        &self.solved.constraint_status
    }

    /// Looks up a ground atom `pred(constants…)` by names.
    ///
    /// `Ok(None)` means a genuine miss — an unknown predicate, an unknown
    /// constant, or an atom that was never materialized (its value is then
    /// `False`). Using a **known** predicate with the wrong number of
    /// arguments is a schema bug, not a miss, and errors with the same
    /// arity mismatch the typed [`RelationWriter`] ingestion path reports.
    pub fn lookup_atom(&self, pred: &str, args: &[&str]) -> Result<Option<AtomId>, Error> {
        let Some(p) = self.universe.lookup_pred(pred) else {
            return Ok(None);
        };
        let declared = self.universe.pred_arity(p);
        if declared != args.len() {
            return Err(Error::Core(wfdl_core::CoreError::ArityMismatch {
                predicate: pred.to_owned(),
                declared,
                used: args.len(),
            }));
        }
        let mut ts = Vec::with_capacity(args.len());
        for a in args {
            match self.universe.lookup_constant(a) {
                Some(t) => ts.push(t),
                None => return Ok(None),
            }
        }
        Ok(self.universe.atoms.lookup(p, &ts))
    }

    /// Renders the true atoms (non-auxiliary predicates) sorted, one per
    /// line.
    pub fn render_true(&self) -> String {
        self.solved.model.render_true(&self.universe)
    }

    fn possible_index(&self) -> &AtomIndex {
        self.solved.possible_index.get_or_init(|| {
            AtomIndex::build(
                &self.universe,
                TruthSource::possible_atoms(&self.solved.model),
            )
        })
    }
}

// ======================================================================
// Bulk fact loading
// ======================================================================

/// Parses the parser-free bulk fact format into a typed [`FactBatch`].
///
/// One fact per line: the predicate name, then the constant arguments,
/// separated by tabs (or commas on lines containing no tab). Leading and
/// trailing whitespace per field is trimmed; blank lines and lines
/// starting with `#` or `%` are skipped. A bare predicate name is a
/// nullary fact. The first line mentioning a predicate fixes its arity
/// (consistent with any declaration the rules already made); later lines
/// and rules must agree or error with the usual arity mismatch.
///
/// ```text
/// # persons.tsv (fields tab-separated, or comma-separated as here)
/// person,alice
/// person,bob
/// employs,acme,alice
/// ```
pub fn fact_batch_from_separated(universe: &mut Universe, text: &str) -> Result<FactBatch, Error> {
    fact_batch_from_reader(universe, text.as_bytes())
}

/// Streaming variant of [`fact_batch_from_separated`]: parses the same
/// tab/comma-separated fact format from any [`std::io::BufRead`] without
/// materializing the input as one string — the path the `wfdl --facts`
/// file loader and the serving tier's `/ingest` endpoint share. Errors
/// carry the 1-based line number of the offending line, exactly as the
/// in-memory variant reports it; I/O failures surface as [`Error::Io`].
pub fn fact_batch_from_reader(
    universe: &mut Universe,
    mut reader: impl std::io::BufRead,
) -> Result<FactBatch, Error> {
    let mut batch = FactBatch::new();
    let mut args: Vec<wfdl_core::TermId> = Vec::new();
    let mut raw = String::new();
    // Fact files are typically grouped by relation; remembering the last
    // resolved predicate keeps the per-row work to constant interning,
    // matching the `RelationWriter` resolved-once contract.
    let mut current: Option<(String, wfdl_core::PredId, usize)> = None;
    let mut line_no: u32 = 0;
    loop {
        raw.clear();
        if reader.read_line(&mut raw)? == 0 {
            return Ok(batch);
        }
        line_no += 1;
        let positioned = |message: String| {
            Error::Syntax(wfdl_syntax::SyntaxError::new(
                message,
                wfdl_syntax::Pos {
                    line: line_no,
                    col: 1,
                },
            ))
        };
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let sep = if line.contains('\t') { '\t' } else { ',' };
        // The split is re-walked for each use (validate, count, intern)
        // rather than collected, so a line costs no allocation.
        let mut fields = line.split(sep).map(str::trim);
        let pred = fields.next().unwrap_or_default();
        if pred.is_empty() || fields.clone().any(str::is_empty) {
            return Err(positioned(format!("empty field in fact line `{line}`")));
        }
        let arity = fields.clone().count();
        let pred_id = match &current {
            Some((name, id, ar)) if name == pred && *ar == arity => *id,
            _ => {
                let id = universe
                    .pred(pred, arity)
                    .map_err(|e| positioned(e.to_string()))?;
                current = Some((pred.to_owned(), id, arity));
                id
            }
        };
        args.clear();
        args.extend(fields.map(|c| universe.constant(c)));
        let atom = universe.atoms.intern(pred_id, &args);
        batch
            .push_atom(universe, atom)
            .map_err(|e| positioned(e.to_string()))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            scientist(john).
            scientist(X) -> isAuthorOf(X, Y).
            "#,
        )
        .unwrap();
        let model = kb.solve();
        assert!(model.ask("?- isAuthorOf(john, X).").unwrap());
        assert!(!model.ask("?- isAuthorOf(X, john).").unwrap());
    }

    #[test]
    fn add_source_accumulates_and_invalidates_cache() {
        let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
        let before = kb.solve();
        assert!(!before.ask("?- q(a).").unwrap());
        kb.add_source("p(X) -> q(X).").unwrap();
        let model = kb.solve();
        assert!(model.ask("?- q(a).").unwrap());
    }

    #[test]
    fn repeated_solve_reuses_cached_artifacts() {
        let mut kb = KnowledgeBase::from_source("p(a). p(X) -> q(X).").unwrap();
        let m1 = kb.solve();
        let m2 = kb.solve();
        assert!(Arc::ptr_eq(&m1, &m2), "no mutation → cached model");
        // Different options recompute…
        let mut kb = kb.with_options(WfsOptions::depth(3));
        let m3 = kb.solve();
        assert!(!Arc::ptr_eq(&m1, &m3));
        // …and the default options now miss the (single-entry) cache.
        let mut kb = kb.with_options(WfsOptions::unbounded());
        let m4 = kb.solve();
        assert!(!Arc::ptr_eq(&m1, &m4));
        assert!(m4.ask("?- q(a).").unwrap());
    }

    #[test]
    fn auto_budget_tracks_sources_added_after_builder_calls() {
        // `with_engine` must not freeze the automatic budget decision:
        // existential rules added later still trigger the depth-12 safety
        // default (an unbounded chase would not terminate here).
        let mut kb = KnowledgeBase::from_source("p(a).")
            .unwrap()
            .with_engine(EngineKind::Wp);
        assert_eq!(kb.effective_options().budget, ChaseBudget::unbounded());
        kb.add_source("p(X) -> q(X, Y). q(X, Y) -> p(Y).").unwrap();
        let options = kb.effective_options();
        assert_eq!(options.budget, ChaseBudget::depth(12));
        assert_eq!(options.engine, EngineKind::Wp);
        let model = kb.solve();
        assert!(model.ask("?- q(a, Y).").unwrap());
    }

    #[test]
    fn constraint_status_via_facade() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            cat(tom).
            dog(tom).
            cat(X), dog(X) -> false.
            "#,
        )
        .unwrap();
        let model = kb.solve();
        assert_eq!(model.constraint_status(), &[Truth::True]);
    }

    #[test]
    fn ask3_reports_unknown() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            g(c).
            g(X), not p(X) -> p(X).
            "#,
        )
        .unwrap();
        let model = kb.solve();
        assert_eq!(model.ask3("?- p(c).").unwrap(), Truth::Unknown);
    }

    #[test]
    fn prepared_queries_and_answer_all() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            edge(a,b). edge(b,c). mark(a).
            "#,
        )
        .unwrap();
        let model = kb.solve();
        let q1 = model.prepare("?(X) edge(X, Y).").unwrap();
        let q2 = model.prepare("?(X) edge(X, Y), not mark(X).").unwrap();
        let q3 = model.prepare("?(X) edge(X, never_seen).").unwrap();
        let all = model.answer_all(&[q1.clone(), q2, q3]);
        assert_eq!(all[0].len(), 2);
        assert_eq!(all[1].len(), 1);
        assert!(all[2].is_empty(), "unknown constant → definitely empty");
        // Prepared evaluation agrees with the parse-per-call convenience.
        assert_eq!(
            model.answers("?(X) edge(X, Y).").unwrap(),
            model.answers_prepared(&q1)
        );
    }

    #[test]
    fn unknown_constant_is_definite_not_error() {
        let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
        let model = kb.solve();
        assert!(!model.ask("?- p(zebra).").unwrap());
        assert_eq!(model.ask3("?- p(zebra).").unwrap(), Truth::False);
        // Negated unknown constants are certainly satisfied.
        assert!(model.ask("?- p(X), not p(zebra).").unwrap());
    }

    #[test]
    fn source_queries_are_prepared() {
        let mut kb =
            KnowledgeBase::from_source("edge(a,b). ?- edge(a, X). ?(X) edge(X, Y).").unwrap();
        let model = kb.solve();
        assert_eq!(model.source_queries().len(), 2);
        assert!(model.ask_prepared(&model.source_queries()[0]));
        assert_eq!(model.answers_prepared(&model.source_queries()[1]).len(), 1);
    }

    #[test]
    fn solved_model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolvedModel>();
        assert_send_sync::<KnowledgeBase>();
        assert_send_sync::<PreparedQuery>();
    }

    #[test]
    fn prepare_errors_carry_real_source_positions() {
        let mut kb = KnowledgeBase::from_source("scientist(john).").unwrap();
        let model = kb.solve();
        let err = model.prepare("\n\n   scientist(ada).").unwrap_err();
        let Error::Syntax(e) = err else {
            panic!("expected a syntax error")
        };
        assert!(e.message.contains("expected a query"), "{e}");
        assert_eq!((e.pos.line, e.pos.col), (3, 4), "{e}");
    }

    // ---- typed ingestion + delta-aware re-solve --------------------------

    #[test]
    fn typed_insert_takes_incremental_path_and_agrees_with_scratch() {
        const RULES: &str = "edge(X,Y) -> reach(X,Y).
             reach(X,Y) -> covered(Y).
             node(X), not covered(X) -> isolated(X).";
        let mut kb = KnowledgeBase::from_source(RULES).unwrap();
        let mut base = FactBatch::new();
        {
            let mut edges = base.relation(kb.universe_mut(), "edge", 2).unwrap();
            edges.push(&["a", "b"]).unwrap();
            edges.push(&["b", "c"]).unwrap();
        }
        {
            let mut nodes = base.relation(kb.universe_mut(), "node", 1).unwrap();
            for n in ["a", "b", "c", "d"] {
                nodes.push(&[n]).unwrap();
            }
        }
        kb.insert(base).unwrap();
        let first = kb.solve();
        assert!(!first.solve_stats().incremental, "first solve is full");
        assert!(first.ask("?- isolated(d).").unwrap());

        let mut delta = FactBatch::new();
        delta
            .relation(kb.universe_mut(), "edge", 2)
            .unwrap()
            .push(&["c", "d"])
            .unwrap();
        kb.insert(delta).unwrap();
        let second = kb.solve();
        let stats = second.solve_stats();
        assert!(stats.incremental, "insert-only delta resumes");
        assert!(stats.components_reused > 0, "{stats:?}");
        assert!(second.ask("?- covered(d).").unwrap());
        assert!(!second.ask("?- isolated(d).").unwrap());

        // Bit-for-bit agreement with a from-scratch KB over the union.
        let mut scratch = KnowledgeBase::from_source(RULES).unwrap();
        let mut all = FactBatch::new();
        {
            let mut edges = all.relation(scratch.universe_mut(), "edge", 2).unwrap();
            for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
                edges.push(&[x, y]).unwrap();
            }
        }
        {
            let mut nodes = all.relation(scratch.universe_mut(), "node", 1).unwrap();
            for n in ["a", "b", "c", "d"] {
                nodes.push(&[n]).unwrap();
            }
        }
        scratch.insert(all).unwrap();
        let reference = scratch.solve();
        assert_eq!(reference.render_true(), second.render_true());
    }

    #[test]
    fn retraction_falls_back_to_full_recompute() {
        let mut kb = KnowledgeBase::from_source("p(a). p(b). p(X), not q(X) -> r(X).").unwrap();
        let first = kb.solve();
        assert!(first.ask("?- r(a).").unwrap());
        let mut batch = FactBatch::new();
        batch
            .relation(kb.universe_mut(), "p", 1)
            .unwrap()
            .push(&["a"])
            .unwrap();
        assert_eq!(kb.retract(batch), 1);
        let second = kb.solve();
        assert!(!second.solve_stats().incremental, "retraction → full");
        assert!(!second.ask("?- r(a).").unwrap());
        assert!(second.ask("?- r(b).").unwrap());
    }

    #[test]
    fn rule_changes_fall_back_to_full_recompute() {
        let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
        kb.solve();
        kb.add_source("p(X) -> q(X).").unwrap();
        let model = kb.solve();
        assert!(!model.solve_stats().incremental);
        assert!(model.ask("?- q(a).").unwrap());
    }

    #[test]
    fn facts_only_add_source_stays_incremental() {
        let mut kb = KnowledgeBase::from_source("p(X) -> q(X). p(a).").unwrap();
        kb.solve();
        kb.add_source("p(b).").unwrap();
        let model = kb.solve();
        assert!(model.solve_stats().incremental, "facts-only source text");
        assert!(model.ask("?- q(b).").unwrap());
    }

    #[test]
    fn tsv_bulk_load_roundtrip() {
        let mut kb = KnowledgeBase::from_source("edge(X,Y) -> reach(X,Y).").unwrap();
        let added = kb
            .insert_tsv(
                "# comment line\n\
                 edge\ta\tb\n\
                 edge\tb\tc\n\
                 \n\
                 mark, a\n",
            )
            .unwrap();
        assert_eq!(added, 3);
        let model = kb.solve();
        assert!(model.ask("?- reach(a, b).").unwrap());
        assert!(model.ask("?- mark(a).").unwrap());
        // Arity mismatches carry the offending line number.
        let err = kb.insert_tsv("edge\ta\n").unwrap_err();
        let Error::Syntax(e) = err else {
            panic!("expected a positioned error")
        };
        assert!(e.message.contains("arity"), "{e}");
        assert_eq!(e.pos.line, 1);
    }

    #[test]
    fn lookup_atom_distinguishes_miss_from_arity_bug() {
        let mut kb = KnowledgeBase::from_source("edge(a,b).").unwrap();
        let model = kb.solve();
        assert!(model.lookup_atom("edge", &["a", "b"]).unwrap().is_some());
        // Genuine misses: unknown predicate, unknown constant, or an
        // unmaterialized atom.
        assert!(model.lookup_atom("ghost", &["a"]).unwrap().is_none());
        assert!(model
            .lookup_atom("edge", &["a", "zebra"])
            .unwrap()
            .is_none());
        assert!(model.lookup_atom("edge", &["b", "a"]).unwrap().is_none());
        // Known predicate, wrong width: a schema bug, not a miss.
        let err = model.lookup_atom("edge", &["a"]).unwrap_err();
        let Error::Core(wfdl_core::CoreError::ArityMismatch { declared, used, .. }) = err else {
            panic!("expected an arity mismatch")
        };
        assert_eq!((declared, used), (2, 1));
    }

    #[test]
    fn prepared_queries_survive_universe_growth_via_rebind() {
        let mut kb = KnowledgeBase::from_source("p(X) -> q(X). p(a).").unwrap();
        let first = kb.solve();
        // `b` is unknown at prepare time: definitely empty, shape retained.
        let stale = first.prepare("?- q(b).").unwrap();
        assert!(stale.is_definitely_empty());
        assert!(stale.needs_rebind());

        let mut delta = FactBatch::new();
        delta
            .relation(kb.universe_mut(), "p", 1)
            .unwrap()
            .push(&["b"])
            .unwrap();
        kb.insert(delta).unwrap();
        let second = kb.solve();
        assert!(second.solve_stats().incremental);
        // Un-rebound, the stale short-circuit still answers false…
        assert!(!second.ask_prepared(&stale));
        // …rebinding re-resolves the constant without re-parsing.
        let live = second.rebind(&stale).unwrap();
        assert!(second.ask_prepared(&live));
        // A fully-resolved query needs no rebind and evaluates unchanged
        // against the newer model (dense ids are stable).
        let qa = first.prepare("?- q(a).").unwrap();
        assert!(!qa.needs_rebind());
        assert!(second.ask_prepared(&second.rebind(&qa).unwrap()));
    }

    #[test]
    fn queries_only_change_repackages_without_resolving() {
        let mut kb = KnowledgeBase::from_source("p(a). ?- p(a).").unwrap();
        let first = kb.solve();
        // New query text only: the model is provably unchanged, so the
        // new artifact shares it (and its indexes) instead of re-solving.
        kb.add_source("?- p(b).").unwrap();
        let second = kb.solve();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.source_queries().len(), 2);
        assert!(
            std::ptr::eq(first.model(), second.model()),
            "underlying WellFoundedModel is shared, not recomputed"
        );
        assert!(second.ask_prepared(&second.source_queries()[0]));
        // The query's constant `b` was interned by `add_source`, so the
        // repackaged snapshot resolves it (to a definite miss).
        assert!(!second.ask_prepared(&second.source_queries()[1]));
        // A third solve with nothing new is a plain cache hit.
        let third = kb.solve();
        assert!(Arc::ptr_eq(&second, &third));
    }
}
