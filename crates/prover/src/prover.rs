//! The refutation prover: a DPLL-style tableau over skolemized NNF with an
//! E-graph for ground reasoning and E-matching for quantifier
//! instantiation.
//!
//! To prove `H₁ ∧ … ∧ Hₙ ⇒ G`, the prover asserts each `Hᵢ` positively and
//! `G` negatively, then searches for a contradiction:
//!
//! 1. ground literals are asserted into the E-graph (congruence closure,
//!    interpreted constants, eager arithmetic evaluation);
//! 2. disjunctions are simplified against the current state and case-split
//!    with backtracking (each arm runs between a checkpoint and a rollback
//!    of one shared E-graph's undo trail);
//! 3. when a branch is ground-saturated, quantified hypotheses are
//!    instantiated by matching their triggers against the E-graph, and the
//!    loop repeats. Saturation runs **before** case splitting (instances
//!    land on the shared branch prefix) and is **incremental**: old
//!    quantifiers re-match only against nodes created since the previous
//!    round, with a full pass to confirm saturation.
//!
//! Every dimension of work is metered by a [`Budget`]; exhausting it yields
//! [`Outcome::Unknown`] — this is how the paper's observation that Simplify
//! "loops irrevocably" on cyclic rep inclusions is reproduced as a
//! measurable result rather than a hang.

use crate::egraph::{EGraph, NodeId, Sym, SymKey};
use crate::fxhash::{FxHashMap, FxHashSet, IdKey};
use crate::matcher::{match_trigger, match_trigger_anchored_with, term_of, TriggerPlan};
use crate::telemetry::{QuantAcc, QuantDesc, QuantRow, QuantTable};
use crate::triggers::infer_triggers;
use oolong_logic::transform::{to_nnf, FreshGen, Nnf};
use oolong_logic::{Atom, FnSym, Formula, Phase, Symbol, Term, TermNode, Trigger};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// Resource limits for one proof attempt.
///
/// `Hash`/`Eq` are part of the incremental engine's cache-key contract:
/// two proof attempts with different budgets are different obligations
/// (a starved budget can turn `Proved` into `Unknown`), so the budget is
/// hashed into every verification-condition fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Maximum quantifier instantiations per window. A [`ScopeContext`]
    /// opens one window for each of its two base saturation stages and
    /// one for each proof, so a proof's own instances are limited by this
    /// count however many the base performed.
    pub max_instances: usize,
    /// Maximum quantifier instantiations produced per saturation round.
    pub max_instances_per_round: usize,
    /// Maximum number of case-split branches explored.
    pub max_branches: u64,
    /// Maximum number of E-graph nodes per branch.
    pub max_nodes: usize,
    /// Maximum case-split depth.
    pub max_depth: usize,
    /// Maximum matching generation: instantiations whose bindings involve
    /// terms created at this generation are deferred (Simplify's matching
    /// depth). A branch that saturates with deferred work reports
    /// [`Outcome::Unknown`] rather than [`Outcome::NotProved`].
    pub max_term_gen: u32,
    /// Maximum saturation rounds across the whole search. Each round can
    /// involve a full matching pass over every active quantifier, so this
    /// bounds the dominant cost of hopeless searches.
    pub max_rounds: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_instances: 120_000,
            max_instances_per_round: 400,
            max_branches: 100_000,
            max_nodes: 400_000,
            max_depth: 240,
            max_term_gen: 2,
            max_rounds: 3_000,
        }
    }
}

impl Budget {
    /// A deliberately tiny budget, used to demonstrate divergence on
    /// cyclic inclusions (experiment E6).
    pub fn tiny() -> Self {
        Budget {
            max_instances: 25,
            max_instances_per_round: 10,
            max_branches: 120,
            max_nodes: 2_000,
            max_depth: 12,
            max_term_gen: 1,
            max_rounds: 60,
        }
    }

    /// The budget as named `u64` fields, in a fixed order, for structured
    /// serialization (cache entries, event logs).
    pub fn to_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("max_instances", self.max_instances as u64),
            (
                "max_instances_per_round",
                self.max_instances_per_round as u64,
            ),
            ("max_branches", self.max_branches),
            ("max_nodes", self.max_nodes as u64),
            ("max_depth", self.max_depth as u64),
            ("max_term_gen", u64::from(self.max_term_gen)),
            ("max_rounds", self.max_rounds as u64),
        ]
    }
}

/// The budget dimension that tripped when a proof attempt came back
/// [`Outcome::Unknown`]. Recorded at the *first* exhaustion point of the
/// search, which is deterministic for a deterministic search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownReason {
    /// `max_instances` (or a per-round slice of it) ran out.
    Instances,
    /// `max_branches` case-split arms were explored.
    Branches,
    /// A branch's E-graph grew past `max_nodes`.
    Nodes,
    /// Case splitting nested past `max_depth`.
    Depth,
    /// `max_rounds` saturation rounds ran without a verdict.
    Rounds,
    /// A branch saturated, but only because the matching-generation limit
    /// (`max_term_gen`) deferred instantiations that might still close it.
    DeferredInstances,
}

impl UnknownReason {
    /// Stable lower-case name, used in cache entries and event logs.
    pub fn as_str(self) -> &'static str {
        match self {
            UnknownReason::Instances => "instances",
            UnknownReason::Branches => "branches",
            UnknownReason::Nodes => "nodes",
            UnknownReason::Depth => "depth",
            UnknownReason::Rounds => "rounds",
            UnknownReason::DeferredInstances => "deferred-instances",
        }
    }

    /// Inverse of [`UnknownReason::as_str`].
    pub fn from_name(name: &str) -> Option<UnknownReason> {
        Some(match name {
            "instances" => UnknownReason::Instances,
            "branches" => UnknownReason::Branches,
            "nodes" => UnknownReason::Nodes,
            "depth" => UnknownReason::Depth,
            "rounds" => UnknownReason::Rounds,
            "deferred-instances" => UnknownReason::DeferredInstances,
            _ => return None,
        })
    }

    /// Human phrasing of the exhausted dimension.
    pub fn describe(self) -> &'static str {
        match self {
            UnknownReason::Instances => "instantiation budget exhausted",
            UnknownReason::Branches => "case-split budget exhausted",
            UnknownReason::Nodes => "E-graph node budget exhausted",
            UnknownReason::Depth => "case-split depth limit reached",
            UnknownReason::Rounds => "saturation round limit reached",
            UnknownReason::DeferredInstances => "matching-generation limit deferred instantiations",
        }
    }
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// Divergence attribution: which budget dimension tripped and which
/// quantified axioms were doing the most instantiation work when it did —
/// the paper's "loops irrevocably on cyclic rep inclusions" anecdote as a
/// mechanical report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence<'a> {
    /// The dimension that ran out.
    pub reason: UnknownReason,
    /// Hottest quantifiers, by [`QuantRow::pressure`], descending.
    pub culprits: Vec<QuantRow<'a>>,
}

impl fmt::Display for Divergence<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}; top instantiation culprits:", self.reason)?;
        for culprit in &self.culprits {
            writeln!(f, "  {culprit}")?;
            for step in culprit.chain() {
                writeln!(f, "    at {step}")?;
            }
        }
        Ok(())
    }
}

/// Counters describing the work a proof attempt performed.
///
/// Everything here is *deterministic* for a given verification condition
/// and budget (the search is single-threaded with a fixed order), which is
/// what lets the incremental engine cache stats alongside verdicts and
/// replay them bit-for-bit on warm runs. Wall time is therefore kept out
/// of `Stats` — it lives on [`Proof::millis`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Quantifier instantiations performed.
    pub instances: usize,
    /// Case-split branches explored.
    pub branches: u64,
    /// Saturation rounds run.
    pub rounds: usize,
    /// Deepest case-split nesting reached.
    pub max_depth: usize,
    /// Largest per-branch E-graph.
    pub peak_nodes: usize,
    /// Quantified formulas registered.
    pub quants: usize,
    /// Quantifiers skipped because no usable trigger could be inferred.
    pub skipped_quants: usize,
    /// Instantiations deferred by the matching-generation limit.
    pub deferred_instances: usize,
    /// Trigger-match bindings found across all quantifiers (before dedup
    /// and generation checks).
    pub trigger_matches: u64,
    /// E-graph class merges performed, summed across branches.
    pub merges: u64,
    /// Disjunctions registered for case splitting (clause count).
    pub clauses: u64,
    /// High-water mark of the E-graph undo trail.
    pub trail_depth_max: usize,
    /// Checkpoints unwound by backtracking.
    pub pops: u64,
    /// E-graph merges rolled back by backtracking.
    pub undone_merges: u64,
    /// Background axioms pruned by relevance slicing before the proof
    /// attempt (zero for a full background). Set by the checker, which
    /// owns the slicing decision; deterministic per fingerprinted
    /// obligation because the sliced axiom set is part of the fingerprint.
    pub sliced_axioms: usize,
    /// When the outcome was [`Outcome::Unknown`]: which limit tripped.
    pub exhausted: Option<UnknownReason>,
    /// Per-quantifier instantiation telemetry, ordered by stable id: the
    /// proof's own rows over its context's shared base rows, held as
    /// counters and term handles and rendered only where they are printed
    /// (see [`QuantTable`]). Copying a `Stats` (a cache hit replays one
    /// into its events and its verdict) copies two pointers.
    pub per_quant: QuantTable,
}

impl Stats {
    /// The scalar counters as named `u64` fields, in a fixed order, for
    /// structured serialization (cache entries, event logs). The
    /// non-scalar members — [`Stats::exhausted`] and [`Stats::per_quant`]
    /// — are serialized separately by their consumers.
    pub fn to_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("instances", self.instances as u64),
            ("branches", self.branches),
            ("rounds", self.rounds as u64),
            ("max_depth", self.max_depth as u64),
            ("peak_nodes", self.peak_nodes as u64),
            ("quants", self.quants as u64),
            ("skipped_quants", self.skipped_quants as u64),
            ("deferred_instances", self.deferred_instances as u64),
            ("trigger_matches", self.trigger_matches),
            ("merges", self.merges),
            ("clauses", self.clauses),
            ("trail_depth_max", self.trail_depth_max as u64),
            ("pops", self.pops),
            ("undone_merges", self.undone_merges),
            ("sliced_axioms", self.sliced_axioms as u64),
        ]
    }

    /// Rebuilds counters from named fields (inverse of [`Stats::to_fields`];
    /// unknown names are ignored, missing names stay zero).
    pub fn from_fields<'a>(fields: impl IntoIterator<Item = (&'a str, u64)>) -> Stats {
        let mut stats = Stats::default();
        for (name, value) in fields {
            match name {
                "instances" => stats.instances = value as usize,
                "branches" => stats.branches = value,
                "rounds" => stats.rounds = value as usize,
                "max_depth" => stats.max_depth = value as usize,
                "peak_nodes" => stats.peak_nodes = value as usize,
                "quants" => stats.quants = value as usize,
                "skipped_quants" => stats.skipped_quants = value as usize,
                "deferred_instances" => stats.deferred_instances = value as usize,
                "trigger_matches" => stats.trigger_matches = value,
                "merges" => stats.merges = value,
                "clauses" => stats.clauses = value,
                "trail_depth_max" => stats.trail_depth_max = value as usize,
                "pops" => stats.pops = value,
                "undone_merges" => stats.undone_merges = value,
                "sliced_axioms" => stats.sliced_axioms = value as usize,
                _ => {}
            }
        }
        stats
    }

    /// The hottest quantifiers by instantiation pressure (performed plus
    /// deferred), descending, ties broken by stable id. Rows that did no
    /// matching work are omitted.
    pub fn top_culprits(&self, n: usize) -> Vec<QuantRow<'_>> {
        let mut hot: Vec<QuantRow<'_>> = self
            .per_quant
            .iter()
            .filter(|q| q.pressure() > 0 || q.matches > 0)
            .collect();
        hot.sort_by(|a, b| b.pressure().cmp(&a.pressure()).then(a.id.cmp(&b.id)));
        hot.truncate(n);
        hot
    }

    /// Divergence attribution, present exactly when the proof attempt
    /// exhausted its budget: the tripped dimension plus the top
    /// instantiation culprits.
    pub fn divergence(&self) -> Option<Divergence<'_>> {
        let reason = self.exhausted?;
        Some(Divergence {
            reason,
            culprits: self.top_culprits(5),
        })
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instances={} matches={} branches={} rounds={} depth={} peak_nodes={} merges={} \
             clauses={} quants={} deferred={} pops={}",
            self.instances,
            self.trigger_matches,
            self.branches,
            self.rounds,
            self.max_depth,
            self.peak_nodes,
            self.merges,
            self.clauses,
            self.quants,
            self.deferred_instances,
            self.pops
        )
    }
}

/// The verdict of a proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The conjecture is valid: every branch closed.
    Proved,
    /// Some branch saturated without contradiction: the conjecture was not
    /// derivable with the available instantiations (for the checker this
    /// means *reject*).
    NotProved,
    /// The budget was exhausted before a verdict; the payload records
    /// which limit tripped first.
    Unknown(UnknownReason),
}

impl Outcome {
    /// Whether this is an [`Outcome::Unknown`] of any dimension.
    pub fn is_unknown(self) -> bool {
        matches!(self, Outcome::Unknown(_))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Proved => write!(f, "proved"),
            Outcome::NotProved => write!(f, "not proved"),
            Outcome::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}

/// One E-class of a [`CandidateModel`]: the ground terms the refuting
/// branch identified, plus the class's interpreted value when it has one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelClass {
    /// A rendered representative term (leaf-preferring; `@classN` aliases
    /// for leafless cyclic classes).
    pub repr: Term,
    /// Leaf members: the free variables and interpreted constants the
    /// class contains.
    pub members: Vec<Term>,
    /// The class's interpreted constant, if any.
    pub value: Option<oolong_logic::Cst>,
}

/// One `select(store, obj, attr) = value` entry of a candidate model's
/// function graph, as indices into [`CandidateModel::classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSelect {
    /// Class of the store argument.
    pub store: usize,
    /// Class of the object argument.
    pub obj: usize,
    /// Class of the attribute argument.
    pub attr: usize,
    /// Class the select term evaluates into.
    pub value: usize,
}

/// One determined (or undetermined) predicate entry of a candidate model:
/// `sym(args) = value`, args as class indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRelation {
    /// Predicate name (the E-graph symbol's debug name, e.g. `PInc`).
    pub sym: String,
    /// Argument classes.
    pub args: Vec<usize>,
    /// Truth value, when the branch determined one.
    pub value: Option<bool>,
}

/// The saturated context of the first open (refuting) branch, exported for
/// counterexample concretization: the ground E-class partition, the
/// `select` function graph, the determined predicate entries, known
/// disequalities, and the position labels asserted on the branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateModel {
    /// Position labels ([`Nnf::Lit::label`]) asserted on the branch, in
    /// assertion order, deduplicated. The *last* label is the innermost
    /// obligation the branch violates.
    pub labels: Vec<u32>,
    /// The ground E-class partition.
    pub classes: Vec<ModelClass>,
    /// `select` function-graph entries.
    pub selects: Vec<ModelSelect>,
    /// Predicate entries (`PAlive`, `PInc`, …).
    pub relations: Vec<ModelRelation>,
    /// Pairs of classes (by index, `i < j`) known disequal.
    pub diseqs: Vec<(usize, usize)>,
}

/// The result of [`prove`]: outcome plus work counters.
#[derive(Debug, Clone)]
pub struct Proof {
    /// The verdict.
    pub outcome: Outcome,
    /// Work performed.
    pub stats: Stats,
    /// When the outcome is [`Outcome::NotProved`]: a description of the
    /// literals of the first saturated open branch (a model sketch), for
    /// diagnosing why the conjecture failed.
    pub open_branch: Option<Vec<String>>,
    /// When the outcome is [`Outcome::NotProved`]: the exported saturated
    /// context of the first open branch, for counterexample
    /// concretization and replay.
    pub model: Option<CandidateModel>,
    /// Wall-clock time of the attempt, in milliseconds. Deliberately not
    /// part of [`Stats`]: stats must be deterministic and cache-replayable.
    pub millis: f64,
}

impl Proof {
    /// Whether the conjecture was proved valid.
    pub fn is_proved(&self) -> bool {
        self.outcome == Outcome::Proved
    }

    /// Divergence attribution when the budget was exhausted (see
    /// [`Stats::divergence`]).
    pub fn divergence(&self) -> Option<Divergence<'_>> {
        self.stats.divergence()
    }
}

/// How the search backtracks out of case-split arms. There is exactly one
/// strategy; the type stays so that checker options and context-pool keys
/// keep naming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// One shared context; each arm runs between checkpoint and rollback
    /// on an undo trail (Simplify's undo-stack discipline). Cost per
    /// branch is proportional to the work the branch performs.
    #[default]
    Trail,
}

/// Proves `hypotheses ⇒ goal` by refuting `hypotheses ∧ ¬goal`, in a
/// single-use [`ScopeContext`] over an empty background.
pub fn prove(hypotheses: &[Formula], goal: &Formula, budget: &Budget) -> Proof {
    ScopeContext::new(&[], &[], budget).prove(hypotheses, goal)
}

fn outcome_of(branch: Branch, fuel: Option<UnknownReason>) -> Outcome {
    match branch {
        Branch::Closed => Outcome::Proved,
        Branch::Open => Outcome::NotProved,
        Branch::Fuel => Outcome::Unknown(fuel.unwrap_or(UnknownReason::Instances)),
    }
}

/// A prover context pre-loaded with a scope's shared background.
///
/// The background formulas are asserted and saturated **once**; any
/// number of obligations can then be proved against the saturated state,
/// each one inside a checkpoint/rollback frame of the shared E-graph. This
/// amortizes context construction — NNF conversion, interning, background
/// quantifier saturation — across every obligation of a scope, the way
/// Boogie asserts its `UnivBackPred` once per prover session.
///
/// The base is built in two stages, ordered by [`Phase`]: the
/// [`Phase::Eager`] axioms saturate first, then the
/// [`Phase::GoalDirected`] quantifiers are armed and the base saturates
/// again, so every proof starts from the scope's goal-independent closure
/// and instantiates only what its own terms enable. The full-match results
/// still valid at the end of construction are kept as an immutable match
/// layer that every proof's matching passes read, so a proof does not
/// rescan base triggers its own facts left untouched.
///
/// A context is the only way the prover runs a proof: [`prove`] builds a
/// single-use one over an empty background.
///
/// Proofs are **order-independent**: every [`ScopeContext::prove`] call
/// starts from private copies of the mutable search state (statistics,
/// quantifier registry, fresh-name generator) and leaves the shared
/// E-graph exactly as it found it, so a context proves a given obligation
/// to the same [`Proof`] — outcome *and* deterministic stats — no matter
/// what was proved before it, and identically whether the context is
/// shared across a scope or built one-shot for a single obligation.
pub struct ScopeContext {
    budget: Budget,
    base: Ctx,
    /// Work counters accumulated while building the base. Every proof's
    /// stats start from a copy, so construction cost is reported in each
    /// proof — identically whether the context is shared or one-shot,
    /// which keeps cached stats deterministic per obligation. Its
    /// `per_quant` holds the base's telemetry rows, which every proof's
    /// table overlays and shares.
    base_stats: Stats,
    /// Stable ids of the quantifiers the base registered. Shared with
    /// every proof, which hands out further ids from an overlay of its own.
    base_quant_ids: Arc<QuantIds>,
    base_fresh: FreshGen,
    /// For each background formula (by index): the stable quantifier ids
    /// its assertion registered, for cross-checking axiom slicing against
    /// per-quantifier telemetry.
    axiom_quants: Vec<Vec<usize>>,
    /// Monotonic merge count consumed by base construction.
    base_merges: u64,
    /// The outcome of every proof when base saturation already decided
    /// it: [`Outcome::Proved`] for a contradictory background,
    /// [`Outcome::Unknown`] for one that exhausted the budget.
    settled: Option<Outcome>,
}

impl fmt::Debug for ScopeContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopeContext")
            .field("axioms", &self.axiom_quants.len())
            .field("quants", &self.base_stats.per_quant.len())
            .field("base_merges", &self.base_merges)
            .field("settled", &self.settled)
            .finish_non_exhaustive()
    }
}

impl ScopeContext {
    /// Asserts and saturates `background` into a fresh context, scheduling
    /// `background[i]` by the activation [`Phase`] `phases[i]` (missing
    /// entries default to [`Phase::Eager`]).
    ///
    /// Saturation runs the same drain / unit-propagate / instantiate loop
    /// as the search itself but never case-splits: derived facts land in
    /// the shared state, surviving disjunctions are carried into every
    /// proof's own search. A contradictory background makes every proof
    /// succeed; a background whose saturation exhausts the budget poisons
    /// the context and makes every proof report [`Outcome::Unknown`].
    ///
    /// Saturation runs in two stages. The first asserts every axiom but
    /// activates only the [`Phase::Eager`] quantifiers: the top-level
    /// quantifiers of [`Phase::GoalDirected`] axioms are parked (ground
    /// conjuncts, if any, are still asserted — they are facts, not
    /// matching rules). The second arms the parked quantifiers and
    /// saturates again, so their instances over the background's own
    /// terms are derived here once instead of inside every proof. Each
    /// stage counts instances in its own [`Budget::max_instances`] window.
    /// The derivable facts are unchanged — every proof still sees every
    /// axiom — only *when* instantiation happens moves.
    pub fn new(background: &[Formula], phases: &[Phase], budget: &Budget) -> ScopeContext {
        let mut fresh = FreshGen::new();
        let mut shared = Shared::new(budget, true);
        let mut ctx = Ctx::new();
        let mut axiom_quants: Vec<Vec<usize>> = Vec::with_capacity(background.len());
        let mut gated: Vec<Quant> = Vec::new();
        let mut step = Step::Ok;
        for (i, f) in background.iter().enumerate() {
            let ids_before = shared.quant_count();
            let phase = phases.get(i).copied().unwrap_or(Phase::Eager);
            let nnf = to_nnf(f, true, &mut fresh);
            match phase {
                Phase::Eager => ctx.pending.push((nnf, 0)),
                Phase::GoalDirected => {
                    // Park the top-level quantifiers; assert ground parts.
                    split_gated(nnf, &mut ctx.pending, &mut |vars, triggers, body| {
                        gated.push(park_gated_quant(&mut shared, vars, triggers, body));
                    });
                }
            }
            step = drain_pending(&mut ctx, &mut shared);
            axiom_quants.push((ids_before..shared.quant_count()).collect());
            if !matches!(step, Step::Ok) {
                break;
            }
        }
        axiom_quants.resize(background.len(), Vec::new());
        if matches!(step, Step::Ok) {
            step = saturate(&mut ctx, &mut shared);
        }
        if matches!(step, Step::Ok) && !gated.is_empty() {
            arm_gated(&mut ctx, &mut shared, &gated);
            shared.window_start = shared.stats.instances;
            step = saturate(&mut ctx, &mut shared);
        }
        let settled = match step {
            Step::Conflict => Some(Outcome::Proved),
            Step::Fuel | Step::Ok => shared.fuel.map(Outcome::Unknown),
        };
        ctx.seal_match_layer();
        let base_merges = ctx.eg.merges_performed();
        let mut base_stats = shared.stats;
        base_stats.merges = base_merges;
        base_stats.per_quant = shared.quants.into_base();
        ScopeContext {
            budget: budget.clone(),
            base: ctx,
            base_stats,
            // Nothing was registered before construction began, so every
            // id sits in the overlay.
            base_quant_ids: Arc::new(shared.quant_ids),
            base_fresh: fresh,
            axiom_quants,
            base_merges,
            settled,
        }
    }

    /// Proves `hypotheses ⇒ goal` against the saturated background, leaving
    /// the context state untouched for the next obligation.
    pub fn prove(&mut self, hypotheses: &[Formula], goal: &Formula) -> Proof {
        let start = std::time::Instant::now();
        let (outcome, mut stats, open_branch, model) = match self.settled {
            Some(outcome) => (outcome, self.base_stats.clone(), None, None),
            None => self.search_in_frame(hypotheses, goal),
        };
        stats.exhausted = match outcome {
            Outcome::Unknown(reason) => Some(reason),
            _ => None,
        };
        Proof {
            outcome,
            stats,
            open_branch,
            model,
            millis: start.elapsed().as_secs_f64() * 1_000.0,
        }
    }

    /// Searches for a refutation of `hypotheses ∧ ¬goal` inside a
    /// checkpoint/rollback frame over the base, returning the outcome, the
    /// proof's own counters and telemetry rows, and the first open
    /// branch's description and model.
    fn search_in_frame(
        &mut self,
        hypotheses: &[Formula],
        goal: &Formula,
    ) -> (Outcome, Stats, Option<Vec<String>>, Option<CandidateModel>) {
        let mut fresh = self.base_fresh.clone();
        let mut parts: Vec<Nnf> = hypotheses
            .iter()
            .map(|h| to_nnf(h, true, &mut fresh))
            .collect();
        parts.push(to_nnf(goal, false, &mut fresh));
        let mut shared = Shared {
            stats: self.base_stats.clone(),
            quant_ids: HashMap::with_hasher(self.base_quant_ids.hasher().clone()),
            base_quant_ids: Arc::clone(&self.base_quant_ids),
            quants: QuantAcc::over(&self.base_stats.per_quant),
            // The proof's own instance window.
            window_start: self.base_stats.instances,
            ..Shared::new(&self.budget, false)
        };
        // Monotonic-counter samples so the proof reports only its own trail
        // work (plus the base merges), not the lifetime totals of a
        // long-lived shared E-graph.
        let merges_before = self.base.eg.merges_performed();
        let pops_before = self.base.eg.pops();
        let undone_before = self.base.eg.undone_merges();
        self.base.eg.reset_trail_high_water();
        let cp = self.base.checkpoint();
        self.base.layer_stamp = self.base.eg.touch_stamp();
        self.base.pending.extend(parts.into_iter().map(|p| (p, 0)));
        let outcome = outcome_of(search(&mut self.base, 0, &mut shared), shared.fuel);
        let mut stats = shared.stats;
        stats.merges = self.base_merges + (self.base.eg.merges_performed() - merges_before);
        stats.trail_depth_max = self.base.eg.trail_high_water();
        stats.pops = self.base.eg.pops() - pops_before;
        stats.undone_merges = self.base.eg.undone_merges() - undone_before;
        self.base.rollback(cp);
        stats.per_quant = shared.quants.finish();
        (outcome, stats, shared.open_branch, shared.model)
    }

    /// The stable quantifier ids registered by background formula `axiom`
    /// (its index in the slice passed to [`ScopeContext::new`]). Proofs
    /// from this context report per-quantifier telemetry under these ids,
    /// so slicing decisions can be cross-checked against what actually
    /// fired.
    pub fn background_quants(&self, axiom: usize) -> &[usize] {
        self.axiom_quants
            .get(axiom)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// One row per trigger of every quantifier active in the base, eager
    /// or goal-directed: the quantifier's variables, the trigger, and the
    /// plan compiled for it at registration. For checking compiled plans
    /// against what the matcher derives from the trigger itself.
    pub fn trigger_plans(&self) -> Vec<(&[Symbol], &Trigger, &TriggerPlan)> {
        self.base
            .quants
            .iter()
            .flat_map(|q| {
                let data = &*q.data;
                data.triggers
                    .iter()
                    .zip(&data.plans)
                    .map(move |(trigger, plan)| (data.vars.as_slice(), trigger, plan))
            })
            .collect()
    }

    /// A rendering of the shared E-graph's state, for asserting that a
    /// proof's rollback left the context byte-clean.
    pub fn debug_state(&self) -> String {
        self.base.eg.debug_state()
    }
}

// ------------------------------------------------------------------ internals

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    Closed,
    Open,
    Fuel,
}

/// A quantifier's structure — its variables and body — with the hash of
/// that structure computed once. A proof looks a quantifier up in its
/// context's base ids and then in its own overlay, so the NNF is hashed
/// once per registration, not once per map.
#[derive(Clone, PartialEq, Eq)]
struct QuantKey {
    hash: u64,
    vars: Vec<Symbol>,
    body: Nnf,
}

impl Hash for QuantKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Stable quantifier ids by structure. The structure holds program-chosen
/// names and literals, so its hash comes from the map's own keyed hasher;
/// an overlay is created with its base's hasher, so a key hashes the same
/// in both, and after the overlay becomes a context's base.
type QuantIds = HashMap<QuantKey, usize>;

struct Shared {
    budget: Budget,
    stats: Stats,
    /// Stable ids a scope context's base registered (empty while the base
    /// itself is built).
    base_quant_ids: Arc<QuantIds>,
    /// Stable ids registered since, numbered after `base_quant_ids`.
    quant_ids: QuantIds,
    /// Per-quantifier telemetry, indexed by stable id (kept in lockstep
    /// with the ids).
    quants: QuantAcc,
    /// The first budget dimension that ran out, if any.
    fuel: Option<UnknownReason>,
    /// `stats.instances` when the current instance window opened: the
    /// window holds at most `budget.max_instances` further instances.
    window_start: usize,
    /// Literals of the first saturated open branch.
    open_branch: Option<Vec<String>>,
    /// Exported context of the first saturated open branch.
    model: Option<CandidateModel>,
    /// Whether the search is currently in background pre-saturation (true
    /// only while [`ScopeContext::new`] builds the base); instantiations
    /// are attributed to the presat/goal telemetry split by this flag.
    presat: bool,
}

impl Shared {
    /// Fresh search state under `budget`, with no work counted and no
    /// quantifiers registered.
    fn new(budget: &Budget, presat: bool) -> Shared {
        Shared {
            budget: budget.clone(),
            stats: Stats::default(),
            quant_ids: HashMap::default(),
            base_quant_ids: Arc::default(),
            quants: QuantAcc::new(),
            fuel: None,
            window_start: 0,
            open_branch: None,
            model: None,
            presat,
        }
    }

    /// Number of stable quantifier ids handed out so far.
    fn quant_count(&self) -> usize {
        self.base_quant_ids.len() + self.quant_ids.len()
    }

    /// The stable id of the quantifier `∀vars :: body`, allocating the
    /// next id on first sight. Hands the key parts back, so a lookup that
    /// hits clones nothing.
    fn quant_id(&mut self, vars: Vec<Symbol>, body: Nnf) -> (usize, Vec<Symbol>, Nnf) {
        let hash = self.quant_ids.hasher().hash_one((&vars, &body));
        let key = QuantKey { hash, vars, body };
        let known = self
            .base_quant_ids
            .get(&key)
            .or_else(|| self.quant_ids.get(&key));
        let id = match known {
            Some(&id) => id,
            None => {
                let id = self.quant_count();
                self.quant_ids.insert(key.clone(), id);
                id
            }
        };
        (id, key.vars, key.body)
    }
}

/// Records the first exhausted budget dimension and reports fuel-out.
fn out_of_fuel(shared: &mut Shared, reason: UnknownReason) -> Branch {
    shared.fuel.get_or_insert(reason);
    Branch::Fuel
}

/// A quantifier active in a branch. Cloning shares its data: a parked
/// goal-directed quantifier is armed without copying its body.
#[derive(Clone)]
struct Quant {
    id: usize,
    data: Arc<QuantData>,
}

/// A quantifier's static data.
struct QuantData {
    vars: Vec<Symbol>,
    triggers: Vec<Trigger>,
    /// The compiled plan of each trigger, index-aligned with `triggers`.
    plans: Vec<TriggerPlan>,
    body: Nnf,
}

impl Quant {
    /// A quantifier with stable id `id`, its triggers compiled.
    fn new(id: usize, vars: Vec<Symbol>, triggers: Vec<Trigger>, body: Nnf) -> Quant {
        let plans = triggers
            .iter()
            .map(|t| TriggerPlan::compile(&vars, t))
            .collect();
        Quant {
            id,
            data: Arc::new(QuantData {
                vars,
                triggers,
                plans,
                body,
            }),
        }
    }
}

/// A disjunction awaiting a case split. Arms falsified by the current
/// state are *masked* (`live[k] = false`) rather than removed, so
/// backtracking revives them in O(1); dead arms are never re-evaluated.
struct SplitClause {
    arms: Vec<Nnf>,
    /// Matching generation of the originating fact.
    gen: u32,
    /// Liveness mask, parallel to `arms`.
    live: Vec<bool>,
    /// Number of `true` entries in `live`.
    live_count: usize,
}

impl SplitClause {
    fn new(arms: Vec<Nnf>, gen: u32) -> SplitClause {
        let live = vec![true; arms.len()];
        let live_count = arms.len();
        SplitClause {
            arms,
            gen,
            live,
            live_count,
        }
    }
}

/// One recorded inverse of a branch-local context mutation (the
/// counterpart of the E-graph's own undo trail, for `splits` and `seen`).
/// `pending` and `quants` only grow between checkpoints, so they roll back
/// by truncation instead of per-entry records.
enum CtxUndo {
    /// A clause was appended to `splits`.
    SplitAdded,
    /// `splits.swap_remove(index)` removed this clause.
    SplitRemoved { index: usize, clause: SplitClause },
    /// Arm `arm` of `splits[clause]` was masked dead.
    ArmKilled { clause: usize, arm: usize },
    /// This instantiation key was added to `seen`.
    SeenInserted { key: IdKey },
}

/// A checkpoint over the full context, taken before exploring a split arm
/// (see [`Ctx::checkpoint`] / [`Ctx::rollback`]).
struct Checkpoint {
    eg: crate::egraph::EgMark,
    trail_len: usize,
    pending_len: usize,
    quants_len: usize,
    labels_len: usize,
    deferred: bool,
    matched_upto: usize,
    fresh_quants_from: usize,
    full_pass_merges: u64,
}

/// A full-trigger-match result, reusable while the E-graph's touch stamps
/// show none of the trigger's symbols changed — under that condition a
/// rematch would return this exact binding vector (same classes, same
/// order). Cached bindings are still *walked* normally on reuse, so
/// instance terms, deferrals, and every counter come out identical to a
/// real rematch; only the E-graph scan is skipped.
///
/// The trigger's [`TriggerPlan`] supplies the symbols a match consults and,
/// for a single-pattern trigger, its head. Such a match is an in-order scan
/// of one symbol bucket, so when only node *creation* (never a union or
/// removal) touched the trigger's symbols, the cached bindings extend
/// exactly by scanning the bucket suffix.
#[derive(Clone)]
struct MatchCacheEntry {
    /// Touch stamp taken immediately before the cached match ran.
    stamp: u64,
    /// Length of the single head's symbol bucket when the cached match ran.
    bucket_len: usize,
    /// The bindings the full match produced.
    bindings: Vec<crate::matcher::Binding>,
}

struct Ctx {
    eg: EGraph,
    /// Facts to assert, each stamped with its matching generation.
    pending: Vec<(Nnf, u32)>,
    /// Disjunctions awaiting a case split.
    splits: Vec<SplitClause>,
    quants: Vec<Quant>,
    quant_ids_present: FxHashSet<usize>,
    /// Instantiations already performed in this branch, keyed by
    /// quantifier id followed by the instance terms' arena ids.
    seen: FxHashSet<IdKey>,
    /// Position labels of the labelled literals asserted (or found already
    /// true) on this branch, in order. Rolls back by truncation.
    labels: Vec<u32>,
    /// Whether the generation limit deferred any instantiation.
    deferred: bool,
    /// Number of E-graph nodes already covered by anchored matching.
    matched_upto: usize,
    /// Quantifiers added since the last full (unanchored) matching pass.
    fresh_quants_from: usize,
    /// E-graph merge count at the end of the last full pass: when no
    /// merges happened since, a dry anchored pass already implies
    /// saturation (anchored matching covers new nodes, registration
    /// covers new quantifiers, so only merges can enable anything else).
    full_pass_merges: u64,
    /// Undo entries for `splits`/`seen` recorded since the oldest active
    /// checkpoint.
    trail: Vec<CtxUndo>,
    /// Active checkpoints; context mutations record onto `trail` only
    /// when non-zero.
    recording: usize,
    /// Completed full-match results per `(quantifier index, trigger
    /// index)`. Cleared wholesale on rollback: entries may reference
    /// quantifier slots a rollback truncates, and `seen` keys inserted on
    /// the unwound branch disappear with it.
    match_cache: FxHashMap<(usize, usize), MatchCacheEntry>,
    /// The base's full-match results that were still valid when scope
    /// context construction ended (empty while the base is built). Read
    /// on a `match_cache` miss as if stamped `layer_stamp`; never changed
    /// by a proof or a rollback.
    match_layer: Arc<FxHashMap<(usize, usize), MatchCacheEntry>>,
    /// Touch stamp taken when the current proof frame opened. The E-graph
    /// was the base's at that stamp, so a layer entry stays exact while
    /// its trigger's symbols are untouched since.
    layer_stamp: u64,
    /// Buffers of `instantiate_pass`, kept so that passes allocate nothing
    /// for them once warm.
    scratch: PassScratch,
}

/// The working buffers of `instantiate_pass`. None carries meaning from
/// one pass to the next: each is cleared where the pass starts using it.
#[derive(Default)]
struct PassScratch {
    /// The pass's new nodes by head symbol. Buckets are emptied rather
    /// than dropped between passes.
    by_head: FxHashMap<SymKey, Vec<NodeId>>,
    /// Anchors of one trigger, in creation order.
    candidates: Vec<NodeId>,
    /// Anchored bindings of one trigger.
    anchored: Vec<crate::matcher::Binding>,
    /// Instance terms of one binding.
    terms: Vec<Term>,
    /// The substitution of one instance.
    subst: Vec<(Symbol, Term)>,
    /// `term_of` results by class root, valid within one pass.
    term_memo: FxHashMap<NodeId, Term>,
}

impl Ctx {
    /// An empty context: nothing asserted, no checkpoint active.
    fn new() -> Ctx {
        Ctx {
            eg: EGraph::new(),
            pending: Vec::new(),
            splits: Vec::new(),
            quants: Vec::new(),
            quant_ids_present: FxHashSet::default(),
            seen: FxHashSet::default(),
            labels: Vec::new(),
            deferred: false,
            matched_upto: 0,
            fresh_quants_from: 0,
            full_pass_merges: u64::MAX,
            trail: Vec::new(),
            recording: 0,
            match_cache: FxHashMap::default(),
            match_layer: Arc::default(),
            layer_stamp: 0,
            scratch: PassScratch::default(),
        }
    }

    /// Ends base construction: moves the `match_cache` entries whose
    /// trigger symbols are untouched since their stamp into the match
    /// layer, and drops the rest.
    fn seal_match_layer(&mut self) {
        let Ctx {
            eg,
            quants,
            match_cache,
            ..
        } = self;
        let layer = match_cache
            .drain()
            .filter(|&((qi, ti), ref e)| {
                eg.syms_unchanged_since(&quants[qi].data.plans[ti].syms, e.stamp)
            })
            .collect();
        self.match_layer = Arc::new(layer);
    }

    fn record(&mut self, entry: CtxUndo) {
        if self.recording > 0 {
            self.trail.push(entry);
        }
    }

    fn add_split(&mut self, clause: SplitClause) {
        self.splits.push(clause);
        self.record(CtxUndo::SplitAdded);
    }

    /// Removes clause `index` by swap, recording its reinsertion.
    fn remove_split(&mut self, index: usize) {
        let clause = self.splits.swap_remove(index);
        if self.recording > 0 {
            self.trail.push(CtxUndo::SplitRemoved { index, clause });
        }
    }

    fn kill_arm(&mut self, clause: usize, arm: usize) {
        let s = &mut self.splits[clause];
        debug_assert!(s.live[arm]);
        s.live[arm] = false;
        s.live_count -= 1;
        self.record(CtxUndo::ArmKilled { clause, arm });
    }

    /// Opens a checkpoint covering the E-graph and all branch-local state.
    fn checkpoint(&mut self) -> Checkpoint {
        self.recording += 1;
        Checkpoint {
            eg: self.eg.push(),
            trail_len: self.trail.len(),
            pending_len: self.pending.len(),
            quants_len: self.quants.len(),
            labels_len: self.labels.len(),
            deferred: self.deferred,
            matched_upto: self.matched_upto,
            fresh_quants_from: self.fresh_quants_from,
            full_pass_merges: self.full_pass_merges,
        }
    }

    /// Restores the exact state at the matching [`Ctx::checkpoint`].
    fn rollback(&mut self, cp: Checkpoint) {
        while self.trail.len() > cp.trail_len {
            match self.trail.pop().expect("length checked") {
                CtxUndo::SplitAdded => {
                    self.splits.pop();
                }
                CtxUndo::SplitRemoved { index, clause } => {
                    // Inverse of swap_remove: put the clause back at the
                    // end, then swap it into its old slot (a no-op swap
                    // when it was the last element).
                    self.splits.push(clause);
                    let last = self.splits.len() - 1;
                    self.splits.swap(index, last);
                }
                CtxUndo::ArmKilled { clause, arm } => {
                    let s = &mut self.splits[clause];
                    s.live[arm] = true;
                    s.live_count += 1;
                }
                CtxUndo::SeenInserted { key } => {
                    self.seen.remove(&key);
                }
            }
        }
        while self.quants.len() > cp.quants_len {
            let q = self.quants.pop().expect("length checked");
            self.quant_ids_present.remove(&q.id);
        }
        self.pending.truncate(cp.pending_len);
        self.labels.truncate(cp.labels_len);
        self.deferred = cp.deferred;
        self.matched_upto = cp.matched_upto;
        self.fresh_quants_from = cp.fresh_quants_from;
        self.full_pass_merges = cp.full_pass_merges;
        self.match_cache.clear();
        self.eg.pop(cp.eg);
        self.recording -= 1;
    }
}

fn search(ctx: &mut Ctx, depth: usize, shared: &mut Shared) -> Branch {
    shared.stats.max_depth = shared.stats.max_depth.max(depth);
    if depth >= shared.budget.max_depth {
        return out_of_fuel(shared, UnknownReason::Depth);
    }
    match saturate(ctx, shared) {
        Step::Conflict => return Branch::Closed,
        Step::Fuel => return Branch::Fuel,
        Step::Ok => {}
    }
    // Case split if a disjunction remains.
    if let Some(idx) = pick_split(ctx) {
        // Remove the clause for the duration of the exploration (so
        // child frames don't split on it again); the removal is
        // recorded on the trail only once the arm loop is done, which
        // keeps the trail LIFO — every child checkpoint has already
        // been unwound by then.
        let clause = ctx.splits.swap_remove(idx);
        let mut any_open = false;
        let mut any_fuel = false;
        let mut fuel_out = false;
        for (k, live) in clause.live.iter().enumerate() {
            if !live {
                continue;
            }
            shared.stats.branches += 1;
            if shared.stats.branches > shared.budget.max_branches {
                fuel_out = true;
                shared.fuel.get_or_insert(UnknownReason::Branches);
                break;
            }
            let arm = clause.arms[k].clone();
            let cp = ctx.checkpoint();
            ctx.pending.push((arm, clause.gen));
            let verdict = search(ctx, depth + 1, shared);
            ctx.rollback(cp);
            match verdict {
                Branch::Closed => {}
                Branch::Open => {
                    any_open = true;
                    break;
                }
                Branch::Fuel => any_fuel = true,
            }
        }
        if ctx.recording > 0 {
            ctx.trail.push(CtxUndo::SplitRemoved { index: idx, clause });
        }
        return if fuel_out {
            Branch::Fuel
        } else if any_open {
            Branch::Open
        } else if any_fuel {
            Branch::Fuel
        } else {
            Branch::Closed
        };
    }
    // Fully saturated with no splits left: the branch is open.
    if ctx.deferred {
        // Instantiation was incomplete: the branch may yet be
        // contradictory at a deeper matching generation.
        return out_of_fuel(shared, UnknownReason::DeferredInstances);
    }
    if shared.open_branch.is_none() {
        let mut names = FreshNames::default();
        shared.model = Some(extract_model(ctx, &mut names));
        shared.open_branch = Some(describe_branch(ctx, &mut names));
    }
    Branch::Open
}

/// Saturates the current state without case splitting: asserts every
/// pending fact, simplifies disjunctions and unit-propagates, and runs
/// quantifier instantiation rounds until one produces nothing. Base
/// construction runs it once over the background; the search runs it at
/// the top of every branch, so instances land on the shared branch prefix
/// (the seen-set only rolls back past them when that frame unwinds) and
/// are not re-derived once per branch.
fn saturate(ctx: &mut Ctx, shared: &mut Shared) -> Step {
    loop {
        match drain_pending(ctx, shared) {
            Step::Ok => {}
            stop => return stop,
        }
        match normalize_splits(ctx) {
            Step::Ok => {}
            stop => return stop,
        }
        if !ctx.pending.is_empty() {
            continue; // unit propagation produced new facts
        }
        shared.stats.rounds += 1;
        if shared.stats.rounds > shared.budget.max_rounds {
            shared.fuel.get_or_insert(UnknownReason::Rounds);
            return Step::Fuel;
        }
        match instantiate_round(ctx, shared) {
            InstResult::Progress => {}
            InstResult::Fuel => return Step::Fuel,
            InstResult::Saturated => return Step::Ok,
        }
    }
}

enum Step {
    Ok,
    Conflict,
    Fuel,
}

fn drain_pending(ctx: &mut Ctx, shared: &mut Shared) -> Step {
    while let Some((f, gen)) = ctx.pending.pop() {
        match f {
            Nnf::True => {}
            Nnf::False => return Step::Conflict,
            Nnf::And(parts) => ctx.pending.extend(parts.into_iter().map(|p| (p, gen))),
            Nnf::Or(parts) => {
                shared.stats.clauses += 1;
                ctx.add_split(SplitClause::new(parts, gen));
            }
            Nnf::Lit {
                atom,
                positive,
                label,
            } => {
                if let Some(id) = label {
                    ctx.labels.push(id);
                }
                ctx.eg.set_generation(gen);
                if assert_lit(&mut ctx.eg, &atom, positive).is_err() {
                    return Step::Conflict;
                }
                if ctx.eg.node_count() > shared.budget.max_nodes {
                    shared.fuel.get_or_insert(UnknownReason::Nodes);
                    return Step::Fuel;
                }
                shared.stats.peak_nodes = shared.stats.peak_nodes.max(ctx.eg.node_count());
            }
            Nnf::Forall {
                vars,
                triggers,
                body,
            } => {
                register_quant(ctx, shared, vars, triggers, *body);
            }
        }
    }
    Step::Ok
}

/// Splits a goal-directed background axiom's NNF into its ground conjuncts
/// (pushed onto `pending` for eager assertion — they are facts, not
/// matching rules) and its top-level quantifiers (handed to `gate`).
/// Quantifiers nested under disjunctions or other quantifiers stay where
/// they are: they only come alive through instantiation, so they are
/// goal-directed already.
fn split_gated(
    nnf: Nnf,
    pending: &mut Vec<(Nnf, u32)>,
    gate: &mut impl FnMut(Vec<Symbol>, Vec<Trigger>, Nnf),
) {
    match nnf {
        Nnf::And(parts) => {
            for part in parts {
                split_gated(part, pending, gate);
            }
        }
        Nnf::Forall {
            vars,
            triggers,
            body,
        } => gate(vars, triggers, *body),
        other => pending.push((other, 0)),
    }
}

/// Assigns a gated quantifier its stable id and telemetry row *without*
/// activating it: the id is allocated in background order (so `axiom_quants`
/// and per-quantifier telemetry cover gated axioms exactly like eager
/// ones), but the quantifier stays inactive until [`arm_gated`] opens the
/// base's second saturation stage.
fn park_gated_quant(
    shared: &mut Shared,
    vars: Vec<Symbol>,
    triggers: Vec<Trigger>,
    body: Nnf,
) -> Quant {
    let (id, vars, body) = shared.quant_id(vars, body);
    let triggers = if triggers.is_empty() {
        infer_triggers(&vars, &body)
    } else {
        triggers
    };
    if id == shared.quants.len() {
        shared.quants.push(QuantDesc::new(&vars, &triggers, &body));
    }
    Quant::new(id, vars, triggers, body)
}

/// Activates the parked goal-directed quantifiers in the base once the
/// eager stage has saturated. Armed quantifiers sit past
/// `fresh_quants_from` and get a full matching pass on the next saturation
/// round, exactly like a newly registered quantifier.
fn arm_gated(ctx: &mut Ctx, shared: &mut Shared, gated: &[Quant]) {
    for q in gated {
        if !ctx.quant_ids_present.insert(q.id) {
            continue; // structurally shared with an eager axiom
        }
        shared.stats.quants += 1;
        if q.data.triggers.is_empty() {
            shared.stats.skipped_quants += 1;
        }
        ctx.quants.push(q.clone());
    }
}

fn register_quant(
    ctx: &mut Ctx,
    shared: &mut Shared,
    vars: Vec<Symbol>,
    triggers: Vec<Trigger>,
    body: Nnf,
) {
    let (id, vars, body) = shared.quant_id(vars, body);
    if !ctx.quant_ids_present.insert(id) {
        return; // already active in this branch
    }
    shared.stats.quants += 1;
    let triggers = if triggers.is_empty() {
        let inferred = infer_triggers(&vars, &body);
        if inferred.is_empty() {
            shared.stats.skipped_quants += 1;
            Vec::new()
        } else {
            inferred
        }
    } else {
        triggers
    };
    if id == shared.quants.len() {
        // First registration of this structural quantifier anywhere in the
        // search: record its telemetry row.
        shared.quants.push(QuantDesc::new(&vars, &triggers, &body));
    }
    ctx.quants.push(Quant::new(id, vars, triggers, body));
}

fn assert_lit(eg: &mut EGraph, atom: &Atom, positive: bool) -> Result<(), crate::egraph::Conflict> {
    match atom {
        Atom::Eq(a, b) => {
            let a = eg.intern(a)?;
            let b = eg.intern(b)?;
            if positive {
                eg.merge(a, b)
            } else {
                eg.assert_diseq(a, b)
            }
        }
        other => {
            let node = eg.intern_atom(other)?.expect("non-Eq atoms have nodes");
            let target = if positive {
                eg.true_id()
            } else {
                eg.false_id()
            };
            eg.merge(node, target)
        }
    }
}

/// Truth of a literal under the current E-graph, if determined.
fn lit_truth(eg: &mut EGraph, atom: &Atom, positive: bool) -> Option<bool> {
    let raw = match atom {
        Atom::Eq(a, b) => {
            let a = eg.intern(a).ok()?;
            let b = eg.intern(b).ok()?;
            if eg.same_class(a, b) {
                Some(true)
            } else if eg.known_disequal(a, b) {
                Some(false)
            } else {
                None
            }
        }
        other => {
            let node = eg.intern_atom(other).ok()??;
            eg.bool_value(node)
        }
    };
    raw.map(|v| if positive { v } else { !v })
}

fn normalize_splits(ctx: &mut Ctx) -> Step {
    let mut i = 0;
    while i < ctx.splits.len() {
        let mut satisfied = false;
        let arm_count = ctx.splits[i].arms.len();
        for k in 0..arm_count {
            if !ctx.splits[i].live[k] {
                continue;
            }
            // Evaluating a literal interns its atom (mutating the
            // E-graph), so take the arm out of the clause for the call.
            let arm = std::mem::replace(&mut ctx.splits[i].arms[k], Nnf::True);
            let (truth, label) = match &arm {
                Nnf::True => (Some(true), None),
                Nnf::False => (Some(false), None),
                Nnf::Lit {
                    atom,
                    positive,
                    label,
                } => (lit_truth(&mut ctx.eg, atom, *positive), *label),
                _ => (None, None),
            };
            ctx.splits[i].arms[k] = arm;
            match truth {
                Some(true) => {
                    // A labelled literal that already holds on the branch
                    // still stamps the branch with its position.
                    if let Some(id) = label {
                        ctx.labels.push(id);
                    }
                    satisfied = true;
                }
                Some(false) => ctx.kill_arm(i, k),
                None => {}
            }
        }
        if satisfied {
            ctx.remove_split(i);
            continue;
        }
        match ctx.splits[i].live_count {
            0 => return Step::Conflict,
            1 => {
                let k = ctx.splits[i]
                    .live
                    .iter()
                    .position(|&l| l)
                    .expect("live_count is 1");
                let arm = ctx.splits[i].arms[k].clone();
                ctx.pending.push((arm, ctx.splits[i].gen));
                ctx.remove_split(i);
                // Re-examine remaining splits after the new fact lands.
                return Step::Ok;
            }
            _ => {
                i += 1;
            }
        }
    }
    Step::Ok
}

fn pick_split(ctx: &Ctx) -> Option<usize> {
    ctx.splits
        .iter()
        .enumerate()
        .min_by_key(|(_, clause)| (clause.live_count, clause.gen))
        .map(|(i, _)| i)
}

enum InstResult {
    Progress,
    Saturated,
    Fuel,
}

/// Display names for the generated symbols of an exported branch: skolem
/// constants and functions and other fresh names (which contain `!`) and
/// class aliases (`@class…`). Their raw numbers count every fresh name
/// drawn before them — background axioms included — so each is renamed
/// to its prefix plus its order of first appearance in the export, which
/// walks nodes in creation order. An edit that only changes how many
/// names the background draws then leaves the export unchanged.
#[derive(Default)]
struct FreshNames {
    renamed: HashMap<Symbol, Symbol>,
}

impl FreshNames {
    fn name(&mut self, raw: Symbol) -> Symbol {
        let text = raw.as_str();
        let prefix = match text.find('!') {
            Some(bang) => &text[..bang],
            None if text.starts_with('@') => text.trim_end_matches(|c: char| c.is_ascii_digit()),
            None => return raw,
        };
        let next = self.renamed.len() + 1;
        *self
            .renamed
            .entry(raw)
            .or_insert_with(|| Symbol::intern(&format!("{prefix}!{next}")))
    }

    fn rename(&mut self, term: Term) -> Term {
        match term.node() {
            TermNode::Var(v) => Term::var(self.name(*v)),
            TermNode::Const(_) => term,
            TermNode::App(sym, args) => {
                let sym = match sym {
                    FnSym::Uninterp(f) => FnSym::Uninterp(self.name(*f)),
                    other => *other,
                };
                let args = args.iter().map(|&a| self.rename(a)).collect();
                Term::app(sym, args)
            }
        }
    }
}

/// Renders the determined predicate nodes of a saturated branch, for
/// diagnosis of failed proofs.
fn describe_branch(ctx: &Ctx, names: &mut FreshNames) -> Vec<String> {
    let mut out = Vec::new();
    let mut aliases = Vec::new();
    for sym in [
        Sym::PAlive,
        Sym::PLocalInc,
        Sym::PRepInc,
        Sym::PInc,
        Sym::PLt,
        Sym::PLe,
        Sym::PIsObj,
        Sym::PIsInt,
        Sym::PRepIncElem,
    ] {
        for &node in ctx.eg.nodes_with_sym(&sym) {
            let value = match ctx.eg.bool_value(node) {
                Some(true) => "true",
                Some(false) => "false",
                None => "?",
            };
            let args: Vec<String> = ctx
                .eg
                .node(node)
                .children()
                .iter()
                .map(|&c| names.rename(term_of(&ctx.eg, c, &mut aliases)).to_string())
                .collect();
            out.push(format!("{sym:?}({}) = {value}", args.join(", ")));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// How many E-classes the pairwise disequality scan of [`extract_model`]
/// covers. Refuting branches are small in practice; the cap only guards
/// against quadratic blowup on pathological saturations.
const MODEL_DISEQ_CLASS_CAP: usize = 256;

/// Exports the saturated branch context as a [`CandidateModel`]: the
/// ground E-class partition, the `select` function graph, the determined
/// predicate entries, known disequalities, and the position labels
/// asserted on the branch.
fn extract_model(ctx: &Ctx, names: &mut FreshNames) -> CandidateModel {
    let eg = &ctx.eg;
    let mut aliases = Vec::new();
    // Partition the nodes into classes, indexed in first-appearance order
    // (deterministic: node ids are allocation-ordered).
    let mut index: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut roots: Vec<NodeId> = Vec::new();
    let mut classes: Vec<ModelClass> = Vec::new();
    for id in 0..eg.node_count() as NodeId {
        let root = eg.find(id);
        let idx = *index.entry(root).or_insert_with(|| {
            roots.push(root);
            classes.push(ModelClass {
                repr: names.rename(term_of(eg, root, &mut aliases)),
                members: Vec::new(),
                value: eg.class_value(root).cloned(),
            });
            classes.len() - 1
        });
        match &eg.node(id).sym {
            Sym::Var(name) => classes[idx].members.push(Term::var(names.name(*name))),
            Sym::Lit(c) => classes[idx].members.push(Term::lit(*c)),
            _ => {}
        }
    }
    let class_of = |id: NodeId| index[&eg.find(id)];
    let mut selects = Vec::new();
    for &node in eg.nodes_with_sym(&Sym::Select) {
        let ch = eg.node(node).children();
        if ch.len() == 3 {
            selects.push(ModelSelect {
                store: class_of(ch[0]),
                obj: class_of(ch[1]),
                attr: class_of(ch[2]),
                value: class_of(node),
            });
        }
    }
    selects.sort_unstable_by_key(|s| (s.store, s.obj, s.attr, s.value));
    selects.dedup();
    let mut relations = Vec::new();
    for sym in [
        Sym::PAlive,
        Sym::PLocalInc,
        Sym::PRepInc,
        Sym::PInc,
        Sym::PLt,
        Sym::PLe,
        Sym::PIsObj,
        Sym::PIsInt,
        Sym::PRepIncElem,
    ] {
        for &node in eg.nodes_with_sym(&sym) {
            relations.push(ModelRelation {
                sym: format!("{sym:?}"),
                args: eg
                    .node(node)
                    .children()
                    .iter()
                    .map(|&c| class_of(c))
                    .collect(),
                value: eg.bool_value(node),
            });
        }
    }
    relations.sort_unstable_by(|a, b| (&a.sym, &a.args).cmp(&(&b.sym, &b.args)));
    relations.dedup();
    let mut diseqs = Vec::new();
    let scan = roots.len().min(MODEL_DISEQ_CLASS_CAP);
    for i in 0..scan {
        for j in i + 1..scan {
            if eg.known_disequal(roots[i], roots[j]) {
                diseqs.push((i, j));
            }
        }
    }
    let mut labels = Vec::new();
    for &l in &ctx.labels {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    CandidateModel {
        labels,
        classes,
        selects,
        relations,
        diseqs,
    }
}

/// One saturation round. Mostly *incremental*: new quantifiers are matched
/// fully once, old quantifiers are matched only against nodes created
/// since the last round (anchored matching). When an incremental round
/// produces nothing, a full pass confirms saturation.
fn instantiate_round(ctx: &mut Ctx, shared: &mut Shared) -> InstResult {
    let produced = instantiate_pass(ctx, shared, false);
    match produced {
        PassResult::Produced(n) if n > 0 => return InstResult::Progress,
        PassResult::Fuel => return InstResult::Fuel,
        _ => {}
    }
    // Incremental pass was dry. A full pass can only find more if a merge
    // happened since the previous full pass (new nodes and new quantifiers
    // are already covered incrementally).
    if ctx.eg.merge_count() == ctx.full_pass_merges {
        return InstResult::Saturated;
    }
    let result = match instantiate_pass(ctx, shared, true) {
        PassResult::Produced(0) => InstResult::Saturated,
        PassResult::Produced(_) => InstResult::Progress,
        PassResult::Fuel => InstResult::Fuel,
    };
    ctx.full_pass_merges = ctx.eg.merge_count();
    result
}

enum PassResult {
    Produced(usize),
    Fuel,
}

/// `term_of`, memoized by class root for the duration of one pass. The
/// E-graph only changes mid-pass through alias merges, which bump the
/// (node, merge) counts and flush the memo; results that pushed aliases
/// carry a side effect and are never cached. Under those rules a hit
/// returns exactly what a fresh `term_of` call would.
fn term_of_memo(
    eg: &EGraph,
    id: NodeId,
    aliases: &mut Vec<(Term, NodeId)>,
    memo: &mut FxHashMap<NodeId, Term>,
    version: &mut (usize, u64),
) -> Term {
    let now = (eg.node_count(), eg.merge_count());
    if *version != now {
        memo.clear();
        *version = now;
    }
    let root = eg.find(id);
    if let Some(&t) = memo.get(&root) {
        return t;
    }
    let before = aliases.len();
    let t = term_of(eg, id, aliases);
    if aliases.len() == before {
        memo.insert(root, t);
    }
    t
}

fn instantiate_pass(ctx: &mut Ctx, shared: &mut Shared, full: bool) -> PassResult {
    let mut memo_version: (usize, u64) = (0, 0);

    let mut produced = 0;
    let first_new = ctx.matched_upto;
    let fresh_from = ctx.fresh_quants_from;
    ctx.matched_upto = ctx.eg.node_count();
    ctx.fresh_quants_from = ctx.quants.len();
    // Split borrows: quantifiers are only registered by `drain_pending`,
    // never during a pass, so the list can be iterated in place while the
    // E-graph, seen-set, and pending queue are mutated.
    let Ctx {
        eg,
        pending,
        quants,
        seen,
        deferred,
        trail,
        recording,
        match_cache,
        match_layer,
        layer_stamp,
        scratch,
        ..
    } = ctx;
    let PassScratch {
        by_head,
        candidates,
        anchored,
        terms,
        subst,
        term_memo,
    } = scratch;
    term_memo.clear();
    // Bucket the new nodes by head symbol once: anchored matching can only
    // pin a pattern at a node whose head symbol one of the trigger's
    // patterns carries, so each trigger sweeps its head buckets instead of
    // every new node. Leaves are never pattern heads.
    by_head.values_mut().for_each(Vec::clear);
    if !full {
        for id in first_new as NodeId..eg.node_count() as NodeId {
            let node = eg.node(id);
            if node.leaf_term().is_none() {
                by_head.entry(node.key()).or_default().push(id);
            }
        }
    }
    for (qi, quant) in quants.iter().enumerate() {
        let data = &*quant.data;
        for (ti, (trigger, plan)) in data.triggers.iter().zip(&data.plans).enumerate() {
            let full_match = full || qi >= fresh_from;
            let bindings: &[crate::matcher::Binding] = if full_match {
                // Full pass, or a quantifier registered since the last
                // pass: match against the whole graph — unless an earlier
                // full match of this trigger is still valid, in which case
                // a rematch would return the identical binding vector and
                // the cached one is walked instead. Walking (not skipping)
                // keeps instance terms, deferrals, and counters exact.
                enum CacheUse {
                    Hit,
                    Extend,
                    Rescan,
                }
                // The frame's own entry, else the base layer's, which
                // described the graph as it was when the frame opened.
                let key = (qi, ti);
                let stamp = match match_cache.get(&key) {
                    Some(e) => Some(e.stamp),
                    None => match_layer.contains_key(&key).then_some(*layer_stamp),
                };
                let cached = match stamp {
                    Some(s) if eg.syms_unchanged_since(&plan.syms, s) => CacheUse::Hit,
                    Some(s)
                        if plan.single_head.is_some()
                            && eg.syms_struct_unchanged_since(&plan.syms, s) =>
                    {
                        CacheUse::Extend
                    }
                    _ => CacheUse::Rescan,
                };
                match cached {
                    CacheUse::Hit => {}
                    CacheUse::Extend => {
                        // Only node creation touched the trigger's symbols:
                        // every cached match survives with its dedup key, and
                        // new matches can only sit at nodes appended to the
                        // head bucket. Scanning that suffix reproduces a full
                        // rescan exactly, in order. The base bucket is a
                        // prefix of the frame's, so a layer entry extends
                        // from the layer's bucket length.
                        let e = match_cache
                            .entry(key)
                            .or_insert_with(|| match_layer[&key].clone());
                        let head = plan.single_head.expect("extend plan implies head");
                        e.stamp = eg.touch_stamp();
                        crate::matcher::match_trigger_extend(
                            eg,
                            &data.vars,
                            trigger,
                            head,
                            e.bucket_len,
                            &mut e.bindings,
                        );
                        e.bucket_len = eg.nodes_with_sym(&head).len();
                    }
                    CacheUse::Rescan => {
                        let stamp = eg.touch_stamp();
                        let bindings = match_trigger(eg, &data.vars, trigger);
                        let bucket_len =
                            plan.single_head.map_or(0, |h| eg.nodes_with_sym(&h).len());
                        match_cache.insert(
                            key,
                            MatchCacheEntry {
                                stamp,
                                bucket_len,
                                bindings,
                            },
                        );
                    }
                }
                match match_cache.get(&key) {
                    Some(e) => &e.bindings,
                    None => &match_layer[&key].bindings,
                }
            } else {
                candidates.clear();
                for key in &plan.head_keys {
                    if let Some(bucket) = by_head.get(key) {
                        candidates.extend_from_slice(bucket);
                    }
                }
                if plan.heads.len() > 1 {
                    // Restore creation order across buckets (each bucket is
                    // already ordered); a node can appear in only one.
                    candidates.sort_unstable();
                }
                anchored.clear();
                for &node in candidates.iter() {
                    match_trigger_anchored_with(eg, &data.vars, trigger, plan, node, anchored);
                }
                anchored
            };
            shared.stats.trigger_matches += bindings.len() as u64;
            if !bindings.is_empty() {
                // A pass that found nothing leaves the row as the base
                // left it, so the proof does not copy it.
                shared.quants.counters_mut(quant.id).matches += bindings.len() as u64;
            }
            for binding in bindings {
                let bound = |hole: usize| binding.node(hole as u16).expect("binding is complete");
                let binding_gen = (0..data.vars.len())
                    .map(|hole| eg.class_gen(bound(hole)))
                    .max()
                    .unwrap_or(0);
                let instance_gen = binding_gen + 1;
                if instance_gen > shared.budget.max_term_gen {
                    *deferred = true;
                    shared.stats.deferred_instances += 1;
                    shared.quants.counters_mut(quant.id).deferred += 1;
                    continue;
                }
                let mut aliases = Vec::new();
                terms.clear();
                for hole in 0..data.vars.len() {
                    terms.push(term_of_memo(
                        eg,
                        bound(hole),
                        &mut aliases,
                        term_memo,
                        &mut memo_version,
                    ));
                }
                let key = IdKey::new(
                    std::iter::once(quant.id as u32).chain(terms.iter().map(|t| t.id())),
                );
                if seen.contains(&key) {
                    continue;
                }
                if *recording > 0 {
                    trail.push(CtxUndo::SeenInserted { key: key.clone() });
                }
                seen.insert(key);
                // Definitional aliases keep instantiation sound for
                // leafless cyclic classes.
                for (alias, root) in aliases {
                    let Ok(alias_id) = eg.intern(&alias) else {
                        shared.fuel.get_or_insert(UnknownReason::Instances);
                        return PassResult::Fuel;
                    };
                    if eg.merge(alias_id, root).is_err() {
                        // The alias equates a class with itself; a conflict
                        // here means the branch is already contradictory.
                        pending.push((Nnf::False, instance_gen));
                        return PassResult::Produced(produced + 1);
                    }
                }
                subst.clear();
                subst.extend(data.vars.iter().copied().zip(terms.iter().copied()));
                pending.push((data.body.subst(subst), instance_gen));
                produced += 1;
                shared.stats.instances += 1;
                let meta = shared.quants.counters_mut(quant.id);
                meta.instances += 1;
                if shared.presat {
                    meta.presat_instances += 1;
                } else {
                    meta.goal_instances += 1;
                }
                shared.quants.push_recent(quant.id, terms.as_slice().into());
                if shared.stats.instances - shared.window_start >= shared.budget.max_instances {
                    shared.fuel.get_or_insert(UnknownReason::Instances);
                    return PassResult::Fuel;
                }
                if produced >= shared.budget.max_instances_per_round {
                    return PassResult::Produced(produced);
                }
            }
        }
    }
    PassResult::Produced(produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_logic::{Formula as F, Pattern, Term as T};

    fn proved(hyps: &[F], goal: &F) -> bool {
        prove(hyps, goal, &Budget::default()).is_proved()
    }

    #[test]
    fn proves_reflexivity() {
        assert!(proved(&[], &F::eq(T::var("x"), T::var("x"))));
    }

    #[test]
    fn does_not_prove_false() {
        let p = prove(&[], &F::False, &Budget::default());
        assert_eq!(p.outcome, Outcome::NotProved);
    }

    #[test]
    fn proves_transitivity_of_equality() {
        let hyps = [
            F::eq(T::var("a"), T::var("b")),
            F::eq(T::var("b"), T::var("c")),
        ];
        assert!(proved(&hyps, &F::eq(T::var("a"), T::var("c"))));
    }

    #[test]
    fn proves_congruence() {
        let hyps = [F::eq(T::var("a"), T::var("b"))];
        let goal = F::eq(
            T::uninterp("f", vec![T::var("a")]),
            T::uninterp("f", vec![T::var("b")]),
        );
        assert!(proved(&hyps, &goal));
    }

    #[test]
    fn refutes_distinct_constants() {
        assert!(proved(
            &[F::eq(T::var("x"), T::int(1)), F::eq(T::var("x"), T::int(2))],
            &F::False
        ));
    }

    #[test]
    fn case_split_on_disjunction() {
        // (x = 1 ∨ x = 2) ⇒ x ≠ 3
        let hyp = F::or(vec![
            F::eq(T::var("x"), T::int(1)),
            F::eq(T::var("x"), T::int(2)),
        ]);
        assert!(proved(&[hyp], &F::neq(T::var("x"), T::int(3))));
    }

    #[test]
    fn does_not_prove_too_much_from_disjunction() {
        let hyp = F::or(vec![
            F::eq(T::var("x"), T::int(1)),
            F::eq(T::var("x"), T::int(2)),
        ]);
        let p = prove(&[hyp], &F::eq(T::var("x"), T::int(1)), &Budget::default());
        assert_eq!(p.outcome, Outcome::NotProved);
    }

    #[test]
    fn modus_ponens_via_disjunction() {
        // (p ⇒ q), p ⊢ q  with p, q boolean terms.
        let p = F::Atom(Atom::BoolTerm(T::var("p")));
        let q = F::Atom(Atom::BoolTerm(T::var("q")));
        assert!(proved(&[F::implies(p.clone(), q.clone()), p], &q));
    }

    #[test]
    fn instantiates_universal_hypothesis() {
        // ∀X {f(X)} :: f(X) = 0, with f(c) present ⊢ f(c) = 0.
        let body = F::eq(T::uninterp("f", vec![T::var("X")]), T::int(0));
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        let goal = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(0));
        assert!(proved(&[hyp], &goal));
    }

    #[test]
    fn chained_instantiation() {
        // ∀X :: f(X) = g(X); ∀X :: g(X) = 0 ⊢ f(c) = 0.
        let h1 = F::forall(
            vec!["X".into()],
            vec![Trigger(vec![Pattern::Term(T::uninterp(
                "f",
                vec![T::var("X")],
            ))])],
            F::eq(
                T::uninterp("f", vec![T::var("X")]),
                T::uninterp("g", vec![T::var("X")]),
            ),
        );
        let h2 = F::forall(
            vec!["X".into()],
            vec![Trigger(vec![Pattern::Term(T::uninterp(
                "g",
                vec![T::var("X")],
            ))])],
            F::eq(T::uninterp("g", vec![T::var("X")]), T::int(0)),
        );
        let goal = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(0));
        assert!(proved(&[h1, h2], &goal));
    }

    #[test]
    fn existential_goal_via_witness() {
        // f(c) = 1 ⊢ ∃X :: f(X) = 1 — note the negated goal becomes
        // ∀X :: f(X) ≠ 1, instantiated at X := c by the f(X) trigger.
        let hyp = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(1));
        let goal = F::exists(
            vec!["X".into()],
            F::eq(T::uninterp("f", vec![T::var("X")]), T::int(1)),
        );
        assert!(proved(&[hyp], &goal));
    }

    #[test]
    fn arithmetic_evaluation_in_proofs() {
        // x = 2 ⊢ x + 3 = 5.
        let hyp = F::eq(T::var("x"), T::int(2));
        let goal = F::eq(T::add(T::var("x"), T::int(3)), T::int(5));
        assert!(proved(&[hyp], &goal));
    }

    #[test]
    fn comparison_atoms() {
        let goal = F::Atom(Atom::Lt(T::int(1), T::int(2)));
        assert!(proved(&[], &goal));
        let bad = F::Atom(Atom::Lt(T::int(2), T::int(1)));
        assert_eq!(
            prove(&[], &bad, &Budget::default()).outcome,
            Outcome::NotProved
        );
    }

    #[test]
    fn unknown_on_tiny_budget_with_looping_axiom() {
        // ∀X {f(X)} :: f(g(X)) = X — each instantiation creates a fresh
        // f-term over a new g-chain, matching again: a true matching loop.
        // (Note: the milder f(f(X)) = f(X) loop *converges* in our E-graph
        // because instances collapse into existing classes.)
        let body = F::eq(
            T::uninterp("f", vec![T::uninterp("g", vec![T::var("X")])]),
            T::var("X"),
        );
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        let seed = F::eq(T::uninterp("f", vec![T::var("c")]), T::var("d"));
        // Unprovable goal, diverging instantiation: tiny budget gives Unknown.
        let p = prove(&[hyp, seed], &F::False, &Budget::tiny());
        assert!(p.outcome.is_unknown(), "outcome: {}", p.outcome);
        assert!(p.stats.instances > 0);
        // The divergence attributor names the looping axiom.
        let divergence = p.divergence().expect("unknown proofs attribute divergence");
        assert!(!divergence.culprits.is_empty());
        let culprit = &divergence.culprits[0];
        assert!(culprit.instances > 0);
        assert!(
            !culprit.chain().is_empty(),
            "culprits carry a representative term chain"
        );
        assert!(
            culprit.trigger.contains('f'),
            "trigger: {}",
            culprit.trigger
        );
        // The rows equal their rendered form read back, as a cache
        // entry's are.
        let rendered = p.stats.per_quant.iter().map(|q| q.to_profile());
        assert_eq!(
            QuantTable::from_rendered(rendered).as_ref(),
            Some(&p.stats.per_quant)
        );
    }

    #[test]
    fn unknown_display_names_the_exhausted_dimension() {
        assert_eq!(
            Outcome::Unknown(UnknownReason::Instances).to_string(),
            "unknown (instantiation budget exhausted)"
        );
        assert_eq!(
            Outcome::Unknown(UnknownReason::Branches).to_string(),
            "unknown (case-split budget exhausted)"
        );
        assert_eq!(
            Outcome::Unknown(UnknownReason::DeferredInstances).to_string(),
            "unknown (matching-generation limit deferred instantiations)"
        );
    }

    #[test]
    fn unknown_reason_names_round_trip() {
        for reason in [
            UnknownReason::Instances,
            UnknownReason::Branches,
            UnknownReason::Nodes,
            UnknownReason::Depth,
            UnknownReason::Rounds,
            UnknownReason::DeferredInstances,
        ] {
            assert_eq!(UnknownReason::from_name(reason.as_str()), Some(reason));
        }
        assert_eq!(UnknownReason::from_name("bogus"), None);
    }

    #[test]
    fn stats_scalar_fields_round_trip() {
        let body = F::eq(T::uninterp("f", vec![T::var("X")]), T::int(0));
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        // The chain a = b = c forces benign merges before the goal closes.
        let chain = [
            F::eq(T::var("a"), T::var("b")),
            F::eq(T::var("b"), T::var("c")),
            F::eq(T::uninterp("f", vec![T::var("a")]), T::var("a")),
        ];
        let goal = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(0));
        let mut hyps = vec![hyp];
        hyps.extend(chain);
        let p = prove(&hyps, &goal, &Budget::default());
        let rebuilt = Stats::from_fields(p.stats.to_fields());
        // Scalars round-trip; the structured members are serialized
        // separately by the cache.
        assert_eq!(rebuilt.instances, p.stats.instances);
        assert_eq!(rebuilt.trigger_matches, p.stats.trigger_matches);
        assert_eq!(rebuilt.merges, p.stats.merges);
        assert_eq!(rebuilt.clauses, p.stats.clauses);
        assert!(p.stats.merges > 0, "asserting literals merges classes");
        assert!(p.stats.trigger_matches >= p.stats.instances as u64);
    }

    #[test]
    fn convergent_rewrite_loop_saturates() {
        // f(f(X)) = f(X) collapses into finitely many classes: the prover
        // saturates and answers NotProved instead of diverging.
        let body = F::eq(
            T::uninterp("f", vec![T::uninterp("f", vec![T::var("X")])]),
            T::uninterp("f", vec![T::var("X")]),
        );
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        let seed = F::eq(T::uninterp("f", vec![T::var("c")]), T::var("d"));
        let p = prove(&[hyp, seed], &F::False, &Budget::default());
        assert_eq!(p.outcome, Outcome::NotProved);
    }

    #[test]
    fn iff_hypothesis_used_both_ways() {
        let p = F::Atom(Atom::BoolTerm(T::var("p")));
        let q = F::Atom(Atom::BoolTerm(T::var("q")));
        let iff = F::Iff(Box::new(p.clone()), Box::new(q.clone()));
        assert!(proved(&[iff.clone(), q.clone()], &p));
        assert!(proved(&[iff, F::not(p.clone())], &F::not(q)));
    }

    #[test]
    fn unit_propagation_avoids_branching() {
        // (a = 1 ∨ b = 1), a ≠ 1 ⊢ b = 1 without any case split.
        let hyp = F::or(vec![
            F::eq(T::var("a"), T::int(1)),
            F::eq(T::var("b"), T::int(1)),
        ]);
        let neq = F::neq(T::var("a"), T::int(1));
        let proof = prove(
            &[hyp, neq],
            &F::eq(T::var("b"), T::int(1)),
            &Budget::default(),
        );
        assert!(proof.is_proved());
        assert_eq!(
            proof.stats.branches, 0,
            "unit propagation should not branch"
        );
    }

    #[test]
    fn a_proof_is_independent_of_the_quantifiers_an_earlier_proof_registered() {
        let app = |f: &str, x: T| T::uninterp(f, vec![x]);
        let axiom = |v: &str, f: &str, body: F| {
            let trig = Trigger(vec![Pattern::Term(app(f, T::var(v)))]);
            F::forall(vec![v.into()], vec![trig], body)
        };
        // One eager and one goal-directed background quantifier.
        let background = [
            axiom(
                "X",
                "f",
                F::eq(app("f", T::var("X")), app("g", T::var("X"))),
            ),
            axiom("Y", "g", F::eq(app("g", T::var("Y")), T::int(0))),
        ];
        let mut ctx = ScopeContext::new(
            &background,
            &[Phase::Eager, Phase::GoalDirected],
            &Budget::default(),
        );
        let base_quants = ctx.background_quants(0).len() + ctx.background_quants(1).len();
        // A registers one quantifier of its own; B registers two others.
        let a_hyps = [axiom(
            "Z",
            "k",
            F::eq(app("k", T::var("Z")), app("f", T::var("Z"))),
        )];
        let a_goal = F::eq(app("k", T::var("c")), T::int(0));
        let b_hyps = [
            axiom("U", "p", F::eq(app("p", T::var("U")), T::int(1))),
            axiom("W", "q", F::eq(app("q", T::var("W")), T::int(2))),
        ];
        let b_goal = F::eq(app("p", T::var("d")), T::int(1));
        let first = ctx.prove(&a_hyps, &a_goal);
        let b = ctx.prove(&b_hyps, &b_goal);
        let again = ctx.prove(&a_hyps, &a_goal);
        assert!(first.is_proved() && b.is_proved());
        assert_eq!(first.stats.per_quant.len(), base_quants + 1);
        assert_eq!(b.stats.per_quant.len(), base_quants + 2);
        // B's first quantifier took the id A's took, and A gets it back.
        let row = |p: &Proof, id: usize| p.stats.per_quant.get(id).expect("row").to_profile();
        assert_eq!(row(&first, base_quants).id, base_quants);
        assert_eq!(row(&b, base_quants).id, base_quants);
        assert_ne!(
            row(&first, base_quants).trigger,
            row(&b, base_quants).trigger
        );
        assert!(first.stats.per_quant.iter().any(|q| q.instances > 0));
        assert_eq!(first.stats, again.stats);
    }

    /// `∀X {f(X)} :: f(g(X)) = X` with the seed `f(c) = d`: a true
    /// matching loop (see `unknown_on_tiny_budget_with_looping_axiom`).
    fn looping_axiom_and_seed() -> [F; 2] {
        let body = F::eq(
            T::uninterp("f", vec![T::uninterp("g", vec![T::var("X")])]),
            T::var("X"),
        );
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        [
            F::forall(vec!["X".into()], vec![trig], body),
            F::eq(T::uninterp("f", vec![T::var("c")]), T::var("d")),
        ]
    }

    #[test]
    fn contradictory_background_proves_every_goal() {
        let [axiom, seed] = looping_axiom_and_seed();
        let background = [
            axiom,
            seed,
            F::eq(T::var("x"), T::int(1)),
            F::eq(T::var("x"), T::int(2)),
        ];
        let mut ctx = ScopeContext::new(&background, &[], &Budget::default());
        assert_eq!(ctx.settled, Some(Outcome::Proved));
        let base_rows = ctx.base_stats.per_quant.clone();
        assert!(!base_rows.is_empty());
        let before = ctx.debug_state();
        let goals = [
            F::eq(T::var("a"), T::var("b")),
            F::Atom(Atom::Lt(T::int(2), T::int(1))),
        ];
        for goal in &goals {
            let proof = ctx.prove(&[], goal);
            assert_eq!(proof.outcome, Outcome::Proved);
            assert_eq!(proof.stats.exhausted, None);
            assert_eq!(proof.stats.per_quant, base_rows);
            assert!(proof.open_branch.is_none() && proof.model.is_none());
        }
        assert_eq!(ctx.debug_state(), before);
    }

    #[test]
    fn background_that_exhausts_the_budget_poisons_every_proof() {
        // Under the tiny budget's matching-generation limit the loop only
        // defers instances; without the limit it runs out of instances
        // during base saturation.
        let budget = Budget {
            max_term_gen: u32::MAX,
            ..Budget::tiny()
        };
        let mut ctx = ScopeContext::new(&looping_axiom_and_seed(), &[], &budget);
        let Some(Outcome::Unknown(reason)) = ctx.settled else {
            panic!("base saturation should exhaust the budget: {ctx:?}");
        };
        let before = ctx.debug_state();
        let first = ctx.prove(&[], &F::False);
        let second = ctx.prove(
            &[F::eq(T::var("a"), T::var("b"))],
            &F::eq(T::var("b"), T::var("a")),
        );
        assert_eq!(first.outcome, Outcome::Unknown(reason));
        assert_eq!(first.stats.exhausted, Some(reason));
        assert_eq!(first.outcome, second.outcome);
        assert_eq!(first.stats, second.stats);
        assert!(first.stats.per_quant.iter().any(|q| q.presat_instances > 0));
        assert_eq!(ctx.debug_state(), before);
    }

    /// `∀X {p(X)} :: q(X) = 1`, with `p` and `q` unary.
    fn implication(p: &str, q: &str) -> F {
        let app = |f: &str| T::uninterp(f, vec![T::var("X")]);
        let trig = Trigger(vec![Pattern::Term(app(p))]);
        F::forall(vec!["X".into()], vec![trig], F::eq(app(q), T::int(1)))
    }

    /// `p(name) = 1`.
    fn fact(p: &str, name: &str) -> F {
        F::eq(T::uninterp(p, vec![T::var(name)]), T::int(1))
    }

    #[test]
    fn base_stage_goal_directed_instances_over_background_facts_are_presat() {
        let background = [implication("p", "q"), fact("p", "a")];
        let mut ctx = ScopeContext::new(
            &background,
            &[Phase::GoalDirected, Phase::Eager],
            &Budget::default(),
        );
        let gated = ctx.background_quants(0).to_vec();
        assert_eq!(gated.len(), 1);
        let before = ctx.debug_state();
        // One proof needs the base instance `q(a)`, the other none.
        let first = ctx.prove(&[], &fact("q", "a"));
        let second = ctx.prove(&[fact("r", "b")], &fact("r", "b"));
        for proof in [&first, &second] {
            assert!(proof.is_proved());
            let row = proof.stats.per_quant.get(gated[0]).expect("gated row");
            assert_eq!((row.presat_instances, row.goal_instances), (1, 0), "{row}");
        }
        assert_eq!(ctx.debug_state(), before);
    }

    #[test]
    fn base_stage_match_layer_sees_what_a_proof_merges() {
        // `∀X {p(f(X))} :: q(X) = 1` matches nothing in the base, so the
        // layer holds an empty match for it; the proof's merge `c = f(d)`
        // makes `p(c)` a match that only a rescan of the layer entry finds.
        let pattern = T::uninterp("p", vec![T::uninterp("f", vec![T::var("X")])]);
        let background = [
            F::forall(
                vec!["X".into()],
                vec![Trigger(vec![Pattern::Term(pattern)])],
                F::eq(T::uninterp("q", vec![T::var("X")]), T::int(1)),
            ),
            fact("p", "c"),
            F::eq(
                T::uninterp("r", vec![T::uninterp("f", vec![T::var("d")])]),
                T::int(1),
            ),
        ];
        for phase in [Phase::Eager, Phase::GoalDirected] {
            let mut ctx = ScopeContext::new(&background, &[phase], &Budget::default());
            assert_eq!(ctx.base.match_layer.len(), 1);
            let hyps = [F::eq(T::var("c"), T::uninterp("f", vec![T::var("d")]))];
            for _ in 0..2 {
                assert!(ctx.prove(&hyps, &fact("q", "d")).is_proved());
                assert!(!ctx.prove(&[], &fact("q", "d")).is_proved());
            }
        }
    }

    #[test]
    fn base_stage_that_exhausts_its_window_poisons_every_proof() {
        // The eager seed alone saturates at once; the looping axiom, armed
        // in the goal-directed stage, runs that stage's window dry.
        let budget = Budget {
            max_term_gen: u32::MAX,
            ..Budget::tiny()
        };
        let mut ctx = ScopeContext::new(
            &looping_axiom_and_seed(),
            &[Phase::GoalDirected, Phase::Eager],
            &budget,
        );
        assert_eq!(
            ctx.settled,
            Some(Outcome::Unknown(UnknownReason::Instances))
        );
        assert_eq!(ctx.base_stats.instances, budget.max_instances);
        let first = ctx.prove(&[], &F::False);
        let second = ctx.prove(
            &[F::eq(T::var("a"), T::var("b"))],
            &F::eq(T::var("b"), T::var("a")),
        );
        for proof in [&first, &second] {
            assert_eq!(proof.outcome, Outcome::Unknown(UnknownReason::Instances));
        }
        assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn base_stage_windows_let_a_proof_decide_past_the_total_budget() {
        // Five `q` instances in the eager stage, five `r` instances in the
        // goal-directed stage and a few of the proof's own: every window
        // stays under six though the total passes it.
        let budget = Budget {
            max_instances: 6,
            ..Budget::default()
        };
        let names = ["a1", "a2", "a3", "a4", "a5"];
        let mut background = vec![implication("p", "q"), implication("q", "r")];
        background.extend(names.iter().map(|n| fact("p", n)));
        let mut phases = vec![Phase::Eager, Phase::GoalDirected];
        phases.resize(background.len(), Phase::Eager);
        let mut ctx = ScopeContext::new(&background, &phases, &budget);
        assert_eq!(ctx.settled, None);
        assert_eq!(ctx.base_stats.instances, 10);
        let proof = ctx.prove(
            &[fact("p", "b1"), fact("p", "b2")],
            &F::and(vec![fact("q", "b1"), fact("q", "b2")]),
        );
        assert!(proof.is_proved(), "{}", proof.stats);
        assert!(proof.stats.instances > budget.max_instances);
        let presat: u64 = proof
            .stats
            .per_quant
            .iter()
            .map(|q| q.presat_instances)
            .sum();
        assert_eq!(presat, 10);
    }

    #[test]
    fn stats_are_populated() {
        // Each arm only becomes contradictory after the split commits to a
        // value of x, forcing genuine branching.
        let hyp = F::or(vec![
            F::eq(T::var("x"), T::int(1)),
            F::eq(T::var("x"), T::int(2)),
        ]);
        let y5 = F::eq(T::var("y"), T::int(5));
        let goal = F::neq(T::add(T::var("x"), T::var("y")), T::int(0));
        let proof = prove(&[hyp, y5], &goal, &Budget::default());
        assert!(proof.is_proved());
        assert!(proof.stats.branches >= 2, "stats: {}", proof.stats);
        assert!(proof.stats.peak_nodes > 0);
    }
}
