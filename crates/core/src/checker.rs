//! The modular side-effect checker: the per-obligation steps tying
//! together scope analysis, the pivot-uniqueness restriction, VC
//! generation, axiom slicing and the theorem prover. The engine
//! (`oolong-engine`) drives them, one implementation per obligation.

use crate::background::{Axiom, Background, SlicedBackground};
use crate::restrict::check_pivot_uniqueness;
use crate::slice::BackgroundSlice;
use crate::vcgen::{scope_uses_arrays, ObligationLabel, Vc, VcGen};
use oolong_logic::{Formula, FreshGen, Phase};
use oolong_prover::{Budget, CandidateModel, Outcome, ScopeContext, SearchStrategy, Stats};
use oolong_sema::{ImplId, Scope};
use oolong_syntax::{Diagnostic, Diagnostics, Program};
use std::fmt;
use std::sync::Arc;

/// Configuration for a [`Checker`].
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Prover resource limits.
    pub budget: Budget,
    /// Run the *naive* baseline: skip the pivot-uniqueness restriction,
    /// owner-exclusion obligations/assumptions, and background axioms (6)
    /// and (7). Used by experiments E2 and E3 to reproduce the unsound
    /// system the paper's restrictions repair.
    pub naive: bool,
    /// Emit `≠ null` definedness conditions (off by default — the paper
    /// elides them).
    pub null_checks: bool,
    /// Check at the arrays language level even when the scope uses no
    /// array features (for linking against arrays-level modules).
    pub force_arrays_level: bool,
    /// How the prover backtracks out of case splits. [`SearchStrategy`]
    /// has exactly one value, [`SearchStrategy::Trail`]; the field names it
    /// for callers that key prover contexts by strategy.
    pub strategy: SearchStrategy,
}

impl CheckOptions {
    /// Whether `scope` is checked at the arrays language level under these
    /// options: it uses array features, or `force_arrays_level` is set.
    /// An array access in any implementation body turns it on for the
    /// whole scope, so it is the one input of a background that
    /// implementation bodies can change.
    pub fn arrays_level(&self, scope: &Scope) -> bool {
        self.force_arrays_level || scope_uses_arrays(scope)
    }
}

/// Everything the prover reports about a rejected verification condition:
/// the open-branch sketch, the position labels that landed on the refuting
/// branch, the primary (innermost) obligation they identify, and the
/// exported candidate model for counterexample concretization.
#[derive(Debug, Clone, Default)]
pub struct Refutation {
    /// Human-readable sketch of the open branch's determined predicates.
    pub open_branch: Option<Vec<String>>,
    /// Position-label ids asserted on the refuting branch, in assertion
    /// order (deduplicated).
    pub labels: Vec<u32>,
    /// The obligation the branch violates: the last asserted label,
    /// resolved against the VC's label table.
    pub primary: Option<ObligationLabel>,
    /// The exported saturated branch context, when recorded.
    pub model: Option<CandidateModel>,
}

impl Refutation {
    /// Builds a refutation from a prover model, resolving the innermost
    /// label id against the VC's label table.
    pub fn from_proof(
        open_branch: Option<Vec<String>>,
        model: Option<CandidateModel>,
        vc: &Vc,
    ) -> Refutation {
        let labels = model.as_ref().map(|m| m.labels.clone()).unwrap_or_default();
        let primary = labels.last().and_then(|&id| vc.label(id)).cloned();
        Refutation {
            open_branch,
            labels,
            primary,
            model,
        }
    }
}

/// The verdict for one implementation.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The implementation respects its modifies list and no execution goes
    /// wrong.
    Verified(Stats),
    /// The implementation violates the pivot uniqueness restriction.
    RestrictionViolation(Vec<Diagnostic>),
    /// The VC could not be proved: a genuine error or an incompleteness.
    /// Carries the prover's [`Refutation`] evidence (boxed: the candidate
    /// model dwarfs every other variant).
    NotVerified(Stats, Box<Refutation>),
    /// The prover ran out of budget.
    Unknown(Stats),
    /// VC generation failed (unsupported expression form).
    TranslationError(Diagnostic),
}

impl Verdict {
    /// Whether the implementation was verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified(_))
    }

    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Verified(_) => "verified",
            Verdict::RestrictionViolation(_) => "restriction violation",
            Verdict::NotVerified(..) => "not verified",
            Verdict::Unknown(_) => "unknown",
            Verdict::TranslationError(_) => "translation error",
        }
    }

    /// The prover statistics, when a proof was attempted.
    pub fn stats(&self) -> Option<&Stats> {
        match self {
            Verdict::Verified(s) | Verdict::NotVerified(s, _) | Verdict::Unknown(s) => Some(s),
            _ => None,
        }
    }

    /// The open-branch sketch for a rejection, if the prover recorded one:
    /// the satisfiable literal assignment that witnesses why the
    /// verification condition is not derivable.
    pub fn open_branch(&self) -> Option<&[String]> {
        match self {
            Verdict::NotVerified(_, r) => r.open_branch.as_deref(),
            _ => None,
        }
    }

    /// The full refutation evidence for a rejection.
    pub fn refutation(&self) -> Option<&Refutation> {
        match self {
            Verdict::NotVerified(_, r) => Some(r),
            _ => None,
        }
    }

    /// Divergence attribution for an [`Verdict::Unknown`]: the budget
    /// dimension that tripped plus the hottest quantified axioms (see
    /// [`Stats::divergence`]).
    pub fn divergence(&self) -> Option<oolong_prover::Divergence<'_>> {
        match self {
            Verdict::Unknown(stats) => stats.divergence(),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())?;
        match self {
            Verdict::RestrictionViolation(ds) => {
                for d in ds {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            Verdict::TranslationError(d) => write!(f, ": {d}"),
            Verdict::Unknown(stats) => {
                // Which budget dimension tripped (recorded by the prover).
                if let Some(reason) = stats.exhausted {
                    write!(f, " ({reason})")?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// The modular side-effect checker for one scope.
///
/// Every obligation is proved the same way: its scope background is
/// sliced to the axioms relevant to the VC (see [`crate::slice`]), a
/// prover context holding that slice is saturated once and may serve every
/// obligation with the same slice, and each proof runs inside a trail frame
/// of that context, with goal-directed axioms armed only inside the frame.
///
/// The scope background (`UBP ∧ BP_D`) is a pure function of the scope's
/// declarations outside implementation bodies, `naive` and the language
/// level, so the checker holds it once, as one shared [`Background`]:
/// every VC it generates points at it and owns only its `Init(m)` facts
/// and goal, fingerprints and context keys hash its digest, and slicing
/// reads its token tables, built on the first slice taken. The
/// background need not be the checker's own: [`Checker::with_background`]
/// wraps a scope around one built earlier for equal inputs, tables
/// included, which is how the engine reuses it across edit rounds.
#[derive(Debug)]
pub struct Checker {
    scope: Scope,
    options: CheckOptions,
    /// Whether the scope is checked at the arrays language level: it uses
    /// array features, or `force_arrays_level` is set.
    pub(crate) arrays: bool,
    /// The scope background, shared with every VC.
    background: Arc<Background>,
    /// The fresh-name state reached after building `background`. Each VC
    /// continues from it, so its names are exactly those it would get if
    /// the background were generated afresh in front of it.
    pub(crate) fresh: FreshGen,
}

impl Checker {
    /// Analyses `program` as a scope and prepares a checker.
    ///
    /// # Errors
    ///
    /// Returns the scope-analysis diagnostics if the program is ill-formed
    /// (undeclared names, inclusion cycles, parameter mismatches, …).
    pub fn new(program: &Program, options: CheckOptions) -> Result<Checker, Diagnostics> {
        Ok(Checker::from_scope(Scope::analyze(program)?, options))
    }

    /// Wraps an already-analysed scope: builds its background, then
    /// calls [`Checker::with_background`].
    pub fn from_scope(scope: Scope, options: CheckOptions) -> Checker {
        let arrays = options.arrays_level(&scope);
        let (background, fresh) = Checker::build_background(&scope, &options, arrays);
        Checker::with_background(scope, options, arrays, background, fresh)
    }

    /// The scope background of `scope` under `options` at the given
    /// language level, with the fresh-name state building it leaves.
    /// It reads only the scope's attributes, their inclusions and whether
    /// any procedure declares a read frame, plus `options.naive` and
    /// `arrays`: implementation bodies reach it only through `arrays`.
    pub fn build_background(
        scope: &Scope,
        options: &CheckOptions,
        arrays: bool,
    ) -> (Arc<Background>, FreshGen) {
        let mut fresh = FreshGen::new();
        let axioms = crate::background::axioms(scope, !options.naive, arrays, &mut fresh);
        (Arc::new(Background::new(axioms)), fresh)
    }

    /// Wraps an already-analysed scope around an already-built
    /// background: `arrays` must be `options.arrays_level(&scope)`, and
    /// `background` and `fresh` what [`Checker::build_background`] returns
    /// for them. A caller that memoizes backgrounds by what they are built
    /// from shares one background across checkers of unchanged scopes.
    pub fn with_background(
        scope: Scope,
        options: CheckOptions,
        arrays: bool,
        background: Arc<Background>,
        fresh: FreshGen,
    ) -> Checker {
        debug_assert_eq!(arrays, options.arrays_level(&scope), "stale language level");
        Checker {
            scope,
            options,
            arrays,
            background,
            fresh,
        }
    }

    /// [`Checker::from_scope`], with `edit` applied to the generated
    /// background axioms before they are shared. Only for tests that
    /// perturb one axiom and watch what its digest reaches.
    #[doc(hidden)]
    pub fn with_background_edit(
        scope: Scope,
        options: CheckOptions,
        edit: impl FnOnce(&mut [Axiom]),
    ) -> Checker {
        let arrays = options.arrays_level(&scope);
        let mut fresh = FreshGen::new();
        let mut axioms = crate::background::axioms(&scope, !options.naive, arrays, &mut fresh);
        edit(&mut axioms);
        Checker::with_background(
            scope,
            options,
            arrays,
            Arc::new(Background::new(axioms)),
            fresh,
        )
    }

    /// The underlying scope.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// The options the checker was configured with.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// Whether the scope is checked at the arrays language level. An
    /// array access in any implementation body turns it on for the whole
    /// scope, so it is the one input of a VC that other implementations'
    /// bodies can change.
    pub fn arrays_level(&self) -> bool {
        self.arrays
    }

    /// Generates (without proving) the VC for one implementation.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the body uses an unsupported
    /// expression form.
    pub fn vc(&self, impl_id: ImplId) -> Result<Vc, Diagnostic> {
        VcGen::new(self).vc_for_impl(impl_id)
    }

    /// The pivot-uniqueness violations of one implementation (always
    /// empty in naive mode, which skips the restriction).
    pub fn restriction_violations(&self, impl_id: ImplId) -> Vec<Diagnostic> {
        if self.options.naive {
            Vec::new()
        } else {
            check_pivot_uniqueness(&self.scope, impl_id)
        }
    }

    /// The scope-background axioms with their stable names and declared
    /// activation policies, index-aligned with the leading
    /// `background_hyps` entries of `Vc::hypotheses` of every VC this
    /// checker generates. Lets tests and diagnostics refer to background
    /// hypotheses by name rather than position.
    pub fn background(&self) -> &[Axiom] {
        self.background.axioms()
    }

    /// The shared scope background every VC of this checker points at.
    pub fn shared_background(&self) -> &Arc<Background> {
        &self.background
    }

    /// The axiom-relevance slice of a VC's scope background: which of the
    /// leading `background_hyps` hypotheses to keep. Walks only the VC's
    /// own formulas; the background's side comes from its shared tables.
    pub fn background_slice(&self, vc: &Vc) -> BackgroundSlice {
        let seeds = vc.hypotheses.init().iter().chain(std::iter::once(&vc.goal));
        vc.hypotheses.background().slice_tables().slice(seeds)
    }

    /// The kept background of `vc` under `slice`, as a handle on the
    /// shared background: it is hashed by digest and mask, never by
    /// formula.
    pub fn sliced_background<'a>(
        &self,
        vc: &'a Vc,
        slice: &'a BackgroundSlice,
    ) -> SlicedBackground<'a> {
        vc.hypotheses.background().sliced(&slice.keep)
    }

    /// The kept axioms' scheduling phases under `slice`, index-aligned
    /// with the formulas of [`Checker::sliced_background`].
    pub fn sliced_phases(&self, slice: &BackgroundSlice) -> Vec<Phase> {
        self.background
            .axioms()
            .iter()
            .zip(&slice.keep)
            .filter(|(_, &k)| k)
            .map(|(axiom, _)| axiom.policy.phase)
            .collect()
    }

    /// Builds a prover context holding a VC's (sliced) scope background,
    /// saturated once and reusable across every obligation whose slice is
    /// the same. The `Eager` axioms saturate first, then the goal-directed
    /// ones are armed and the base saturates again.
    pub fn context_for_slice(&self, vc: &Vc, slice: &BackgroundSlice) -> ScopeContext {
        let formulas: Vec<Formula> = self
            .sliced_background(vc, slice)
            .formulas()
            .cloned()
            .collect();
        ScopeContext::new(&formulas, &self.sliced_phases(slice), &self.options.budget)
    }

    /// Proves a verification condition inside `ctx` — which must hold the
    /// VC's sliced scope background — and maps the proof outcome to a
    /// [`Verdict`]. `dropped` is the number of sliced-away axioms, recorded
    /// in the verdict's statistics.
    pub fn verdict_for_vc_in(&self, ctx: &mut ScopeContext, vc: &Vc, dropped: usize) -> Verdict {
        let proof = ctx.prove(vc.hypotheses.init(), &vc.goal);
        let mut stats = proof.stats;
        stats.sliced_axioms = dropped;
        match proof.outcome {
            Outcome::Proved => Verdict::Verified(stats),
            Outcome::NotProved => Verdict::NotVerified(
                stats,
                Box::new(Refutation::from_proof(proof.open_branch, proof.model, vc)),
            ),
            Outcome::Unknown(_) => Verdict::Unknown(stats),
        }
    }

    /// Proves an already-generated verification condition and maps the
    /// proof outcome to a [`Verdict`].
    ///
    /// Builds a one-shot scope context: the same code path as the
    /// engine's pooled contexts, so outcomes and statistics agree exactly
    /// with a checked batch.
    pub fn verdict_for_vc(&self, vc: &Vc) -> Verdict {
        let slice = self.background_slice(vc);
        let mut ctx = self.context_for_slice(vc, &slice);
        self.verdict_for_vc_in(&mut ctx, vc, slice.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_syntax::parse_program;

    #[test]
    fn ill_formed_program_is_an_error() {
        assert!(Checker::new(
            &parse_program("impl nope() { skip }").unwrap(),
            CheckOptions::default()
        )
        .is_err());
    }
}
