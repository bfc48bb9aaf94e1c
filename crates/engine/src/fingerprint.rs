//! Content addresses for proof obligations.
//!
//! A proof obligation's verdict is a pure function of its verification
//! condition (the scope background it is proved against, its own `Init(m)`
//! hypotheses and its goal), the relevance slice and activation phases of
//! that background, and the prover [`Budget`] (a starved budget can turn
//! `Proved` into `Unknown`, so budgets are part of the obligation's
//! identity, not metadata). The [`Fingerprint`] is a stable 128-bit
//! structural hash over exactly those inputs plus a format version, and it
//! is the verdict store's key. The background enters as the digest the
//! checker computed once when it built it
//! ([`datagroups::Background::digest`]), so an obligation hashes its own
//! formulas and 16 bytes for the ~200 axioms of its scope.
//!
//! There is no dependency graph to maintain, and the fingerprint is
//! conservative rather than minimal: every VC embeds the *whole* scope
//! background, so any edit that changes that background — one unused
//! `group` declaration appended to a unit, say — gives every obligation of
//! the unit a new fingerprint, whether or not its proof could use the new
//! axioms (on a 200-procedure unit such an edit re-proves 182 of 200
//! obligations). Edits that leave the background alone (a body, or a
//! `modifies` clause) change the hypotheses or goal of just the
//! implementations that read them, so only those re-run. Computing a
//! fingerprint still costs a VC generation, so the engine first consults a
//! source-level cutoff key ([`crate::cutoff`]): when an implementation's
//! scope and body are unchanged, the fingerprint it produced last time is
//! reused without generating the VC. The fingerprint stays the only
//! cache key; the cutoff key only decides whether it must be recomputed.

use datagroups::Vc;
use oolong_logic::{Phase, StableHasher};
use oolong_prover::Budget;
use std::fmt;
use std::hash::Hash;
use std::str::FromStr;

/// Version of the fingerprint recipe. Bump on any change to the hash
/// inputs or the stable-hash algorithm: a bump invalidates every existing
/// cache entry, which is exactly the safe behaviour.
///
/// Version 2: terms and symbols are hash-consed; their `Hash` impls now
/// write precomputed content digests (FNV-1a of the name for symbols, a
/// 128-bit structural digest for terms) instead of hashing the old
/// string-tree representation field by field. The digests are
/// process-stable but differ from the v1 byte streams, so every v1
/// fingerprint is invalid.
///
/// Version 3: the axiom-relevance slice (which background hypotheses the
/// checker keeps) joins the hash inputs. Slicing never changes an
/// outcome, but it does change the recorded statistics (`sliced_axioms`,
/// quantifier counts), and a v2 entry would replay pre-slicing telemetry
/// as if it were current; trigger-pattern annotations were already
/// covered, since declared triggers are part of each hypothesis formula's
/// structural hash. Old entries migrate by miss: the bump makes every v2
/// fingerprint unreachable, and the store simply re-proves and re-caches.
///
/// Version 4: the activation-phase mask (which kept background axioms are
/// goal-directed vs eager, from the declared [`PatternPolicy`] layer)
/// joins the hash inputs. Phase gating never changes an outcome, but it
/// moves instantiations between pre-saturation and the obligation frame,
/// so a v3 entry would replay the goalless-saturation telemetry as if it
/// were current — and a change of schedule must re-prove, not hit. Same
/// migration by miss.
///
/// Version 5: the scope background gained the per-field
/// `local-inc-members` axiom (fields have no proper members — a
/// scope-monotone closed form, since `in` targets must be groups in
/// every extension). The axiom is part of each VC's hypothesis set, so
/// v4 entries were proved under a strictly weaker theory: a v4 verdict
/// is still sound, but its refutation search and telemetry no longer
/// match what this build would produce. Same migration by miss.
///
/// Version 6: obligations gained two new kinds (`invariant-preserved`
/// and `reads-violation`): declared object invariants add hypotheses and
/// exit/call-boundary conjuncts to every VC in their scope, declared
/// `reads` clauses add per-dereference licensing conjuncts, and scopes
/// with read frames gain the `read-frame-inc-reflexive` background
/// axiom. For programs using neither feature the VC bytes are unchanged,
/// but a v5 entry could carry a cached diagnosis whose obligation-kind
/// vocabulary this build extends — and label ids are position-sensitive
/// (exit obligations now allocate first), so v5 refutation attributions
/// must not be replayed as current. Same migration by miss.
///
/// Version 7: pivot uniqueness (6) and its elem-pivot and slot analogues
/// are encoded through a partial inverse of the store (`uniq.val`,
/// `uniq.own`, `uniq.fld`) plus the new `unique-value-owner` axiom,
/// instead of multi-patterns over pairs of reads. The two axiom sets are
/// equivalent, so no verdict moves, but every VC with alias restrictions
/// asserts different hypotheses and the prover's search and telemetry
/// differ: a v6 entry would replay counters this build no longer
/// produces. Same migration by miss.
///
/// Version 8: the scope background is hashed as its digest (every
/// axiom's name, formula, declared patterns and phase, in order, hashed
/// once per checker) instead of formula by formula inside each VC's
/// hypothesis list, followed by the VC's own `Init(m)` hypotheses. The
/// inputs cover what v7 covered and more (axiom names and pattern
/// policies), but the byte stream differs, so every v7 fingerprint is
/// unreachable. Same migration by miss.
///
/// Version 9: a scope context saturates its goal-directed axioms into
/// the pooled base (a second saturation stage) instead of inside every
/// proof, each base stage and each proof counts instances in its own
/// `max_instances` window, and refuting branches export generated names
/// numbered by first appearance. The VC bytes are unchanged, but cached
/// stats move (goal-directed instances over background terms are now
/// reported as presat) and some starved verdicts are now decided, so a
/// v8 entry would replay an outcome this build no longer produces. Same
/// migration by miss.
///
/// [`PatternPolicy`]: oolong_logic::PatternPolicy
pub const FINGERPRINT_VERSION: u32 = 9;

/// The content address of one proof obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for Fingerprint {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Fingerprint, Self::Err> {
        u128::from_str_radix(s, 16).map(Fingerprint)
    }
}

/// The fingerprint of the obligation "prove `vc` under `budget`, keeping
/// the background axioms `keep` selects (the checker's relevance slice)
/// and scheduling the kept axioms by `phases` (the declared activation
/// phases, index-aligned with the *kept* axioms)".
pub fn fingerprint_vc(vc: &Vc, budget: &Budget, keep: &[bool], phases: &[Phase]) -> Fingerprint {
    let mut hasher = StableHasher::new();
    FINGERPRINT_VERSION.hash(&mut hasher);
    vc.hypotheses.background().digest().hash(&mut hasher);
    // The background/Init split is part of the content: the same formula
    // multiset partitioned differently is a different provenance.
    vc.background_hyps.hash(&mut hasher);
    vc.hypotheses.init().hash(&mut hasher);
    vc.goal.hash(&mut hasher);
    budget.hash(&mut hasher);
    keep.hash(&mut hasher);
    // Hash the phase mask as booleans: bools write one byte each, so the
    // stream stays process-stable regardless of how the enum's derived
    // `Hash` encodes its discriminant.
    let mask: Vec<bool> = phases.iter().map(|&p| p == Phase::GoalDirected).collect();
    mask.hash(&mut hasher);
    Fingerprint(hasher.finish128())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagroups::{CheckOptions, Checker};
    use oolong_syntax::parse_program;

    fn vcs_for(src: &str) -> Vec<Vc> {
        let checker = Checker::new(
            &parse_program(src).expect("parses"),
            CheckOptions::default(),
        )
        .expect("analyses");
        checker
            .scope()
            .impls()
            .map(|(id, _)| checker.vc(id).expect("vc generates"))
            .collect()
    }

    const BASE: &str = "group value
         field num in value
         proc bump(r) modifies r.value
         impl bump(r) { r.num := 3 }";

    /// Fingerprint with the trivial (all-kept) slice and every axiom
    /// scheduled `Eager`.
    fn fp(vc: &Vc, budget: &Budget) -> Fingerprint {
        fingerprint_vc(
            vc,
            budget,
            &vec![true; vc.background_hyps],
            &vec![Phase::Eager; vc.background_hyps],
        )
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = vcs_for(BASE);
        let b = vcs_for(BASE);
        assert_eq!(fp(&a[0], &Budget::default()), fp(&b[0], &Budget::default()));
    }

    #[test]
    fn budget_is_part_of_the_obligation() {
        let vcs = vcs_for(BASE);
        assert_ne!(
            fp(&vcs[0], &Budget::default()),
            fp(&vcs[0], &Budget::tiny())
        );
    }

    #[test]
    fn slice_is_part_of_the_obligation() {
        // The same VC under a different relevance slice is a different
        // content address: slicing changes the recorded statistics, so a
        // cached entry must not be served across slice changes.
        let vcs = vcs_for(BASE);
        let mut sliced = vec![true; vcs[0].background_hyps];
        sliced[0] = false;
        assert_ne!(
            fp(&vcs[0], &Budget::default()),
            fingerprint_vc(
                &vcs[0],
                &Budget::default(),
                &sliced,
                &vec![Phase::Eager; vcs[0].background_hyps],
            )
        );
    }

    #[test]
    fn phase_mask_is_part_of_the_obligation() {
        // The same VC under a different activation schedule is a different
        // content address: gating moves instantiations between presat and
        // goal, so a cached entry must not be served across schedule
        // changes.
        let vcs = vcs_for(BASE);
        let keep = vec![true; vcs[0].background_hyps];
        let mut phases = vec![Phase::Eager; vcs[0].background_hyps];
        phases[0] = Phase::GoalDirected;
        assert_ne!(
            fp(&vcs[0], &Budget::default()),
            fingerprint_vc(&vcs[0], &Budget::default(), &keep, &phases)
        );
    }

    #[test]
    fn obligation_edit_changes_the_fingerprint() {
        let before = vcs_for(BASE);
        // A second write extends the wlp chain: a different obligation.
        let after = vcs_for(&BASE.replace("r.num := 3", "r.num := 3 ; r.num := 3"));
        assert_ne!(
            fp(&before[0], &Budget::default()),
            fp(&after[0], &Budget::default())
        );
    }

    #[test]
    fn value_only_edit_keeps_the_fingerprint() {
        // The modifies obligation for `r.num := v` does not mention `v`:
        // editing only the stored value is a cache hit, by design.
        let before = vcs_for(BASE);
        let after = vcs_for(&BASE.replace("r.num := 3", "r.num := 4"));
        assert_eq!(
            fp(&before[0], &Budget::default()),
            fp(&after[0], &Budget::default())
        );
    }

    #[test]
    fn display_parses_back() {
        let vcs = vcs_for(BASE);
        let fingerprint = fp(&vcs[0], &Budget::default());
        assert_eq!(
            fingerprint
                .to_string()
                .parse::<Fingerprint>()
                .expect("parses"),
            fingerprint
        );
        assert_eq!(fingerprint.to_string().len(), 32);
    }

    #[test]
    fn fingerprint_bytes_are_stable_across_processes() {
        // Pinned hex: symbols hash by name digest and terms by structural
        // digest, so this value must never depend on interner state or
        // process layout. If this test fails because the recipe changed
        // on purpose, bump FINGERPRINT_VERSION and re-pin — silently
        // shifting bytes would orphan (or worse, mis-serve) disk caches.
        let vcs = vcs_for(BASE);
        let fingerprint = fp(&vcs[0], &Budget::default());
        assert_eq!(fingerprint.to_string(), PINNED_V9);
    }

    const PINNED_V9: &str = "430a7308dd35d42a0ea7086f2ba476db";
}
