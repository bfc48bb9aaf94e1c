//! Property tests for scope-shared prover contexts and axiom slicing.
//!
//! Two claims carry the whole scope-sharing design:
//!
//! 1. **Reuse is invisible.** A [`ScopeContext`] proves each obligation
//!    from private copies of the mutable search state and rolls the
//!    shared E-graph back afterwards, so proving an obligation in a
//!    context that already served *other* obligations must produce the
//!    bit-identical verdict and statistics of a freshly built context —
//!    and must leave the shared E-graph's canonical rendering untouched.
//! 2. **Slicing is lazy, not lossy.** The vocabulary-closure slicer may
//!    only drop axioms whose triggers cannot possibly match; any axiom
//!    whose quantifiers produced even one match in a *full*-background
//!    run must be kept by the slicer for that same obligation.
//!
//! Both are checked against randomly generated programs (including
//! seeded-violation populations, so refutation search paths are
//! exercised too), with obligations proven in randomized interleavings.

use std::collections::HashSet;

use oolong::corpus::{generate_seeded_violation_source, generate_source, GenConfig};
use oolong::datagroups::{BackgroundSlice, CheckOptions, Checker, Verdict};
use oolong::prover::Budget;
use oolong::syntax::parse_program;
use proptest::prelude::*;

/// A budget small enough for property-test volume but roomy enough that
/// generated obligations regularly close (so the Proved path dominates,
/// not just budget exhaustion).
fn property_budget() -> Budget {
    Budget {
        max_instances: 400,
        max_branches: 400,
        max_rounds: 40,
        ..Budget::tiny()
    }
}

/// Proves every obligation of `source` twice — once through one shared
/// context serving the whole scope (in an order chosen by `rotate`), once
/// through a fresh context per obligation — and asserts the results are
/// bit-identical and the shared E-graph is byte-clean after every proof.
fn assert_reuse_is_invisible(source: &str, rotate: usize) -> Result<(), TestCaseError> {
    let program = parse_program(source).expect("generated source parses");
    let options = CheckOptions {
        budget: property_budget(),
        ..CheckOptions::default()
    };
    let checker = Checker::new(&program, options).expect("generated source analyses");
    let impls: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
    let mut vcs: Vec<_> = impls.iter().filter_map(|&id| checker.vc(id).ok()).collect();
    if vcs.is_empty() {
        return Ok(());
    }
    let pivot = rotate % vcs.len();
    vcs.rotate_left(pivot);

    // Full background: all obligations of the scope then share one
    // context, which is the configuration the engine reuses hardest.
    let full = BackgroundSlice {
        keep: vec![true; vcs[0].background_hyps],
    };
    let mut shared = checker.context_for_slice(&vcs[0], &full);
    let clean = shared.debug_state();
    for vc in &vcs {
        // By the second iteration the shared context has already served
        // unrelated obligations.
        let reused = checker.verdict_for_vc_in(&mut shared, vc, 0);
        prop_assert_eq!(
            shared.debug_state(),
            clean.clone(),
            "proving `{}` dirtied the shared E-graph",
            vc.proc_name
        );
        let fresh = checker.verdict_for_vc_in(&mut checker.context_for_slice(vc, &full), vc, 0);
        prop_assert_eq!(
            reused.label(),
            fresh.label(),
            "`{}`: reused context changed the verdict",
            vc.proc_name
        );
        prop_assert_eq!(
            reused.stats().cloned(),
            fresh.stats().cloned(),
            "`{}`: reused context changed the statistics",
            vc.proc_name
        );
        if let (Verdict::NotVerified(_, a), Verdict::NotVerified(_, b)) = (&reused, &fresh) {
            prop_assert_eq!(&a.labels, &b.labels, "`{}`: refuted labels", vc.proc_name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reuse invisibility over plain generated programs.
    #[test]
    fn shared_context_reuse_is_invisible(seed in 0u64..500, rotate in 0usize..8) {
        let source = generate_source(seed, &GenConfig::default());
        assert_reuse_is_invisible(&source, rotate)?;
    }

    /// Reuse invisibility where refutation search actually runs: seeded
    /// violations make the prover close the negated obligation and
    /// extract a counterexample, the deepest rollback path a shared
    /// context has to survive.
    #[test]
    fn shared_context_reuse_survives_refutations(seed in 0u64..300, rotate in 0usize..8) {
        let v = generate_seeded_violation_source(seed);
        assert_reuse_is_invisible(&v.source, rotate)?;
    }

    /// Any background axiom whose quantifiers matched even once in a
    /// full-background run is kept by the slicer for that obligation:
    /// slicing only ever removes axioms the matcher would never touch.
    /// Cross-checked through the per-quantifier profile ids, which
    /// [`ScopeContext::background_quants`] maps back to axiom indices.
    #[test]
    fn slicing_never_drops_an_axiom_that_fired(seed in 0u64..500) {
        let source = generate_source(seed, &GenConfig::default());
        let program = parse_program(&source).expect("generated source parses");
        let options = CheckOptions {
            budget: property_budget(),
            ..CheckOptions::default()
        };
        let checker = Checker::new(&program, options).expect("generated source analyses");
        let impls: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
        for id in impls {
            let Ok(vc) = checker.vc(id) else { continue };
            let keep = checker.background_slice(&vc).keep;
            // Full-background run of the same obligation.
            let full = BackgroundSlice {
                keep: vec![true; vc.background_hyps],
            };
            let mut ctx = checker.context_for_slice(&vc, &full);
            let verdict = checker.verdict_for_vc_in(&mut ctx, &vc, 0);
            let Some(stats) = verdict.stats() else { continue };
            let fired: HashSet<usize> = stats
                .per_quant
                .iter()
                .filter(|q| q.matches > 0)
                .map(|q| q.id)
                .collect();
            for (axiom, &kept) in keep.iter().enumerate() {
                if kept {
                    continue;
                }
                for qid in ctx.background_quants(axiom) {
                    prop_assert!(
                        !fired.contains(qid),
                        "`{}`: slicer dropped background axiom {axiom} but its \
                         quantifier q{qid} matched in the full run",
                        vc.proc_name
                    );
                }
            }
        }
    }
}
