//! Diagnosis accuracy: every rejection over the paper corpus and the
//! seeded-violation population must yield a [`Diagnosis`] that names the
//! ground-truth location and clause kind, with the interpreter replay
//! *confirming* the violation (never demoting it to spurious). A second
//! family of tests checks label transparency: wrapping obligations in
//! position labels must not change any prover outcome or statistic.

use oolong::corpus::{self, SeededBug};
use oolong::datagroups::{CheckOptions, Checker, Hypotheses, Vc, Verdict};
use oolong::diagnose::Replay;
use oolong::engine::{Engine, EngineOptions, ObligationReport};
use oolong::syntax::parse_program;
use std::sync::Arc;

/// Checks `source` through an engine with diagnosis on, exactly as
/// `oolong check --explain` and the serve `explain` command do: every
/// rejected obligation carries the diagnosis those tools ship.
fn check_diagnosed(source: &str) -> Vec<ObligationReport> {
    let engine = Engine::new(EngineOptions {
        diagnose: true,
        ..EngineOptions::default()
    })
    .expect("in-memory engine");
    let report = engine.check_source("test", source);
    assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
    report.obligations
}

fn checker_for(source: &str) -> Checker {
    let program = parse_program(source).expect("parses");
    Checker::new(&program, CheckOptions::default()).expect("analyzes")
}

/// Every rejection in the paper corpus diagnoses to a confirmed,
/// source-located violation — and the corpus does contain rejections.
#[test]
fn paper_corpus_rejections_diagnose_confirmed() {
    let mut rejections = 0;
    for p in corpus::all() {
        for rep in &check_diagnosed(p.source) {
            if !matches!(
                rep.verdict,
                Verdict::NotVerified(..) | Verdict::RestrictionViolation(_)
            ) {
                continue;
            }
            rejections += 1;
            let d = rep.diagnosis.as_ref().unwrap_or_else(|| {
                panic!(
                    "{}/{}: rejection without a diagnosis",
                    p.name, rep.proc_name
                )
            });
            assert!(
                matches!(d.replay, Replay::Confirmed { .. }),
                "{}/{}: replay did not confirm: {:?}",
                p.name,
                rep.proc_name,
                d.replay
            );
            assert!(
                !p.source[d.span.start as usize..d.span.end as usize].is_empty(),
                "{}/{}: diagnosis points at an empty span",
                p.name,
                rep.proc_name
            );
        }
    }
    assert!(
        rejections > 0,
        "the paper corpus must contain at least one rejected implementation"
    );
}

/// The §3.1 bad caller is the paper's own counterexample: pin down its
/// diagnosis precisely (owner-exclusion at the `w(st, st.vec)` call).
#[test]
fn section31_bad_call_diagnosis_names_the_call() {
    let p = corpus::by_name("section31_bad_call").expect("corpus program exists");
    let report = check_diagnosed(p.source);
    let rep = report
        .iter()
        .find(|r| matches!(r.verdict, Verdict::NotVerified(..)))
        .expect("bad_caller is refuted");
    let d = rep.diagnosis.as_ref().expect("diagnosis");
    assert_eq!(d.kind.as_str(), "owner-exclusion");
    let snippet = &p.source[d.span.start as usize..d.span.end as usize];
    assert!(
        snippet.contains("w(st"),
        "diagnosis should blame the call, got {snippet:?}"
    );
    assert!(matches!(d.replay, Replay::Confirmed { .. }));
}

/// Generated names in a diagnosis are numbered by first appearance in the
/// refuting branch, not by how many fresh names the background drew: an
/// unused group adds background axioms (and shifts every raw skolem
/// number) but leaves the touched chain and the open-branch sketch as
/// they were, apart from the sketch's one fact about the new group itself.
#[test]
fn an_unrelated_background_change_keeps_the_diagnosis_text() {
    let p = corpus::by_name("section31_bad_call").expect("corpus program exists");
    let refuted = |source: &str| {
        check_diagnosed(source)
            .into_iter()
            .find(|r| matches!(r.verdict, Verdict::NotVerified(..)))
            .expect("bad_caller is refuted")
    };
    let original = refuted(p.source);
    let extended = refuted(&format!("{}\ngroup unused_extra", p.source));
    let touched = |r: &ObligationReport| r.diagnosis.as_ref().expect("diagnosis").touched.clone();
    assert!(!touched(&original).is_empty());
    assert_eq!(touched(&extended), touched(&original));
    let sketch = original.verdict.open_branch().expect("sketch");
    assert!(sketch.iter().any(|line| line.contains("sk_")), "{sketch:?}");
    let (about_group, rest): (Vec<&String>, Vec<&String>) = extended
        .verdict
        .open_branch()
        .expect("sketch")
        .iter()
        .partition(|line| line.contains("#unused_extra"));
    assert_eq!(
        about_group,
        ["PLocalInc(#unused_extra, #unused_extra) = true"]
    );
    assert_eq!(rest, sketch.iter().collect::<Vec<_>>());
}

/// Seeded-violation population: the diagnosis must name the ground-truth
/// span (exactly for modifies bugs and the invariant declaration, within
/// the injected command for the pivot copy and the uncovered read, whose
/// diagnostics anchor on the offending subexpression) and the expected
/// clause kind, and the replay must confirm.
#[test]
fn seeded_violations_diagnose_to_ground_truth() {
    for seed in 0..15u64 {
        let v = corpus::generate_seeded_violation_source(seed);
        let report = check_diagnosed(&v.source);
        let rep = report
            .iter()
            .find(|r| r.proc_name == v.proc_name)
            .expect("seeded impl present");
        assert!(
            matches!(
                rep.verdict,
                Verdict::NotVerified(..) | Verdict::RestrictionViolation(_)
            ),
            "seed {seed}: seeded bug {:?} not rejected: {}",
            v.bug,
            rep.verdict
        );
        let d = rep
            .diagnosis
            .as_ref()
            .unwrap_or_else(|| panic!("seed {seed}: no diagnosis for {:?}", v.bug));
        assert_eq!(
            d.kind.as_str(),
            v.bug.expected_kind(),
            "seed {seed}: wrong clause kind for {:?}",
            v.bug
        );
        match v.bug {
            SeededBug::ForgottenIn
            | SeededBug::MissingClosureMember
            | SeededBug::BrokenInvariant => assert_eq!(
                (d.span.start, d.span.end),
                (v.start, v.end),
                "seed {seed}: {:?} blamed {:?}, seeded {:?}",
                v.bug,
                &v.source[d.span.start as usize..d.span.end as usize],
                v.snippet()
            ),
            SeededBug::StrayPivotWrite => assert!(
                d.span.start >= v.start && d.span.end <= v.end,
                "seed {seed}: pivot diagnosis at {}..{} outside seeded {}..{}",
                d.span.start,
                d.span.end,
                v.start,
                v.end
            ),
            SeededBug::UncoveredRead => {
                assert!(
                    d.span.start >= v.start && d.span.end <= v.end,
                    "seed {seed}: read diagnosis at {}..{} outside \
                     seeded {}..{}",
                    d.span.start,
                    d.span.end,
                    v.start,
                    v.end
                );
                assert_eq!(
                    &v.source[d.span.start as usize..d.span.end as usize],
                    "t.b",
                    "seed {seed}: read diagnosis off the dereference"
                );
            }
        }
        assert!(
            matches!(d.replay, Replay::Confirmed { .. }),
            "seed {seed}: {:?} demoted to {:?}",
            v.bug,
            d.replay
        );
    }
}

/// Strips every position label out of a VC, leaving the logical content.
fn strip_vc(vc: &Vc) -> Vc {
    Vc {
        impl_id: vc.impl_id,
        proc_name: vc.proc_name.clone(),
        hypotheses: Hypotheses::new(
            Arc::clone(vc.hypotheses.background()),
            vc.hypotheses
                .init()
                .iter()
                .map(|h| h.strip_labels())
                .collect(),
        ),
        background_hyps: vc.background_hyps,
        goal: vc.goal.strip_labels(),
        labels: Vec::new(),
    }
}

/// Labels are logically transparent: proving a labelled VC and its
/// stripped twin yields the same outcome *and* the same prover statistics
/// (instantiations, branches) — label bookkeeping must not steer search.
fn assert_labels_transparent(name: &str, source: &str) {
    let checker = checker_for(source);
    let ids: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
    for impl_id in ids {
        let Ok(vc) = checker.vc(impl_id) else {
            continue;
        };
        let labelled = checker.verdict_for_vc(&vc);
        let stripped = checker.verdict_for_vc(&strip_vc(&vc));
        assert_eq!(
            std::mem::discriminant(&labelled),
            std::mem::discriminant(&stripped),
            "{name}: labelled {labelled} vs stripped {stripped}"
        );
        assert_eq!(
            labelled.stats(),
            stripped.stats(),
            "{name}: label bookkeeping changed prover statistics"
        );
    }
}

#[test]
fn labels_never_change_outcomes_on_corpus() {
    for p in corpus::all() {
        assert_labels_transparent(p.name, p.source);
    }
}

#[test]
fn labels_never_change_outcomes_on_generated_programs() {
    let cfg = corpus::GenConfig::default();
    for seed in 0..10 {
        let source = corpus::generate_source(seed, &cfg);
        assert_labels_transparent(&format!("generated-{seed}"), &source);
    }
    for seed in 0..15 {
        let v = corpus::generate_seeded_violation_source(seed);
        assert_labels_transparent(&format!("seeded-{seed}"), &v.source);
    }
    for seed in 0..6 {
        let source = corpus::generate_invariant_source(seed);
        assert_labels_transparent(&format!("invariant-{seed}"), &source);
        let source = corpus::generate_read_effect_source(seed);
        assert_labels_transparent(&format!("reads-{seed}"), &source);
    }
}

/// The invariant and read-effect populations are *correct*: every
/// implementation verifies — the invariant-preserved and read-license
/// obligations they carry are all dischargeable.
#[test]
fn invariant_and_read_effect_populations_verify() {
    for seed in 0..8u64 {
        for (family, source) in [
            ("invariant", corpus::generate_invariant_source(seed)),
            ("reads", corpus::generate_read_effect_source(seed)),
        ] {
            for rep in &check_diagnosed(&source) {
                assert!(
                    matches!(rep.verdict, Verdict::Verified(_)),
                    "{family} seed {seed}: `{}` did not verify: {}\n{source}",
                    rep.proc_name,
                    rep.verdict
                );
            }
        }
    }
}
