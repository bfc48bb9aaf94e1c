//! The pattern-policy gate: every background axiom carries a *declared*
//! activation policy.
//!
//! Heuristic trigger inference (`oolong_prover::infer_triggers`) is a
//! fallback for user-level quantifiers only. The background predicates are
//! ours — we know exactly which terms each axiom should fire on and when —
//! so every quantified background axiom must declare its PATS/MPAT
//! patterns and scheduling phase through `background::declare`, the single
//! constructor that keeps the formula's trigger list and the scheduler's
//! policy in sync. Two layers enforce this:
//!
//! 1. A **source scan** of `crates/core/src/background.rs`: the only
//!    permitted `Formula::forall` call site is inside `fn declare` itself.
//!    A new axiom written with a raw `Formula::forall` fails this test
//!    with the offending line number, before any behavioural symptom.
//!    The same scan pins the file to one public generator,
//!    `background::axioms`, which the checker calls once.
//! 2. A **runtime sweep** of every corpus program (both checker modes,
//!    both language levels reachable from the corpus): each background
//!    axiom's policy either declares at least one pattern, or the axiom is
//!    ground — a quantifier-free fact with nothing to match. No quantified
//!    axiom may reach the prover pattern-less, where it would silently
//!    fall back to heuristic inference (or worse, to unguided saturation).

use oolong::corpus;
use oolong::datagroups::{CheckOptions, Checker};
use oolong::logic::Formula;
use oolong::syntax::parse_program;

/// Whether a quantifier occurs anywhere in the formula.
fn has_quantifier(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => false,
        Formula::Not(inner) => has_quantifier(inner),
        Formula::And(parts) | Formula::Or(parts) => parts.iter().any(has_quantifier),
        Formula::Implies(a, b) | Formula::Iff(a, b) => has_quantifier(a) || has_quantifier(b),
        Formula::Labeled(_, inner) => has_quantifier(inner),
        Formula::Forall(..) | Formula::Exists(..) => true,
    }
}

#[test]
fn background_quantifiers_are_built_only_through_declare() {
    let source = include_str!("../crates/core/src/background.rs");

    // Locate the span of `fn declare`: from its signature to the next
    // top-level (column-zero) item.
    let decl_start = source
        .lines()
        .position(|l| l.starts_with("fn declare("))
        .expect("background.rs defines `fn declare` — the gate scans for it by name");
    let decl_end = decl_start
        + 1
        + source
            .lines()
            .skip(decl_start + 1)
            .position(|l| {
                !l.is_empty() && !l.starts_with(' ') && !l.starts_with('}') && !l.starts_with("//")
            })
            .unwrap_or(0);

    let mut offenders = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if !line.contains("Formula::forall") && !line.contains("Formula::Forall") {
            continue;
        }
        if i > decl_start && i < decl_end {
            continue; // the one sanctioned constructor call
        }
        offenders.push(format!(
            "  crates/core/src/background.rs:{}: {}",
            i + 1,
            line.trim()
        ));
    }
    assert!(
        offenders.is_empty(),
        "background axioms must declare their patterns through `declare`, \
         never a raw quantifier constructor:\n{}",
        offenders.join("\n")
    );

    // And the fallback stays out of the background entirely.
    let inference: Vec<String> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("infer_triggers"))
        .map(|(i, l)| format!("  crates/core/src/background.rs:{}: {}", i + 1, l.trim()))
        .collect();
    assert!(
        inference.is_empty(),
        "heuristic trigger inference is user-level only; the background \
         must declare:\n{}",
        inference.join("\n")
    );
}

#[test]
fn background_has_one_public_generator() {
    // The checker builds the background once, through this one function;
    // a second public builder would let a caller regenerate it per VC.
    let source = include_str!("../crates/core/src/background.rs");
    let public: Vec<&str> = source
        .lines()
        .filter_map(|l| l.strip_prefix("pub fn "))
        .filter_map(|l| l.split(['(', '<']).next())
        .collect();
    assert_eq!(
        public,
        ["axioms"],
        "background.rs must expose exactly one generator"
    );
}

#[test]
fn every_background_axiom_declares_a_policy() {
    for p in corpus::all() {
        for naive in [false, true] {
            let program = parse_program(p.source).expect("corpus program parses");
            let options = CheckOptions {
                naive,
                ..CheckOptions::default()
            };
            let checker = Checker::new(&program, options).expect("corpus program analyses");
            for axiom in checker.background() {
                if axiom.policy.is_declared() {
                    continue;
                }
                assert!(
                    !has_quantifier(&axiom.formula),
                    "{} (naive={naive}): background axiom `{}` is quantified \
                     but declares no PATS/MPAT patterns — it would fall back to \
                     heuristic trigger inference",
                    p.name,
                    axiom.name
                );
            }
        }
    }
}

#[test]
fn declared_triggers_are_the_formula_triggers() {
    // `declare` guarantees the policy's trigger list *is* the quantifier's
    // trigger list; this pins the invariant the scheduler relies on at the
    // API boundary, where a future refactor of `declare` would surface.
    for p in corpus::all() {
        let program = parse_program(p.source).expect("corpus program parses");
        let checker =
            Checker::new(&program, CheckOptions::default()).expect("corpus program analyses");
        for axiom in checker.background() {
            if let Formula::Forall(_, triggers, _) = &axiom.formula {
                assert_eq!(
                    triggers,
                    &axiom.policy.all_triggers(),
                    "{}: axiom `{}`: the prover's trigger list and the \
                     declared policy disagree",
                    p.name,
                    axiom.name
                );
            }
        }
    }
}
