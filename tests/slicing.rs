//! Slicing-soundness regression corpus.
//!
//! The axiom-relevance slicer (`datagroups::slice`) claims that dropping
//! a background axiom whose triggers cannot reach the obligation's
//! vocabulary can never change a verdict. This suite pins the converse
//! risk — what happens if the slicer ever *wrongly* drops an axiom — to
//! concrete programs:
//!
//! * For every background-axiom family with a corpus witness, dropping
//!   that axiom from a verified obligation flips its verdict
//!   ([`WITNESSES`]). Each entry is a regression tripwire: if a future
//!   slicer change starts dropping the named axiom for that obligation,
//!   the obligation stops verifying and the golden ledger lights up —
//!   but this test names the culprit axiom directly.
//! * Families with no flippable witness are covered by the weaker but
//!   universal invariant: any axiom whose quantifiers matched in a
//!   full-background run is kept by the slicer, and axioms the slicer's
//!   structural gate cannot analyze (ground facts, untriggered or
//!   compound formulas) are always kept. Load-bearing axioms that never
//!   E-match (their ground parts do the work) fall in this class, which
//!   is exactly why the slicer only ever considers pure triggered
//!   universals.
//!
//! Axiom names come from [`Checker::background`], which is
//! index-aligned with the leading `background_hyps` entries of
//! `Vc::hypotheses`.

use std::collections::{BTreeSet, HashSet};

use oolong::corpus::{self, generate_unannotated_source, UnannotatedConfig};
use oolong::datagroups::{is_sliceable, slice_background, BackgroundSlice, CheckOptions, Checker};
use oolong::logic::Formula;
use oolong::prover::Budget;
use oolong::syntax::parse_program;

/// One verdict-flip witness per background-axiom family that has one in
/// the paper corpus: `(program, naive mode, procedure, axiom name)`.
/// Dropping the named axiom from the named obligation's background makes
/// it stop verifying.
const WITNESSES: &[(&str, bool, &str, &str)] = &[
    ("stack_module", false, "sinit", "select-update-same"),
    ("example3", false, "updateAll", "select-update-other"),
    ("section30_q", false, "q", "new-unallocated"),
    ("section30_q", false, "q", "succ-alive-iff"),
    ("section30_q", false, "q", "succ-preserves-select"),
    ("section30_q", false, "q", "null-is-alive"),
    ("section30_q", false, "q", "reads-are-alive-or-null"),
    ("section30_q", false, "q", "inclusion-connection"),
    ("array_table", false, "touch_direct", "comparisons-are-ints"),
    ("section30_q", false, "q", "pivot-uniqueness"),
    ("section30_q", false, "q", "unique-value-owner"),
    ("section30_q", false, "q", "owner-acyclicity"),
    ("section30_q", false, "q", "pivot-values-are-objects"),
    ("array_table", false, "observer", "slot-values-are-objects"),
    (
        "array_table",
        false,
        "observer",
        "elem-pivot-values-are-objects",
    ),
    ("section30_q", false, "q", "local-inc-enum:cnt"),
    ("section30_q", false, "q", "rep-range:obj"),
    ("example3", false, "updateAll", "rep:g-next>g"),
    (
        "array_table",
        false,
        "touch_direct",
        "rep-elem:state-buckets>bucketstate",
    ),
    ("section30_q", true, "q", "closed-world-rep"),
];

/// Families present in the corpus background that neither flip a verdict
/// nor E-match anywhere in it: their kept-ness is guarded by the
/// structural always-keep rule checked in
/// [`unsliceable_axioms_are_always_kept`]. `local-inc-refl` (ground
/// reflexivity facts) joined the list when goal-directed scheduling made
/// every corpus proof complete within budget from the `local-inc-reflexive`
/// universal alone — the ground facts are now pure accelerators, and
/// ground facts are unsliceable by construction.
const INERT_FAMILIES: &[&str] = &["local-inc", "local-inc-refl", "owner-acyclicity-element"];

fn witness_budget() -> Budget {
    Budget {
        max_instances: 8_000,
        max_branches: 8_000,
        max_rounds: 400,
        ..Budget::default()
    }
}

fn checker_for(source: &str, naive: bool) -> Checker {
    let program = parse_program(source).expect("corpus program parses");
    let options = CheckOptions {
        budget: witness_budget(),
        naive,
        ..CheckOptions::default()
    };
    // `Checker::new` borrows the program only to analyze it.
    Checker::new(&program, options).expect("corpus program analyses")
}

fn family(name: &str) -> &str {
    name.split(':').next().unwrap()
}

#[test]
fn dropping_a_needed_axiom_flips_the_verdict() {
    for &(prog, naive, proc, axiom) in WITNESSES {
        let p = corpus::by_name(prog).unwrap_or_else(|| panic!("unknown corpus program {prog}"));
        let checker = checker_for(p.source, naive);
        let idx = checker
            .background()
            .iter()
            .position(|a| a.name == axiom)
            .unwrap_or_else(|| panic!("{prog}: no background axiom named `{axiom}`"));
        let impl_id = checker
            .scope()
            .impls()
            .map(|(id, _)| id)
            .find(|&id| {
                checker
                    .vc(id)
                    .map(|vc| vc.proc_name == proc)
                    .unwrap_or(false)
            })
            .unwrap_or_else(|| panic!("{prog}: no implementation of `{proc}`"));
        let vc = checker.vc(impl_id).expect("witness VC generates");

        // The obligation verifies with its (sliced) background…
        let baseline = checker.verdict_for_vc(&vc);
        assert_eq!(
            baseline.label(),
            "verified",
            "{prog}/{proc}: witness baseline no longer verifies"
        );
        // …the slicer keeps the axiom under test…
        let slice = checker.background_slice(&vc);
        assert!(
            slice.keep[idx],
            "{prog}/{proc}: slicer dropped `{axiom}`, which the proof needs"
        );
        // …and wrongly dropping it flips the verdict.
        let mut keep = vec![true; vc.background_hyps];
        keep[idx] = false;
        let mut ctx = checker.context_for_slice(&vc, &BackgroundSlice { keep });
        let dropped = checker.verdict_for_vc_in(&mut ctx, &vc, 1);
        assert_ne!(
            dropped.label(),
            "verified",
            "{prog}/{proc}: dropping `{axiom}` no longer flips the verdict — \
             the witness is stale, find a new one"
        );
    }
}

#[test]
fn fired_axioms_are_kept_across_the_corpus() {
    let mut fired_families: BTreeSet<String> = BTreeSet::new();
    let mut all_families: BTreeSet<String> = BTreeSet::new();
    for p in corpus::all() {
        for naive in [false, true] {
            let checker = checker_for(p.source, naive);
            let background = checker.background();
            for a in background {
                all_families.insert(family(&a.name).to_string());
            }
            let impls: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
            for id in impls {
                let Ok(vc) = checker.vc(id) else { continue };
                let keep = checker.background_slice(&vc).keep;
                let full = BackgroundSlice {
                    keep: vec![true; vc.background_hyps],
                };
                let mut ctx = checker.context_for_slice(&vc, &full);
                let verdict = checker.verdict_for_vc_in(&mut ctx, &vc, 0);
                let Some(stats) = verdict.stats() else {
                    continue;
                };
                let fired: HashSet<usize> = stats
                    .per_quant
                    .iter()
                    .filter(|q| q.matches > 0)
                    .map(|q| q.id)
                    .collect();
                for (axiom, &kept) in keep.iter().enumerate() {
                    if ctx
                        .background_quants(axiom)
                        .iter()
                        .any(|q| fired.contains(q))
                    {
                        fired_families.insert(family(&background[axiom].name).to_string());
                        assert!(
                            kept,
                            "{} ({}): slicer dropped `{}` but it matched in the full run",
                            p.name, vc.proc_name, background[axiom].name
                        );
                    }
                }
            }
        }
    }
    // Every family in the corpus background is pinned by one of the two
    // mechanisms: a verdict-flip witness, a fired-and-kept observation,
    // or (for the known inert ones) the structural always-keep rule.
    let witnessed: BTreeSet<&str> = WITNESSES.iter().map(|&(_, _, _, a)| family(a)).collect();
    for fam in &all_families {
        assert!(
            witnessed.contains(fam.as_str())
                || fired_families.contains(fam)
                || INERT_FAMILIES.contains(&fam.as_str()),
            "background family `{fam}` has no slicing regression coverage: \
             add a flip witness or record why it cannot fire"
        );
    }
    // And the inert list stays honest: the families it exempts exist.
    for fam in INERT_FAMILIES {
        assert!(
            all_families.contains(*fam),
            "inert family `{fam}` no longer appears in any corpus background"
        );
    }
}

#[test]
fn unsliceable_axioms_are_always_kept() {
    for p in corpus::all() {
        for naive in [false, true] {
            let checker = checker_for(p.source, naive);
            let background = checker.background();
            let impls: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
            for id in impls {
                let Ok(vc) = checker.vc(id) else { continue };
                let keep = checker.background_slice(&vc).keep;
                for (i, &kept) in keep.iter().enumerate() {
                    if !is_sliceable(&background[i].formula) {
                        assert!(
                            kept,
                            "{} ({}): unsliceable axiom `{}` was dropped",
                            p.name, vc.proc_name, background[i].name
                        );
                    }
                }
            }
        }
    }
}

/// A checker slices every VC against one set of token tables, built on its
/// first slice. Whichever VC comes first, and in whatever order the rest
/// follow, each keep mask must equal the mask of tables built fresh for
/// that VC alone: nothing of one VC's closure may leak into the next.
#[test]
fn shared_slice_tables_match_fresh_ones() {
    let mut units: Vec<(String, String)> = corpus::all()
        .iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    let config = UnannotatedConfig {
        groups: 4,
        fields: 10,
        procs: 24,
        keep_includes: true,
    };
    for seed in 1..=4 {
        let generated = generate_unannotated_source(seed, &config);
        units.push((generated.name, generated.annotated));
    }
    let mut checked = 0;
    for (name, source) in &units {
        let program = parse_program(source).expect("unit parses");
        for force_arrays_level in [false, true] {
            let options = CheckOptions {
                force_arrays_level,
                ..CheckOptions::default()
            };
            let mut masks_by_order = Vec::new();
            for reverse in [false, true] {
                let checker = Checker::new(&program, options.clone()).expect("unit analyses");
                let background: Vec<Formula> = checker
                    .background()
                    .iter()
                    .map(|a| a.formula.clone())
                    .collect();
                let mut impls: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
                if reverse {
                    impls.reverse();
                }
                let mut masks = Vec::new();
                for id in impls {
                    let Ok(vc) = checker.vc(id) else { continue };
                    let shared = checker.background_slice(&vc).keep;
                    let seeds = vc.hypotheses.init().iter().chain([&vc.goal]);
                    let fresh = slice_background(&background, seeds).keep;
                    assert_eq!(
                        shared, fresh,
                        "{name} ({}, arrays level {force_arrays_level}, reverse {reverse}): \
                         the shared tables' mask differs from fresh tables'",
                        vc.proc_name
                    );
                    masks.push((vc.proc_name.clone(), shared));
                    checked += 1;
                }
                masks.sort();
                masks_by_order.push(masks);
            }
            assert_eq!(
                masks_by_order[0], masks_by_order[1],
                "{name} (arrays level {force_arrays_level}): masks depend on VC order"
            );
        }
    }
    assert!(checked > 200, "only {checked} VCs sliced");
}
