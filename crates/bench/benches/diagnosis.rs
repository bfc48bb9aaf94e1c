//! E16: the cost of position labels in verification conditions.
//!
//! Every proof obligation is wrapped in a labelled marker so a refutation
//! can be attributed to a source command (see `crates/diagnose`). Labels
//! are logically transparent — `tests/diagnosis.rs` asserts identical
//! outcomes and prover counters — so any cost is pure bookkeeping:
//! carrying label sets through NNF conversion and recording them on
//! branch literals. This bench pins that overhead under 10% by proving
//! each VC as generated (labelled) and with every label stripped.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagroups::{CheckOptions, Checker, Vc};
use oolong_corpus::{generate_branchy_source, paper};
use oolong_syntax::parse_program;

/// The VCs of every implementation in the program, as generated (with
/// labels embedded in the goals).
fn vcs_for(source: &str) -> (Checker, Vec<Vc>) {
    let program = parse_program(source).expect("parses");
    let checker = Checker::new(&program, CheckOptions::default()).expect("analyses");
    let ids: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
    let vcs = ids
        .into_iter()
        .filter_map(|id| checker.vc(id).ok())
        .collect();
    (checker, vcs)
}

/// The same VC with every position label removed.
fn strip(vc: &Vc) -> Vc {
    Vc {
        impl_id: vc.impl_id,
        proc_name: vc.proc_name.clone(),
        hypotheses: vc.hypotheses.iter().map(|h| h.strip_labels()).collect(),
        background_hyps: vc.background_hyps,
        goal: vc.goal.strip_labels(),
        labels: Vec::new(),
    }
}

fn prove_all(checker: &Checker, vcs: &[Vc]) -> usize {
    let mut instances = 0;
    for vc in vcs {
        let verdict = checker.verdict_for_vc(vc);
        instances += verdict.stats().map_or(0, |s| s.instances);
    }
    instances
}

/// E16: labelled vs label-stripped proving over a branch-heavy program
/// (many case splits, so label sets ride through every branch literal)
/// and the paper's §5 cyclic example (instantiation-heavy baseline).
fn e16_label_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_label_overhead");
    group.sample_size(10);
    let programs = [
        ("branchy_depth4", generate_branchy_source(1, 4)),
        ("branchy_depth5", generate_branchy_source(1, 5)),
        ("example3", paper::EXAMPLE3.source.to_string()),
    ];
    for (name, source) in programs {
        let (checker, labelled) = vcs_for(&source);
        let stripped: Vec<Vc> = labelled.iter().map(strip).collect();
        group.bench_with_input(BenchmarkId::new("labelled", name), &labelled, |b, vcs| {
            b.iter(|| prove_all(&checker, vcs))
        });
        group.bench_with_input(BenchmarkId::new("stripped", name), &stripped, |b, vcs| {
            b.iter(|| prove_all(&checker, vcs))
        });
    }
    group.finish();
}

criterion_group!(benches, e16_label_overhead);
criterion_main!(benches);
