//! Differential soundness testing: the static checker against the
//! interpreter's runtime effect monitor.
//!
//! The paper's guarantee for a program that passes the checker wholesale:
//! every implementation modifies only what its modifies list allows, and
//! no execution goes wrong. Operationally (with the definedness conditions
//! the paper elides): **no run may raise an effect violation or an
//! assertion failure**. Null dereferences and type errors are outside the
//! guarantee (the paper's checker elides expression definedness "for
//! brevity", and so does ours by default).

use oolong::corpus::{self, GenConfig};
use oolong::datagroups::CheckOptions;
use oolong::engine::{BatchReport, Engine, EngineOptions};
use oolong::interp::{
    audit_acyclicity, audit_pivot_uniqueness, ExecConfig, Interp, RngOracle, RunOutcome, WrongKind,
};
use oolong::sema::Scope;
use oolong::syntax::parse_program;

/// Checks `source` with a fresh engine under `options`.
fn check(name: &str, source: &str, options: CheckOptions) -> BatchReport {
    let engine = Engine::new(EngineOptions {
        check: options,
        ..EngineOptions::default()
    })
    .expect("in-memory engine");
    let report = engine.check_source(name, source);
    assert!(
        report.unit_errors.is_empty(),
        "{name}: {:?}",
        report.unit_errors
    );
    report
}

/// Runs every procedure of a fully-verified program under many oracles and
/// asserts the paper's guarantee.
fn assert_sound(name: &str, source: &str, seeds: u64) {
    let program = parse_program(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    // A reduced prover budget keeps the differential loop fast; a timeout
    // here only moves an implementation from `verified` to `unknown`,
    // which this test then skips.
    let mut options = CheckOptions::default();
    options.budget.max_instances = 8_000;
    options.budget.max_branches = 8_000;
    if !check(name, source, options).all_verified() {
        return; // the guarantee only covers checker-approved programs
    }
    let scope = Scope::analyze(&program).expect("analyses");
    let procs: Vec<String> = scope.procs().map(|(_, p)| p.name.clone()).collect();
    for proc in procs {
        for seed in 0..seeds {
            let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
            if let RunOutcome::Wrong(w) = interp.run_proc_fresh(&proc) {
                assert!(
                    !matches!(w.kind, WrongKind::EffectViolation | WrongKind::AssertFailed),
                    "{name}: verified program, but running `{proc}` with seed {seed} hit: {w}"
                );
            }
            // Verified (restriction-respecting) programs maintain the
            // store invariants behind axioms (6) and (7).
            audit_pivot_uniqueness(&scope, interp.store()).unwrap_or_else(|e| {
                panic!("{name}/{proc} seed {seed}: pivot uniqueness audit: {e}")
            });
            audit_acyclicity(&scope, interp.store())
                .unwrap_or_else(|e| panic!("{name}/{proc} seed {seed}: acyclicity audit: {e}"));
        }
    }
}

#[test]
fn corpus_programs_are_sound() {
    for p in corpus::all() {
        // The array program needs a deeper matching generation; it gets
        // its own differential test below.
        if p.name == "array_table" {
            continue;
        }
        assert_sound(p.name, p.source, 30);
    }
}

/// The array-dependencies program: run the table pipeline under many
/// oracles and assert the monitor never fires (the static story is covered
/// by E12; runs here exercise slots, elementwise closures, and havoc).
#[test]
fn array_table_runtime_is_sound() {
    let program = parse_program(corpus::paper::ARRAY_TABLE.source).expect("parses");
    let scope = Scope::analyze(&program).expect("analyses");
    for proc in ["tinit", "touch", "binc"] {
        for seed in 0..25 {
            let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
            if let oolong::interp::RunOutcome::Wrong(w) = interp.run_proc_fresh(proc) {
                assert!(
                    !matches!(w.kind, WrongKind::EffectViolation | WrongKind::AssertFailed),
                    "{proc} seed {seed}: {w}"
                );
            }
        }
    }
}

#[test]
fn generated_restriction_respecting_programs_are_sound() {
    let cfg = GenConfig::default();
    for seed in 0..25 {
        let source = corpus::generate_source(seed, &cfg);
        assert_sound(&format!("generated-{seed}"), &source, 12);
    }
}

/// Larger generated programs, fewer seeds: exercises deeper call chains
/// and bigger scopes.
#[test]
fn generated_larger_programs_are_sound() {
    let cfg = GenConfig {
        groups: 5,
        fields: 9,
        procs: 7,
        impls: 6,
        body_len: 8,
        ..GenConfig::default()
    };
    for seed in 0..5 {
        let source = corpus::generate_source(seed, &cfg);
        assert_sound(&format!("generated-large-{seed}"), &source, 6);
    }
}

/// Differential soundness under budget starvation: cyclic rep inclusions
/// (the paper's §5 third example, generalised to random pivot cycles) give
/// the prover endless instantiation chains, so a starved budget must come
/// back `unknown` — with a divergence attribution that names the axioms
/// that consumed the budget — and *never* refute a correct program. The
/// same programs under the regular differential budget then go through
/// `assert_sound`, tying the static verdict back to the runtime monitor.
#[test]
fn starved_cyclic_rep_programs_diverge_soundly() {
    use oolong::prover::{Budget, QuantKind};

    let mut saw_rep_culprit = false;
    let mut saw_unknown = false;
    for seed in 0..12 {
        let source = corpus::generate_cyclic_source(seed);
        let options = CheckOptions {
            budget: Budget::tiny(),
            ..CheckOptions::default()
        };
        let report = check(&format!("cyclic-{seed}"), &source, options);
        for rep in &report.obligations {
            // Running out of budget must surface as `unknown`, never as a
            // refutation: every write and call in these programs is
            // licensed through the pivot cycle.
            assert!(
                !matches!(rep.verdict, oolong::datagroups::Verdict::NotVerified(..)),
                "seed {seed}: starved budget refuted correct impl {}: {}",
                rep.proc_name,
                rep.verdict
            );
            let Some(divergence) = rep.verdict.divergence() else {
                continue;
            };
            saw_unknown = true;
            assert!(
                !divergence.culprits.is_empty(),
                "seed {seed}: unknown verdict for {} without culprits",
                rep.proc_name
            );
            // The full per-axiom profile must show the rep-inclusion
            // axioms doing instantiation work — they are the loop.
            let stats = rep.verdict.stats().expect("unknown verdicts carry stats");
            assert!(
                stats
                    .per_quant
                    .iter()
                    .any(|q| q.kind == QuantKind::RepInclusion && q.instances > 0),
                "seed {seed}: no rep-inclusion instantiations recorded for {}",
                rep.proc_name
            );
            if divergence
                .culprits
                .iter()
                .any(|c| c.kind == QuantKind::RepInclusion)
            {
                saw_rep_culprit = true;
            }
        }
    }
    assert!(
        saw_unknown,
        "the tiny budget must starve some cyclic program"
    );
    assert!(
        saw_rep_culprit,
        "divergence attribution must name a rep-inclusion axiom as a culprit"
    );
    // The other side of the differential: with a real budget the same
    // programs verify, and verified means the runtime monitor stays quiet.
    for seed in 0..6 {
        let source = corpus::generate_cyclic_source(seed);
        assert_sound(&format!("cyclic-{seed}"), &source, 8);
    }
}

/// The inverse direction as a sanity check on the test itself: programs
/// that the *naive* checker wrongly approves do produce runtime assertion
/// failures (see `examples/unsound_naive.rs` for the full narrative).
#[test]
fn naive_approval_is_no_guarantee() {
    let whole = "
group contents
field cnt
field obj
proc push(st, o) modifies st.contents
proc setup(st, r) modifies st.contents, r.obj
proc q()
impl q() {
  var st, result, v, n in
    st := new() ; result := new() ; setup(st, result) ;
    v := result.obj ; assume v != null ; n := v.cnt ;
    push(st, 3) ; assert n = v.cnt
  end
}
field vec in contents maps cnt into contents
impl setup(st, r) { st.vec := new() ; r.obj := st.vec }
";
    let program = parse_program(whole).expect("parses");
    let scope = Scope::analyze(&program).expect("analyses");
    let mut failures = 0;
    for seed in 0..100 {
        let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
        if let RunOutcome::Wrong(w) = interp.run_proc_fresh("q") {
            assert_eq!(
                w.kind,
                WrongKind::AssertFailed,
                "only the assert may fail here"
            );
            failures += 1;
        }
    }
    assert!(failures > 0, "the §3.0 counterexample must be reachable");
}
