//! The experiment suite: every empirical claim of the paper, as a test.
//!
//! The experiment ids (E1–E10) are defined in `DESIGN.md`; `EXPERIMENTS.md`
//! records the paper-vs-measured summary. Timings come from the
//! `oolong_bench/` harness (`bash oolong_bench/run.sh run`).

use oolong::corpus::{self, paper};
use oolong::datagroups::{CheckOptions, Verdict};
use oolong::diagnose::Replay;
use oolong::engine::{BatchReport, Engine, EngineOptions};
use oolong::interp::{ExecConfig, Interp, RngOracle, RunOutcome, WrongKind};
use oolong::prover::Budget;
use oolong::sema::{closure_for_impl, subset_program, Scope};
use oolong::syntax::{parse_program, pretty};

/// A fresh engine, so no verdict is served from an earlier check.
fn engine(check: CheckOptions) -> Engine {
    Engine::new(EngineOptions {
        check,
        ..EngineOptions::default()
    })
    .expect("in-memory engine")
}

fn check_with(source: &str, options: CheckOptions) -> BatchReport {
    let report = engine(options).check_source("test", source);
    assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
    report
}

fn check(source: &str) -> BatchReport {
    check_with(source, CheckOptions::default())
}

/// The verdict of the (first) implementation of `proc`.
fn verdict<'a>(report: &'a BatchReport, proc: &str) -> &'a Verdict {
    &report
        .obligations
        .iter()
        .find(|o| o.proc_name == proc)
        .expect("proc checked")
        .verdict
}

fn label(report: &BatchReport, proc: &str) -> String {
    verdict(report, proc).label().to_string()
}

/// Every module of `source` checked against its own scope, or the first
/// verdict that is not `verified`.
fn modules_verify(source: &str) -> Result<(), String> {
    let program = parse_program(source).expect("parses");
    let modules = engine(CheckOptions::default())
        .check_modular("test", source, &program)
        .expect("module structure is valid");
    for (module, report) in &modules {
        assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
        if let Some(o) = report.obligations.iter().find(|o| !o.verdict.is_verified()) {
            return Err(format!(
                "module {module:?}: impl {}: {}",
                o.proc_name, o.verdict
            ));
        }
    }
    Ok(())
}

// --------------------------------------------------------------------- E1

/// E1 (Figures 0–1): the grammar parses every corpus program and
/// pretty-printing is a parser fixpoint.
#[test]
fn e1_grammar_roundtrip() {
    for p in corpus::all() {
        let program =
            parse_program(p.source).unwrap_or_else(|e| panic!("{} does not parse: {e}", p.name));
        let printed = pretty::print_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{} does not reparse: {e}\n{printed}", p.name));
        assert_eq!(
            pretty::print_program(&reparsed),
            printed,
            "{}: pretty-printing is not a fixpoint",
            p.name
        );
    }
}

// --------------------------------------------------------------------- E2

/// E2 (§3.0): under the paper's restrictions, `q` verifies in the
/// interface scope AND keeps verifying when the pivot declaration enters
/// the scope, while the leaking `impl m` is rejected syntactically.
#[test]
fn e2_pivot_uniqueness_repairs_q() {
    let small = check(paper::SECTION30_Q.source);
    assert_eq!(label(&small, "q"), "verified");

    let full = check(paper::SECTION30_FULL.source);
    assert_eq!(label(&full, "q"), "verified", "scope monotonicity for q");
    assert_eq!(label(&full, "m"), "restriction violation");
}

/// E2 (§3.0): the naive closed-world baseline passes `q` in the small
/// scope, then degrades its verdict in the larger scope — the scope
/// monotonicity violation the paper opens with — and happily accepts the
/// pivot-leaking `impl m`.
#[test]
fn e2_naive_violates_scope_monotonicity() {
    let naive = CheckOptions {
        naive: true,
        ..CheckOptions::default()
    };
    let small = check_with(paper::SECTION30_Q.source, naive.clone());
    assert_eq!(label(&small, "q"), "verified");

    let full = check_with(paper::SECTION30_FULL.source, naive);
    assert_ne!(label(&full, "q"), "verified", "naive q must degrade");
    assert_eq!(
        label(&full, "m"),
        "verified",
        "naive does not police the leak"
    );
}

// --------------------------------------------------------------------- E3

/// E3 (§3.1): `w` verifies thanks to the owner-exclusion assumption on
/// entry, in both the small scope and the scope with the pivot; the call
/// site `w(st, st.vec)` is rejected.
#[test]
fn e3_owner_exclusion() {
    let small = check(paper::SECTION31_W.source);
    assert_eq!(label(&small, "w"), "verified");

    let full = check(paper::SECTION31_BAD_CALL.source);
    assert_eq!(label(&full, "w"), "verified", "scope monotonicity for w");
    assert_ne!(
        label(&full, "bad_caller"),
        "verified",
        "owner exclusion rejects the call"
    );
}

/// E3 (§3.1): without owner exclusion the bad call site passes the naive
/// checker, and the interpreter observes the owner-exclusion breach
/// dynamically.
#[test]
fn e3_naive_misses_the_bad_call() {
    let naive = CheckOptions {
        naive: true,
        ..CheckOptions::default()
    };
    let full = check_with(paper::SECTION31_BAD_CALL.source, naive);
    assert_eq!(label(&full, "bad_caller"), "verified");

    let program = parse_program(paper::SECTION31_BAD_CALL.source).expect("parses");
    let scope = Scope::analyze(&program).expect("analyses");
    let config = ExecConfig {
        check_owner_exclusion: true,
        ..ExecConfig::default()
    };
    let mut interp = Interp::new(&scope, config, RngOracle::seeded(0));
    match interp.run_proc_fresh("bad_caller") {
        RunOutcome::Wrong(w) => assert_eq!(w.kind, WrongKind::OwnerExclusion),
        other => panic!("expected dynamic owner-exclusion breach, got {other:?}"),
    }
}

// --------------------------------------------------------------------- E4

/// E4 (§5, first example): `impl p` verifies — the three proof
/// obligations (callee license via fieldwise reflexivity, owner exclusion
/// via axiom (7), the frame of `t.f`) all discharge.
#[test]
fn e4_example1_verifies() {
    let report = check(paper::EXAMPLE1.source);
    assert_eq!(label(&report, "p"), "verified");
}

/// E4 (§5, first example): dropping the modifies license from `p` makes
/// the call to `q(t.c.d)` unjustifiable.
#[test]
fn e4_example1_needs_the_license() {
    let broken = paper::EXAMPLE1
        .source
        .replace("proc p(t) modifies t.c.d.g", "proc p(t)");
    let report = check(&broken);
    assert_ne!(label(&report, "p"), "verified");
}

// --------------------------------------------------------------------- E5

/// E5 (§5, second example): `twice` verifies; our enforcement of pivot
/// uniqueness subsumes the swinging-pivots restriction the example was
/// designed to motivate.
#[test]
fn e5_example2_twice_verifies() {
    let report = check(paper::EXAMPLE2.source);
    assert_eq!(label(&report, "twice"), "verified");
}

// --------------------------------------------------------------------- E6

/// E6 (§5, third example): the cyclic rep inclusion. The default budget
/// verifies `updateAll`; a starved budget reproduces the divergence the
/// paper reports for Simplify, as a measurable `Unknown`.
#[test]
fn e6_cyclic_inclusion() {
    let report = check(paper::EXAMPLE3.source);
    assert_eq!(label(&report, "updateAll"), "verified");

    let starved = CheckOptions {
        budget: Budget::tiny(),
        ..CheckOptions::default()
    };
    let report = check_with(paper::EXAMPLE3.source, starved);
    match verdict(&report, "updateAll") {
        Verdict::Unknown(stats) => {
            assert!(
                stats.instances > 0,
                "the matching loop did run before the cutoff"
            );
        }
        other => panic!("starved budget should be Unknown, got {}", other.label()),
    }
}

// --------------------------------------------------------------------- E7

/// E7 (§4): scope monotonicity over the corpus — for every implementation,
/// checking in its minimal self-contained scope and then in the whole
/// program never degrades a `verified` verdict to a rejection.
#[test]
fn e7_scope_monotonicity_corpus() {
    for p in corpus::all() {
        let program = parse_program(p.source).expect("parses");
        let full_report = check(p.source);
        // Language levels: if the whole program uses array features, its
        // modules must be checked at the arrays level too (see DESIGN.md,
        // extensions) — monotonicity holds within a level.
        let arrays_level = p.source.contains("maps elem") || p.source.contains("[");
        for (i, decl) in program.decls.iter().enumerate() {
            let oolong::syntax::Decl::Impl(im) = decl else {
                continue;
            };
            let sub = subset_program(&program, &closure_for_impl(&program, i));
            let options = CheckOptions {
                force_arrays_level: arrays_level,
                ..CheckOptions::default()
            };
            // The subset keeps the program's spans: it is checked against
            // the original source text.
            let small = engine(options).check_program(p.name, p.source, &sub);
            assert!(small.unit_errors.is_empty(), "{:?}", small.unit_errors);
            let small_label = label(&small, &im.name.text);
            if small_label == "verified" {
                let full_label = label(&full_report, &im.name.text);
                assert_ne!(
                    full_label, "not verified",
                    "{}: impl {} verified in its module but refuted in the whole program",
                    p.name, im.name.text
                );
            }
        }
    }
}

/// E7: scope monotonicity over randomly generated programs and random
/// extensions. A `verified` verdict may weaken to `unknown` when the
/// larger scope exhausts the prover budget, but must never flip to an
/// outright rejection.
#[test]
fn e7_scope_monotonicity_generated() {
    let cfg = corpus::GenConfig::default();
    for seed in 0..12 {
        let base = corpus::generate_source(seed, &cfg);
        let extended = corpus::extend_source(&base, seed + 100, &cfg);
        let base_report = check(&base);
        let ext_report = check(&extended);
        let base_program = parse_program(&base).expect("parses");
        let base_scope = Scope::analyze(&base_program).expect("analyses");
        for (_, info) in base_scope.impls() {
            let name = base_scope.proc_info(info.proc).name.clone();
            if label(&base_report, &name) == "verified" {
                assert_ne!(
                    label(&ext_report, &name),
                    "not verified",
                    "seed {seed}: impl {name} degraded from verified to refuted\nbase:\n{base}\nextended:\n{extended}"
                );
            }
        }
    }
}

// -------------------------------------------------------------------- E11

/// E11 (modules extension): the modularised stack system verifies module
/// by module, each against exactly its import closure.
#[test]
fn e11_modular_checking() {
    modules_verify(paper::MODULAR_STACK.source).unwrap();
    let program = parse_program(paper::MODULAR_STACK.source).expect("parses");
    // The vector implementation's scope must not see the stack module.
    let visible = oolong::sema::visible_program(&program, "vector_impl").expect("resolves");
    let scope = Scope::analyze(&visible).expect("analyses");
    assert!(scope.attr("contents").is_none());
}

/// E11+E12 capstone: the registry program exercises modules and array
/// dependencies together; every module verifies against its import
/// closure, including slot installation (`subscribe`) and a direct
/// element update (`fire_first`).
#[test]
fn e11_e12_registry_capstone() {
    modules_verify(paper::REGISTRY.source).unwrap();
    let whole = check(paper::REGISTRY.source);
    assert!(whole.all_verified(), "{:?}", whole.tally());
}

// -------------------------------------------------------------------- E12

/// E12 (array dependencies, §6 future work): the slot discipline is
/// enforced syntactically, slot writes need elem licenses, and the
/// interpreter's effect monitor covers slots and elements.
#[test]
fn e12_array_dependencies_static() {
    // Slot discipline: copying a slot value violates pivot uniqueness.
    let leak = check(
        "group g
         field arr in g maps elem g into g
         field obj
         proc p(t) modifies t.g
         impl p(t) { assume t != null && t.arr != null ; t.obj := t.arr[0] }",
    );
    assert_eq!(label(&leak, "p"), "restriction violation");

    // Unlicensed slot write rejected; licensed one verifies.
    let unlicensed = check(
        "group g
         field arr in g maps elem g into g
         proc p(t)
         impl p(t) { assume t != null && t.arr != null ; t.arr[0] := null }",
    );
    assert_ne!(label(&unlicensed, "p"), "verified");
    let licensed = check(
        "group g
         field arr in g maps elem g into g
         proc p(t) modifies t.g
         impl p(t) { assume t != null && t.arr != null ; t.arr[0] := null }",
    );
    assert_eq!(label(&licensed, "p"), "verified");
}

/// E12 (array dependencies): the whole-table corpus program. `tinit`
/// (slot installation), `binc`, `touch_direct` (direct element update),
/// and `observer` (element-frame reasoning via elementwise owner
/// exclusion) verify; the delegating `touch` is recorded as prover-hard
/// (the paper makes the same observation about mechanical proofs lagging
/// hand proofs on its §5 cyclic example).
#[test]
fn e12_array_table_verdicts() {
    let report = check(paper::ARRAY_TABLE.source);
    assert_eq!(label(&report, "binc"), "verified");
    assert_eq!(label(&report, "tinit"), "verified");
    assert_eq!(label(&report, "observer"), "verified");
    assert_eq!(label(&report, "touch_direct"), "verified");
    // `touch` must not be *refuted* — it times out or verifies.
    assert_ne!(label(&report, "touch"), "not verified");
}

/// E12 (array dependencies, runtime): installing buckets and updating an
/// element through the elem-pivot closure is licensed; the monitor flags
/// unlicensed slot writes.
#[test]
fn e12_array_dependencies_runtime() {
    use oolong::interp::{FirstOracle, Loc, Value};
    let program = parse_program(paper::ARRAY_TABLE.source).expect("parses");
    let scope = Scope::analyze(&program).expect("analyses");
    let mut interp = Interp::new(&scope, ExecConfig::default(), FirstOracle);
    let t = interp.store_mut().alloc();
    let tinit = scope
        .impls()
        .find(|(_, i)| scope.proc_info(i.proc).name == "tinit")
        .map(|(id, _)| id)
        .expect("tinit");
    assert!(interp.run_impl(tinit, &[Value::Obj(t)]).is_acceptable());
    let touch = scope
        .impls()
        .find(|(_, i)| scope.proc_info(i.proc).name == "touch")
        .map(|(id, _)| id)
        .expect("touch");
    assert!(interp
        .run_impl(touch, &[Value::Obj(t), Value::Int(0)])
        .is_acceptable());
    let buckets = scope.attr("buckets").unwrap();
    let count = scope.attr("count").unwrap();
    let arr = interp
        .store()
        .read(Loc {
            obj: t,
            attr: buckets,
        })
        .as_obj()
        .expect("array");
    let b0 = interp.store().read_slot(arr, 0).as_obj().expect("bucket");
    assert_eq!(
        interp.store().read(Loc {
            obj: b0,
            attr: count
        }),
        Value::Int(1)
    );
}

// ------------------------------------------------------- expressiveness

/// A documented limitation of the paper's discipline: classic linked-list
/// insertion (`n.next := s.head`) *moves* a pivot value, which pivot
/// uniqueness forbids — the paper's restrictions are deliberately
/// "drastic". The checker rejects it syntactically rather than failing
/// obscurely downstream.
#[test]
fn pivot_discipline_rejects_linked_insertion() {
    let report = check(
        "group q
         group nodes
         field val in nodes
         field next in nodes maps nodes into nodes
         field head in q maps nodes into q
         proc push_front(s) modifies s.q
         impl push_front(s) {
           assume s != null ;
           var n in
             n := new() ;
             n.val := 1 ;
             n.next := s.head ;
             s.head := null
           end
         }",
    );
    match verdict(&report, "push_front") {
        Verdict::RestrictionViolation(diags) => {
            // The insertion violates two rules at once: the pivot target
            // rule (next may only take new()/null) and the pivot-copy rule
            // (reading s.head).
            assert!(diags
                .iter()
                .any(|d| d.message.contains("may only be assigned")));
            assert!(diags
                .iter()
                .any(|d| d.message.contains("may not be copied")));
        }
        other => panic!("expected restriction violation, got {}", other.label()),
    }
}

// -------------------------------------------------------------------- E22

/// E22: the §4 scope-monotonicity theorem re-run over the enlarged
/// language. Programs carrying invariant-preserved and read-license
/// obligations keep their `verified` verdicts when the scope grows by
/// later declarations — a new field joining the group and a new
/// interface procedure — exactly the growth scenario the data-group
/// semantics is designed to survive: the invariant still ranges over the
/// same declared locations, and a `reads` clause naming a group covers
/// the grown group's members by construction.
#[test]
fn e22_scope_monotonicity_invariants_and_reads() {
    for seed in 0..10u64 {
        for (family, source) in [
            ("invariant", corpus::generate_invariant_source(seed)),
            ("reads", corpus::generate_read_effect_source(seed)),
        ] {
            let base_report = check(&source);
            let extended =
                format!("{source}\nfield zz in g\nproc probe(t) modifies t.g reads t.g\n");
            let ext_report = check(&extended);
            let program = parse_program(&source).expect("parses");
            let scope = Scope::analyze(&program).expect("analyses");
            for (_, info) in scope.impls() {
                let name = scope.proc_info(info.proc).name.clone();
                assert_eq!(
                    label(&base_report, &name),
                    "verified",
                    "{family} seed {seed}: base population verifies"
                );
                assert_eq!(
                    label(&ext_report, &name),
                    "verified",
                    "{family} seed {seed}: impl {name} degraded when the scope grew\n{extended}"
                );
            }
        }
    }
}

/// The limit of E22: frames are scope-monotone, object invariants are
/// not. A flat unit whose `p` verifies is refuted once an invariant is
/// appended, because the visible-state rule obligates `p`'s exit to
/// establish an invariant its body never saw, and the interpreter replay
/// confirms the counterexample. A flat program is one pseudo-module, so
/// this holds under a modular invariant rule too: appending the invariant
/// edits the module rather than extending its scope.
#[test]
fn e22_an_appended_invariant_refutes_a_verified_impl() {
    let base = "group g\nfield v in g\nproc p(t) modifies t.g\n\
                impl p(t) { assume t != null ; t.v := 0 }\n";
    assert_eq!(label(&check(base), "p"), "verified");

    let extended = format!("{base}invariant this.v = 1\n");
    let report = Engine::new(EngineOptions {
        diagnose: true,
        ..EngineOptions::default()
    })
    .expect("in-memory engine")
    .check_source("test", &extended);
    assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
    let Verdict::NotVerified(_, refutation) = verdict(&report, "p") else {
        panic!("the appended invariant must refute p:\n{extended}");
    };
    let primary = refutation.primary.as_ref().expect("a primary label");
    assert_eq!(primary.kind.as_str(), "invariant-preserved");
    let rep = report.obligations.iter().find(|o| o.proc_name == "p");
    let diagnosis = rep.and_then(|o| o.diagnosis.as_ref()).expect("diagnosis");
    assert!(
        matches!(diagnosis.replay, Replay::Confirmed { .. }),
        "replay did not confirm: {:?}",
        diagnosis.replay
    );
}

// -------------------------------------------------------------------- E10

/// E10 (§6): "the overhead for specifying data groups, inclusions, and
/// modifies lists does not seem overwhelming" — measured across the
/// corpus, specifications are a modest fraction of program text.
#[test]
fn e10_specification_overhead() {
    let mut total_spec = 0usize;
    let mut total_tokens = 0usize;
    for p in corpus::all() {
        let program = parse_program(p.source).expect("parses");
        let r = oolong::datagroups::overhead(&program);
        assert!(
            r.ratio() < 0.6,
            "{}: specification overhead {:.0}% is overwhelming",
            p.name,
            r.ratio() * 100.0
        );
        total_spec += r.spec_tokens;
        total_tokens += r.total_tokens;
    }
    let overall = total_spec as f64 / total_tokens as f64;
    assert!(
        overall > 0.05 && overall < 0.45,
        "corpus-wide overhead {:.1}% out of the plausible band",
        overall * 100.0
    );
}
