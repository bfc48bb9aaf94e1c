//! Checking a program through the engine: verdicts per implementation,
//! the restriction check ahead of proving, the naive baseline, module by
//! module checking, and agreement between pooled and one-shot prover
//! contexts.

use oolong::datagroups::{CheckOptions, Checker};
use oolong::engine::{BatchReport, Engine, EngineOptions};
use oolong::syntax::parse_program;

fn engine(check: CheckOptions) -> Engine {
    Engine::new(EngineOptions {
        check,
        ..EngineOptions::default()
    })
    .expect("in-memory engine")
}

fn check(src: &str) -> BatchReport {
    let report = engine(CheckOptions::default()).check_source("test", src);
    assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
    report
}

fn label<'a>(report: &'a BatchReport, proc: &str) -> &'a str {
    report
        .obligations
        .iter()
        .find(|o| o.proc_name == proc)
        .expect("proc checked")
        .verdict
        .label()
}

#[test]
fn report_on_verifying_program() {
    let report = check(
        "group value
         field num in value
         proc bump(r) modifies r.value
         impl bump(r) { r.num := 3 }",
    );
    assert!(report.all_verified());
    assert_eq!(report.tally(), (1, 0, 0));
    assert_eq!(label(&report, "bump"), "verified");
}

#[test]
fn report_on_violating_program() {
    let report = check(
        "field f
         proc sneaky(r)
         impl sneaky(r) { r.f := 3 }",
    );
    assert!(!report.all_verified());
    assert_eq!(label(&report, "sneaky"), "not verified");
}

#[test]
fn restriction_violations_reported_before_proving() {
    let report = check(
        "group g
         field vec maps g into g
         proc p(st, r) modifies r.g
         field obj in g
         impl p(st, r) { r.obj := st.vec }",
    );
    assert_eq!(label(&report, "p"), "restriction violation");
    assert_eq!(report.prover_calls, 0, "no VC was proved");
}

#[test]
fn naive_mode_skips_restriction() {
    let src = "group g
         field vec maps g into g
         proc p(st, r) modifies r.g
         field obj in g
         impl p(st, r) { r.obj := st.vec }";
    let naive = CheckOptions {
        naive: true,
        ..CheckOptions::default()
    };
    let report = engine(naive).check_source("test", src);
    assert_ne!(label(&report, "p"), "restriction violation");
}

#[test]
fn empty_scope_reports_nothing() {
    let report = check("group g");
    assert!(report.obligations.is_empty());
    assert!(report.all_verified());
}

const MODULAR: &str = "
module vector_interface {
  group elems
  field cnt in elems
  proc vgrow(v) modifies v.elems
}
module vector_impl imports vector_interface {
  impl vgrow(v) { assume v != null ; v.cnt := v.cnt + 1 }
}
module stack_interface imports vector_interface {
  group contents
  proc push(s, o) modifies s.contents
}
module stack_impl imports stack_interface {
  field vec in contents maps elems into contents
  impl push(s, o) { assume s != null && s.vec != null ; vgrow(s.vec) }
}
";

/// Each module of `src`, checked against its own scope by a fresh engine.
fn check_modular(src: &str) -> Vec<(String, BatchReport)> {
    let program = parse_program(src).unwrap();
    engine(CheckOptions::default())
        .check_modular("test", src, &program)
        .expect("module structure is valid")
}

fn module<'a>(modules: &'a [(String, BatchReport)], name: &str) -> &'a BatchReport {
    &modules
        .iter()
        .find(|(n, _)| n == name)
        .expect("module exists")
        .1
}

#[test]
fn modular_check_verifies_each_module_in_its_scope() {
    let modules = check_modular(MODULAR);
    assert!(modules.iter().all(|(_, r)| r.all_verified()));
    assert_eq!(modules.len(), 4);
    let stack = module(&modules, "stack_impl");
    assert_eq!(stack.obligations.len(), 1);
    assert!(module(&modules, "vector_interface").obligations.is_empty());
}

#[test]
fn modular_check_catches_module_local_violations() {
    // vector_impl writes a field it has no license for.
    let bad = MODULAR.replace(
        "impl vgrow(v) { assume v != null ; v.cnt := v.cnt + 1 }",
        "field secret
         impl vgrow(v) { assume v != null ; v.secret := 1 }",
    );
    let modules = check_modular(&bad);
    assert!(!module(&modules, "vector_impl").all_verified());
    assert!(module(&modules, "stack_impl").all_verified());
}

#[test]
fn whole_program_check_flattens_modules() {
    let report = check(MODULAR);
    assert!(report.all_verified());
    assert_eq!(report.obligations.len(), 2);
}

#[test]
fn top_level_impls_report_under_pseudo_module() {
    let modules = check_modular(
        "module m { group g }
         field f in g
         proc p(t) modifies t.g
         impl p(t) { assume t != null ; t.f := 1 }",
    );
    let top = module(&modules, "");
    assert_eq!(top.obligations.len(), 1);
    assert!(top.all_verified());
}

/// The engine's pooled contexts give every obligation exactly the verdict
/// and statistics of a one-shot context built for it alone.
#[test]
fn shared_contexts_agree_with_one_shot_checks() {
    let src = "group g field f in g
         proc p(t) modifies t.g
         impl p(t) { t.f := 1 }
         proc bad(t)
         impl bad(t) { t.f := 1 }
         proc q(t) modifies t.g
         impl q(t) { t.f := 2 ; t.f := 3 }";
    let shared = check(src);
    assert_eq!(shared.obligations.len(), 3);
    let checker = Checker::new(&parse_program(src).unwrap(), CheckOptions::default()).unwrap();
    for ((impl_id, _), o) in checker.scope().impls().zip(&shared.obligations) {
        let alone = checker.verdict_for_vc(&checker.vc(impl_id).unwrap());
        assert_eq!(o.verdict.label(), alone.label(), "{}", o.proc_name);
        assert_eq!(o.verdict.stats(), alone.stats(), "{}", o.proc_name);
    }
}

#[test]
fn plain_programs_verify_at_the_arrays_level_too() {
    // force_arrays_level adds the extended axioms; a plain program's
    // verdicts must not change (only the work grows).
    let src = "group g
         field f in g
         proc p(t) modifies t.g
         impl p(t) { assume t != null ; t.f := 1 ; assert t.f = 1 }";
    let leveled = CheckOptions {
        force_arrays_level: true,
        ..CheckOptions::default()
    };
    assert!(check(src).all_verified());
    let report = engine(leveled).check_source("test", src);
    assert!(report.all_verified(), "{:?}", report.tally());
}

/// Every quantifier a corpus checker's background registers — eager or
/// goal-directed, at both language levels — carries, per trigger, exactly
/// the plan the matcher derives from the trigger itself.
#[test]
fn compiled_trigger_plans_match_their_triggers() {
    use oolong::prover::matcher::{trigger_heads, trigger_single_head, trigger_syms};
    use oolong::prover::ScopeContext;
    for program in oolong::corpus::paper::all() {
        for arrays in [false, true] {
            let options = CheckOptions {
                force_arrays_level: arrays,
                ..CheckOptions::default()
            };
            let checker = Checker::new(&parse_program(program.source).unwrap(), options).unwrap();
            let axioms = checker.background();
            let formulas: Vec<_> = axioms.iter().map(|a| a.formula.clone()).collect();
            let phases: Vec<_> = axioms.iter().map(|a| a.policy.phase).collect();
            let ctx = ScopeContext::new(&formulas, &phases, &checker.options().budget);
            let plans = ctx.trigger_plans();
            assert!(!plans.is_empty(), "{}", program.name);
            for (vars, trigger, plan) in plans {
                let at = format!("{} (arrays: {arrays}): {trigger}", program.name);
                assert_eq!(plan.heads, trigger_heads(trigger), "{at}");
                assert_eq!(plan.syms, trigger_syms(vars, trigger), "{at}");
                assert_eq!(plan.single_head, trigger_single_head(trigger), "{at}");
            }
        }
    }
}
