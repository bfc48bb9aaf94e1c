//! Reproduces the unsoundness story of Section 3: a *naive* modular
//! checker (closed-world about inclusions, no alias confinement) passes
//! every module of a program whose linked execution fails an assertion at
//! runtime. The paper's restrictions repair it: the leaking module is
//! rejected, and the client's verdict is stable across scopes.
//!
//! The program is the paper's §3.0 scenario made executable: `setup`
//! installs a vector behind the stack's pivot `vec` and *leaks* the pivot
//! value through `r.obj`; the client `q` then observes `push(st, 3)`
//! changing `v.cnt` — the "unexpected side effect between the contents
//! group of a stack and the cnt field of the stack's underlying vector".
//!
//! ```sh
//! cargo run --example unsound_naive
//! ```

use oolong::datagroups::CheckOptions;
use oolong::engine::{Engine, EngineOptions};
use oolong::interp::{ExecConfig, Interp, RngOracle, RunOutcome, WrongKind};
use oolong::sema::Scope;
use oolong::syntax::parse_program;

/// The interface scope: what the client module sees.
const INTERFACE: &str = "
group contents
field cnt
field obj
proc push(st, o) modifies st.contents
proc setup(st, r) modifies st.contents, r.obj
";

/// The client module: the paper's `q`, adapted to call `setup`.
const CLIENT: &str = "
proc q()
impl q() {
  var st, result, v, n in
    st := new() ;
    result := new() ;
    setup(st, result) ;
    v := result.obj ;
    assume v != null ;
    n := v.cnt ;
    push(st, 3) ;
    assert n = v.cnt
  end
}
";

/// The private stack module: the pivot declaration and the leaking
/// implementation (every write is licensed — `vec` is in `contents` — but
/// `r.obj := st.vec` copies the pivot value out).
const STACK_IMPL: &str = "
field vec in contents maps cnt into contents
impl setup(st, r) {
  st.vec := new() ;
  r.obj := st.vec
}
";

fn verdict(source: &str, proc: &str, naive: bool) -> String {
    let check = CheckOptions {
        naive,
        ..CheckOptions::default()
    };
    let engine = Engine::new(EngineOptions {
        check,
        ..EngineOptions::default()
    })
    .expect("in-memory engine");
    let report = engine.check_source(proc, source);
    let checked = report.obligations.iter().find(|o| o.proc_name == proc);
    checked.expect("checked").verdict.label().to_string()
}

fn main() {
    let client_scope = format!("{INTERFACE}{CLIENT}");
    let stack_scope = format!("{INTERFACE}{STACK_IMPL}");
    let whole = format!("{INTERFACE}{CLIENT}{STACK_IMPL}");

    // --- The naive checker passes every module ----------------------------
    let naive_q = verdict(&client_scope, "q", true);
    let naive_setup = verdict(&stack_scope, "setup", true);
    println!("naive checker, module by module:");
    println!("  q     in the client scope: {naive_q}");
    println!("  setup in the stack scope:  {naive_setup}");
    assert_eq!(naive_q, "verified");
    assert_eq!(naive_setup, "verified");

    // ... yet its verdict on q degrades once the pivot is visible: the
    // naive system violates scope monotonicity.
    let naive_q_whole = verdict(&whole, "q", true);
    println!("  q     in the whole program: {naive_q_whole}   <- monotonicity violated");
    assert_ne!(naive_q_whole, "verified");

    // --- The runtime ground truth -----------------------------------------
    // The linked program reaches the assertion failure: push (havocked
    // within its spec, like any extension implementation) may write v.cnt
    // because v IS the stack's vector.
    let program = parse_program(&whole).expect("parses");
    let scope = Scope::analyze(&program).expect("analyses");
    let mut assert_failures = 0;
    let mut acceptable = 0;
    for seed in 0..200 {
        let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
        match interp.run_proc_fresh("q") {
            RunOutcome::Wrong(w) if w.kind == WrongKind::AssertFailed => assert_failures += 1,
            RunOutcome::Wrong(w) => panic!("unexpected wrong outcome: {w}"),
            _ => acceptable += 1,
        }
    }
    println!(
        "\nruntime: {assert_failures}/200 random runs of q end in the assertion failure \
         ({acceptable} complete or block)"
    );
    assert!(
        assert_failures > 0,
        "the counterexample should be reachable"
    );

    // --- The paper's checker ----------------------------------------------
    let full_q_small = verdict(&client_scope, "q", false);
    let full_q_whole = verdict(&whole, "q", false);
    let full_setup = verdict(&stack_scope, "setup", false);
    println!("\nchecker with pivot uniqueness + owner exclusion:");
    println!("  q     in the client scope: {full_q_small}");
    println!("  q     in the whole program: {full_q_whole}   <- verdict stable");
    println!("  setup in the stack scope:  {full_setup}   <- the leak is caught");
    assert_eq!(full_q_small, "verified");
    assert_eq!(full_q_whole, "verified");
    assert_eq!(full_setup, "restriction violation");
}
