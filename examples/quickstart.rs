//! Quickstart: parse an oolong program, check its side-effect
//! specifications, and run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use oolong::engine::{Engine, EngineOptions};
use oolong::interp::{ExecConfig, Interp, RngOracle};
use oolong::sema::Scope;
use oolong::syntax::parse_program;

const SOURCE: &str = "
// A counter object: `state` is the abstract data group, `ticks` its
// private representation.
group state
field ticks in state

proc reset(c) modifies c.state
impl reset(c) { assume c != null ; c.ticks := 0 }

proc tick(c) modifies c.state
impl tick(c) { assume c != null ; c.ticks := c.ticks + 1 }

// `observe` has no modifies list: it may not change anything.
proc observe(c)
impl observe(c) {
  assume c != null ;
  var before in
    before := c.ticks ;
    assert before = c.ticks
  end
}
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(SOURCE).map_err(|e| e.render(SOURCE))?;

    // 1. Statically check every implementation against its modifies list.
    let engine = Engine::new(EngineOptions::default())?;
    let report = engine.check_program("quickstart", SOURCE, &program);
    println!("static checker:");
    for o in &report.obligations {
        println!("impl {}: {}", o.proc_name, o.verdict);
    }
    assert!(report.all_verified());

    // 2. Run the program under the interpreter's runtime effect monitor.
    let scope = Scope::analyze(&program).map_err(|e| e.render(SOURCE))?;
    for seed in 0..10 {
        let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(seed));
        let outcome = interp.run_proc_fresh("observe");
        assert!(outcome.is_acceptable(), "seed {seed}: {outcome:?}");
    }
    println!("\ninterpreter: 10 random runs of `observe`, no violations");

    // 3. A buggy variant — writing without a license — is rejected.
    let buggy = "group state
         field ticks in state
         proc observe(c)
         impl observe(c) { assume c != null ; c.ticks := 0 }";
    let report = engine.check_source("buggy", buggy);
    let observe = &report.obligations[0];
    println!("\nbuggy variant:\nimpl observe: {}", observe.verdict);
    assert!(!observe.verdict.is_verified());
    Ok(())
}
