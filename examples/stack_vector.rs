//! The paper's running example: a stack implemented on top of a vector,
//! checked *modularly* — each implementation is verified in the smallest
//! self-contained scope that declares what it mentions, mirroring how a
//! compiler would check one module at a time.
//!
//! ```sh
//! cargo run --example stack_vector
//! ```

use oolong::corpus::paper::STACK_MODULE;
use oolong::engine::{BatchReport, Engine, EngineOptions};
use oolong::sema::{closure_for_impl, subset_program};
use oolong::syntax::{parse_program, Decl};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = STACK_MODULE.source;
    let program = parse_program(source).map_err(|e| e.render(source))?;

    // Whole-program check first.
    let engine = Engine::new(EngineOptions::default())?;
    let report = engine.check_program("stack_module", source, &program);
    println!("whole-program scope:");
    for o in &report.obligations {
        println!("impl {}: {}", o.proc_name, o.verdict);
    }
    println!();
    assert!(report.all_verified());

    // Modular check: every implementation in its least self-contained
    // scope. The vector procedures verify without the stack module in
    // sight, and vice versa — the paper's point about piecewise checking.
    let mut push_in_module = None;
    for (i, decl) in program.decls.iter().enumerate() {
        let Decl::Impl(im) = decl else { continue };
        let sub = subset_program(&program, &closure_for_impl(&program, i));
        println!(
            "impl {}: checked against {} of {} declarations",
            im.name,
            sub.decls.len(),
            program.decls.len()
        );
        let modular = engine.check_program("subset", source, &sub);
        assert!(
            modular.all_verified(),
            "impl {} fails in its modular scope: {:?}",
            im.name,
            modular.tally()
        );
        if im.name.text == "push" {
            push_in_module = Some(modular);
        }
    }
    println!("\nall implementations verify in their modular scopes");

    // Scope monotonicity in action: `push` keeps verifying as the scope
    // grows from its module to the whole program.
    let push = |report: &BatchReport| {
        let push = report.obligations.iter().find(|o| o.proc_name == "push");
        push.expect("push checked").verdict.clone()
    };
    let small_verdict = push(&push_in_module.expect("push impl exists"));
    let full_verdict = push(&report);
    println!(
        "push: {} in its module, {} in the whole program",
        small_verdict.label(),
        full_verdict.label()
    );
    assert!(small_verdict.is_verified() && full_verdict.is_verified());
    Ok(())
}
