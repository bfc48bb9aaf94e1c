//! Explicit modules (our extension of oolong, implementing the paper's
//! prose: "the scope of an implementation module M would typically be the
//! set of declarations in M and in the interface modules that M
//! transitively imports").
//!
//! The program is the stack-over-vector system split into interface and
//! implementation modules. `Engine::check_modular` verifies each module
//! against exactly its import closure: the vector implementation never
//! sees the stack, and neither implementation module sees the other's
//! body.
//!
//! ```sh
//! cargo run --example modules
//! ```

use oolong::corpus::paper::MODULAR_STACK;
use oolong::engine::{Engine, EngineOptions};
use oolong::sema::{modules, visible_program};
use oolong::syntax::parse_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = MODULAR_STACK.source;
    let program = parse_program(source).map_err(|e| e.render(source))?;

    // What each module can see.
    println!("module structure:");
    for info in modules::modules(&program).map_err(|e| e.render(source))? {
        let visible = visible_program(&program, &info.name).map_err(|e| e.render(source))?;
        println!(
            "  {:<18} {} own declarations, {} visible (imports: {})",
            info.name,
            info.decl_count,
            visible.decls.len(),
            if info.imports.is_empty() {
                "-".to_string()
            } else {
                info.imports.join(", ")
            },
        );
    }

    // Modular verification: each module in its own scope.
    let engine = Engine::new(EngineOptions::default())?;
    println!("\nmodular check:");
    for (module, report) in engine.check_modular("modular_stack", source, &program)? {
        println!("module {module}:");
        for o in &report.obligations {
            println!("  impl {}: {}", o.proc_name, o.verdict);
        }
        assert!(report.all_verified());
    }

    // Whole-program verification agrees (scope monotonicity in practice:
    // flattening only grows every module's scope).
    let whole = engine.check_program("modular_stack", source, &program);
    println!("\nwhole-program check:");
    for o in &whole.obligations {
        println!("impl {}: {}", o.proc_name, o.verdict);
    }
    assert!(whole.all_verified());

    // The module system rejects structural errors.
    let broken = "module a imports ghost { group g }";
    let err = engine
        .check_modular("broken", broken, &parse_program(broken)?)
        .unwrap_err();
    println!("\nbroken import: {err}");
    Ok(())
}
