//! Cyclic rep inclusions (Section 5, third example): a linked list where
//! `field next maps g into g` makes `t.g` include `t.next.g`.
//!
//! The paper reports that the hand proof of `updateAll` is "delightfully
//! simple", but Simplify's matching heuristics "show signs of fragility
//! when cyclic inclusions are involved, causing the prover to loop
//! irrevocably". Our prover reproduces both sides: the VC is discharged at
//! the default matching generation, and at a starved budget the same VC
//! surfaces as a measurable `Unknown` with deferred instantiations instead
//! of a hang.
//!
//! ```sh
//! cargo run --example linked_list
//! ```

use oolong::corpus::paper::EXAMPLE3;
use oolong::datagroups::{CheckOptions, Verdict};
use oolong::engine::{Engine, EngineOptions};
use oolong::interp::{ExecConfig, Interp, Loc, RngOracle, Value};
use oolong::prover::Budget;
use oolong::sema::Scope;
use oolong::syntax::parse_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = EXAMPLE3.source;
    let program = parse_program(source).map_err(|e| e.render(source))?;

    // 1. The default budget verifies updateAll despite the cyclic
    //    inclusion.
    let report =
        Engine::new(EngineOptions::default())?.check_program("linked_list", source, &program);
    let verdict = &report.obligations[0].verdict;
    println!("default budget:\nimpl updateAll: {verdict}\n");
    assert!(report.all_verified());

    // 2. A starved budget reproduces the divergence as Unknown-with-stats.
    let starved = CheckOptions {
        budget: Budget::tiny(),
        ..CheckOptions::default()
    };
    let report = Engine::new(EngineOptions {
        check: starved,
        ..EngineOptions::default()
    })?
    .check_program("linked_list", source, &program);
    let verdict = &report.obligations[0].verdict;
    println!("starved budget: {}", verdict.label());
    match verdict {
        Verdict::Unknown(stats) => {
            println!(
                "  the matching loop was cut off after {} instantiations ({} deferred)",
                stats.instances, stats.deferred_instances
            );
        }
        other => println!("  (prover got lucky: {})", other.label()),
    }

    // 3. Run updateAll over a concrete three-element list and watch the
    //    effect monitor accept every write — the whole list is one data
    //    group.
    let scope = Scope::analyze(&program)?;
    let mut interp = Interp::new(&scope, ExecConfig::default(), RngOracle::seeded(1));
    let next = scope.attr("next").expect("declared");
    let value = scope.attr("value").expect("declared");
    let (a, b, c) = {
        let store = interp.store_mut();
        let a = store.alloc();
        let b = store.alloc();
        let c = store.alloc();
        store.write(Loc { obj: a, attr: next }, Value::Obj(b));
        store.write(Loc { obj: b, attr: next }, Value::Obj(c));
        store.write(
            Loc {
                obj: a,
                attr: value,
            },
            Value::Int(10),
        );
        store.write(
            Loc {
                obj: b,
                attr: value,
            },
            Value::Int(20),
        );
        store.write(
            Loc {
                obj: c,
                attr: value,
            },
            Value::Int(30),
        );
        (a, b, c)
    };
    let impl_id = scope.impls().next().expect("one impl").0;
    let outcome = interp.run_impl(impl_id, &[Value::Obj(a)]);
    println!("\ninterpreter outcome: {outcome:?}");
    assert!(outcome.is_acceptable());
    let store = interp.store();
    let values: Vec<Value> = [a, b, c]
        .iter()
        .map(|&o| {
            store.read(Loc {
                obj: o,
                attr: value,
            })
        })
        .collect();
    println!("list values after updateAll: {values:?}");
    assert_eq!(values, vec![Value::Int(11), Value::Int(21), Value::Int(31)]);
    Ok(())
}
