//! Array dependencies (the paper's §6 future work, implemented): a table
//! whose `state` group includes an array of bucket objects — every slot of
//! the array, and the `bucketstate` of every element, is part of the
//! table's abstract state.
//!
//! ```sh
//! cargo run --example array_table
//! ```

use oolong::corpus::paper::ARRAY_TABLE;
use oolong::engine::{Engine, EngineOptions};
use oolong::interp::{ExecConfig, FirstOracle, Interp, Loc, Value};
use oolong::sema::Scope;
use oolong::syntax::parse_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = ARRAY_TABLE.source;
    let program = parse_program(source).map_err(|e| e.render(source))?;

    // 1. Static checking: every implementation verifies — including
    //    `observer`, whose assertion about a foreign bucket `x` is
    //    protected by the elementwise owner-exclusion clauses.
    let report =
        Engine::new(EngineOptions::default())?.check_program("array_table", source, &program);
    println!("static checker:");
    for o in &report.obligations {
        println!("impl {}: {}", o.proc_name, o.verdict);
    }
    println!();

    // 2. Run the pipeline under the effect monitor: installing buckets and
    //    bumping one through the elem-pivot closure is licensed.
    let scope = Scope::analyze(&program)?;
    let mut interp = Interp::new(&scope, ExecConfig::default(), FirstOracle);
    let t = interp.store_mut().alloc();
    let tinit = impl_of(&scope, "tinit");
    assert!(interp.run_impl(tinit, &[Value::Obj(t)]).is_acceptable());
    let touch = impl_of(&scope, "touch");
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
        .expect("installed");
    let b0 = interp
        .store()
        .read_slot(arr, 0)
        .as_obj()
        .expect("bucket present");
    println!(
        "after tinit + touch: bucket 0 count = {}",
        interp.store().read(Loc {
            obj: b0,
            attr: count
        })
    );

    // 3. A slot write without the elem license is caught by the monitor.
    let sneak = parse_program(
        "group state
         field buckets in state maps elem state into state
         proc sneak(t)
         impl sneak(t) { assume t != null && t.buckets != null ; t.buckets[0] := null }",
    )?;
    let sneak_scope = Scope::analyze(&sneak)?;
    let mut interp = Interp::new(&sneak_scope, ExecConfig::default(), FirstOracle);
    let t = interp.store_mut().alloc();
    let arr = interp.store_mut().alloc();
    let buckets = sneak_scope.attr("buckets").unwrap();
    interp.store_mut().write(
        Loc {
            obj: t,
            attr: buckets,
        },
        Value::Obj(arr),
    );
    let outcome = interp.run_impl(impl_of(&sneak_scope, "sneak"), &[Value::Obj(t)]);
    println!("\nunlicensed slot write: {outcome:?}");
    assert!(!outcome.is_acceptable());
    Ok(())
}

fn impl_of(scope: &Scope, name: &str) -> oolong::sema::ImplId {
    scope
        .impls()
        .find(|(_, i)| scope.proc_info(i.proc).name == name)
        .map(|(id, _)| id)
        .unwrap_or_else(|| panic!("impl {name} exists"))
}
