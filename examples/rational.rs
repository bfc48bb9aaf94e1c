//! Information hiding with data groups (Section 2 of the paper): a
//! rational-number library whose public interface exposes only the
//! abstract group `value`, while `num`/`den` stay private.
//!
//! A *client* is checked against the interface alone — it never sees the
//! representation — yet its frame reasoning about `normalize` calls is
//! sound for every representation the library may choose.
//!
//! ```sh
//! cargo run --example rational
//! ```

use oolong::datagroups::overhead;
use oolong::engine::{Engine, EngineOptions};
use oolong::syntax::parse_program;

/// The public interface: the abstract group and the operations' frames.
const INTERFACE: &str = "
group value
field tag
proc normalize(r) modifies r.value
proc set_tag(r) modifies r.tag
";

/// A client sees only the interface. Its assertion that `tag` survives
/// `normalize` is provable because `tag` is not included in `value`.
const CLIENT: &str = "
proc client(r) modifies r.value, r.tag
impl client(r) {
  assume r != null ;
  set_tag(r) ;
  var t in
    t := r.tag ;
    normalize(r) ;
    assert t = r.tag
  end
}
";

/// The private implementation reveals the representation of `value`.
const IMPLEMENTATION: &str = "
field num in value
field den in value
impl normalize(r) {
  assume r != null ;
  if r.den < 0 then
    r.num := 0 - r.num ;
    r.den := 0 - r.den
  end
}
// Note: `r.tag := t` for a formal `t` would violate pivot uniqueness
// (formal parameters may not be copied into fields — the paper's
// deliberately drastic restriction), so the setter writes a constant.
impl set_tag(r) { assume r != null ; r.tag := 7 }
";

fn check(label: &str, source: &str) -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(source).map_err(|e| e.render(source))?;
    let report = Engine::new(EngineOptions::default())?.check_program(label, source, &program);
    println!("{label}:");
    for o in &report.obligations {
        println!("impl {}: {}", o.proc_name, o.verdict);
    }
    assert!(report.all_verified(), "{label} should verify");
    println!("\n  {}\n", overhead(&program));
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The client is checked against the interface only: the representation
    // fields are not in scope.
    check("client against interface", &format!("{INTERFACE}{CLIENT}"))?;

    // The library's own implementations are checked in the private scope.
    check(
        "library implementation",
        &format!("{INTERFACE}{IMPLEMENTATION}"),
    )?;

    // And everything still verifies with all declarations visible — scope
    // monotonicity means publishing the representation cannot break the
    // client.
    check(
        "whole program",
        &format!("{INTERFACE}{CLIENT}{IMPLEMENTATION}"),
    )?;
    Ok(())
}
