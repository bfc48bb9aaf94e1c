//! Facade crate for the `oolong-datagroups` workspace.
//!
//! Re-exports the sub-crates so downstream users can depend on a single
//! crate. See [`datagroups`] for the paper's contribution (the modular
//! side-effect checker), [`syntax`] for the `oolong` language frontend,
//! [`prover`] for the Simplify-style theorem prover, and [`interp`] for the
//! reference interpreter with its runtime effect monitor.
//!
//! Every check runs through [`engine`]: one obligation per
//! implementation, proved in parallel against its scope and cached by
//! fingerprint.
//!
//! ```
//! use oolong::engine::{Engine, EngineOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::new(EngineOptions::default())?;
//! let report = engine.check_source(
//!     "bump.oo",
//!     "group value
//!      field num in value
//!      proc bump(r) modifies r.value
//!      impl bump(r) { assume r != null ; r.num := r.num + 1 }",
//! );
//! assert!(report.all_verified());
//! assert_eq!(report.obligations[0].verdict.label(), "verified");
//! # Ok(())
//! # }
//! ```
pub use datagroups;
pub use oolong_corpus as corpus;
pub use oolong_diagnose as diagnose;
pub use oolong_engine as engine;
pub use oolong_infer as infer;
pub use oolong_interp as interp;
pub use oolong_logic as logic;
pub use oolong_prover as prover;
pub use oolong_sema as sema;
pub use oolong_serve as serve;
pub use oolong_syntax as syntax;
