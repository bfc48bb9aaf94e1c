//! **Data groups for specifying and statically checking side effects** —
//! the primary contribution of
//!
//! > K. R. M. Leino, A. Poetzsch-Heffter, Y. Zhou.
//! > *Using Data Groups to Specify and Check Side Effects.* PLDI 2002.
//!
//! The crate implements, for the oolong language:
//!
//! * the **pivot uniqueness** restriction (Section 3.0) — [`restrict`];
//! * the **owner exclusion** restriction (Section 3.1), generated as a
//!   call-site obligation and entry assumption — [`effects`], [`vcgen`];
//! * the translation `tr` and weakest-liberal-precondition semantics `wlp`
//!   of Figures 2 and 3 — [`translate`], [`vcgen`];
//! * the universal and scope-dependent **background predicates** with
//!   axioms (4), (6), (7), (8), (9) — [`background`];
//! * the per-obligation **checker** steps with their naive
//!   (restriction-free) baseline — [`checker`];
//! * **specification-overhead metrics** — [`metrics`].
//!
//! # Example
//!
//! The per-obligation steps, driven by hand: generate each
//! implementation's VC and prove it. `oolong-engine` runs the same steps
//! for every obligation, with the restriction check, caching and pooled
//! prover contexts.
//!
//! ```
//! use datagroups::{CheckOptions, Checker};
//! use oolong_syntax::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "group value
//!      field num in value
//!      proc bump(r) modifies r.value
//!      impl bump(r) { r.num := r.num + 1 }",
//! )?;
//! let checker = Checker::new(&program, CheckOptions::default())?;
//! for (impl_id, _) in checker.scope().impls() {
//!     let vc = checker.vc(impl_id)?;
//!     assert!(checker.verdict_for_vc(&vc).is_verified());
//! }
//! # Ok(())
//! # }
//! ```

pub mod background;
pub mod checker;
pub mod effects;
pub mod metrics;
pub mod restrict;
pub mod slice;
pub mod translate;
pub mod vcgen;

pub use background::{Axiom, Background, SlicedBackground};
pub use checker::{CheckOptions, Checker, Refutation, Verdict};
pub use effects::{ModEntry, ModList};
pub use metrics::{overhead, prover_metrics, HotAxiom, OverheadReport, ProverMetrics};
pub use restrict::check_pivot_uniqueness;
pub use slice::{is_sliceable, slice_background, BackgroundSlice};
pub use vcgen::{Hypotheses, ObligationKind, ObligationLabel, Vc, VcGen};
