//! A Simplify-style automatic theorem prover for the object-store logic.
//!
//! The paper's checker discharges verification conditions with Simplify,
//! "the automatic theorem prover that powers the program checkers
//! ESC/Modula-3 and ESC/Java". This crate is a from-scratch substitute in
//! the same architecture class:
//!
//! * a congruence-closure **E-graph** over ground terms with interpreted
//!   constants and eager arithmetic evaluation ([`egraph`]);
//! * DPLL-style **case splitting** with unit propagation over a tableau of
//!   disjunctions ([`prover`]);
//! * **E-matching** of quantifier triggers against the E-graph, with
//!   automatic trigger inference when axioms carry none ([`matcher`],
//!   [`triggers`]);
//! * explicit **fuel accounting** ([`Budget`]) so that matching loops —
//!   like the divergence the paper reports for cyclic rep inclusions —
//!   surface as a measurable [`Outcome::Unknown`] with statistics instead
//!   of a hang.
//!
//! Every proof runs in a [`ScopeContext`]. Its one constructor,
//! [`ScopeContext::new`]`(background, phases, budget)`, asserts and
//! saturates a background once; each [`ScopeContext::prove`] then runs in
//! a checkpoint frame on top and rolls back. [`prove`] is the one-shot
//! form: a single-use context over an empty background.
//!
//! # Example
//!
//! ```
//! use oolong_logic::{Formula, Term};
//! use oolong_prover::{prove, Budget};
//!
//! let hyps = [Formula::eq(Term::var("a"), Term::var("b"))];
//! let goal = Formula::eq(
//!     Term::uninterp("f", vec![Term::var("a")]),
//!     Term::uninterp("f", vec![Term::var("b")]),
//! );
//! assert!(prove(&hyps, &goal, &Budget::default()).is_proved());
//! ```

pub mod egraph;
mod fxhash;
pub mod matcher;
pub mod prover;
pub mod triggers;

pub use egraph::{Conflict, EGraph, EgMark, NodeId, Sym};
pub use prover::{
    prove, Budget, CandidateModel, Divergence, ModelClass, ModelRelation, ModelSelect, Outcome,
    Proof, QuantProfile, ScopeContext, SearchStrategy, Stats, UnknownReason,
};
pub use triggers::QuantKind;
