//! Example programs and program generators for the oolong checker.
//!
//! [`paper`] contains the programs of the PLDI 2002 paper (Sections 2, 3,
//! and 5) in executable form; [`generate`] produces random well-formed
//! programs for property testing and scaling benchmarks.
//!
//! # Example
//!
//! ```
//! use oolong_corpus::paper;
//! use oolong_syntax::parse_program;
//!
//! let q = paper::SECTION30_Q;
//! assert!(parse_program(q.source).is_ok());
//! assert_eq!(q.section, "3.0");
//! ```

pub mod generate;
pub mod paper;

pub use generate::{
    extend_source, generate_branchy_source, generate_cyclic_source, generate_invariant_source,
    generate_read_effect_source, generate_seeded_violation_source, generate_seeded_violation_with,
    generate_source, generate_unannotated_source, GenConfig, SeededBug, SeededViolation,
    TruthFrame, UnannotatedConfig, UnannotatedProgram,
};
pub use paper::{all, by_name, load_source, CorpusProgram};
