//! Frontend for **oolong**, the primitive object-oriented language of
//!
//! > K. R. M. Leino, A. Poetzsch-Heffter, Y. Zhou.
//! > *Using Data Groups to Specify and Check Side Effects.* PLDI 2002.
//!
//! The crate provides the lexer, abstract syntax trees, a recursive-descent
//! parser, a canonical pretty-printer, and span-carrying diagnostics. The
//! grammar follows Figures 0 and 1 of the paper, with ASCII spellings
//! (`[]` for the choice operator) and two pieces of sugar the paper
//! describes in prose: `skip` and `if … then … else … end`.
//!
//! # Example
//!
//! ```
//! use oolong_syntax::{parse_program, pretty::print_program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "group contents
//!      field vec maps elems into contents
//!      proc push(s, o) modifies s.contents",
//! )?;
//! assert_eq!(program.decls.len(), 3);
//! let canonical = print_program(&program);
//! assert!(canonical.contains("maps elems into contents"));
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::{
    BinOp, Cmd, Const, Decl, Expr, FieldDecl, GroupDecl, Ident, ImplDecl, InvariantDecl,
    MapsClause, ModuleDecl, ProcDecl, Program, UnaryOp,
};
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use parser::{parse_command, parse_expr, parse_program, MAX_NESTING};
pub use span::{LineCol, LineMap, Span};
