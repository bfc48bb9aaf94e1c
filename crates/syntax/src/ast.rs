//! Abstract syntax trees for oolong programs.
//!
//! The shapes follow Figures 0 and 1 of the paper directly: a program is a
//! set of declarations (data groups, object fields, procedures, and
//! procedure implementations); commands are guarded commands with
//! nondeterministic choice; expressions are constants, identifiers,
//! designator expressions `e.x`, and operator applications.
//!
//! Two pieces of surface sugar are represented explicitly and desugared on
//! demand (see [`Cmd::desugared`]): `skip` (equivalent to `assert true`) and
//! `if B then C else D end`, which the paper encodes as
//! `(assume !B ; D) [] (assume B ; C)`.

use crate::span::Span;
use std::fmt;

/// An identifier occurrence with its source span.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// The identifier text.
    pub text: String,
    /// Where it occurred.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a dummy span (for synthesised nodes).
    pub fn synthetic(text: impl Into<String>) -> Self {
        Ident {
            text: text.into(),
            span: Span::DUMMY,
        }
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// A complete oolong program: a set of declarations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The declarations, in source order.
    pub decls: Vec<Decl>,
}

impl Program {
    /// Iterates over the group declarations.
    pub fn groups(&self) -> impl Iterator<Item = &GroupDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Group(g) => Some(g),
            _ => None,
        })
    }

    /// Iterates over the field declarations.
    pub fn fields(&self) -> impl Iterator<Item = &FieldDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Field(fd) => Some(fd),
            _ => None,
        })
    }

    /// Iterates over the procedure declarations.
    pub fn procs(&self) -> impl Iterator<Item = &ProcDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Proc(p) => Some(p),
            _ => None,
        })
    }

    /// Iterates over the procedure implementations.
    pub fn impls(&self) -> impl Iterator<Item = &ImplDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Impl(i) => Some(i),
            _ => None,
        })
    }

    /// Iterates over the object-invariant declarations.
    pub fn invariants(&self) -> impl Iterator<Item = &InvariantDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Invariant(v) => Some(v),
            _ => None,
        })
    }
}

/// A top-level declaration (Figure 0 of the paper, plus the `module`
/// extension).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Decl {
    /// `group g in h, k, ...`
    Group(GroupDecl),
    /// `field f in h, ... maps x into g, ... `
    Field(FieldDecl),
    /// `proc p(t, u, ...) modifies E, F, ...`
    Proc(ProcDecl),
    /// `impl p(t, u, ...) { C }`
    Impl(ImplDecl),
    /// `invariant E` (extension) — an object invariant over the receiver
    /// `this`, constrained by sema to depend only on locations reachable
    /// through the object's declared data groups.
    Invariant(InvariantDecl),
    /// `module M imports N, ... { decls }` — an extension making the
    /// paper's prose notion of interface/implementation modules explicit
    /// ("a module is just a set of declarations"; the scope of a module is
    /// its own declarations plus those of the modules it transitively
    /// imports). Names remain globally unique, as in the paper.
    Module(ModuleDecl),
}

impl Decl {
    /// The declared name (procedure name for `impl`); `None` for the
    /// anonymous `invariant` declaration.
    pub fn name(&self) -> Option<&Ident> {
        match self {
            Decl::Group(g) => Some(&g.name),
            Decl::Field(f) => Some(&f.name),
            Decl::Proc(p) => Some(&p.name),
            Decl::Impl(i) => Some(&i.name),
            Decl::Invariant(_) => None,
            Decl::Module(m) => Some(&m.name),
        }
    }

    /// The full source span of the declaration.
    pub fn span(&self) -> Span {
        match self {
            Decl::Group(g) => g.span,
            Decl::Field(f) => f.span,
            Decl::Proc(p) => p.span,
            Decl::Impl(i) => i.span,
            Decl::Invariant(v) => v.span,
            Decl::Module(m) => m.span,
        }
    }
}

/// `module M imports N, ... { decls }` — see [`Decl::Module`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModuleDecl {
    /// The module's name.
    pub name: Ident,
    /// Names of imported modules.
    pub imports: Vec<Ident>,
    /// The declarations the module contributes.
    pub decls: Vec<Decl>,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// `group g in h, k, ...` — declares a data group `g`, included in the
/// listed enclosing groups.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupDecl {
    /// The group's name.
    pub name: Ident,
    /// Groups this group is declared to be `in` (may be empty).
    pub includes: Vec<Ident>,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// One `maps x into g, h, ...` clause on a field declaration.
///
/// Declaring `field f maps x into g` makes `f` a *pivot field* and records
/// the rep inclusions `g →f x` (for every listed target group).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MapsClause {
    /// The attribute of the referenced object being mapped (`x`).
    pub mapped: Ident,
    /// The enclosing groups it is mapped into (`g, h, ...`).
    pub into: Vec<Ident>,
    /// `maps elem x into g` (extension): the field references an *array*
    /// whose every integer slot, and attribute `x` of every element stored
    /// in those slots, is included in `g` — the array dependencies of the
    /// paper's §6 future work.
    pub elementwise: bool,
    /// Source span of the clause.
    pub span: Span,
}

/// `field f in h, ... maps x into g ...` — declares an object field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldDecl {
    /// The field's name.
    pub name: Ident,
    /// Groups this field is declared to be `in` (local inclusions).
    pub includes: Vec<Ident>,
    /// `maps ... into ...` clauses (rep inclusions); non-empty iff the
    /// field is a pivot field.
    pub maps: Vec<MapsClause>,
    /// Source span of the whole declaration.
    pub span: Span,
}

impl FieldDecl {
    /// Whether this field is a pivot field (has at least one `maps into`
    /// clause), per Section 2 of the paper.
    pub fn is_pivot(&self) -> bool {
        !self.maps.is_empty()
    }
}

/// `proc p(t, u, ...) modifies E, F, ... reads G, H, ...` — a procedure
/// declaration with its modifies list and optional read frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcDecl {
    /// The procedure's name.
    pub name: Ident,
    /// Formal parameter names.
    pub params: Vec<Ident>,
    /// Designator expressions the procedure is licensed to modify.
    pub modifies: Vec<Expr>,
    /// Designator expressions the procedure is licensed to read
    /// (extension). `None` means no `reads` clause was written: the
    /// procedure's reads are unconstrained, which is the paper's original
    /// language. `Some` — even with a single entry — arms read-frame
    /// checking for every implementation of the procedure.
    pub reads: Option<Vec<Expr>>,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// `invariant E` (extension) — declares an object invariant. The
/// expression may mention the distinguished receiver `this`; sema rejects
/// invariants that dereference attributes not reachable through the
/// object's declared data groups.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InvariantDecl {
    /// The invariant body, over the receiver `this`.
    pub expr: Expr,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// `impl p(t, u, ...) { C }` — an implementation of procedure `p`.
///
/// The paper requires the parameter list to repeat the procedure
/// declaration's parameters verbatim; `oolong-sema` enforces this.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImplDecl {
    /// Name of the procedure being implemented.
    pub name: Ident,
    /// Formal parameter names (must match the `proc` declaration).
    pub params: Vec<Ident>,
    /// The implementation body.
    pub body: Cmd,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// A command (Figure 1 of the paper, plus `skip` and `if` sugar).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cmd {
    /// `assert E` — goes *wrong* if `E` is false.
    Assert(Expr, Span),
    /// `assume E` — *blocks* if `E` is false.
    Assume(Expr, Span),
    /// `var x in C end` — local variable with arbitrary initial value.
    Var(Ident, Box<Cmd>, Span),
    /// `E0 := E1` — assignment to a local variable or an object field.
    Assign { lhs: Expr, rhs: Expr, span: Span },
    /// `E := new()` — allocation.
    AssignNew { lhs: Expr, span: Span },
    /// `C ; D` — sequential composition.
    Seq(Box<Cmd>, Box<Cmd>),
    /// `C [] D` — nondeterministic choice.
    Choice(Box<Cmd>, Box<Cmd>),
    /// `p(E1, ..., En)` — procedure call, dispatched to an arbitrary
    /// implementation of `p`.
    Call {
        proc: Ident,
        args: Vec<Expr>,
        span: Span,
    },
    /// `skip` — sugar for `assert true`.
    Skip(Span),
    /// `if B then C else D end` — sugar for `(assume !B ; D) [] (assume B ; C)`.
    If {
        cond: Expr,
        then_branch: Box<Cmd>,
        else_branch: Box<Cmd>,
        span: Span,
    },
}

impl Cmd {
    /// The source span of the command.
    pub fn span(&self) -> Span {
        match self {
            Cmd::Assert(_, s)
            | Cmd::Assume(_, s)
            | Cmd::Var(_, _, s)
            | Cmd::Assign { span: s, .. }
            | Cmd::AssignNew { span: s, .. }
            | Cmd::Call { span: s, .. }
            | Cmd::Skip(s)
            | Cmd::If { span: s, .. } => *s,
            Cmd::Seq(a, b) | Cmd::Choice(a, b) => a.span().to(b.span()),
        }
    }

    /// Removes the `skip` and `if` sugar, producing a command built only
    /// from the primitive forms of Figure 1.
    ///
    /// `skip` becomes `assert true`; `if B then C else D end` becomes
    /// `(assume !B ; D') [] (assume B ; C')` exactly as in Section 2 of
    /// the paper, where the primed commands are recursively desugared.
    #[must_use]
    pub fn desugared(&self) -> Cmd {
        match self {
            Cmd::Skip(s) => Cmd::Assert(Expr::Const(Const::Bool(true), *s), *s),
            Cmd::If {
                cond,
                then_branch,
                else_branch,
                span: _,
            } => {
                let neg = Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(cond.clone()),
                    span: cond.span(),
                };
                // The synthesised assumes carry the *condition's* span, not
                // the whole `if` command's, so downstream diagnostics point
                // at the guard rather than the entire statement.
                let else_arm = Cmd::Seq(
                    Box::new(Cmd::Assume(neg, cond.span())),
                    Box::new(else_branch.desugared()),
                );
                let then_arm = Cmd::Seq(
                    Box::new(Cmd::Assume(cond.clone(), cond.span())),
                    Box::new(then_branch.desugared()),
                );
                Cmd::Choice(Box::new(else_arm), Box::new(then_arm))
            }
            Cmd::Assert(e, s) => Cmd::Assert(e.clone(), *s),
            Cmd::Assume(e, s) => Cmd::Assume(e.clone(), *s),
            Cmd::Var(x, c, s) => Cmd::Var(x.clone(), Box::new(c.desugared()), *s),
            Cmd::Assign { lhs, rhs, span } => Cmd::Assign {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                span: *span,
            },
            Cmd::AssignNew { lhs, span } => Cmd::AssignNew {
                lhs: lhs.clone(),
                span: *span,
            },
            Cmd::Seq(a, b) => Cmd::Seq(Box::new(a.desugared()), Box::new(b.desugared())),
            Cmd::Choice(a, b) => Cmd::Choice(Box::new(a.desugared()), Box::new(b.desugared())),
            Cmd::Call { proc, args, span } => Cmd::Call {
                proc: proc.clone(),
                args: args.clone(),
                span: *span,
            },
        }
    }

    /// Visits every sub-command, including `self`, in pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Cmd)) {
        visit(self);
        match self {
            Cmd::Var(_, c, _) => c.walk(visit),
            Cmd::Seq(a, b) | Cmd::Choice(a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            Cmd::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.walk(visit);
                else_branch.walk(visit);
            }
            _ => {}
        }
    }
}

/// A constant (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Const {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal.
    Int(i64),
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Null => write!(f, "null"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Int(n) => write!(f, "{n}"),
        }
    }
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `=` — equality on values.
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether the operator yields a boolean.
    pub fn is_predicate(&self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }

    /// Whether the operator could return an object reference.
    ///
    /// The pivot-uniqueness restriction (Section 3.0) requires that the
    /// right operand of an assignment never be an operator expression whose
    /// operator "may return an object"; none of oolong's pre-defined
    /// operators do, so this is uniformly `false`. It is kept as a method
    /// so a hypothetical object-returning operator extension would flow
    /// through the restriction checker automatically.
    pub fn may_return_object(&self) -> bool {
        false
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `!` — boolean negation.
    Not,
    /// `-` — arithmetic negation.
    Neg,
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnaryOp::Not => write!(f, "!"),
            UnaryOp::Neg => write!(f, "-"),
        }
    }
}

/// An expression (Figure 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant.
    Const(Const, Span),
    /// A local variable or formal parameter.
    Id(Ident),
    /// A designator expression `E.x` selecting attribute `x`.
    Select {
        base: Box<Expr>,
        attr: Ident,
        span: Span,
    },
    /// An array slot `E[I]` (extension): the value stored at integer key
    /// `I` of the array object `E`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        span: Span,
    },
    /// A binary operator application.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    /// A unary operator application.
    Unary {
        op: UnaryOp,
        operand: Box<Expr>,
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Const(_, s) => *s,
            Expr::Id(id) => id.span,
            Expr::Select { span, .. }
            | Expr::Index { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. } => *span,
        }
    }

    /// If this expression is a designator chain `x.a1.a2...an` rooted at an
    /// identifier, returns the root and the attribute path (possibly empty).
    pub fn as_designator_chain(&self) -> Option<(&Ident, Vec<&Ident>)> {
        match self {
            Expr::Id(id) => Some((id, Vec::new())),
            Expr::Select { base, attr, .. } => {
                let (root, mut path) = base.as_designator_chain()?;
                path.push(attr);
                Some((root, path))
            }
            _ => None,
        }
    }

    /// Visits every sub-expression, including `self`, in pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Select { base, .. } => base.walk(visit),
            Expr::Index { base, index, .. } => {
                base.walk(visit);
                index.walk(visit);
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::Unary { operand, .. } => operand.walk(visit),
            Expr::Const(..) | Expr::Id(_) => {}
        }
    }

    /// Convenience constructor for an identifier expression.
    pub fn ident(text: impl Into<String>) -> Expr {
        Expr::Id(Ident::synthetic(text))
    }

    /// Convenience constructor for `base.attr` with dummy spans.
    pub fn select(base: Expr, attr: impl Into<String>) -> Expr {
        Expr::Select {
            base: Box::new(base),
            attr: Ident::synthetic(attr),
            span: Span::DUMMY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::synthetic(s)
    }

    #[test]
    fn designator_chain_extraction() {
        // t.c.d.g
        let e = Expr::select(Expr::select(Expr::select(Expr::ident("t"), "c"), "d"), "g");
        let (root, path) = e.as_designator_chain().expect("is a chain");
        assert_eq!(root.text, "t");
        let names: Vec<_> = path.iter().map(|i| i.text.as_str()).collect();
        assert_eq!(names, vec!["c", "d", "g"]);

        let not_chain = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::ident("a")),
            rhs: Box::new(Expr::ident("b")),
            span: Span::DUMMY,
        };
        assert!(not_chain.as_designator_chain().is_none());
    }

    #[test]
    fn if_desugars_to_guarded_choice() {
        let cond = Expr::ident("b");
        let cmd = Cmd::If {
            cond: cond.clone(),
            then_branch: Box::new(Cmd::Skip(Span::DUMMY)),
            else_branch: Box::new(Cmd::Assert(
                Expr::Const(Const::Bool(false), Span::DUMMY),
                Span::DUMMY,
            )),
            span: Span::DUMMY,
        };
        let de = cmd.desugared();
        // (assume !b ; assert false) [] (assume b ; assert true)
        match de {
            Cmd::Choice(else_arm, then_arm) => {
                match *else_arm {
                    Cmd::Seq(first, _) => match *first {
                        Cmd::Assume(
                            Expr::Unary {
                                op: UnaryOp::Not, ..
                            },
                            _,
                        ) => {}
                        other => panic!("expected assume !b, got {other:?}"),
                    },
                    other => panic!("expected seq, got {other:?}"),
                }
                match *then_arm {
                    Cmd::Seq(first, second) => {
                        assert!(matches!(*first, Cmd::Assume(Expr::Id(_), _)));
                        // skip desugars to assert true
                        assert!(matches!(
                            *second,
                            Cmd::Assert(Expr::Const(Const::Bool(true), _), _)
                        ));
                    }
                    other => panic!("expected seq, got {other:?}"),
                }
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn pivot_detection() {
        let plain = FieldDecl {
            name: id("cnt"),
            includes: vec![],
            maps: vec![],
            span: Span::DUMMY,
        };
        assert!(!plain.is_pivot());
        let pivot = FieldDecl {
            name: id("vec"),
            includes: vec![],
            maps: vec![MapsClause {
                mapped: id("elems"),
                into: vec![id("contents")],
                elementwise: false,
                span: Span::DUMMY,
            }],
            span: Span::DUMMY,
        };
        assert!(pivot.is_pivot());
    }

    #[test]
    fn walk_visits_all_subcommands() {
        let body = Cmd::Seq(
            Box::new(Cmd::Skip(Span::DUMMY)),
            Box::new(Cmd::Choice(
                Box::new(Cmd::Assert(Expr::ident("x"), Span::DUMMY)),
                Box::new(Cmd::Var(
                    id("y"),
                    Box::new(Cmd::Skip(Span::DUMMY)),
                    Span::DUMMY,
                )),
            )),
        );
        let mut count = 0;
        body.walk(&mut |_| count += 1);
        assert_eq!(count, 6);
    }

    #[test]
    fn program_accessors_filter_by_kind() {
        let prog = Program {
            decls: vec![
                Decl::Group(GroupDecl {
                    name: id("g"),
                    includes: vec![],
                    span: Span::DUMMY,
                }),
                Decl::Field(FieldDecl {
                    name: id("f"),
                    includes: vec![],
                    maps: vec![],
                    span: Span::DUMMY,
                }),
                Decl::Proc(ProcDecl {
                    name: id("p"),
                    params: vec![],
                    modifies: vec![],
                    reads: None,
                    span: Span::DUMMY,
                }),
                Decl::Impl(ImplDecl {
                    name: id("p"),
                    params: vec![],
                    body: Cmd::Skip(Span::DUMMY),
                    span: Span::DUMMY,
                }),
            ],
        };
        assert_eq!(prog.groups().count(), 1);
        assert_eq!(prog.fields().count(), 1);
        assert_eq!(prog.procs().count(), 1);
        assert_eq!(prog.impls().count(), 1);
    }
}
