//! Recursive-descent parser for oolong.
//!
//! Grammar (Figures 0 and 1 of the paper, in ASCII concrete syntax):
//!
//! ```text
//! program  ::= decl*
//! decl     ::= "group" ID ("in" idlist)?
//!            | "field" ID ("in" idlist)? ("maps" ID "into" idlist)*
//!            | "proc" ID "(" idlist? ")" ("modifies" exprlist)? ("reads" exprlist)?
//!            | "impl" ID "(" idlist? ")" "{" cmd "}"
//!            | "invariant" expr                                 -- extension
//!            | "module" ID ("imports" idlist)? "{" decl* "}"    -- extension
//! cmd      ::= seq ("[]" seq)*                      -- choice, lowest
//! seq      ::= atom (";" atom)*
//! atom     ::= "assert" expr | "assume" expr | "skip"
//!            | "var" ID ("," ID)* "in" cmd "end"
//!            | "if" expr "then" cmd ("else" cmd)? "end"
//!            | "{" cmd "}"
//!            | ID "(" exprlist? ")"                 -- call
//!            | expr ":=" ("new" "(" ")" | expr)
//! expr     ::= or-expr with usual precedence; postfix ".x" selection
//! ```
//!
//! `var x, y in C end` is sugar for nested `var` commands; an omitted
//! `else` branch defaults to `skip`.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a complete oolong program.
///
/// # Errors
///
/// Returns the accumulated [`Diagnostics`] if lexing or parsing failed.
pub fn parse_program(source: &str) -> Result<Program, Diagnostics> {
    let (tokens, mut diags) = lex(source);
    let mut parser = Parser::new(tokens);
    let program = parser.program();
    parser.reject_tall_trees(&program.decls);
    diags.extend(parser.diags);
    if diags.has_errors() {
        Err(diags)
    } else {
        Ok(program)
    }
}

/// Parses a single command, for tests and tooling.
///
/// # Errors
///
/// Returns diagnostics if the source is not exactly one command.
pub fn parse_command(source: &str) -> Result<Cmd, Diagnostics> {
    let (tokens, mut diags) = lex(source);
    let mut parser = Parser::new(tokens);
    let cmd = parser.command();
    parser.expect_eof();
    diags.extend(parser.diags);
    match (cmd, diags.has_errors()) {
        (Some(c), false) => Ok(c),
        _ => Err(diags),
    }
}

/// Parses a single expression, for tests and tooling.
///
/// # Errors
///
/// Returns diagnostics if the source is not exactly one expression.
pub fn parse_expr(source: &str) -> Result<Expr, Diagnostics> {
    let (tokens, mut diags) = lex(source);
    let mut parser = Parser::new(tokens);
    let expr = parser.expr();
    parser.expect_eof();
    diags.extend(parser.diags);
    match (expr, diags.has_errors()) {
        (Some(e), false) => Ok(e),
        _ => Err(diags),
    }
}

/// Deepest nesting a program may have, counted in commands, expressions
/// and modules: a `;` or `[]` sequence, a `.f` chain and each operator
/// add one level apiece, as do parentheses and braces while parsing.
/// Analysis, VC generation and proving all recurse over the tree, so the
/// bound keeps every accepted program within a 2 MiB worker-thread stack.
/// The paper corpus and the generated populations nest under 30 levels.
pub const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
    /// Commands, expressions and modules currently being parsed.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            diags: Diagnostics::new(),
            depth: 0,
        }
    }

    fn nesting_error(&mut self, span: Span) {
        self.diags.push(Diagnostic::error(
            format!("nesting deeper than {MAX_NESTING} levels"),
            span,
        ));
    }

    /// Runs `parse` one level deeper. Past [`MAX_NESTING`] it reports the
    /// error and skips to the end of input instead, so nothing recurses
    /// further.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        if self.depth == MAX_NESTING {
            self.nesting_error(self.span());
            self.pos = self.tokens.len() - 1;
            return None;
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// Reports every declaration whose command or expression trees are
    /// taller than [`MAX_NESTING`]: left-nested `;`, `[]`, operator and
    /// selection chains grow the tree without deepening the parse.
    fn reject_tall_trees(&mut self, decls: &[Decl]) {
        for decl in decls {
            let tall = match decl {
                Decl::Impl(d) => cmd_taller(&d.body, MAX_NESTING),
                Decl::Proc(d) => d
                    .modifies
                    .iter()
                    .chain(d.reads.iter().flatten())
                    .any(|e| expr_taller(e, MAX_NESTING)),
                Decl::Invariant(d) => expr_taller(&d.expr, MAX_NESTING),
                Decl::Module(m) => {
                    self.reject_tall_trees(&m.decls);
                    false
                }
                Decl::Group(_) | Decl::Field(_) => false,
            };
            if tall {
                // Point at the name: the whole declaration may be huge.
                let start = decl.span().start;
                self.nesting_error(decl.name().map_or(Span::new(start, start), |n| n.span));
            }
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Steps over the current token if it is an identifier, moving its
    /// text into the returned [`Ident`]: the parser never reads a token
    /// it has stepped over, so each identifier's text is allocated once,
    /// by the lexer.
    fn take_ident(&mut self) -> Option<Ident> {
        let token = &mut self.tokens[self.pos];
        let TokenKind::Ident(text) = &mut token.kind else {
            return None;
        };
        let ident = Ident {
            text: std::mem::take(text),
            span: token.span,
        };
        self.bump();
        Some(ident)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> bool {
        if self.eat(kind) {
            true
        } else {
            let found = self.peek().describe();
            self.diags.push(Diagnostic::error(
                format!("expected `{kind}`, found {found}"),
                self.span(),
            ));
            false
        }
    }

    fn expect_eof(&mut self) {
        if !matches!(self.peek(), TokenKind::Eof) {
            let found = self.peek().describe();
            self.diags.push(Diagnostic::error(
                format!("expected end of input, found {found}"),
                self.span(),
            ));
        }
    }

    fn ident(&mut self) -> Option<Ident> {
        let ident = self.take_ident();
        if ident.is_none() {
            self.diags.push(Diagnostic::error(
                format!("expected identifier, found {}", self.peek().describe()),
                self.span(),
            ));
        }
        ident
    }

    fn ident_list(&mut self) -> Vec<Ident> {
        let mut ids = Vec::new();
        if let Some(id) = self.ident() {
            ids.push(id);
        }
        while self.eat(&TokenKind::Comma) {
            if let Some(id) = self.ident() {
                ids.push(id);
            }
        }
        ids
    }

    // ---------------------------------------------------------------- decls

    fn program(&mut self) -> Program {
        Program {
            decls: self.decl_list(true),
        }
    }

    /// Parses declarations until EOF (`top_level`) or a closing brace.
    fn decl_list(&mut self, top_level: bool) -> Vec<Decl> {
        let mut decls = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::RBrace if !top_level => break,
                TokenKind::Group => {
                    if let Some(d) = self.group_decl() {
                        decls.push(Decl::Group(d));
                    }
                }
                TokenKind::Field => {
                    if let Some(d) = self.field_decl() {
                        decls.push(Decl::Field(d));
                    }
                }
                TokenKind::Proc => {
                    if let Some(d) = self.proc_decl() {
                        decls.push(Decl::Proc(d));
                    }
                }
                TokenKind::Impl => {
                    if let Some(d) = self.impl_decl() {
                        decls.push(Decl::Impl(d));
                    }
                }
                TokenKind::Invariant => {
                    if let Some(d) = self.invariant_decl() {
                        decls.push(Decl::Invariant(d));
                    }
                }
                TokenKind::Module => {
                    if let Some(d) = self.module_decl() {
                        decls.push(Decl::Module(d));
                    }
                }
                other => {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "expected a declaration (`group`, `field`, `proc`, `impl`, `invariant`, or `module`), found {}",
                            other.describe()
                        ),
                        self.span(),
                    ));
                    self.bump();
                    self.recover_to_decl();
                }
            }
        }
        decls
    }

    fn module_decl(&mut self) -> Option<ModuleDecl> {
        let start = self.span();
        self.expect(&TokenKind::Module);
        let name = self.ident()?;
        let imports = if self.eat(&TokenKind::Imports) {
            self.ident_list()
        } else {
            Vec::new()
        };
        self.expect(&TokenKind::LBrace);
        let decls = self
            .nested(|p| Some(p.decl_list(false)))
            .unwrap_or_default();
        self.expect(&TokenKind::RBrace);
        Some(ModuleDecl {
            name,
            imports,
            decls,
            span: start.to(self.prev_span()),
        })
    }

    /// Skips tokens until the next declaration keyword or EOF, for error
    /// recovery.
    fn recover_to_decl(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Eof
                | TokenKind::Group
                | TokenKind::Field
                | TokenKind::Proc
                | TokenKind::Impl
                | TokenKind::Invariant
                | TokenKind::Module
                | TokenKind::RBrace => break,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn group_decl(&mut self) -> Option<GroupDecl> {
        let start = self.span();
        self.expect(&TokenKind::Group);
        let name = self.ident()?;
        let includes = if self.eat(&TokenKind::In) {
            self.ident_list()
        } else {
            Vec::new()
        };
        Some(GroupDecl {
            name,
            includes,
            span: start.to(self.prev_span()),
        })
    }

    fn field_decl(&mut self) -> Option<FieldDecl> {
        let start = self.span();
        self.expect(&TokenKind::Field);
        let name = self.ident()?;
        let includes = if self.eat(&TokenKind::In) {
            self.ident_list()
        } else {
            Vec::new()
        };
        let mut maps = Vec::new();
        while self.peek() == &TokenKind::Maps {
            let clause_start = self.span();
            self.bump();
            let elementwise = self.eat(&TokenKind::Elem);
            let mapped = self.ident()?;
            self.expect(&TokenKind::Into);
            let into = self.ident_list();
            maps.push(MapsClause {
                mapped,
                into,
                elementwise,
                span: clause_start.to(self.prev_span()),
            });
        }
        Some(FieldDecl {
            name,
            includes,
            maps,
            span: start.to(self.prev_span()),
        })
    }

    fn param_list(&mut self) -> Vec<Ident> {
        let mut params = Vec::new();
        self.expect(&TokenKind::LParen);
        if self.peek() != &TokenKind::RParen {
            params = self.ident_list();
        }
        self.expect(&TokenKind::RParen);
        params
    }

    fn proc_decl(&mut self) -> Option<ProcDecl> {
        let start = self.span();
        self.expect(&TokenKind::Proc);
        let name = self.ident()?;
        let params = self.param_list();
        let mut modifies = Vec::new();
        if self.eat(&TokenKind::Modifies) {
            if let Some(e) = self.expr() {
                modifies.push(e);
            }
            while self.eat(&TokenKind::Comma) {
                if let Some(e) = self.expr() {
                    modifies.push(e);
                }
            }
        }
        let reads = if self.eat(&TokenKind::Reads) {
            let mut entries = Vec::new();
            if let Some(e) = self.expr() {
                entries.push(e);
            }
            while self.eat(&TokenKind::Comma) {
                if let Some(e) = self.expr() {
                    entries.push(e);
                }
            }
            Some(entries)
        } else {
            None
        };
        Some(ProcDecl {
            name,
            params,
            modifies,
            reads,
            span: start.to(self.prev_span()),
        })
    }

    fn invariant_decl(&mut self) -> Option<InvariantDecl> {
        let start = self.span();
        self.expect(&TokenKind::Invariant);
        let expr = self.expr()?;
        Some(InvariantDecl {
            expr,
            span: start.to(self.prev_span()),
        })
    }

    fn impl_decl(&mut self) -> Option<ImplDecl> {
        let start = self.span();
        self.expect(&TokenKind::Impl);
        let name = self.ident()?;
        let params = self.param_list();
        self.expect(&TokenKind::LBrace);
        let body = self.command().unwrap_or(Cmd::Skip(self.span()));
        self.expect(&TokenKind::RBrace);
        Some(ImplDecl {
            name,
            params,
            body,
            span: start.to(self.prev_span()),
        })
    }

    // ------------------------------------------------------------- commands

    fn command(&mut self) -> Option<Cmd> {
        self.nested(Self::choice_command)
    }

    fn choice_command(&mut self) -> Option<Cmd> {
        let mut lhs = self.seq_command()?;
        while self.eat(&TokenKind::Choice) {
            let rhs = self.seq_command()?;
            lhs = Cmd::Choice(Box::new(lhs), Box::new(rhs));
        }
        Some(lhs)
    }

    fn seq_command(&mut self) -> Option<Cmd> {
        let mut lhs = self.atom_command()?;
        while self.eat(&TokenKind::Semi) {
            let rhs = self.atom_command()?;
            lhs = Cmd::Seq(Box::new(lhs), Box::new(rhs));
        }
        Some(lhs)
    }

    fn atom_command(&mut self) -> Option<Cmd> {
        let start = self.span();
        match self.peek() {
            TokenKind::Assert => {
                self.bump();
                let e = self.expr()?;
                Some(Cmd::Assert(e, start.to(self.prev_span())))
            }
            TokenKind::Assume => {
                self.bump();
                let e = self.expr()?;
                Some(Cmd::Assume(e, start.to(self.prev_span())))
            }
            TokenKind::Skip => {
                self.bump();
                Some(Cmd::Skip(start))
            }
            TokenKind::Var => {
                self.bump();
                let names = self.ident_list();
                self.expect(&TokenKind::In);
                let body = self.command()?;
                self.expect(&TokenKind::End);
                let span = start.to(self.prev_span());
                // var x, y in C end  ==>  var x in var y in C end end
                let mut cmd = body;
                for name in names.into_iter().rev() {
                    cmd = Cmd::Var(name, Box::new(cmd), span);
                }
                Some(cmd)
            }
            TokenKind::If => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::Then);
                let then_branch = self.command()?;
                let else_branch = if self.eat(&TokenKind::Else) {
                    self.command()?
                } else {
                    Cmd::Skip(self.span())
                };
                self.expect(&TokenKind::End);
                Some(Cmd::If {
                    cond,
                    then_branch: Box::new(then_branch),
                    else_branch: Box::new(else_branch),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::LBrace => {
                self.bump();
                let inner = self.command()?;
                self.expect(&TokenKind::RBrace);
                Some(inner)
            }
            TokenKind::Ident(_) if self.peek2() == &TokenKind::LParen => {
                // Procedure call.
                let proc = self.ident()?;
                self.expect(&TokenKind::LParen);
                let mut args = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    if let Some(e) = self.expr() {
                        args.push(e);
                    }
                    while self.eat(&TokenKind::Comma) {
                        if let Some(e) = self.expr() {
                            args.push(e);
                        }
                    }
                }
                self.expect(&TokenKind::RParen);
                Some(Cmd::Call {
                    proc,
                    args,
                    span: start.to(self.prev_span()),
                })
            }
            _ => {
                // Assignment: expr := (new() | expr)
                let lhs = self.expr()?;
                self.expect(&TokenKind::Assign);
                if self.peek() == &TokenKind::New {
                    self.bump();
                    self.expect(&TokenKind::LParen);
                    self.expect(&TokenKind::RParen);
                    Some(Cmd::AssignNew {
                        lhs,
                        span: start.to(self.prev_span()),
                    })
                } else {
                    let rhs = self.expr()?;
                    Some(Cmd::Assign {
                        lhs,
                        rhs,
                        span: start.to(self.prev_span()),
                    })
                }
            }
        }
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> Option<Expr> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.and_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Some(lhs)
    }

    fn and_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.cmp_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Some(lhs)
    }

    fn cmp_expr(&mut self) -> Option<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Some(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        let span = lhs.span().to(rhs.span());
        Some(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        })
    }

    fn add_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Some(lhs)
    }

    fn mul_expr(&mut self) -> Option<Expr> {
        let mut lhs = self.unary_expr()?;
        while self.eat(&TokenKind::Star) {
            let rhs = self.unary_expr()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Some(lhs)
    }

    fn unary_expr(&mut self) -> Option<Expr> {
        let start = self.span();
        match self.peek() {
            TokenKind::Bang => {
                self.bump();
                let operand = self.nested(Self::unary_expr)?;
                let span = start.to(operand.span());
                Some(Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(operand),
                    span,
                })
            }
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(Self::unary_expr)?;
                let span = start.to(operand.span());
                Some(Expr::Unary {
                    op: UnaryOp::Neg,
                    operand: Box::new(operand),
                    span,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Option<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            if self.eat(&TokenKind::Dot) {
                let attr = self.ident()?;
                let span = e.span().to(attr.span);
                e = Expr::Select {
                    base: Box::new(e),
                    attr,
                    span,
                };
            } else if self.eat(&TokenKind::LBracket) {
                let index = self.expr()?;
                self.expect(&TokenKind::RBracket);
                let span = e.span().to(self.prev_span());
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    span,
                };
            } else {
                break;
            }
        }
        Some(e)
    }

    fn primary_expr(&mut self) -> Option<Expr> {
        let span = self.span();
        match self.peek() {
            TokenKind::Null => {
                self.bump();
                Some(Expr::Const(Const::Null, span))
            }
            TokenKind::True => {
                self.bump();
                Some(Expr::Const(Const::Bool(true), span))
            }
            TokenKind::False => {
                self.bump();
                Some(Expr::Const(Const::Bool(false), span))
            }
            &TokenKind::Int(n) => {
                self.bump();
                Some(Expr::Const(Const::Int(n), span))
            }
            TokenKind::Ident(_) => self.take_ident().map(Expr::Id),
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen);
                Some(inner)
            }
            other => {
                let message = format!("expected an expression, found {}", other.describe());
                self.diags.push(Diagnostic::error(message, span));
                self.bump();
                None
            }
        }
    }
}

/// Whether `cmd` is more than `room` nodes tall; recurses at most `room`
/// deep.
fn cmd_taller(cmd: &Cmd, room: usize) -> bool {
    let Some(room) = room.checked_sub(1) else {
        return true;
    };
    match cmd {
        Cmd::Assert(e, _) | Cmd::Assume(e, _) | Cmd::AssignNew { lhs: e, .. } => {
            expr_taller(e, room)
        }
        Cmd::Assign { lhs, rhs, .. } => expr_taller(lhs, room) || expr_taller(rhs, room),
        Cmd::Var(_, body, _) => cmd_taller(body, room),
        Cmd::Seq(a, b) | Cmd::Choice(a, b) => cmd_taller(a, room) || cmd_taller(b, room),
        Cmd::Call { args, .. } => args.iter().any(|e| expr_taller(e, room)),
        Cmd::Skip(_) => false,
        Cmd::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            expr_taller(cond, room)
                || cmd_taller(then_branch, room)
                || cmd_taller(else_branch, room)
        }
    }
}

/// Whether `expr` is more than `room` nodes tall; recurses at most `room`
/// deep.
fn expr_taller(expr: &Expr, room: usize) -> bool {
    let Some(room) = room.checked_sub(1) else {
        return true;
    };
    match expr {
        Expr::Const(..) | Expr::Id(_) => false,
        Expr::Select { base, .. } | Expr::Unary { operand: base, .. } => expr_taller(base, room),
        Expr::Index { base, index: b, .. }
        | Expr::Binary {
            lhs: base, rhs: b, ..
        } => expr_taller(base, room) || expr_taller(b, room),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rational_library_interface() {
        let prog = parse_program(
            "group value
             proc normalize(r) modifies r.value
             field num in value
             field den in value",
        )
        .expect("parses");
        assert_eq!(prog.decls.len(), 4);
        let p = prog.procs().next().unwrap();
        assert_eq!(p.name.text, "normalize");
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.modifies.len(), 1);
        let (root, path) = p.modifies[0].as_designator_chain().unwrap();
        assert_eq!(root.text, "r");
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].text, "value");
    }

    #[test]
    fn parses_pivot_field_declaration() {
        let prog = parse_program("field vec maps elems into contents").expect("parses");
        let f = prog.fields().next().unwrap();
        assert!(f.is_pivot());
        assert_eq!(f.maps[0].mapped.text, "elems");
        assert_eq!(f.maps[0].into[0].text, "contents");
    }

    #[test]
    fn parses_field_with_in_and_multiple_maps() {
        let prog = parse_program("field f in a, b maps x into g maps y into h, k").expect("parses");
        let f = prog.fields().next().unwrap();
        assert_eq!(f.includes.len(), 2);
        assert_eq!(f.maps.len(), 2);
        assert_eq!(f.maps[1].into.len(), 2);
    }

    #[test]
    fn parses_section3_q_implementation() {
        let prog = parse_program(
            "group contents
             field cnt
             field obj
             proc push(st, o) modifies st.contents
             proc m(st, r) modifies r.obj
             proc q()
             impl q() {
               var st, result, v, n in
                 st := new() ;
                 result := new() ;
                 m(st, result) ;
                 v := result.obj ;
                 n := v.cnt ;
                 push(st, 3) ;
                 assert n = v.cnt
               end
             }",
        )
        .expect("parses");
        let q = prog.impls().next().unwrap();
        assert_eq!(q.name.text, "q");
        // Four nested vars from the multi-var sugar.
        let mut vars = 0;
        q.body.walk(&mut |c| {
            if matches!(c, Cmd::Var(..)) {
                vars += 1;
            }
        });
        assert_eq!(vars, 4);
    }

    #[test]
    fn seq_binds_tighter_than_choice() {
        let cmd = parse_command("skip ; skip [] skip").expect("parses");
        assert!(matches!(cmd, Cmd::Choice(a, _) if matches!(*a, Cmd::Seq(..))));
    }

    #[test]
    fn choice_and_seq_are_left_associative() {
        let c = parse_command("skip [] skip [] skip").expect("parses");
        assert!(matches!(c, Cmd::Choice(a, _) if matches!(*a, Cmd::Choice(..))));
        let s = parse_command("skip ; skip ; skip").expect("parses");
        assert!(matches!(s, Cmd::Seq(a, _) if matches!(*a, Cmd::Seq(..))));
    }

    #[test]
    fn braces_group_commands() {
        let cmd = parse_command("skip ; { skip [] skip }").expect("parses");
        assert!(matches!(cmd, Cmd::Seq(_, b) if matches!(*b, Cmd::Choice(..))));
    }

    #[test]
    fn parses_if_with_and_without_else() {
        let c = parse_command("if x = null then skip else assert false end").expect("parses");
        assert!(matches!(c, Cmd::If { .. }));
        let c2 = parse_command("if x = null then skip end").expect("parses");
        match c2 {
            Cmd::If { else_branch, .. } => assert!(matches!(*else_branch, Cmd::Skip(_))),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_allocation_and_field_update() {
        let c = parse_command("st.vec := new()").expect("parses");
        assert!(matches!(c, Cmd::AssignNew { .. }));
        let c2 = parse_command("t.value := t.value + 1").expect("parses");
        match c2 {
            Cmd::Assign { rhs, .. } => assert!(matches!(rhs, Expr::Binary { op: BinOp::Add, .. })),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn call_versus_assignment_disambiguation() {
        assert!(matches!(
            parse_command("push(st, 3)").unwrap(),
            Cmd::Call { .. }
        ));
        assert!(matches!(
            parse_command("x := y").unwrap(),
            Cmd::Assign { .. }
        ));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("a + b * c = d && e != f || g").expect("parses");
        // ((a + (b*c)) = d) && (e != f) || g  with || lowest
        match e {
            Expr::Binary {
                op: BinOp::Or, lhs, ..
            } => match *lhs {
                Expr::Binary {
                    op: BinOp::And,
                    lhs: l2,
                    ..
                } => match *l2 {
                    Expr::Binary {
                        op: BinOp::Eq,
                        lhs: l3,
                        ..
                    } => {
                        assert!(matches!(*l3, Expr::Binary { op: BinOp::Add, .. }));
                    }
                    other => panic!("expected =, got {other:?}"),
                },
                other => panic!("expected &&, got {other:?}"),
            },
            other => panic!("expected ||, got {other:?}"),
        }
    }

    #[test]
    fn selection_chains_left_to_right() {
        let e = parse_expr("t.c.d.g").expect("parses");
        let (root, path) = e.as_designator_chain().unwrap();
        assert_eq!(root.text, "t");
        let names: Vec<_> = path.iter().map(|i| i.text.as_str()).collect();
        assert_eq!(names, vec!["c", "d", "g"]);
    }

    #[test]
    fn unary_operators_nest() {
        let e = parse_expr("!!x").expect("parses");
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
        let e2 = parse_expr("-x.f").expect("parses");
        match e2 {
            Expr::Unary {
                op: UnaryOp::Neg,
                operand,
                ..
            } => {
                assert!(matches!(*operand, Expr::Select { .. }));
            }
            other => panic!("expected neg, got {other:?}"),
        }
    }

    #[test]
    fn parses_index_expressions() {
        let e = parse_expr("t.buckets[i + 1]").expect("parses");
        match e {
            Expr::Index { base, index, .. } => {
                assert!(matches!(*base, Expr::Select { .. }));
                assert!(matches!(*index, Expr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("expected index, got {other:?}"),
        }
        // Chained postfix: a[0].f[1]
        let e2 = parse_expr("a[0].f[1]").expect("parses");
        assert!(matches!(e2, Expr::Index { .. }));
    }

    #[test]
    fn parses_slot_assignment_and_allocation() {
        assert!(matches!(
            parse_command("a[0] := null").unwrap(),
            Cmd::Assign { .. }
        ));
        assert!(matches!(
            parse_command("t.buckets[i] := new()").unwrap(),
            Cmd::AssignNew { .. }
        ));
    }

    #[test]
    fn parses_elementwise_maps_clause() {
        let prog = parse_program("group g field buckets maps elem g into g").expect("parses");
        let f = prog.fields().next().unwrap();
        assert!(f.maps[0].elementwise);
        assert!(f.is_pivot());
    }

    #[test]
    fn choice_still_lexes_next_to_brackets() {
        // `[]` must stay the choice token; `[ ]` with content is indexing.
        assert!(matches!(
            parse_command("skip [] skip").unwrap(),
            Cmd::Choice(..)
        ));
        assert!(
            parse_expr("a[]").is_err(),
            "empty index is not an expression"
        );
    }

    #[test]
    fn error_on_missing_assign_target() {
        assert!(parse_command("x :=").is_err());
        assert!(parse_command(":= x").is_err());
    }

    #[test]
    fn error_on_garbage_declaration_recovers() {
        let err = parse_program("banana split group g").unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn empty_program_is_valid() {
        let prog = parse_program("").expect("parses");
        assert!(prog.decls.is_empty());
    }

    #[test]
    fn proc_with_empty_modifies_and_params() {
        let prog = parse_program("proc q()").expect("parses");
        let p = prog.procs().next().unwrap();
        assert!(p.params.is_empty());
        assert!(p.modifies.is_empty());
        assert!(p.reads.is_none());
    }

    #[test]
    fn parses_reads_clause() {
        let prog = parse_program(
            "group value
             proc peek(r) reads r.value
             proc both(r, s) modifies r.value reads r.value, s.value",
        )
        .expect("parses");
        let procs: Vec<_> = prog.procs().collect();
        assert_eq!(procs[0].modifies.len(), 0);
        let reads = procs[0].reads.as_ref().expect("reads clause present");
        assert_eq!(reads.len(), 1);
        let (root, path) = reads[0].as_designator_chain().unwrap();
        assert_eq!(root.text, "r");
        assert_eq!(path[0].text, "value");
        let both = procs[1].reads.as_ref().expect("reads clause present");
        assert_eq!(both.len(), 2);
        assert_eq!(procs[1].modifies.len(), 1);
    }

    #[test]
    fn parses_invariant_declaration() {
        let prog = parse_program(
            "group value
             field num in value
             invariant this.num >= 0",
        )
        .expect("parses");
        let inv = prog.invariants().next().expect("invariant present");
        assert!(matches!(inv.expr, Expr::Binary { op: BinOp::Ge, .. }));
    }

    #[test]
    fn malformed_invariant_reports_span_and_recovers() {
        // `invariant` with no expression: the error points at the
        // offending token, and parsing recovers at the next declaration.
        let src = "invariant ; group g";
        let err = parse_program(src).unwrap_err();
        let diag = err.iter().next().expect("has a diagnostic");
        assert!(
            diag.message.contains("expected an expression"),
            "message: {}",
            diag.message
        );
        assert_eq!(diag.span.snippet(src), ";");
    }

    #[test]
    fn malformed_reads_clause_reports_span() {
        let src = "proc p(t) reads , t.g";
        let err = parse_program(src).unwrap_err();
        let diag = err.iter().next().expect("has a diagnostic");
        assert!(diag.message.contains("expected an expression"));
        assert_eq!(diag.span.snippet(src), ",");
    }
}
