//! First-order terms of the object-store logic.
//!
//! The semantic model of Section 4.0 of the paper is a multi-sorted
//! first-order language with stores, object values, and attribute
//! constants. Terms are hash-consed: [`Term`] is a `Copy` `u32` handle
//! into the global arena in [`crate::intern`], so structurally equal
//! terms share one id and term equality is an integer compare.

use crate::intern::{intern_term, Symbol};
use std::fmt;
use std::hash::{Hash, Hasher};

/// The distinguished variable holding the current object store (`$`).
pub const STORE: &str = "$";
/// The distinguished variable holding the store on entry to a method (`$0`).
pub const STORE0: &str = "$0";

/// An interpreted constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cst {
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// The `null` reference.
    Null,
    /// An attribute constant (declared attribute names are modelled as
    /// distinct constants, Section 4.0).
    Attr(Symbol),
}

impl fmt::Display for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cst::Int(n) => write!(f, "{n}"),
            Cst::Bool(b) => write!(f, "{b}"),
            Cst::Null => write!(f, "null"),
            Cst::Attr(a) => write!(f, "#{a}"),
        }
    }
}

impl fmt::Debug for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cst::Int(n) => f.debug_tuple("Int").field(n).finish(),
            Cst::Bool(b) => f.debug_tuple("Bool").field(b).finish(),
            Cst::Null => f.write_str("Null"),
            Cst::Attr(a) => f.debug_tuple("Attr").field(a).finish(),
        }
    }
}

/// An interpreted or uninterpreted function symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum FnSym {
    /// `select(S, X, A)` — the value `S(X·A)`.
    Select,
    /// `update(S, X, A, V)` — the store `S(X·A := V)`.
    Update,
    /// `new(S)` — the next object to be allocated in `S`.
    New,
    /// `succ(S)` — the store `S⁺` after allocating `new(S)`.
    Succ,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer negation.
    Neg,
    /// An uninterpreted function, e.g. a Skolem function.
    Uninterp(Symbol),
}

impl FnSym {
    /// Fixed arity of the symbol, or `None` for uninterpreted symbols.
    pub fn arity(&self) -> Option<usize> {
        match self {
            FnSym::Select => Some(3),
            FnSym::Update => Some(4),
            FnSym::New | FnSym::Succ | FnSym::Neg => Some(1),
            FnSym::Add | FnSym::Sub | FnSym::Mul => Some(2),
            FnSym::Uninterp(_) => None,
        }
    }
}

impl fmt::Display for FnSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnSym::Select => write!(f, "select"),
            FnSym::Update => write!(f, "update"),
            FnSym::New => write!(f, "new"),
            FnSym::Succ => write!(f, "succ"),
            FnSym::Add => write!(f, "+"),
            FnSym::Sub => write!(f, "-"),
            FnSym::Mul => write!(f, "*"),
            FnSym::Neg => write!(f, "neg"),
            FnSym::Uninterp(name) => write!(f, "{name}"),
        }
    }
}

impl fmt::Debug for FnSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnSym::Select => f.write_str("Select"),
            FnSym::Update => f.write_str("Update"),
            FnSym::New => f.write_str("New"),
            FnSym::Succ => f.write_str("Succ"),
            FnSym::Add => f.write_str("Add"),
            FnSym::Sub => f.write_str("Sub"),
            FnSym::Mul => f.write_str("Mul"),
            FnSym::Neg => f.write_str("Neg"),
            FnSym::Uninterp(name) => f.debug_tuple("Uninterp").field(name).finish(),
        }
    }
}

/// The shape of a hash-consed term node, obtained from [`Term::node`].
/// Nodes are immutable and live in the global arena for the process
/// lifetime.
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// A variable (program variable, store variable, bound variable, or
    /// Skolem constant).
    Var(Symbol),
    /// An interpreted constant.
    Const(Cst),
    /// A function application.
    App(FnSym, Vec<Term>),
}

/// A first-order term: a `Copy` handle into the hash-consed arena.
/// Equality is id equality (≡ structural equality); `Hash` writes the
/// precomputed 128-bit structural digest, so hashes are stable across
/// processes even though ids are not.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Term(u32);

/// Substitution memo keyed by term id: maps a subterm to its image under
/// the *current* map. Callers must discard it whenever the map changes.
pub(crate) type SubstMemo = std::collections::HashMap<u32, Term>;

impl Term {
    pub(crate) fn from_id(id: u32) -> Term {
        Term(id)
    }

    /// The raw arena id (dense, process-local; not stable across runs).
    pub fn id(self) -> u32 {
        self.0
    }

    /// The canonical node for this term.
    pub fn node(self) -> &'static TermNode {
        &crate::intern::term_data(self.0).node
    }

    pub(crate) fn data(self) -> &'static crate::intern::TermData {
        crate::intern::term_data(self.0)
    }

    /// Whether the term contains no variables (invariant under
    /// substitution).
    pub fn is_ground(self) -> bool {
        self.data().ground
    }

    /// Builds a variable term.
    pub fn var(name: impl Into<Symbol>) -> Term {
        intern_term(TermNode::Var(name.into()))
    }

    /// Builds a constant term.
    pub fn lit(c: Cst) -> Term {
        intern_term(TermNode::Const(c))
    }

    /// General application constructor; arity discipline is the
    /// caller's business (see [`FnSym::arity`]).
    pub fn app(sym: FnSym, args: Vec<Term>) -> Term {
        intern_term(TermNode::App(sym, args))
    }

    /// The current-store variable `$`.
    pub fn store() -> Term {
        Term::var(STORE)
    }

    /// The entry-store variable `$0`.
    pub fn store0() -> Term {
        Term::var(STORE0)
    }

    /// An integer constant.
    pub fn int(n: i64) -> Term {
        Term::lit(Cst::Int(n))
    }

    /// A boolean constant.
    pub fn boolean(b: bool) -> Term {
        Term::lit(Cst::Bool(b))
    }

    /// The `null` constant.
    pub fn null() -> Term {
        Term::lit(Cst::Null)
    }

    /// An attribute constant.
    pub fn attr(name: impl Into<Symbol>) -> Term {
        Term::lit(Cst::Attr(name.into()))
    }

    /// `select(store, obj, attr)` — the paper's `S(X·A)`.
    pub fn select(store: Term, obj: Term, attr: Term) -> Term {
        Term::app(FnSym::Select, vec![store, obj, attr])
    }

    /// `update(store, obj, attr, val)` — the paper's `S(X·A := V)`.
    pub fn update(store: Term, obj: Term, attr: Term, val: Term) -> Term {
        Term::app(FnSym::Update, vec![store, obj, attr, val])
    }

    /// `new(store)` — the next object to be allocated.
    pub fn new_obj(store: Term) -> Term {
        Term::app(FnSym::New, vec![store])
    }

    /// `succ(store)` — the paper's `S⁺`.
    pub fn succ(store: Term) -> Term {
        Term::app(FnSym::Succ, vec![store])
    }

    /// Integer addition.
    // These are associated constructors, not operator methods; the `ops`
    // trait names are the natural builder vocabulary.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Term, b: Term) -> Term {
        Term::app(FnSym::Add, vec![a, b])
    }

    /// Integer subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Term, b: Term) -> Term {
        Term::app(FnSym::Sub, vec![a, b])
    }

    /// Integer multiplication.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Term, b: Term) -> Term {
        Term::app(FnSym::Mul, vec![a, b])
    }

    /// Integer negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(a: Term) -> Term {
        Term::app(FnSym::Neg, vec![a])
    }

    /// An application of an uninterpreted function symbol.
    pub fn uninterp(name: impl Into<Symbol>, args: Vec<Term>) -> Term {
        Term::app(FnSym::Uninterp(name.into()), args)
    }

    /// `Some(sym)` if the term is a variable.
    pub fn as_var(self) -> Option<Symbol> {
        match self.node() {
            TermNode::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether the term is exactly the variable `name`.
    pub fn is_var(&self, name: &str) -> bool {
        matches!(self.node(), TermNode::Var(v) if v.as_str() == name)
    }

    /// Simultaneously substitutes variables by terms.
    #[must_use]
    pub fn subst(&self, map: &[(Symbol, Term)]) -> Term {
        self.subst_memo(map, &mut SubstMemo::new())
    }

    /// Substitution with a shared memo: hash-consing makes equal
    /// subtrees the same id, so the memo turns the rewrite into one
    /// visit per distinct subterm. The memo is only valid for a fixed
    /// `map`.
    pub(crate) fn subst_memo(&self, map: &[(Symbol, Term)], memo: &mut SubstMemo) -> Term {
        if map.is_empty() || self.is_ground() {
            return *self;
        }
        match self.node() {
            TermNode::Var(v) => {
                for (name, image) in map {
                    if name == v {
                        return *image;
                    }
                }
                *self
            }
            TermNode::Const(_) => *self,
            TermNode::App(sym, args) => {
                if let Some(&hit) = memo.get(&self.0) {
                    return hit;
                }
                let out = Term::app(*sym, args.iter().map(|a| a.subst_memo(map, memo)).collect());
                memo.insert(self.0, out);
                out
            }
        }
    }

    /// Collects the free variables (all variables — terms have no
    /// binders), deduplicated, in first-occurrence order.
    pub fn free_vars(&self, out: &mut Vec<Symbol>) {
        if self.is_ground() {
            return;
        }
        match self.node() {
            TermNode::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            TermNode::Const(_) => {}
            TermNode::App(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
        }
    }

    /// Visits every subterm, including `self`, in pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Term)) {
        visit(self);
        if let TermNode::App(_, args) = self.node() {
            for a in args {
                a.walk(visit);
            }
        }
    }

    /// Number of nodes in the term tree (with sharing expanded).
    pub fn size(&self) -> usize {
        self.data().size as usize
    }
}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Structural digest, not id: derived `Hash` over formulas stays
        // process-stable, which the persisted fingerprint cache needs.
        state.write_u128(self.data().digest);
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render the node, not the id, matching the old tree
        // representation (`Var("x")`, `App(Select, [..])`).
        fmt::Debug::fmt(self.node(), f)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            TermNode::Var(v) => write!(f, "{v}"),
            TermNode::Const(c) => write!(f, "{c}"),
            TermNode::App(sym, args) => match sym {
                FnSym::Select => write!(f, "{}({}·{})", args[0], args[1], args[2]),
                FnSym::Update => {
                    write!(f, "{}({}·{} := {})", args[0], args[1], args[2], args[3])
                }
                FnSym::Succ => write!(f, "{}⁺", args[0]),
                FnSym::Add => write!(f, "({} + {})", args[0], args[1]),
                FnSym::Sub => write!(f, "({} - {})", args[0], args[1]),
                FnSym::Mul => write!(f, "({} * {})", args[0], args[1]),
                _ => {
                    write!(f, "{sym}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_replaces_all_occurrences() {
        // select($, t, #f) with $ := succ($)
        let t = Term::select(Term::store(), Term::var("t"), Term::attr("f"));
        let subbed = t.subst(&[(STORE.into(), Term::succ(Term::store()))]);
        assert_eq!(
            subbed,
            Term::select(Term::succ(Term::store()), Term::var("t"), Term::attr("f"))
        );
    }

    #[test]
    fn substitution_is_simultaneous() {
        // x := y, y := x swaps.
        let t = Term::add(Term::var("x"), Term::var("y"));
        let swapped = t.subst(&[("x".into(), Term::var("y")), ("y".into(), Term::var("x"))]);
        assert_eq!(swapped, Term::add(Term::var("y"), Term::var("x")));
    }

    #[test]
    fn free_vars_collects_everything() {
        let t = Term::select(Term::store(), Term::var("t"), Term::attr("f"));
        let mut vars = Vec::new();
        t.free_vars(&mut vars);
        assert!(vars.contains(&Symbol::intern(STORE)));
        assert!(vars.contains(&Symbol::intern("t")));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn display_uses_paper_notation() {
        let t = Term::select(Term::store(), Term::var("st"), Term::attr("vec"));
        assert_eq!(t.to_string(), "$(st·#vec)");
        let u = Term::update(Term::store(), Term::var("t"), Term::attr("f"), Term::int(3));
        assert_eq!(u.to_string(), "$(t·#f := 3)");
        assert_eq!(Term::succ(Term::store()).to_string(), "$⁺");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Term::var("x").size(), 1);
        assert_eq!(Term::add(Term::var("x"), Term::int(1)).size(), 3);
    }

    #[test]
    fn arity_of_interpreted_symbols() {
        assert_eq!(FnSym::Select.arity(), Some(3));
        assert_eq!(FnSym::Update.arity(), Some(4));
        assert_eq!(FnSym::Uninterp("sk".into()).arity(), None);
    }

    #[test]
    fn hash_consing_shares_ids() {
        let a = Term::select(Term::store(), Term::var("hc_x"), Term::attr("hc_f"));
        let b = Term::select(Term::store(), Term::var("hc_x"), Term::attr("hc_f"));
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a.node(), b.node()));
    }

    #[test]
    fn ground_flag_tracks_variables() {
        assert!(Term::int(7).is_ground());
        assert!(Term::add(Term::int(1), Term::int(2)).is_ground());
        assert!(!Term::add(Term::int(1), Term::var("gv")).is_ground());
        // Substitution short-circuits on ground terms.
        let g = Term::add(Term::int(1), Term::int(2));
        assert_eq!(g.subst(&[("gv".into(), Term::int(9))]), g);
    }

    #[test]
    fn debug_matches_tree_rendering() {
        assert_eq!(format!("{:?}", Term::var("x")), "Var(\"x\")");
        assert_eq!(format!("{:?}", Term::attr("g")), "Const(Attr(\"g\"))");
    }
}
