//! Negation normal form and skolemization.
//!
//! The prover refutes `hypotheses ∧ ¬goal`. Both sides are first brought
//! into **skolemized negation normal form** ([`Nnf`]): negations pushed to
//! atoms, implications and bi-implications expanded, existentials replaced
//! by Skolem functions of the enclosing universals, and every bound
//! variable renamed to a globally fresh name (so downstream substitution
//! never captures).

use crate::formula::{Atom, Formula, Trigger};
use crate::intern::Symbol;
use crate::term::{SubstMemo, Term};

/// Generator of globally fresh variable and function names.
///
/// Generated names contain `!`, which cannot appear in oolong identifiers,
/// so they never collide with program variables.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FreshGen {
    next: u64,
}

impl FreshGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh interned name with the given prefix, e.g. `sk!7`.
    pub fn fresh(&mut self, prefix: &str) -> Symbol {
        let n = self.next;
        self.next += 1;
        Symbol::intern(&format!("{prefix}!{n}"))
    }
}

/// A formula in skolemized negation normal form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Nnf {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// A possibly negated atom.
    Lit {
        /// The underlying atom.
        atom: Atom,
        /// `true` for the atom itself, `false` for its negation.
        positive: bool,
        /// The position label of the enclosing [`Formula::Labeled`]
        /// wrapper, if any. Logically inert: the prover asserts the
        /// literal exactly as if unlabelled, but records the label when
        /// the literal lands on a branch. Labels never occur inside
        /// quantifier bodies (conversion clears them), so quantifier
        /// identity is unaffected.
        label: Option<u32>,
    },
    /// Conjunction.
    And(Vec<Nnf>),
    /// Disjunction.
    Or(Vec<Nnf>),
    /// A (positive) universal quantifier with matching triggers.
    Forall {
        /// Bound variables (globally fresh names).
        vars: Vec<Symbol>,
        /// Matching triggers; empty means the prover infers them.
        triggers: Vec<Trigger>,
        /// The quantified body.
        body: Box<Nnf>,
    },
}

impl Nnf {
    /// Builds a conjunction, flattening and short-circuiting.
    pub fn and(parts: Vec<Nnf>) -> Nnf {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Nnf::True => {}
                Nnf::False => return Nnf::False,
                Nnf::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Nnf::True,
            1 => flat.pop().expect("len checked"),
            _ => Nnf::And(flat),
        }
    }

    /// Builds a disjunction, flattening and short-circuiting.
    pub fn or(parts: Vec<Nnf>) -> Nnf {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Nnf::False => {}
                Nnf::True => return Nnf::True,
                Nnf::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Nnf::False,
            1 => flat.pop().expect("len checked"),
            _ => Nnf::Or(flat),
        }
    }

    /// Substitutes variables by terms (used for quantifier instantiation).
    /// This is the prover's hottest rewrite; the memo rides the
    /// hash-consed ids so each distinct subterm is rewritten once.
    #[must_use]
    pub fn subst(&self, map: &[(Symbol, Term)]) -> Nnf {
        self.subst_memo(map, &mut SubstMemo::default())
    }

    fn subst_memo(&self, map: &[(Symbol, Term)], memo: &mut SubstMemo) -> Nnf {
        match self {
            Nnf::True => Nnf::True,
            Nnf::False => Nnf::False,
            Nnf::Lit {
                atom,
                positive,
                label,
            } => Nnf::Lit {
                atom: atom.subst_memo(map, memo),
                positive: *positive,
                label: *label,
            },
            Nnf::And(ps) => Nnf::And(ps.iter().map(|p| p.subst_memo(map, memo)).collect()),
            Nnf::Or(ps) => Nnf::Or(ps.iter().map(|p| p.subst_memo(map, memo)).collect()),
            Nnf::Forall {
                vars,
                triggers,
                body,
            } => {
                if vars.iter().any(|v| map.iter().any(|(d, _)| d == v)) {
                    // Shadowed (bound variables are globally fresh, so
                    // this is the rare path): narrow the map.
                    let inner: Vec<(Symbol, Term)> = map
                        .iter()
                        .filter(|(v, _)| !vars.contains(v))
                        .copied()
                        .collect();
                    let mut inner_memo = SubstMemo::default();
                    let triggers = triggers
                        .iter()
                        .map(|t| {
                            Trigger(
                                t.0.iter()
                                    .map(|p| p.subst_memo(&inner, &mut inner_memo))
                                    .collect(),
                            )
                        })
                        .collect();
                    Nnf::Forall {
                        vars: vars.clone(),
                        triggers,
                        body: Box::new(body.subst_memo(&inner, &mut inner_memo)),
                    }
                } else {
                    let triggers = triggers
                        .iter()
                        .map(|t| Trigger(t.0.iter().map(|p| p.subst_memo(map, memo)).collect()))
                        .collect();
                    Nnf::Forall {
                        vars: vars.clone(),
                        triggers,
                        body: Box::new(body.subst_memo(map, memo)),
                    }
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        match self {
            Nnf::True | Nnf::False | Nnf::Lit { .. } => 1,
            Nnf::And(ps) | Nnf::Or(ps) => 1 + ps.iter().map(Nnf::size).sum::<usize>(),
            Nnf::Forall { body, .. } => 1 + body.size(),
        }
    }
}

impl std::fmt::Display for Nnf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Nnf::True => write!(f, "true"),
            Nnf::False => write!(f, "false"),
            Nnf::Lit {
                atom,
                positive: true,
                ..
            } => write!(f, "{atom}"),
            Nnf::Lit {
                atom,
                positive: false,
                ..
            } => write!(f, "¬({atom})"),
            Nnf::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Nnf::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Nnf::Forall {
                vars,
                triggers,
                body,
            } => {
                write!(f, "(∀ ")?;
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                for t in triggers {
                    write!(f, " {t}")?;
                }
                write!(f, " :: {body})")
            }
        }
    }
}

/// Converts `formula` (when `positive`) or its negation (when `!positive`)
/// to skolemized NNF.
///
/// Existential variables in positive positions (and universal variables in
/// negative positions) become applications of fresh Skolem functions to the
/// enclosing universal variables. All remaining bound variables are renamed
/// to fresh names.
pub fn to_nnf(formula: &Formula, positive: bool, fresh: &mut FreshGen) -> Nnf {
    convert(formula, positive, &mut Vec::new(), fresh, None)
}

fn convert(
    formula: &Formula,
    positive: bool,
    universals: &mut Vec<Symbol>,
    fresh: &mut FreshGen,
    label: Option<u32>,
) -> Nnf {
    match formula {
        Formula::True => {
            if positive {
                Nnf::True
            } else {
                Nnf::False
            }
        }
        Formula::False => {
            if positive {
                Nnf::False
            } else {
                Nnf::True
            }
        }
        Formula::Atom(a) => Nnf::Lit {
            atom: *a,
            positive,
            label,
        },
        Formula::Not(p) => convert(p, !positive, universals, fresh, label),
        Formula::And(ps) => {
            let parts: Vec<Nnf> = ps
                .iter()
                .map(|p| convert(p, positive, universals, fresh, label))
                .collect();
            if positive {
                Nnf::and(parts)
            } else {
                Nnf::or(parts)
            }
        }
        Formula::Or(ps) => {
            let parts: Vec<Nnf> = ps
                .iter()
                .map(|p| convert(p, positive, universals, fresh, label))
                .collect();
            if positive {
                Nnf::or(parts)
            } else {
                Nnf::and(parts)
            }
        }
        Formula::Implies(p, q) => {
            // p ⇒ q  ≡  ¬p ∨ q
            let np = convert(p, !positive, universals, fresh, label);
            let nq = convert(q, positive, universals, fresh, label);
            if positive {
                Nnf::or(vec![np, nq])
            } else {
                Nnf::and(vec![np, nq])
            }
        }
        Formula::Iff(p, q) => {
            // p ⇔ q ≡ (p ⇒ q) ∧ (q ⇒ p); under negation: (p ∨ q) ∧ (¬p ∨ ¬q).
            let expanded = Formula::and(vec![
                Formula::Implies(p.clone(), q.clone()),
                Formula::Implies(q.clone(), p.clone()),
            ]);
            convert(&expanded, positive, universals, fresh, label)
        }
        Formula::Forall(vars, triggers, body) => {
            if positive {
                rename_and_quantify(vars, triggers, body, true, universals, fresh)
            } else {
                skolemize(vars, body, false, universals, fresh, label)
            }
        }
        Formula::Exists(vars, triggers, body) => {
            if positive {
                skolemize(vars, body, true, universals, fresh, label)
            } else {
                rename_and_quantify(vars, triggers, body, false, universals, fresh)
            }
        }
        // Labels are transparent for conversion: the wrapped subformula
        // converts as-is, with its literals stamped. Inner labels shadow
        // outer ones.
        Formula::Labeled(id, body) => convert(body, positive, universals, fresh, Some(*id)),
    }
}

/// A quantifier that stays universal in NNF (a positive `∀` with
/// `body_polarity = true`, or a negated `∃` with `body_polarity = false`):
/// rename the bound variables to fresh names and recurse on the body with
/// the given polarity.
fn rename_and_quantify(
    vars: &[Symbol],
    triggers: &[Trigger],
    body: &Formula,
    body_polarity: bool,
    universals: &mut Vec<Symbol>,
    fresh: &mut FreshGen,
) -> Nnf {
    let renaming: Vec<(Symbol, Term)> = vars
        .iter()
        .map(|v| (*v, Term::var(fresh.fresh(&format!("q_{v}")))))
        .collect();
    let new_names: Vec<Symbol> = renaming
        .iter()
        .map(|(_, t)| t.as_var().expect("renaming images are variables"))
        .collect();
    let mut memo = SubstMemo::default();
    let renamed_triggers: Vec<Trigger> = triggers
        .iter()
        .map(|t| {
            Trigger(
                t.0.iter()
                    .map(|p| p.subst_memo(&renaming, &mut memo))
                    .collect(),
            )
        })
        .collect();
    let renamed_body = body.subst(&renaming);
    let depth = universals.len();
    universals.extend(new_names.iter().copied());
    // Labels are cleared inside quantifier bodies: quantifiers are shared
    // (instantiated many times, deduplicated by body identity in the
    // prover), so a label inside would both leak across obligations and
    // split otherwise-identical quantifiers.
    let inner = convert(&renamed_body, body_polarity, universals, fresh, None);
    universals.truncate(depth);
    match inner {
        Nnf::True => Nnf::True,
        other => Nnf::Forall {
            vars: new_names,
            triggers: renamed_triggers,
            body: Box::new(other),
        },
    }
}

/// Positive existential (or negated universal): replace each bound variable
/// by a Skolem function of the enclosing universals.
fn skolemize(
    vars: &[Symbol],
    body: &Formula,
    body_polarity: bool,
    universals: &mut Vec<Symbol>,
    fresh: &mut FreshGen,
    label: Option<u32>,
) -> Nnf {
    let args: Vec<Term> = universals.iter().map(|v| Term::var(*v)).collect();
    let map: Vec<(Symbol, Term)> = vars
        .iter()
        .map(|v| {
            let name = fresh.fresh(&format!("sk_{v}"));
            let image = if args.is_empty() {
                Term::var(name)
            } else {
                Term::uninterp(name, args.clone())
            };
            (*v, image)
        })
        .collect();
    let skolemized = body.subst(&map);
    convert(&skolemized, body_polarity, universals, fresh, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula as F;
    use crate::formula::Pattern;
    use crate::term::Term as T;
    use crate::term::TermNode;

    fn atom(name: &str) -> F {
        F::Atom(Atom::BoolTerm(T::var(name)))
    }

    #[test]
    fn fresh_names_are_distinct_and_unparsable() {
        let mut gen = FreshGen::new();
        let a = gen.fresh("sk");
        let b = gen.fresh("sk");
        assert_ne!(a, b);
        assert!(a.as_str().contains('!'));
    }

    #[test]
    fn negation_pushes_to_literals() {
        let f = F::not(F::and(vec![atom("p"), atom("q")]));
        let nnf = to_nnf(&f, true, &mut FreshGen::new());
        match nnf {
            Nnf::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(parts.iter().all(|p| matches!(
                    p,
                    Nnf::Lit {
                        positive: false,
                        ..
                    }
                )));
            }
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn implication_expands() {
        let f = F::implies(atom("p"), atom("q"));
        let nnf = to_nnf(&f, true, &mut FreshGen::new());
        assert!(matches!(nnf, Nnf::Or(_)));
        // Negated implication: p ∧ ¬q.
        let neg = to_nnf(&f, false, &mut FreshGen::new());
        match neg {
            Nnf::And(parts) => {
                assert!(matches!(&parts[0], Nnf::Lit { positive: true, .. }));
                assert!(matches!(
                    &parts[1],
                    Nnf::Lit {
                        positive: false,
                        ..
                    }
                ));
            }
            other => panic!("expected And, got {other}"),
        }
    }

    #[test]
    fn iff_expands_to_two_implications() {
        let f = F::Iff(Box::new(atom("p")), Box::new(atom("q")));
        let nnf = to_nnf(&f, true, &mut FreshGen::new());
        assert!(
            matches!(nnf, Nnf::And(ref parts) if parts.len() == 2),
            "{nnf}"
        );
    }

    #[test]
    fn toplevel_existential_becomes_constant() {
        // ∃x :: x = 1  — skolemizes to sk = 1 with sk a fresh variable.
        let f = F::exists(vec!["x".into()], F::eq(T::var("x"), T::int(1)));
        let nnf = to_nnf(&f, true, &mut FreshGen::new());
        match nnf {
            Nnf::Lit {
                atom: Atom::Eq(lhs, _),
                positive: true,
                ..
            } => {
                let v = lhs.as_var().expect("skolem constant is a variable");
                assert!(v.as_str().starts_with("sk_x!"), "got {v}");
            }
            other => panic!("expected literal, got {other}"),
        }
    }

    #[test]
    fn existential_under_universal_becomes_function() {
        // ∀y :: ∃x :: x = y
        let f = F::forall(
            vec!["y".into()],
            vec![],
            F::exists(vec!["x".into()], F::eq(T::var("x"), T::var("y"))),
        );
        let nnf = to_nnf(&f, true, &mut FreshGen::new());
        match nnf {
            Nnf::Forall { vars, body, .. } => {
                assert_eq!(vars.len(), 1);
                match *body {
                    Nnf::Lit {
                        atom: Atom::Eq(lhs, _),
                        ..
                    } => match lhs.node() {
                        TermNode::App(_, args) => {
                            assert_eq!(args.len(), 1, "skolem fn applied to the universal");
                            assert_eq!(args[0], T::var(vars[0]));
                        }
                        other => panic!("expected skolem app, got {other:?}"),
                    },
                    other => panic!("expected skolem app, got {other}"),
                }
            }
            other => panic!("expected forall, got {other}"),
        }
    }

    #[test]
    fn negated_universal_skolemizes() {
        // ¬(∀x :: p(x)) ≡ ∃x :: ¬p(x) → constant skolem, negative literal.
        let f = F::forall(
            vec!["x".into()],
            vec![],
            F::Atom(Atom::BoolTerm(T::var("x"))),
        );
        let nnf = to_nnf(&f, false, &mut FreshGen::new());
        assert!(
            matches!(
                nnf,
                Nnf::Lit {
                    positive: false,
                    ..
                }
            ),
            "{nnf}"
        );
    }

    #[test]
    fn bound_variables_are_renamed_fresh() {
        let f = F::forall(vec!["x".into()], vec![], F::eq(T::var("x"), T::var("x")));
        let nnf = to_nnf(&f, true, &mut FreshGen::new());
        match nnf {
            Nnf::Forall { vars, .. } => {
                assert_ne!(vars[0].as_str(), "x");
                assert!(vars[0].as_str().contains('!'));
            }
            other => panic!("expected forall, got {other}"),
        }
    }

    #[test]
    fn triggers_survive_renaming() {
        let trig = Trigger(vec![Pattern::Term(T::select(
            T::store(),
            T::var("x"),
            T::attr("f"),
        ))]);
        let f = F::forall(
            vec!["x".into()],
            vec![trig],
            F::eq(T::select(T::store(), T::var("x"), T::attr("f")), T::null()),
        );
        let nnf = to_nnf(&f, true, &mut FreshGen::new());
        match nnf {
            Nnf::Forall { vars, triggers, .. } => {
                assert_eq!(triggers.len(), 1);
                match &triggers[0].0[0] {
                    Pattern::Term(t) => match t.node() {
                        TermNode::App(_, args) => {
                            assert_eq!(args[1], T::var(vars[0]), "trigger references renamed var");
                        }
                        other => panic!("unexpected pattern {other:?}"),
                    },
                    other => panic!("unexpected pattern {other:?}"),
                }
            }
            other => panic!("expected forall, got {other}"),
        }
    }

    #[test]
    fn nnf_subst_instantiates() {
        let lit = Nnf::Lit {
            atom: Atom::Eq(T::var("v"), T::int(1)),
            positive: true,
            label: None,
        };
        let inst = lit.subst(&[("v".into(), T::var("c"))]);
        assert_eq!(
            inst,
            Nnf::Lit {
                atom: Atom::Eq(T::var("c"), T::int(1)),
                positive: true,
                label: None,
            }
        );
    }

    #[test]
    fn labels_stamp_literals_in_both_polarities() {
        // ⟨L7: p ∧ q⟩ converts to the same shape as p ∧ q, with every
        // literal stamped — under negation too.
        let f = F::labeled(7, F::and(vec![atom("p"), atom("q")]));
        for positive in [true, false] {
            let nnf = to_nnf(&f, positive, &mut FreshGen::new());
            let plain = to_nnf(&f.strip_labels(), positive, &mut FreshGen::new());
            let parts = match (&nnf, positive) {
                (Nnf::And(parts), true) | (Nnf::Or(parts), false) => parts,
                other => panic!("unexpected shape {other:?}"),
            };
            assert!(parts
                .iter()
                .all(|p| matches!(p, Nnf::Lit { label: Some(7), .. })));
            // Same structure modulo the stamp.
            assert_eq!(nnf.size(), plain.size());
        }
    }

    #[test]
    fn labels_survive_skolemization_but_not_quantification() {
        // Negated ⟨L2: ∀x :: p(x)⟩ skolemizes: the ground literal keeps
        // the label.
        let f = F::labeled(
            2,
            F::forall(
                vec!["x".into()],
                vec![],
                F::Atom(Atom::BoolTerm(T::var("x"))),
            ),
        );
        let neg = to_nnf(&f, false, &mut FreshGen::new());
        assert!(
            matches!(
                neg,
                Nnf::Lit {
                    positive: false,
                    label: Some(2),
                    ..
                }
            ),
            "{neg}"
        );
        // Positive ⟨L2: ∀x :: p(x)⟩ stays universal: the body is shared
        // across instantiations, so the label is cleared inside it.
        let pos = to_nnf(&f, true, &mut FreshGen::new());
        match pos {
            Nnf::Forall { body, .. } => {
                assert!(
                    matches!(*body, Nnf::Lit { label: None, .. }),
                    "labels never occur inside quantifier bodies"
                );
            }
            other => panic!("expected forall, got {other}"),
        }
    }
}
