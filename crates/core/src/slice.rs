//! Axiom relevance slicing: pruning background axioms that can never fire
//! against a given obligation.
//!
//! Every background axiom the checker asserts is a top-level universal
//! with declared trigger patterns (Boogie's `PATS`/`MPAT` discipline). The
//! prover only ever instantiates such an axiom when **every** pattern of
//! one of its triggers matches E-graph terms — and E-graph terms only
//! arise from the vocabulary of the formulas actually asserted: source
//! atoms and their subterms, instantiation substitutions (whose terms are
//! reconstructed from existing nodes), skolem functions (whose names
//! contain `!` and cannot appear in declared patterns), definitional
//! `@class` aliases, and interpreted constants. So an axiom whose every
//! trigger mentions a *declared* symbol — an attribute constant, an
//! uninterpreted function, a free constant, or a predicate head — that is
//! unreachable from the obligation's vocabulary closure can never match,
//! never instantiate, and never defer: dropping it provably changes
//! nothing about the proof search (outcome, labels, divergence reason, or
//! any budget-metered counter).
//!
//! The closure is a fixpoint: the obligation's own hypotheses and goal
//! seed the vocabulary; every *kept* axiom contributes its vocabulary
//! (minus its bound variables) because firing it can introduce those
//! symbols; an axiom is kept when some trigger's patterns all draw only on
//! the closure. Axioms that are not top-level triggered universals (ground
//! background facts, and any future untriggered axiom) are always kept and
//! always contribute — slicing only ever *over*-approximates relevance.
//!
//! Everything about the background is computed once, in `SliceTables`:
//! the tokens some trigger needs get dense ids, and each trigger counts
//! the tokens it still lacks. Slicing an obligation then walks only the
//! obligation's own formulas and runs the fixpoint as a worklist over
//! those counts. A checker's [`Background`] builds its tables on the
//! first slice and keeps them; [`slice_background`] builds fresh ones and
//! runs the same code.
//!
//! [`Background`]: crate::background::Background

use oolong_logic::{Atom, Cst, Formula, Pattern, Symbol, Term, TermNode};

/// One vocabulary token of the reachability closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tok {
    /// A free constant (an unbound `Term::var`).
    Var(Symbol),
    /// An attribute-name constant (`Cst::Attr`).
    Attr(Symbol),
    /// An uninterpreted function symbol.
    Fn(Symbol),
    /// A predicate head. Equality and the interpreted function symbols
    /// (select/update/new/succ/arithmetic) are deliberately *not* tokens:
    /// they are ubiquitous, so treating them as always-reachable keeps the
    /// closure sound without tracking them.
    Pred(Pred),
}

impl Tok {
    /// A total, process-local key: the kind above the symbol id.
    fn key(self) -> u64 {
        let (kind, id) = match self {
            Tok::Var(s) => (0, s.id()),
            Tok::Attr(s) => (1, s.id()),
            Tok::Fn(s) => (2, s.id()),
            Tok::Pred(p) => (3, p as u32),
        };
        (kind << 32) | u64::from(id)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pred {
    Alive,
    LocalInc,
    RepInc,
    RepIncElem,
    Inc,
    Lt,
    Le,
    IsObj,
    IsInt,
}

fn term_tokens(term: &Term, bound: &[Symbol], out: &mut impl FnMut(Tok)) {
    match term.node() {
        TermNode::Var(v) => {
            if !bound.contains(v) {
                out(Tok::Var(*v));
            }
        }
        TermNode::Const(c) => {
            if let Cst::Attr(a) = c {
                out(Tok::Attr(*a));
            }
        }
        TermNode::App(f, args) => {
            if let oolong_logic::FnSym::Uninterp(name) = f {
                out(Tok::Fn(*name));
            }
            for arg in args {
                term_tokens(arg, bound, out);
            }
        }
    }
}

fn atom_tokens(atom: &Atom, bound: &[Symbol], out: &mut impl FnMut(Tok)) {
    let pred = match atom {
        Atom::Eq(..) | Atom::BoolTerm(_) => None,
        Atom::Alive(..) => Some(Pred::Alive),
        Atom::LocalInc(..) => Some(Pred::LocalInc),
        Atom::RepInc { .. } => Some(Pred::RepInc),
        Atom::RepIncElem { .. } => Some(Pred::RepIncElem),
        Atom::Inc { .. } => Some(Pred::Inc),
        Atom::Lt(..) => Some(Pred::Lt),
        Atom::Le(..) => Some(Pred::Le),
        Atom::IsObj(..) => Some(Pred::IsObj),
        Atom::IsInt(..) => Some(Pred::IsInt),
    };
    if let Some(p) = pred {
        out(Tok::Pred(p));
    }
    atom.for_each_term(&mut |t| term_tokens(t, bound, out));
}

fn pattern_tokens(pattern: &Pattern, bound: &[Symbol], out: &mut impl FnMut(Tok)) {
    match pattern {
        // A bare uninterpreted application's head is its match symbol;
        // term_tokens records it.
        Pattern::Term(t) => term_tokens(t, bound, out),
        Pattern::Atom(a) => atom_tokens(a, bound, out),
    }
}

/// Emits every token of `f` that is visible from outside: free
/// constants, attribute constants, uninterpreted functions, and predicate
/// heads, excluding variables bound by any enclosing or inner quantifier.
fn formula_tokens(f: &Formula, bound: &mut Vec<Symbol>, out: &mut impl FnMut(Tok)) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Atom(a) => atom_tokens(a, bound, out),
        Formula::Not(inner) | Formula::Labeled(_, inner) => formula_tokens(inner, bound, out),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                formula_tokens(p, bound, out);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            formula_tokens(a, bound, out);
            formula_tokens(b, bound, out);
        }
        Formula::Forall(vars, triggers, body) | Formula::Exists(vars, triggers, body) => {
            let len = bound.len();
            bound.extend(vars.iter().copied());
            for trigger in triggers {
                for pattern in &trigger.0 {
                    pattern_tokens(pattern, bound, out);
                }
            }
            formula_tokens(body, bound, out);
            bound.truncate(len);
        }
    }
}

/// Whether relevance slicing may drop this axiom at all: only a top-level
/// universal with declared (non-empty) triggers has the "fires only when a
/// trigger matches" shape the vocabulary argument relies on.
pub fn is_sliceable(axiom: &Formula) -> bool {
    matches!(axiom, Formula::Forall(_, triggers, _) if !triggers.is_empty())
}

/// The result of slicing a background axiom list against an obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackgroundSlice {
    /// Parallel to the background list: whether each axiom is kept.
    pub keep: Vec<bool>,
}

impl BackgroundSlice {
    /// Number of axioms kept.
    pub fn kept(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Number of axioms sliced away.
    pub fn dropped(&self) -> usize {
        self.keep.len() - self.kept()
    }
}

/// One trigger of a sliceable axiom.
#[derive(Debug)]
struct TriggerEntry {
    /// The axiom the trigger belongs to.
    axiom: u32,
    /// How many distinct tokens its patterns need.
    needs: u32,
}

/// Everything slicing needs to know about one background, computed once:
/// which tokens the triggers need, what each axiom contributes when kept,
/// and which triggers wait on each token.
#[derive(Debug)]
pub(crate) struct SliceTables {
    /// The key of every token some trigger needs, sorted; a token's
    /// position is its dense id. Other tokens can never make a trigger
    /// viable, so the closure does not track them.
    keys: Vec<u64>,
    /// Per axiom: the dense ids of its vocabulary, added to the closure
    /// when it is kept.
    contributes: Vec<Vec<u32>>,
    /// Every trigger of every sliceable axiom.
    triggers: Vec<TriggerEntry>,
    /// Per dense id: the triggers that need that token.
    watchers: Vec<Vec<u32>>,
    /// Axioms kept whatever the obligation: unsliceable ones, and those
    /// with a trigger that needs no token at all.
    always: Vec<u32>,
}

impl SliceTables {
    /// Builds the tables of `background`, in assertion order.
    pub(crate) fn new<'a>(background: impl IntoIterator<Item = &'a Formula>) -> SliceTables {
        let background: Vec<&Formula> = background.into_iter().collect();
        let mut bound = Vec::new();
        // Each sliceable axiom's triggers as token-key sets.
        let trigger_keys: Vec<Option<Vec<Vec<u64>>>> = background
            .iter()
            .map(|axiom| match axiom {
                Formula::Forall(vars, triggers, _) if !triggers.is_empty() => Some(
                    triggers
                        .iter()
                        .map(|trigger| {
                            let mut keys = Vec::new();
                            for pattern in &trigger.0 {
                                // The binder list as `bound` keeps the
                                // quantified variables out of the set.
                                pattern_tokens(pattern, vars, &mut |t| keys.push(t.key()));
                            }
                            keys.sort_unstable();
                            keys.dedup();
                            keys
                        })
                        .collect(),
                ),
                _ => None,
            })
            .collect();
        let mut keys: Vec<u64> = trigger_keys
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let id = |key: u64| keys.binary_search(&key).ok().map(|i| i as u32);

        let contributes = background
            .iter()
            .map(|axiom| {
                let mut ids = Vec::new();
                formula_tokens(axiom, &mut bound, &mut |t| ids.extend(id(t.key())));
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let mut triggers = Vec::new();
        let mut watchers = vec![Vec::new(); keys.len()];
        let mut always = Vec::new();
        for (axiom, sets) in trigger_keys.iter().enumerate() {
            let axiom = axiom as u32;
            let Some(sets) = sets else {
                always.push(axiom);
                continue;
            };
            for set in sets {
                if set.is_empty() {
                    always.push(axiom);
                }
                let trigger = triggers.len() as u32;
                for &key in set {
                    watchers[id(key).expect("trigger tokens are interned") as usize].push(trigger);
                }
                triggers.push(TriggerEntry {
                    axiom,
                    needs: set.len() as u32,
                });
            }
        }
        SliceTables {
            keys,
            contributes,
            triggers,
            watchers,
            always,
        }
    }

    /// The slice for an obligation whose non-background hypotheses and
    /// goal are `seeds`.
    ///
    /// Kept ⊇ every axiom that could match during the proof; see the
    /// module docs for the argument. The closure is the least fixpoint, so
    /// the order of seeds and axioms never affects the result, and the
    /// tables are only read.
    pub(crate) fn slice<'a>(
        &self,
        seeds: impl IntoIterator<Item = &'a Formula>,
    ) -> BackgroundSlice {
        let mut keep = vec![false; self.contributes.len()];
        let mut reached = vec![false; self.keys.len()];
        let mut missing: Vec<u32> = self.triggers.iter().map(|t| t.needs).collect();
        let mut queue: Vec<u32> = Vec::new();
        fn reach(id: u32, reached: &mut [bool], queue: &mut Vec<u32>) {
            if !std::mem::replace(&mut reached[id as usize], true) {
                queue.push(id);
            }
        }
        let mut bound = Vec::new();
        for f in seeds {
            formula_tokens(f, &mut bound, &mut |t| {
                if let Ok(id) = self.keys.binary_search(&t.key()) {
                    reach(id as u32, &mut reached, &mut queue);
                }
            });
        }
        let mut kept: Vec<u32> = self.always.clone();
        loop {
            // Keep an axiom once some trigger's tokens are all reached;
            // its vocabulary then feeds back into the closure.
            for axiom in kept.drain(..) {
                if !std::mem::replace(&mut keep[axiom as usize], true) {
                    for &id in &self.contributes[axiom as usize] {
                        reach(id, &mut reached, &mut queue);
                    }
                }
            }
            let Some(id) = queue.pop() else { break };
            for &trigger in &self.watchers[id as usize] {
                let count = &mut missing[trigger as usize];
                *count -= 1;
                if *count == 0 {
                    kept.push(self.triggers[trigger as usize].axiom);
                }
            }
        }
        BackgroundSlice { keep }
    }
}

/// Computes the reachable-vocabulary slice of `background` for an
/// obligation whose non-background hypotheses and goal are `seeds`, with
/// tables built for this one call (a checker reuses its background's).
pub fn slice_background<'a>(
    background: &[Formula],
    seeds: impl IntoIterator<Item = &'a Formula>,
) -> BackgroundSlice {
    SliceTables::new(background).slice(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_logic::{Formula as F, Term as T, Trigger};

    fn axiom_p_of_f() -> Formula {
        // ∀X {f(X)} :: isObj(f(X))
        let body = F::Atom(Atom::IsObj(T::uninterp("f", vec![T::var("X")])));
        F::forall(
            vec!["X".into()],
            vec![Trigger(vec![Pattern::Term(T::uninterp(
                "f",
                vec![T::var("X")],
            ))])],
            body,
        )
    }

    fn axiom_h_from_f() -> Formula {
        // ∀X {f(X)} :: h(X) = X — firing introduces the symbol h.
        let body = F::eq(T::uninterp("h", vec![T::var("X")]), T::var("X"));
        F::forall(
            vec!["X".into()],
            vec![Trigger(vec![Pattern::Term(T::uninterp(
                "f",
                vec![T::var("X")],
            ))])],
            body,
        )
    }

    fn axiom_on_h() -> Formula {
        // ∀X {h(X)} :: isInt(h(X))
        let body = F::Atom(Atom::IsInt(T::uninterp("h", vec![T::var("X")])));
        F::forall(
            vec!["X".into()],
            vec![Trigger(vec![Pattern::Term(T::uninterp(
                "h",
                vec![T::var("X")],
            ))])],
            body,
        )
    }

    #[test]
    fn drops_axiom_with_unreachable_trigger() {
        let bg = vec![axiom_p_of_f()];
        let seed = F::eq(T::uninterp("g", vec![T::var("a")]), T::var("b"));
        let slice = slice_background(&bg, [&seed]);
        assert_eq!(slice.keep, vec![false]);
        assert_eq!(slice.dropped(), 1);
    }

    #[test]
    fn keeps_axiom_whose_trigger_is_seeded() {
        let bg = vec![axiom_p_of_f()];
        let seed = F::eq(T::uninterp("f", vec![T::var("a")]), T::var("b"));
        let slice = slice_background(&bg, [&seed]);
        assert_eq!(slice.keep, vec![true]);
        assert_eq!(slice.dropped(), 0);
    }

    #[test]
    fn closure_chains_through_kept_axiom_bodies() {
        // Seed mentions f; axiom_h_from_f fires and introduces h; axiom_on_h
        // must therefore be kept too.
        let bg = vec![axiom_h_from_f(), axiom_on_h()];
        let seed = F::eq(T::uninterp("f", vec![T::var("a")]), T::var("b"));
        let slice = slice_background(&bg, [&seed]);
        assert_eq!(slice.keep, vec![true, true]);
        // Without the f-seed, neither can fire.
        let other = F::eq(T::var("a"), T::var("b"));
        let slice = slice_background(&bg, [&other]);
        assert_eq!(slice.keep, vec![false, false]);
    }

    #[test]
    fn fixpoint_reaches_axioms_enabled_late_in_the_list() {
        // axiom_on_h appears *before* its enabler: one left-to-right pass
        // is not enough, the fixpoint must loop.
        let bg = vec![axiom_on_h(), axiom_h_from_f()];
        let seed = F::eq(T::uninterp("f", vec![T::var("a")]), T::var("b"));
        let slice = slice_background(&bg, [&seed]);
        assert_eq!(slice.keep, vec![true, true]);
    }

    #[test]
    fn ground_facts_are_always_kept_and_contribute() {
        // A ground fact mentioning f enables the f-triggered axiom even
        // when the obligation itself never mentions f.
        let fact = F::eq(T::uninterp("f", vec![T::var("c")]), T::var("c"));
        let bg = vec![fact, axiom_p_of_f()];
        let seed = F::eq(T::var("a"), T::var("b"));
        let slice = slice_background(&bg, [&seed]);
        assert_eq!(slice.keep, vec![true, true]);
    }

    #[test]
    fn attribute_constants_are_tokens() {
        // ∀S,X {select(S, X, #vec)} :: …
        let read = T::select(T::var("S"), T::var("X"), T::attr("vec"));
        let axiom = F::forall(
            vec!["S".into(), "X".into()],
            vec![Trigger(vec![Pattern::Term(read)])],
            F::eq(read, read),
        );
        let bg = vec![axiom];
        let with_vec = F::eq(
            T::select(T::store(), T::var("t"), T::attr("vec")),
            T::null(),
        );
        assert_eq!(slice_background(&bg, [&with_vec]).keep, vec![true]);
        let with_cnt = F::eq(
            T::select(T::store(), T::var("t"), T::attr("cnt")),
            T::null(),
        );
        assert_eq!(slice_background(&bg, [&with_cnt]).keep, vec![false]);
    }

    #[test]
    fn multipattern_triggers_need_every_pattern_reachable() {
        // ∀X {f(X), g(X)} :: … — needs BOTH f and g in the closure.
        let axiom = F::forall(
            vec!["X".into()],
            vec![Trigger(vec![
                Pattern::Term(T::uninterp("f", vec![T::var("X")])),
                Pattern::Term(T::uninterp("g", vec![T::var("X")])),
            ])],
            F::Atom(Atom::IsObj(T::var("X"))),
        );
        let bg = vec![axiom];
        let f_only = F::eq(T::uninterp("f", vec![T::var("a")]), T::var("b"));
        assert_eq!(slice_background(&bg, [&f_only]).keep, vec![false]);
        let g_also = F::eq(T::uninterp("g", vec![T::var("a")]), T::var("b"));
        assert_eq!(slice_background(&bg, [&f_only, &g_also]).keep, vec![true]);
    }

    #[test]
    fn alternative_triggers_need_only_one_viable() {
        let axiom = F::forall(
            vec!["X".into()],
            vec![
                Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]),
                Trigger(vec![Pattern::Term(T::uninterp("g", vec![T::var("X")]))]),
            ],
            F::Atom(Atom::IsObj(T::var("X"))),
        );
        let bg = vec![axiom];
        let g_only = F::eq(T::uninterp("g", vec![T::var("a")]), T::var("b"));
        assert_eq!(slice_background(&bg, [&g_only]).keep, vec![true]);
    }

    #[test]
    fn predicate_heads_are_tokens() {
        // An axiom triggered on an Inc atom is droppable when the
        // obligation's vocabulary has no Inc at all.
        let inc = Atom::Inc {
            store: T::var("S"),
            obj: T::var("X"),
            attr: T::var("A"),
            obj2: T::var("Y"),
            attr2: T::var("B"),
        };
        let axiom = F::forall(
            vec!["S".into(), "X".into(), "A".into(), "Y".into(), "B".into()],
            vec![Trigger(vec![Pattern::Atom(inc)])],
            F::Atom(inc),
        );
        let bg = vec![axiom];
        let no_inc = F::eq(T::var("a"), T::var("b"));
        assert_eq!(slice_background(&bg, [&no_inc]).keep, vec![false]);
        let with_inc = F::Atom(Atom::Inc {
            store: T::store(),
            obj: T::var("t"),
            attr: T::attr("g"),
            obj2: T::var("t"),
            attr2: T::attr("g"),
        });
        assert_eq!(slice_background(&bg, [&with_inc]).keep, vec![true]);
    }

    #[test]
    fn untriggered_universals_are_never_sliced() {
        let axiom = F::forall(
            vec!["X".into()],
            Vec::new(),
            F::Atom(Atom::IsObj(T::var("X"))),
        );
        assert!(!is_sliceable(&axiom));
        let bg = vec![axiom];
        let seed = F::eq(T::var("a"), T::var("b"));
        assert_eq!(slice_background(&bg, [&seed]).keep, vec![true]);
    }
}
